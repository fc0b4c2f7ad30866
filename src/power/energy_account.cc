#include "power/energy_account.hh"

#include "sim/logging.hh"

namespace gals
{

Unit
clockUnitOf(DomainId d)
{
    switch (d) {
      case DomainId::fetch:
        return Unit::fetchClock;
      case DomainId::decode:
        return Unit::decodeClock;
      case DomainId::intd:
        return Unit::intClock;
      case DomainId::fpd:
        return Unit::fpClock;
      case DomainId::memd:
        return Unit::memClock;
      default:
        gals_panic("bad domain id");
    }
}

EnergyAccount::EnergyAccount(const PowerModel &model) : model_(model)
{
    const double idle = model_.tech().idleFraction;
    unsigned n = 0;
    for (unsigned d = 0; d < numDomains; ++d) {
        const auto id = static_cast<DomainId>(d);
        domainBegin_[d] = static_cast<std::uint8_t>(n);
        for (unsigned i = 0; i < numUnits; ++i) {
            const Unit u = static_cast<Unit>(i);
            if (isClockUnit(u) || u == Unit::fifo || u == Unit::resultBus)
                continue; // charged per event, not per cycle
            if (unitDomain(u) != id)
                continue;
            const double ea = model_.accessEnergyNj(u);
            gated_[n++] = {static_cast<std::uint8_t>(i), ea, idle * ea};
        }
        const Unit clk = clockUnitOf(id);
        clockUnit_[d] = static_cast<std::uint8_t>(clk);
        clockNj_[d] = model_.accessEnergyNj(clk);
    }
    domainBegin_[numDomains] = static_cast<std::uint8_t>(n);
}

void
EnergyAccount::chargeImmediate(Unit u, std::uint64_t n, double vdd)
{
    const double scale = model_.tech().energyScale(vdd);
    energyNj_[static_cast<unsigned>(u)] +=
        n * model_.accessEnergyNj(u) * scale;
}

void
EnergyAccount::chargeEnergyNj(Unit u, double nj, double vdd)
{
    const double scale = model_.tech().energyScale(vdd);
    energyNj_[static_cast<unsigned>(u)] += nj * scale;
}

void
EnergyAccount::domainCycleAtScale(DomainId d, double scale)
{
    const unsigned di = domainIndex(d);
    gals_assert(di < numDomains, "bad domain id");

    // Same operand order as the per-unit formula (n * ea * scale and
    // (idle * ea) * scale), so every accumulated sum is bit-exact.
    for (unsigned k = domainBegin_[di]; k < domainBegin_[di + 1]; ++k) {
        const GatedUnit &g = gated_[k];
        std::uint64_t &n = cycleAccesses_[g.unit];
        if (n > 0) {
            energyNj_[g.unit] += n * g.accessNj * scale;
            n = 0;
        } else {
            energyNj_[g.unit] += g.idleNj * scale;
        }
    }
    energyNj_[clockUnit_[di]] += clockNj_[di] * scale;
}

void
EnergyAccount::globalClockCycle(double vdd)
{
    chargeImmediate(Unit::globalClock, 1, vdd);
}

double
EnergyAccount::totalNj() const
{
    double sum = 0.0;
    for (const double e : energyNj_)
        sum += e;
    return sum;
}

double
EnergyAccount::clockEnergyNj() const
{
    double sum = 0.0;
    for (unsigned i = 0; i < numUnits; ++i)
        if (isClockUnit(static_cast<Unit>(i)))
            sum += energyNj_[i];
    return sum;
}

void
EnergyAccount::reset()
{
    cycleAccesses_.fill(0);
    energyNj_.fill(0.0);
}

} // namespace gals
