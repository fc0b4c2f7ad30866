/**
 * @file
 * Runtime energy accounting.
 *
 * Pipeline stages report per-cycle access counts for each macro block;
 * at the end of each clock-domain cycle the account charges
 * n * E_access for active blocks and idleFraction * E_access for idle
 * ones (conditional clocking, paper section 4.3), plus the domain's
 * local clock-grid energy — and, in the base processor only, the
 * global clock grid. All charges scale with the square of the owning
 * domain's supply voltage, which is how per-domain voltage scaling
 * (section 5.2) enters the bookkeeping.
 */

#ifndef POWER_ENERGY_ACCOUNT_HH
#define POWER_ENERGY_ACCOUNT_HH

#include <array>
#include <cstdint>

#include "power/power_model.hh"

namespace gals
{

/**
 * Accumulates per-unit energies over a simulation run.
 */
class EnergyAccount
{
  public:
    explicit EnergyAccount(const PowerModel &model);

    /** Record @p n accesses to @p u in the current cycle. */
    void
    chargeAccess(Unit u, unsigned n = 1)
    {
        cycleAccesses_[static_cast<unsigned>(u)] += n;
    }

    /**
     * Charge @p n events against @p u immediately at supply @p vdd
     * (used for FIFO pushes/pops and result-bus transfers, which are
     * not per-cycle gated structures).
     */
    void chargeImmediate(Unit u, std::uint64_t n, double vdd);

    /** Charge a raw energy (nJ at nominal V) to @p u at @p vdd. */
    void chargeEnergyNj(Unit u, double nj, double vdd);

    /**
     * Close one cycle of clock domain @p d at supply @p vdd: charge
     * active/idle energies for the domain's blocks plus its local
     * clock grid.
     */
    void
    domainCycle(DomainId d, double vdd)
    {
        domainCycleAtScale(d, model_.tech().energyScale(vdd));
    }

    /** domainCycle() with the voltage scale precomputed:
     *  @p scale == model().tech().energyScale(vdd). */
    void domainCycleAtScale(DomainId d, double scale);

    /** Charge one global-clock-grid cycle (base processor only). */
    void globalClockCycle(double vdd);

    /** Accumulated energy of one unit, nJ. */
    double
    unitEnergyNj(Unit u) const
    {
        return energyNj_[static_cast<unsigned>(u)];
    }

    /** Total accumulated energy, nJ. */
    double totalNj() const;

    /** Total over the six clock-grid units, nJ. */
    double clockEnergyNj() const;

    const PowerModel &model() const { return model_; }

    void reset();

  private:
    /** One per-cycle gated unit: charged n * accessNj when accessed
     *  this cycle, idleNj (idleFraction * accessNj) otherwise. */
    struct GatedUnit
    {
        std::uint8_t unit;
        double accessNj;
        double idleNj;
    };

    const PowerModel &model_;
    std::array<std::uint64_t, numUnits> cycleAccesses_{};
    std::array<double, numUnits> energyNj_{};

    /** The close-out tables, built once from unitDomain(): the gated
     *  units of domain d are gated_[domainBegin_[d] .. domainBegin_[d+1])
     *  in ascending unit order, and its clock grid is clockUnit_[d]. */
    std::array<GatedUnit, numUnits> gated_{};
    std::array<std::uint8_t, numDomains + 1> domainBegin_{};
    std::array<std::uint8_t, numDomains> clockUnit_{};
    std::array<double, numDomains> clockNj_{};
};

/** The clock-grid unit of a domain. */
Unit clockUnitOf(DomainId d);

} // namespace gals

#endif // POWER_ENERGY_ACCOUNT_HH
