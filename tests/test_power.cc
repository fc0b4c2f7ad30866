/**
 * @file
 * Tests for the power models: positivity and monotonicity of the
 * analytic capacitance models, clock-grid energies, the per-unit
 * energy table, voltage-squared scaling and the conditional-clocking
 * (10% idle) accounting of EnergyAccount.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>

#include "cpu/core_config.hh"
#include "power/array_model.hh"
#include "power/bus_model.hh"
#include "power/cam_model.hh"
#include "power/clock_grid.hh"
#include "power/energy_account.hh"
#include "power/logic_model.hh"
#include "power/power_model.hh"

using namespace gals;

namespace
{

const TechParams &tech = defaultTech();

PowerModel
makeModel()
{
    CoreConfig core;
    return PowerModel(core, tech, defaultClockHierarchy());
}

/** The per-unit close-out walk domainCycle() replaced: every unit,
 *  classified on the fly. Kept as the bit-exactness reference. */
struct ReferenceAccount
{
    const PowerModel &model;
    std::array<std::uint64_t, numUnits> accesses{};
    std::array<double, numUnits> energy{};

    void
    domainCycle(DomainId d, double vdd)
    {
        const double scale = model.tech().energyScale(vdd);
        const double idle = model.tech().idleFraction;
        for (unsigned i = 0; i < numUnits; ++i) {
            const Unit u = static_cast<Unit>(i);
            if (isClockUnit(u) || u == Unit::fifo ||
                u == Unit::resultBus || unitDomain(u) != d)
                continue;
            const double ea = model.accessEnergyNj(u);
            if (accesses[i] > 0) {
                energy[i] += accesses[i] * ea * scale;
                accesses[i] = 0;
            } else {
                energy[i] += idle * ea * scale;
            }
        }
        const Unit clk = clockUnitOf(d);
        energy[static_cast<unsigned>(clk)] +=
            model.accessEnergyNj(clk) * scale;
    }
};

} // namespace

TEST(ArrayModel, PositiveEnergy)
{
    ArrayGeometry g{64, 64, 1, 1};
    EXPECT_GT(arrayAccessEnergyNj(g, tech), 0.0);
}

TEST(ArrayModel, MonotonicInRowsAndCols)
{
    ArrayGeometry small{32, 64, 1, 1};
    ArrayGeometry tall{128, 64, 1, 1};
    ArrayGeometry wide{32, 256, 1, 1};
    const double e0 = arrayAccessEnergyNj(small, tech);
    EXPECT_GT(arrayAccessEnergyNj(tall, tech), e0);
    EXPECT_GT(arrayAccessEnergyNj(wide, tech), e0);
}

TEST(ArrayModel, PortsCostEnergy)
{
    ArrayGeometry p1{64, 64, 1, 1};
    ArrayGeometry p8{64, 64, 8, 4};
    EXPECT_GT(arrayAccessEnergyNj(p8, tech),
              arrayAccessEnergyNj(p1, tech));
}

TEST(ArrayModel, CacheSubBankingKeepsBigCachesReasonable)
{
    // A 16x larger cache must cost more than a small one, but far less
    // than 16x (sub-banking activates one bank + routing).
    const double e16k = cacheAccessEnergyNj(16 * 1024, 128, 4, 32, tech);
    const double e256k =
        cacheAccessEnergyNj(256 * 1024, 2048, 4, 32, tech);
    EXPECT_GT(e256k, e16k);
    EXPECT_LT(e256k, 8.0 * e16k);
}

TEST(CamModel, GrowsWithEntriesAndTagBits)
{
    const double e = camSearchEnergyNj(16, 8, tech);
    EXPECT_GT(camSearchEnergyNj(32, 8, tech), e);
    EXPECT_GT(camSearchEnergyNj(16, 16, tech), e);
    EXPECT_GT(camWriteEnergyNj(16, 80, tech), 0.0);
}

TEST(LogicModel, RelativeOpCosts)
{
    const double add = fuOpEnergyNj(InstClass::intAlu, tech);
    EXPECT_GT(add, 0.0);
    EXPECT_GT(fuOpEnergyNj(InstClass::intMult, tech), add);
    EXPECT_GT(fuOpEnergyNj(InstClass::fpDiv, tech),
              fuOpEnergyNj(InstClass::fpMult, tech));
    EXPECT_LT(fuOpEnergyNj(InstClass::load, tech), add);
}

TEST(BusModel, ScalesWithBitsAndLength)
{
    const double e = busTransferEnergyNj(64, 5.0, tech);
    EXPECT_NEAR(busTransferEnergyNj(128, 5.0, tech), 2 * e, 1e-9);
    EXPECT_NEAR(busTransferEnergyNj(64, 10.0, tech), 2 * e, 1e-9);
}

TEST(ClockGrid, EnergyQuadraticInVdd)
{
    const ClockGridSpec spec{1.0, 10000.0};
    const double e15 = clockGridEnergyPerCycleNj(spec, 1.5, tech);
    const double e075 = clockGridEnergyPerCycleNj(spec, 0.75, tech);
    EXPECT_NEAR(e15 / e075, 4.0, 1e-9);
}

TEST(ClockGrid, GlobalIsSignificantShareOfHierarchy)
{
    // The global grid must be a significant (~10-25%) share of total
    // clock energy: that share is exactly what the GALS design saves
    // (calibrated so it is ~10% of *total* chip power, see the paper's
    // Figure 9/10 discussion).
    const auto &h = defaultClockHierarchy();
    const double g = clockGridEnergyPerCycleNj(h.global, 1.5, tech);
    double total = g;
    for (const auto *local :
         {&h.fetch, &h.decode, &h.intCore, &h.fpCore, &h.memCore})
        total += clockGridEnergyPerCycleNj(*local, 1.5, tech);
    EXPECT_GT(g / total, 0.10);
    EXPECT_LT(g / total, 0.40);
}

TEST(PowerModel, AllUnitsHavePositiveEnergy)
{
    const PowerModel pm = makeModel();
    for (unsigned i = 0; i < numUnits; ++i)
        EXPECT_GT(pm.accessEnergyNj(static_cast<Unit>(i)), 0.0)
            << unitName(static_cast<Unit>(i));
}

TEST(PowerModel, L2CostsMoreThanL1)
{
    const PowerModel pm = makeModel();
    EXPECT_GT(pm.accessEnergyNj(Unit::l2cache),
              pm.accessEnergyNj(Unit::dcache));
}

TEST(PowerModel, UnitDomainAssignmentsMatchPaperPartitioning)
{
    EXPECT_EQ(unitDomain(Unit::icache), DomainId::fetch);
    EXPECT_EQ(unitDomain(Unit::bpred), DomainId::fetch);
    EXPECT_EQ(unitDomain(Unit::renameTable), DomainId::decode);
    EXPECT_EQ(unitDomain(Unit::rob), DomainId::decode);
    EXPECT_EQ(unitDomain(Unit::intAlu), DomainId::intd);
    EXPECT_EQ(unitDomain(Unit::fpIssueQueue), DomainId::fpd);
    EXPECT_EQ(unitDomain(Unit::dcache), DomainId::memd);
    EXPECT_EQ(unitDomain(Unit::l2cache), DomainId::memd);
}

TEST(PowerModel, ClockUnitClassification)
{
    EXPECT_TRUE(isClockUnit(Unit::globalClock));
    EXPECT_TRUE(isClockUnit(Unit::memClock));
    EXPECT_FALSE(isClockUnit(Unit::dcache));
    EXPECT_EQ(clockUnitOf(DomainId::fetch), Unit::fetchClock);
    EXPECT_EQ(clockUnitOf(DomainId::memd), Unit::memClock);
}

TEST(EnergyAccount, ActiveChargesPerAccess)
{
    const PowerModel pm = makeModel();
    EnergyAccount ea(pm);
    ea.chargeAccess(Unit::intAlu, 3);
    ea.domainCycle(DomainId::intd, tech.vddNominal);
    const double expect = 3 * pm.accessEnergyNj(Unit::intAlu);
    // The cycle also charges idle fractions of the other int-domain
    // units plus the int clock grid.
    EXPECT_NEAR(ea.unitEnergyNj(Unit::intAlu), expect, 1e-9);
}

TEST(EnergyAccount, IdleChargesTenPercent)
{
    const PowerModel pm = makeModel();
    EnergyAccount ea(pm);
    ea.domainCycle(DomainId::intd, tech.vddNominal);
    EXPECT_NEAR(ea.unitEnergyNj(Unit::intAlu),
                0.10 * pm.accessEnergyNj(Unit::intAlu), 1e-9);
}

TEST(EnergyAccount, ClockChargedEveryCycle)
{
    const PowerModel pm = makeModel();
    EnergyAccount ea(pm);
    for (int i = 0; i < 5; ++i)
        ea.domainCycle(DomainId::fetch, tech.vddNominal);
    EXPECT_NEAR(ea.unitEnergyNj(Unit::fetchClock),
                5 * pm.accessEnergyNj(Unit::fetchClock), 1e-9);
}

TEST(EnergyAccount, VoltageScalingQuadratic)
{
    const PowerModel pm = makeModel();
    EnergyAccount hi(pm), lo(pm);
    hi.chargeAccess(Unit::fpAlu, 1);
    hi.domainCycle(DomainId::fpd, 1.5);
    lo.chargeAccess(Unit::fpAlu, 1);
    lo.domainCycle(DomainId::fpd, 0.75);
    EXPECT_NEAR(hi.unitEnergyNj(Unit::fpAlu) /
                    lo.unitEnergyNj(Unit::fpAlu),
                4.0, 1e-9);
}

TEST(EnergyAccount, CountersClearAfterCycle)
{
    const PowerModel pm = makeModel();
    EnergyAccount ea(pm);
    ea.chargeAccess(Unit::dcache, 2);
    ea.domainCycle(DomainId::memd, tech.vddNominal);
    const double after_first = ea.unitEnergyNj(Unit::dcache);
    ea.domainCycle(DomainId::memd, tech.vddNominal);
    // Second cycle: idle only.
    EXPECT_NEAR(ea.unitEnergyNj(Unit::dcache) - after_first,
                0.10 * pm.accessEnergyNj(Unit::dcache), 1e-9);
}

TEST(EnergyAccount, OtherDomainsUntouched)
{
    const PowerModel pm = makeModel();
    EnergyAccount ea(pm);
    ea.chargeAccess(Unit::icache, 1);
    ea.domainCycle(DomainId::memd, tech.vddNominal); // wrong domain
    EXPECT_DOUBLE_EQ(ea.unitEnergyNj(Unit::icache), 0.0);
    ea.domainCycle(DomainId::fetch, tech.vddNominal);
    EXPECT_NEAR(ea.unitEnergyNj(Unit::icache),
                pm.accessEnergyNj(Unit::icache), 1e-9);
}

TEST(EnergyAccount, GlobalClockAndTotals)
{
    const PowerModel pm = makeModel();
    EnergyAccount ea(pm);
    ea.globalClockCycle(tech.vddNominal);
    EXPECT_NEAR(ea.unitEnergyNj(Unit::globalClock),
                pm.accessEnergyNj(Unit::globalClock), 1e-9);
    EXPECT_NEAR(ea.clockEnergyNj(), ea.totalNj(), 1e-9);
    ea.reset();
    EXPECT_DOUBLE_EQ(ea.totalNj(), 0.0);
}

TEST(EnergyAccount, ImmediateChargesBypassGating)
{
    const PowerModel pm = makeModel();
    EnergyAccount ea(pm);
    ea.chargeImmediate(Unit::fifo, 10, tech.vddNominal);
    EXPECT_NEAR(ea.unitEnergyNj(Unit::fifo),
                10 * pm.accessEnergyNj(Unit::fifo), 1e-9);
}

TEST(EnergyAccount, DomainCycleBitExactAgainstPerUnitWalk)
{
    const PowerModel pm = makeModel();
    EnergyAccount ea(pm);
    ReferenceAccount ref{pm};
    std::uint64_t lcg = 12345;
    for (int cycle = 0; cycle < 200; ++cycle) {
        for (unsigned d = 0; d < numDomains; ++d) {
            for (const double vdd : {1.5, 1.2, 0.9}) {
                // A pseudo-random mix of the domain's units: about half
                // active with 1..63 accesses, the rest idle this cycle.
                const auto id = static_cast<DomainId>(d);
                for (unsigned i = 0; i < numUnits; ++i) {
                    lcg = lcg * 6364136223846793005ull +
                          1442695040888963407ull;
                    const unsigned n =
                        (lcg >> 33) % 2 ? (lcg >> 40) % 63 + 1 : 0;
                    if (n == 0 || unitDomain(static_cast<Unit>(i)) != id)
                        continue;
                    ea.chargeAccess(static_cast<Unit>(i), n);
                    ref.accesses[i] += n;
                }
                ea.domainCycle(id, vdd);
                ref.domainCycle(id, vdd);
                for (unsigned i = 0; i < numUnits; ++i) {
                    const Unit u = static_cast<Unit>(i);
                    const double got = ea.unitEnergyNj(u);
                    ASSERT_EQ(std::memcmp(&got, &ref.energy[i], sizeof got),
                              0)
                        << unitName(u) << " domain " << d << " vdd " << vdd
                        << " cycle " << cycle;
                }
            }
        }
    }
}
