/**
 * @file
 * Integration tests on the full processor: both configurations run to
 * completion, commit exactly the requested instruction count, maintain
 * machine invariants (no lost instructions, monotonic commit), are
 * deterministic, expose sensible statistics, and can be torn down
 * at any point of a run.
 */

#include <gtest/gtest.h>

#include "core/processor.hh"

using namespace gals;

namespace
{

struct SimRun
{
    EventQueue eq;
    ProcessorConfig cfg;
    std::unique_ptr<Processor> proc;

    explicit SimRun(bool gals_mode, const std::string &bench = "gcc",
                 std::uint64_t insts = 5000,
                 DvfsSetting dvfs = DvfsSetting(),
                 std::uint64_t seed = 0)
    {
        cfg.gals = gals_mode;
        cfg.dvfs = gals_mode ? dvfs : DvfsSetting();
        cfg.phaseSeed = seed;
        proc = std::make_unique<Processor>(eq, cfg,
                                           findBenchmark(bench), seed);
        proc->run(insts);
    }
};

} // namespace

TEST(Processor, BaseRunsToCompletion)
{
    SimRun r(false);
    EXPECT_EQ(r.proc->decodeUnit().commitStats().committed, 5000u);
    EXPECT_GT(r.proc->runTicks(), 0u);
}

TEST(Processor, GalsRunsToCompletion)
{
    SimRun r(true);
    EXPECT_EQ(r.proc->decodeUnit().commitStats().committed, 5000u);
}

TEST(Processor, AllCorrectPathInstructionsCommit)
{
    SimRun r(false);
    const auto &f = r.proc->fetch();
    // fetched = committed correct path + wrong path fetches.
    EXPECT_EQ(f.fetched() - f.wrongPathFetched(), 5000u);
}

TEST(Processor, DeterministicAcrossRuns)
{
    SimRun a(true, "compress", 4000);
    SimRun b(true, "compress", 4000);
    EXPECT_EQ(a.proc->runTicks(), b.proc->runTicks());
    EXPECT_EQ(a.proc->fetch().fetched(), b.proc->fetch().fetched());
    EXPECT_DOUBLE_EQ(a.proc->finalizeEnergyNj(),
                     b.proc->finalizeEnergyNj());
}

TEST(Processor, PhaseSeedChangesGalsTimingOnly)
{
    SimRun a(true, "gcc", 4000, DvfsSetting(), 1);
    SimRun b(true, "gcc", 4000, DvfsSetting(), 2);
    // Different phases: timing may differ slightly...
    // (it is legal for them to coincide, so only sanity-check commits)
    EXPECT_EQ(a.proc->decodeUnit().commitStats().committed,
              b.proc->decodeUnit().commitStats().committed);
}

TEST(Processor, BaseDomainsShareClockGalsDomainsDiffer)
{
    SimRun base(false);
    for (unsigned i = 0; i < numDomains; ++i) {
        EXPECT_EQ(base.proc->domain(static_cast<DomainId>(i)).period(),
                  base.cfg.nominalPeriod);
        EXPECT_EQ(base.proc->domain(static_cast<DomainId>(i)).phase(),
                  0u);
    }

    SimRun gals_run(true);
    bool any_phase = false;
    for (unsigned i = 0; i < numDomains; ++i)
        any_phase = any_phase ||
                    gals_run.proc->domain(static_cast<DomainId>(i))
                            .phase() != 0;
    EXPECT_TRUE(any_phase);
}

TEST(Processor, DvfsSlowsDomainAndScalesVdd)
{
    DvfsSetting dvfs;
    dvfs.slowdown[domainIndex(DomainId::fpd)] = 2.0;
    SimRun r(true, "gcc", 3000, dvfs);
    EXPECT_EQ(r.proc->domain(DomainId::fpd).period(), 2000u);
    EXPECT_LT(r.proc->domain(DomainId::fpd).vdd(), 1.5);
    EXPECT_EQ(r.proc->domain(DomainId::intd).period(), 1000u);
}

TEST(Processor, ChannelsAreLatchesInBaseFifosInGals)
{
    SimRun base(false);
    for (const ChannelBase *ch : base.proc->channels())
        EXPECT_FALSE(ch->isAsync());
    SimRun g(true);
    for (const ChannelBase *ch : g.proc->channels())
        EXPECT_TRUE(ch->isAsync());
}

TEST(Processor, FifoResidencyOnlyInGals)
{
    SimRun base(false, "gcc", 4000);
    SimRun g(true, "gcc", 4000);
    const auto &bs = base.proc->decodeUnit().commitStats();
    const auto &gs = g.proc->decodeUnit().commitStats();
    EXPECT_DOUBLE_EQ(bs.fifoSlipSumTicks, 0.0);
    EXPECT_GT(gs.fifoSlipSumTicks, 0.0);
}

TEST(Processor, GalsIsSlowerThanBase)
{
    SimRun base(false, "gcc", 8000);
    SimRun g(true, "gcc", 8000);
    EXPECT_GT(g.proc->runTicks(), base.proc->runTicks());
}

TEST(Processor, GlobalClockEnergyOnlyInBase)
{
    SimRun base(false, "gcc", 3000);
    SimRun g(true, "gcc", 3000);
    EXPECT_GT(base.proc->energy().unitEnergyNj(Unit::globalClock), 0.0);
    EXPECT_DOUBLE_EQ(g.proc->energy().unitEnergyNj(Unit::globalClock),
                     0.0);
}

TEST(Processor, FifoEnergyOnlyInGals)
{
    SimRun base(false, "gcc", 3000);
    SimRun g(true, "gcc", 3000);
    base.proc->finalizeEnergyNj();
    g.proc->finalizeEnergyNj();
    EXPECT_DOUBLE_EQ(base.proc->energy().unitEnergyNj(Unit::fifo), 0.0);
    EXPECT_GT(g.proc->energy().unitEnergyNj(Unit::fifo), 0.0);
}

TEST(Processor, EnergyPositiveEverywhereItShouldBe)
{
    SimRun r(false, "fpppp", 5000);
    r.proc->finalizeEnergyNj();
    const auto &ea = r.proc->energy();
    EXPECT_GT(ea.unitEnergyNj(Unit::icache), 0.0);
    EXPECT_GT(ea.unitEnergyNj(Unit::dcache), 0.0);
    EXPECT_GT(ea.unitEnergyNj(Unit::fpAlu), 0.0);
    EXPECT_GT(ea.unitEnergyNj(Unit::regfileFp), 0.0);
    EXPECT_GT(ea.totalNj(), 0.0);
}

TEST(Processor, CommitTimesMonotonic)
{
    // lastCommitTick only moves forward and ends at the run end.
    SimRun r(false, "li", 4000);
    const auto &cs = r.proc->decodeUnit().commitStats();
    EXPECT_LE(cs.lastCommitTick, r.proc->runTicks());
    EXPECT_GT(cs.lastCommitTick, 0u);
}

TEST(Processor, MispredictsRecoveredExactly)
{
    SimRun r(false, "compress", 8000);
    // Every resolved mispredict produced exactly one redirect.
    EXPECT_EQ(r.proc->fetch().redirects(),
              r.proc->decodeUnit().commitStats().committedMispredicts);
}

TEST(Processor, OccupanciesWithinCapacities)
{
    SimRun r(true, "swim", 5000);
    EXPECT_LE(r.proc->decodeUnit().avgRobOccupancy(),
              r.proc->config().core.robSize);
    EXPECT_LE(r.proc->intCluster().avgQueueOccupancy(),
              r.proc->config().core.intQueueSize);
    EXPECT_LE(r.proc->fpCluster().avgQueueOccupancy(),
              r.proc->config().core.fpQueueSize);
    EXPECT_LE(r.proc->memCluster().avgQueueOccupancy(),
              r.proc->config().core.memQueueSize);
}

TEST(Processor, LoadsAndStoresReachTheCaches)
{
    SimRun r(false, "vortex", 6000);
    EXPECT_GT(r.proc->caches().dl1().accesses(), 1000u);
    EXPECT_GT(r.proc->caches().il1().accesses(), 1000u);
}

TEST(Processor, BranchStatsConsistent)
{
    SimRun r(false, "gcc", 8000);
    const auto &cs = r.proc->decodeUnit().commitStats();
    EXPECT_GT(cs.committedBranches, 500u);
    EXPECT_LT(cs.committedMispredicts, cs.committedBranches);
}

TEST(Processor, ValidatesBadConfig)
{
    ProcessorConfig cfg;
    cfg.fifoCapacity = 1;
    EXPECT_DEATH(
        {
            EventQueue eq;
            Processor p(eq, cfg, findBenchmark("gcc"));
        },
        "FIFO capacity");
}

TEST(Processor, FixedPhaseReproducible)
{
    ProcessorConfig cfg;
    cfg.gals = true;
    cfg.randomPhase = false;
    EventQueue eq;
    Processor p(eq, cfg, findBenchmark("adpcm"));
    p.run(2000);
    for (unsigned i = 0; i < numDomains; ++i)
        EXPECT_EQ(p.domain(static_cast<DomainId>(i)).phase(), 0u);
}

namespace
{

/** A machine started on a long run, advanced one event at a time. */
struct PartialRun
{
    EventQueue eq;
    std::unique_ptr<Processor> proc;

    PartialRun(bool gals_mode, const std::string &bench)
    {
        ProcessorConfig cfg;
        cfg.gals = gals_mode;
        proc = std::make_unique<Processor>(eq, cfg, findBenchmark(bench));
        proc->prepareRun(1000000);
        Rng phase_rng(3);
        proc->startClocks(phase_rng);
    }

    /** Instructions sit in every inspectable holder at once. */
    bool
    inFlightEverywhere()
    {
        Processor &p = *proc;
        if (p.decodeUnit().rob().size() == 0 ||
            p.memCluster().lsq()->size() == 0)
            return false;
        for (ExecDomain *e :
             {&p.intCluster(), &p.fpCluster(), &p.memCluster()})
            if (e->queue().size() == 0)
                return false;
        // The fetch and dispatch channels carry DynInstPtrs.
        for (const ChannelBase *ch : p.channels())
            if ((ch->name() == "ch.fetch2decode" ||
                 ch->name().rfind("ch.disp2", 0) == 0) &&
                ch->occupancy() == 0)
                return false;
        return true;
    }
};

} // namespace

/**
 * The Processor owns the storage of its in-flight instructions, and
 * the pool's destructor panics if any DynInstPtr outlives it. Tear
 * machines down mid-run: once with instructions in the channels, the
 * ROB, all three issue queues and the LSQ at the same time, then at a
 * spread of points that also catch fetch's pending slot (an I-cache
 * miss), the decode pipe and the completion heaps.
 */
TEST(Processor, TeardownMidRunReturnsEveryInstruction)
{
    for (const bool gals_mode : {false, true}) {
        PartialRun r(gals_mode, "swim");
        std::uint64_t events = 0;
        while (!r.inFlightEverywhere() && events++ < 500000)
            r.eq.serviceOne();
        ASSERT_TRUE(r.inFlightEverywhere()) << "gals=" << gals_mode;
        EXPECT_GT(r.proc->instPool().outstanding(), 10u);
        r.proc.reset();

        for (const std::uint64_t stop : {1u, 97u, 1009u, 4999u, 20011u}) {
            PartialRun s(gals_mode, "gcc");
            for (std::uint64_t i = 0; i < stop; ++i)
                s.eq.serviceOne();
            s.proc.reset();
        }
    }
}

/**
 * Channel storage follows traffic, not the modelled depth: after a
 * GALS run the message FIFOs, modelled msgFifoCapacity (4096) deep,
 * hold a few dozen slots at most, and no channel holds more than its
 * capacity.
 */
TEST(Processor, MessageChannelStorageFollowsOccupancy)
{
    SimRun r(true);
    std::size_t messageChannels = 0;
    for (const ChannelBase *ch : r.proc->channels()) {
        EXPECT_LE(ch->storageSlots(), ch->capacity()) << ch->name();
        if (ch->capacity() != r.cfg.msgFifoCapacity)
            continue;
        ++messageChannels;
        EXPECT_LE(ch->storageSlots(), 64u) << ch->name();
    }
    EXPECT_EQ(messageChannels, 11u);
}
