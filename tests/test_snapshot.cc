/**
 * @file
 * Warm-state checkpointing tests (core/snapshot.hh): per-unit
 * save/restore round trips, strict rejection of damaged or foreign
 * snapshot bytes, the warmup-key sharing rules, and the headline
 * contract — a memoized warm run is byte-identical to the same sweep
 * run cold, at any job count.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bpred/bpred.hh"
#include "cache/cache.hh"
#include "core/snapshot.hh"
#include "cpu/rename.hh"
#include "runner/engine.hh"
#include "runner/reporter.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/snapshot_io.hh"
#include "workload/generator.hh"

using namespace gals;

namespace
{

/** A fresh machine for the config, built exactly as runOne builds
 *  the measured-region machine. */
struct Machine
{
    explicit Machine(const RunConfig &cfg)
        : eq("eq.snaptest"),
          proc(eq, procCfg(cfg), findBenchmark(cfg.benchmark),
               cfg.seed)
    {
    }

    static ProcessorConfig
    procCfg(const RunConfig &cfg)
    {
        ProcessorConfig pc = cfg.proc;
        pc.gals = cfg.gals;
        pc.dvfs = cfg.gals ? cfg.dvfs : DvfsSetting();
        pc.phaseSeed = effectivePhaseSeed(cfg);
        return pc;
    }

    EventQueue eq;
    Processor proc;
};

RunConfig
warmCfg()
{
    RunConfig cfg;
    cfg.benchmark = "gcc";
    cfg.gals = true;
    cfg.instructions = 6000;
    cfg.warmupInstructions = 4000;
    cfg.seed = 7;
    return cfg;
}

/** A 4-cell DVFS sweep sharing one warmup stem. */
std::vector<RunConfig>
warmGrid()
{
    std::vector<RunConfig> cfgs;
    for (const double slow : {1.0, 1.2, 1.5, 2.0}) {
        RunConfig cfg = warmCfg();
        cfg.dvfs.slowdown[domainIndex(DomainId::fpd)] = slow;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

/** Run the warm grid and serialize every record to JSON lines. */
std::string
gridJson(unsigned jobs, bool coldStart)
{
    if (coldStart)
        clearSnapshotCache();
    const std::vector<RunConfig> cfgs = warmGrid();
    const std::vector<RunResults> results =
        runner::ExperimentEngine(jobs).run(cfgs);
    std::ostringstream os;
    runner::writeJsonLines(os, "warm-grid", cfgs, results);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// Per-unit round trips
// ---------------------------------------------------------------------

TEST(SnapshotRoundTrip, RngContinuesBitExactly)
{
    Rng a(123);
    for (int i = 0; i < 1000; ++i)
        a.next64();
    a.gaussian(0.0, 1.0); // leave a Box-Muller spare in flight

    SnapshotWriter w;
    a.snapshotSave(w);

    Rng b(999);
    SnapshotReader r(w.bytes());
    b.snapshotRestore(r);
    ASSERT_TRUE(r.ok()) << r.error();
    ASSERT_TRUE(r.atEnd());

    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
    EXPECT_EQ(a.gaussian(1.0, 2.0), b.gaussian(1.0, 2.0));
}

TEST(SnapshotRoundTrip, CacheStateIsIdentical)
{
    Cache a("a", 16 * 1024, 4, 32, 1);
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
        bool writeback = false;
        a.access(rng.range(0, 1 << 18), rng.chance(0.3), writeback);
    }

    SnapshotWriter wa;
    a.snapshotSave(wa);

    Cache b("b", 16 * 1024, 4, 32, 1);
    SnapshotReader r(wa.bytes());
    b.snapshotRestore(r);
    ASSERT_TRUE(r.ok()) << r.error();

    SnapshotWriter wb;
    b.snapshotSave(wb);
    EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(SnapshotRoundTrip, BranchUnitStateIsIdentical)
{
    BranchUnit a;
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t pc = 0x400000 + 4 * rng.range(0, 500);
        a.predict(pc, InstClass::condBranch);
        a.update(pc, InstClass::condBranch, rng.chance(0.6), pc + 64);
    }

    SnapshotWriter wa;
    a.snapshotSave(wa);

    BranchUnit b;
    SnapshotReader r(wa.bytes());
    b.snapshotRestore(r);
    ASSERT_TRUE(r.ok()) << r.error();

    SnapshotWriter wb;
    b.snapshotSave(wb);
    EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(SnapshotRoundTrip, BranchUnitRejectsCrossKindRestore)
{
    BranchUnit::Config gshareCfg;
    gshareCfg.kind = "gshare";
    BranchUnit a(gshareCfg);

    SnapshotWriter w;
    a.snapshotSave(w);

    BranchUnit b; // combining
    SnapshotReader r(w.bytes());
    b.snapshotRestore(r);
    EXPECT_FALSE(r.ok());
}

TEST(SnapshotRoundTrip, RenameStateIsIdentical)
{
    RenameUnit a(80, 72);
    // Exercise the RAT, free lists and epochs through the public API:
    // rename + commit a stream of ALU ops over rotating registers.
    for (int i = 0; i < 200; ++i) {
        DynInst inst;
        inst.cls = InstClass::intAlu;
        inst.numSrcs = 1;
        inst.srcs[0] = static_cast<RegId>(i % numArchIntRegs);
        inst.dest = static_cast<RegId>((i * 7 + 3) % numArchIntRegs);
        ASSERT_TRUE(a.canRename(inst));
        a.rename(inst);
        a.commitFree(inst);
    }

    SnapshotWriter wa;
    a.snapshotSave(wa);

    RenameUnit b(80, 72);
    SnapshotReader r(wa.bytes());
    b.snapshotRestore(r);
    ASSERT_TRUE(r.ok()) << r.error();

    SnapshotWriter wb;
    b.snapshotSave(wb);
    EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(SnapshotRoundTrip, GeneratorContinuesBitExactly)
{
    const BenchmarkProfile &profile = findBenchmark("gcc");
    StreamGenerator a(profile, 5);
    for (int i = 0; i < 5000; ++i)
        a.next();

    SnapshotWriter w;
    a.snapshotSave(w);

    StreamGenerator b(profile, 5);
    SnapshotReader r(w.bytes());
    b.snapshotRestore(r);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(a.generated(), b.generated());

    for (int i = 0; i < 2000; ++i) {
        const GenInst &ga = a.next();
        const GenInst &gb = b.next();
        ASSERT_EQ(ga.pc, gb.pc);
        ASSERT_EQ(static_cast<int>(ga.cls), static_cast<int>(gb.cls));
        ASSERT_EQ(ga.taken, gb.taken);
        ASSERT_EQ(ga.target, gb.target);
        ASSERT_EQ(ga.memAddr, gb.memAddr);
        ASSERT_EQ(ga.dest, gb.dest);
    }
}

TEST(SnapshotRoundTrip, GeneratorRejectsForeignProgramShape)
{
    StreamGenerator a(findBenchmark("gcc"), 5);
    for (int i = 0; i < 100; ++i)
        a.next();
    SnapshotWriter w;
    a.snapshotSave(w);

    StreamGenerator b(findBenchmark("swim"), 5);
    SnapshotReader r(w.bytes());
    b.snapshotRestore(r);
    EXPECT_FALSE(r.ok());
}

/** Restored values the generator uses as indices — the call-stack
 *  entries (block indices on a return) and the two ring heads — are
 *  range-checked, so a corrupt snapshot cannot index out of bounds. */
TEST(SnapshotRoundTrip, GeneratorRejectsOutOfRangeIndices)
{
    const BenchmarkProfile &profile = findBenchmark("gcc");
    StreamGenerator a(profile, 5);
    for (int i = 0; i < 100; ++i)
        a.next();
    SnapshotWriter w;
    a.snapshotSave(w);

    // The snapshot as fields: two rngs (four state words and a spare
    // flag, then the spare double), then varints only.
    struct RngFields
    {
        std::uint64_t words[5];
        double spare;
    } rngs[2];
    std::vector<std::uint64_t> fields;
    SnapshotReader r(w.bytes());
    for (RngFields &rng : rngs) {
        for (std::uint64_t &word : rng.words)
            word = r.u64();
        rng.spare = r.f64();
    }
    while (r.ok() && !r.atEnd())
        fields.push_back(r.u64());
    ASSERT_TRUE(r.atEnd()) << r.error();

    const auto restoreWith = [&](std::size_t at, std::uint64_t value) {
        std::vector<std::uint64_t> edited = fields;
        edited.at(at) = value;
        SnapshotWriter c;
        for (const RngFields &rng : rngs) {
            for (std::uint64_t word : rng.words)
                c.u64(word);
            c.f64(rng.spare);
        }
        for (std::uint64_t field : edited)
            c.u64(field);
        StreamGenerator b(profile, 5);
        SnapshotReader cr(c.bytes());
        b.snapshotRestore(cr);
        return cr.ok() ? std::string("ok") : cr.error();
    };

    // StreamGenerator::snapshotSave() order: 11 fields of the current
    // instruction, block, op, 16 call-stack entries, top, depth, the
    // trip counters (count first), then the hot ring (size, lines,
    // head), the warm ring (likewise) and two line cursors.
    const std::size_t callStack = 13;
    const std::size_t n = fields.size();
    const std::size_t warmHead = n - 3;
    const std::size_t hotHead = warmHead - profile.warmLines - 2;
    ASSERT_EQ(fields.at(callStack + 18), profile.codeBlocks);
    ASSERT_EQ(fields.at(warmHead - profile.warmLines - 1), profile.warmLines);
    ASSERT_EQ(fields.at(hotHead - profile.hotLines - 1), profile.hotLines);

    for (std::size_t k = 0; k < 16; ++k) {
        EXPECT_EQ(restoreWith(callStack + k, profile.codeBlocks - 1), "ok");
        EXPECT_EQ(restoreWith(callStack + k, profile.codeBlocks),
                  "generator call stack entry out of range");
    }
    // Past 2^32 the value would wrap into range through a cast.
    EXPECT_EQ(restoreWith(callStack, (std::uint64_t(1) << 32) + 1),
              "generator call stack entry out of range");
    EXPECT_EQ(restoreWith(hotHead, profile.hotLines - 1), "ok");
    EXPECT_EQ(restoreWith(hotHead, profile.hotLines),
              "generator hot ring head out of range");
    EXPECT_EQ(restoreWith(warmHead, profile.warmLines - 1), "ok");
    EXPECT_EQ(restoreWith(warmHead, profile.warmLines),
              "generator warm ring head out of range");
}

// ---------------------------------------------------------------------
// Container format: production, determinism, rejection
// ---------------------------------------------------------------------

TEST(SnapshotFormat, ProductionIsDeterministic)
{
    const RunConfig cfg = warmCfg();
    EXPECT_EQ(produceWarmupSnapshot(cfg), produceWarmupSnapshot(cfg));
}

TEST(SnapshotFormat, FullSnapshotRestores)
{
    const RunConfig cfg = warmCfg();
    const std::string bytes = produceWarmupSnapshot(cfg);

    Machine m(cfg);
    std::string err;
    EXPECT_TRUE(restoreWarmMachine(m.proc, cfg, bytes, &err)) << err;
    EXPECT_TRUE(m.proc.quiescentForSnapshot());
}

TEST(SnapshotFormat, TruncatedBytesAreRejected)
{
    const RunConfig cfg = warmCfg();
    const std::string bytes = produceWarmupSnapshot(cfg);

    for (const std::size_t cut :
         {std::size_t(0), std::size_t(3), bytes.size() / 3,
          bytes.size() / 2, bytes.size() - 1}) {
        Machine m(cfg);
        std::string err;
        EXPECT_FALSE(restoreWarmMachine(
            m.proc, cfg, std::string_view(bytes).substr(0, cut), &err))
            << "cut at " << cut;
        EXPECT_FALSE(err.empty());
    }
}

TEST(SnapshotFormat, TrailingGarbageIsRejected)
{
    const RunConfig cfg = warmCfg();
    std::string bytes = produceWarmupSnapshot(cfg);
    bytes += "junk";
    Machine m(cfg);
    std::string err;
    EXPECT_FALSE(restoreWarmMachine(m.proc, cfg, bytes, &err));
}

TEST(SnapshotFormat, VersionMismatchIsRejected)
{
    // A header claiming a future format version must be rejected
    // before any machine state is parsed.
    SnapshotWriter w;
    w.str("GSNP");
    w.u64(snapshotFormatVersion + 1);
    w.str(galssimVersion());

    const RunConfig cfg = warmCfg();
    Machine m(cfg);
    std::string err;
    EXPECT_FALSE(restoreWarmMachine(m.proc, cfg, w.bytes(), &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(SnapshotFormat, ForeignMagicIsRejected)
{
    const RunConfig cfg = warmCfg();
    Machine m(cfg);
    std::string err;
    EXPECT_FALSE(restoreWarmMachine(
        m.proc, cfg, "this is not a snapshot at all", &err));
}

TEST(SnapshotFormat, WrongStemKeyIsRejected)
{
    const RunConfig cfg = warmCfg();
    const std::string bytes = produceWarmupSnapshot(cfg);

    RunConfig other = cfg;
    other.seed = cfg.seed + 1; // different warmup stem
    Machine m(other);
    std::string err;
    EXPECT_FALSE(restoreWarmMachine(m.proc, other, bytes, &err));
    EXPECT_NE(err.find("warmup key"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Warmup-key sharing rules
// ---------------------------------------------------------------------

TEST(WarmupKey, MeasuredRegionAxesShareAStem)
{
    const RunConfig base = warmCfg();
    const std::uint64_t key = warmupKeyHash(base);

    RunConfig dvfs = base;
    dvfs.dvfs.slowdown[domainIndex(DomainId::fpd)] = 2.0;
    EXPECT_EQ(warmupKeyHash(dvfs), key);

    RunConfig phase = base;
    phase.phaseSeed = 99;
    EXPECT_EQ(warmupKeyHash(phase), key);

    RunConfig longer = base;
    longer.instructions = base.instructions * 3;
    EXPECT_EQ(warmupKeyHash(longer), key);

    RunConfig metered = base;
    metered.intervalTicks = 5000;
    EXPECT_EQ(warmupKeyHash(metered), key);

    RunConfig dynamic = base;
    dynamic.dynamicDvfs = true;
    EXPECT_EQ(warmupKeyHash(dynamic), key);
}

TEST(WarmupKey, WarmupDefiningAxesSplitStems)
{
    const RunConfig base = warmCfg();
    const std::uint64_t key = warmupKeyHash(base);

    RunConfig bench = base;
    bench.benchmark = "swim";
    EXPECT_NE(warmupKeyHash(bench), key);

    RunConfig seed = base;
    seed.seed = base.seed + 1;
    EXPECT_NE(warmupKeyHash(seed), key);

    RunConfig len = base;
    len.warmupInstructions = base.warmupInstructions / 2;
    EXPECT_NE(warmupKeyHash(len), key);

    RunConfig sync = base;
    sync.gals = false;
    EXPECT_NE(warmupKeyHash(sync), key);
}

TEST(WarmupKey, RunHashGatesOnWarmupLikeFabricAndMeter)
{
    RunConfig plain = warmCfg();
    plain.warmupInstructions = 0;
    RunConfig warm = warmCfg();
    // The gated section must change the run hash when present...
    EXPECT_NE(runConfigHash(plain), runConfigHash(warm));
    // ...and two different splits must hash differently.
    RunConfig other = warm;
    other.warmupInstructions = warm.warmupInstructions / 2;
    EXPECT_NE(runConfigHash(warm), runConfigHash(other));
}

// ---------------------------------------------------------------------
// The headline contract: cold == memoized, across jobs
// ---------------------------------------------------------------------

TEST(WarmSweep, ColdEqualsMemoizedAcrossJobs)
{
    const std::string reference = gridJson(1, /*coldStart=*/true);
    ASSERT_FALSE(reference.empty());

    // Memoized rerun, serial.
    EXPECT_EQ(reference, gridJson(1, false));
    // Cold again under 8 jobs: cells race for one stem.
    EXPECT_EQ(reference, gridJson(8, true));
    // Memoized under 8 jobs.
    EXPECT_EQ(reference, gridJson(8, false));
}

TEST(WarmSweep, MeasuredRegionCoversOnlyMeasuredInstructions)
{
    RunConfig cfg = warmCfg();
    clearSnapshotCache();
    const RunResults r = runOne(cfg);
    EXPECT_EQ(r.committed, cfg.instructions - cfg.warmupInstructions);
    EXPECT_GT(r.ticks, 0u);
}
