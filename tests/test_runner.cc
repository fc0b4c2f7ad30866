/**
 * @file
 * Tests for the ExperimentEngine / ScenarioRegistry layer: the
 * parallel executor must be element-wise identical to the serial
 * batch (every run is an independent simulation), the registry must
 * carry every former bench driver, the phaseSeed sentinel must follow
 * the workload seed, and the ratio-average helper must be a true
 * geometric mean.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "bench/bench_util.hh"
#include "bench/register_all.hh"
#include "runner/engine.hh"
#include "runner/merge.hh"
#include "runner/reporter.hh"
#include "runner/scenario.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

constexpr std::uint64_t testInsts = 3000;

/** Exact comparison: serial and parallel execute identical code on
 *  identical inputs, so every field must match bit for bit. */
void
expectIdentical(const RunResults &a, const RunResults &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.gals, b.gals);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.fetched, b.fetched);
    EXPECT_EQ(a.wrongPathFetched, b.wrongPathFetched);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.timeSec, b.timeSec);
    EXPECT_EQ(a.ipcNominal, b.ipcNominal);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
    EXPECT_EQ(a.unitEnergyNj, b.unitEnergyNj);
    EXPECT_EQ(a.fifoEvents, b.fifoEvents);
    EXPECT_EQ(a.avgSlipCycles, b.avgSlipCycles);
    EXPECT_EQ(a.avgFifoSlipCycles, b.avgFifoSlipCycles);
    EXPECT_EQ(a.misspecFraction, b.misspecFraction);
    EXPECT_EQ(a.mispredictsPerKCommitted, b.mispredictsPerKCommitted);
    EXPECT_EQ(a.dirAccuracy, b.dirAccuracy);
    EXPECT_EQ(a.avgRobOcc, b.avgRobOcc);
    EXPECT_EQ(a.avgIntRenames, b.avgIntRenames);
    EXPECT_EQ(a.avgFpRenames, b.avgFpRenames);
    EXPECT_EQ(a.intIQOcc, b.intIQOcc);
    EXPECT_EQ(a.fpIQOcc, b.fpIQOcc);
    EXPECT_EQ(a.memIQOcc, b.memIQOcc);
    EXPECT_EQ(a.il1MissRate, b.il1MissRate);
    EXPECT_EQ(a.dl1MissRate, b.dl1MissRate);
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
}

SweepOptions
smallSweep()
{
    SweepOptions opts;
    opts.instructions = testInsts;
    opts.benchmarks = {"gcc", "ijpeg", "fpppp", "adpcm"};
    return opts;
}

ScenarioRegistry &
registry()
{
    static ScenarioRegistry reg = [] {
        ScenarioRegistry r;
        bench::registerAllScenarios(r);
        return r;
    }();
    return reg;
}

} // namespace

TEST(ScenarioRegistry, ListsEveryFormerBenchDriver)
{
    EXPECT_GE(registry().size(), 12u);
    for (const char *name :
         {"fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
          "fig11", "fig12", "fig13", "table1", "phase",
          "ablation-fifo", "ablation-dvfs", "quickstart", "suite",
          "dvfs-explorer"}) {
        const Scenario *s = registry().find(name);
        ASSERT_NE(s, nullptr) << "missing scenario " << name;
        EXPECT_FALSE(s->description.empty());
        EXPECT_TRUE(s->makeRuns != nullptr);
        EXPECT_TRUE(s->reduce != nullptr);
    }
}

TEST(ScenarioRegistry, FindUnknownReturnsNull)
{
    EXPECT_EQ(registry().find("nonsense"), nullptr);
}

TEST(ScenarioRegistry, ScenariosExpandToRuns)
{
    const SweepOptions opts = smallSweep();
    // Every scenario except the literature table produces runs.
    for (const Scenario &s : registry().all()) {
        const auto runs = s.makeRuns(opts);
        if (s.name == "table1")
            EXPECT_TRUE(runs.empty());
        else
            EXPECT_FALSE(runs.empty()) << s.name;
    }
}

TEST(ExperimentEngine, ParallelMatchesSerial)
{
    const SweepOptions opts = smallSweep();
    const auto runs = registry().find("fig05")->makeRuns(opts);

    const auto serial = ExperimentEngine(1).run(runs);
    const auto parallel = ExperimentEngine(8).run(runs);

    ASSERT_EQ(serial.size(), runs.size());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

TEST(ExperimentEngine, ParallelReportsAreByteIdentical)
{
    const SweepOptions opts = smallSweep();
    const auto runs = registry().find("fig09")->makeRuns(opts);

    std::ostringstream serialJson, parallelJson;
    writeJsonLines(serialJson, "fig09", runs,
                   ExperimentEngine(1).run(runs));
    writeJsonLines(parallelJson, "fig09", runs,
                   ExperimentEngine(8).run(runs));
    EXPECT_EQ(serialJson.str(), parallelJson.str());
    EXPECT_FALSE(serialJson.str().empty());
}

TEST(ExperimentEngine, MatchesRunMany)
{
    SweepOptions opts = smallSweep();
    opts.benchmarks = {"gcc", "adpcm"};
    const auto runs = registry().find("fig05")->makeRuns(opts);

    const auto batch = runMany(runs);
    const auto engine = ExperimentEngine(0).run(runs); // hardware jobs
    ASSERT_EQ(batch.size(), engine.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdentical(batch[i], engine[i]);
}

TEST(ExperimentEngine, ZeroJobsPicksHardwareConcurrency)
{
    EXPECT_GE(ExperimentEngine(0).jobs(), 1u);
    EXPECT_EQ(ExperimentEngine(3).jobs(), 3u);
}

TEST(WorkStealing, HeterogeneousTasksRunExactlyOnceIntoTheirSlots)
{
    // Randomized heterogeneous "run lengths": task i busy-waits a
    // pseudo-random few-hundred-microsecond interval, so with a
    // static division one worker would finish long after the rest
    // and the thieves must actually steal. The *output* contract is
    // what matters: every index executed exactly once, results in
    // per-index slots identical to the serial order.
    std::mt19937 rng(0xC0FFEE);
    for (unsigned jobs : {2u, 3u, 8u}) {
        const std::size_t n = 64;
        std::vector<unsigned> durationUs(n);
        for (unsigned &d : durationUs)
            d = rng() % 300;

        std::vector<std::uint64_t> results(n, 0);
        std::vector<std::atomic<unsigned>> hits(n);
        for (auto &h : hits)
            h = 0;

        ExperimentEngine(jobs).runIndexed(n, [&](std::size_t i) {
            const auto until =
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(durationUs[i]);
            while (std::chrono::steady_clock::now() < until) {
            }
            results[i] = 1000 + i * i;
            ++hits[i];
        });

        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(hits[i].load(), 1u)
                << "index " << i << " at jobs " << jobs;
            EXPECT_EQ(results[i], 1000 + i * i);
        }
    }
}

TEST(WorkStealing, DegenerateCounts)
{
    std::atomic<unsigned> calls{0};
    ExperimentEngine(8).runIndexed(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0u);
    ExperimentEngine(8).runIndexed(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 1u);
    // More workers than tasks: the pool clamps, every task still
    // runs once.
    std::vector<std::atomic<unsigned>> hits(3);
    for (auto &h : hits)
        h = 0;
    ExperimentEngine(16).runIndexed(3,
                                    [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1u);
}

TEST(WorkStealing, ShardedGridMatchesUnshardedSlice)
{
    // End to end through real simulations: running a shard slice
    // must give exactly the results the same indices get in the
    // full-grid run, for any job count.
    SweepOptions opts = smallSweep();
    opts.benchmarks = {"gcc", "adpcm"};
    const auto runs = registry().find("fig05")->makeRuns(opts);
    const auto full = ExperimentEngine(1).run(runs);

    const ShardSpec shard{2, 3};
    const auto indices = shardRunIndices(runs.size(), shard);
    const auto slice = selectRuns(runs, indices);
    const auto shardResults = ExperimentEngine(4).run(slice);

    ASSERT_EQ(shardResults.size(), indices.size());
    for (std::size_t k = 0; k < indices.size(); ++k)
        expectIdentical(shardResults[k], full[indices[k]]);
}

namespace
{

/** Archive a small sweep (trajectory + manifest) the way galsbench
 *  does, into @p dir; returns the manifest path. */
std::string
archiveSweep(const std::string &dir, const std::string &trajName)
{
    SweepOptions opts;
    opts.instructions = 1500;
    opts.benchmarks = {"gcc"};
    opts.explicitSeeds = {0, 1};

    SweepPlan plan;
    std::string err;
    EXPECT_TRUE(planSweep(registry(), {"quickstart"}, opts, plan, err))
        << err;
    TrajectorySink sink(dir + trajName);
    runSliceStreamed(ExperimentEngine(2), plan.at(0), &sink);
    sink.close();

    const std::string manifestPath = dir + trajName + ".manifest";
    writeManifestFile(manifestPath, opts, trajName, {plan[0].manifest});
    return manifestPath;
}

std::string
readText(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** The line of @p text that holds byte @p pos, without its newline. */
std::string
lineAt(const std::string &text, std::size_t pos)
{
    const std::size_t from = text.rfind('\n', pos);
    const std::size_t begin = from == std::string::npos ? 0 : from + 1;
    return text.substr(begin, text.find('\n', pos) - begin);
}

} // namespace

TEST(Verify, ReplayOfArchivedManifestIsByteIdentical)
{
    const std::string dir = ::testing::TempDir();
    const std::string manifest =
        archiveSweep(dir, "verify_ok.jsonl");

    std::ostringstream diag;
    EXPECT_TRUE(verifyManifest(registry(), ExperimentEngine(2),
                               manifest, diag))
        << diag.str();
    EXPECT_NE(diag.str().find("OK"), std::string::npos);
}

TEST(Verify, TamperedTrajectoryFailsWithRecordDiff)
{
    const std::string dir = ::testing::TempDir();
    const std::string manifest =
        archiveSweep(dir, "verify_tamper.jsonl");

    // Flip one digit of one record.
    const std::string traj = dir + "verify_tamper.jsonl";
    std::string text;
    {
        std::ifstream is(traj, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        text = buf.str();
    }
    const std::size_t pos = text.find("\"committed\":");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 12] = text[pos + 12] == '9' ? '8' : '9';
    {
        std::ofstream os(traj, std::ios::binary | std::ios::trunc);
        os << text;
    }

    std::ostringstream diag;
    EXPECT_FALSE(verifyManifest(registry(), ExperimentEngine(2),
                                manifest, diag));
    EXPECT_NE(diag.str().find("FAILED"), std::string::npos)
        << diag.str();
    EXPECT_NE(diag.str().find("record "), std::string::npos);
    EXPECT_NE(diag.str().find("1 differing line"),
              std::string::npos)
        << diag.str();
}

TEST(Verify, ConfigDriftFailsBeforeSimulating)
{
    const std::string dir = ::testing::TempDir();
    const std::string manifest =
        archiveSweep(dir, "verify_drift.jsonl");

    // Corrupt the archived config hash: the replay must refuse
    // without comparing trajectories.
    std::string text;
    {
        std::ifstream is(manifest, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        text = buf.str();
    }
    const std::size_t pos = text.find("\"config_hash\": \"");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t digit = pos + std::strlen("\"config_hash\": \"");
    text[digit] = text[digit] == 'f' ? '0' : 'f';
    {
        std::ofstream os(manifest, std::ios::binary | std::ios::trunc);
        os << text;
    }

    std::ostringstream diag;
    EXPECT_FALSE(verifyManifest(registry(), ExperimentEngine(2),
                                manifest, diag));
    EXPECT_NE(diag.str().find("is not the manifest this binary writes"),
              std::string::npos)
        << diag.str();
    EXPECT_NE(diag.str().find("archived: " + lineAt(text, digit)),
              std::string::npos)
        << diag.str();
    EXPECT_EQ(diag.str().find("runs re-executed"), std::string::npos)
        << diag.str();
}

/** Every byte of a manifest is checked, the fields the writer works
 *  out from the plan included: an edited run count, output format or
 *  whitespace byte is refused before anything is simulated, and the
 *  message shows the archived line against the expected one. */
TEST(Verify, EditedManifestIsRefusedWithTheDifferingLine)
{
    const std::string dir = ::testing::TempDir();
    const std::string manifest = archiveSweep(dir, "verify_edit.jsonl");
    const std::string text = readText(manifest);

    const std::string runsKey = "\"runs\": ";
    ASSERT_NE(text.find(runsKey), std::string::npos) << text;
    const std::size_t runsAt = text.find(runsKey) + runsKey.size();
    const std::size_t runsEnd = text.find(',', runsAt);
    const std::string runs = text.substr(runsAt, runsEnd - runsAt);
    const std::string formatKey = "\"output_format\": \"jsonl\"";
    const std::size_t formatAt = text.find(formatKey);
    ASSERT_NE(formatAt, std::string::npos) << text;
    const std::string instsKey = "\"instructions\":";
    ASSERT_NE(text.find(instsKey), std::string::npos) << text;
    const std::size_t spaceAt = text.find(instsKey) + instsKey.size();
    ASSERT_EQ(text[spaceAt], ' ') << text;

    const std::vector<std::pair<std::size_t, std::string>> edits = {
        {runsAt, text.substr(0, runsAt) +
                     std::to_string(std::stoull(runs) + 1) +
                     text.substr(runsEnd)},
        {formatAt, text.substr(0, formatAt) +
                       "\"output_format\": \"csv\"" +
                       text.substr(formatAt + formatKey.size())},
        {spaceAt, text.substr(0, spaceAt) + "\t" + text.substr(spaceAt + 1)},
    };
    for (const auto &[at, edited] : edits) {
        writeText(manifest, edited);
        std::ostringstream diag;
        EXPECT_FALSE(verifyManifest(registry(), ExperimentEngine(1),
                                    manifest, diag));
        const std::string out = diag.str();
        EXPECT_NE(out.find("archived: " + lineAt(edited, at)),
                  std::string::npos)
            << out;
        EXPECT_NE(out.find("expected: " + lineAt(text, at)),
                  std::string::npos)
            << out;
        EXPECT_NE(out.find("1 differing line in total"), std::string::npos)
            << out;
        EXPECT_EQ(out.find("runs re-executed"), std::string::npos) << out;
    }
    writeText(manifest, text);
    std::ostringstream diag;
    EXPECT_TRUE(verifyManifest(registry(), ExperimentEngine(1), manifest,
                               diag))
        << diag.str();
}

TEST(Verify, MissingTrajectoryOrUnknownScenarioFailCleanly)
{
    const std::string dir = ::testing::TempDir();

    // Manifest whose trajectory file does not exist.
    SweepOptions opts;
    opts.instructions = 1500;
    const std::string noTraj = dir + "verify_notraj.manifest";
    writeManifestFile(noTraj, opts, "does_not_exist.jsonl",
                      {{"quickstart", 2, 1, 0}});
    std::ostringstream diag1;
    EXPECT_FALSE(verifyManifest(registry(), ExperimentEngine(1),
                                noTraj, diag1));

    // Manifest naming a scenario this binary does not register.
    const std::string traj = dir + "verify_unknown.jsonl";
    {
        TrajectorySink sink(traj);
        sink.close();
    }
    const std::string unknown = dir + "verify_unknown.manifest";
    writeManifestFile(unknown, opts, "verify_unknown.jsonl",
                      {{"no-such-scenario", 2, 1, 0}});
    std::ostringstream diag2;
    EXPECT_FALSE(verifyManifest(registry(), ExperimentEngine(1),
                                unknown, diag2));
    EXPECT_NE(diag2.str().find("unknown scenario"),
              std::string::npos)
        << diag2.str();
}

/** A manifest describing more runs than one invocation may plan is
 *  refused with a message before its grids are expanded. */
TEST(Verify, PlanPastTheRunCapIsRefused)
{
    const std::string dir = ::testing::TempDir();
    SweepOptions opts;
    opts.instructions = 1500;
    for (std::uint64_t seed = 0; seed <= maxPlannedRuns; ++seed)
        opts.explicitSeeds.push_back(seed);
    const std::string manifest = dir + "verify_cap.manifest";
    writeManifestFile(manifest, opts, "verify_cap.jsonl",
                      {{"fig05", 32, opts.explicitSeeds.size(), 0}});
    std::ostringstream diag;
    EXPECT_FALSE(
        verifyManifest(registry(), ExperimentEngine(1), manifest, diag));
    EXPECT_NE(diag.str().find("more than the 65536 runs"),
              std::string::npos)
        << diag.str();
}

/** A core count past the fabric cap is a malformed manifest, not a
 *  value to truncate into range. */
TEST(Verify, CoreCountPastTheCapIsMalformed)
{
    const std::string dir = ::testing::TempDir();
    SweepOptions opts;
    opts.instructions = 1500;
    opts.coreCounts = {2};
    const std::string manifest = dir + "verify_cores.manifest";
    writeManifestFile(manifest, opts, "verify_cores.jsonl",
                      {{"fabric_smoke", 1, 1, 0}});
    std::string text;
    {
        std::ifstream is(manifest, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        text = buf.str();
    }
    const std::string cores = "\"cores\": [2]";
    ASSERT_NE(text.find(cores), std::string::npos) << text;
    text.replace(text.find(cores), cores.size(),
                 "\"cores\": [4294967298]"); // 2 mod 2^32
    {
        std::ofstream os(manifest, std::ios::binary | std::ios::trunc);
        os << text;
    }
    std::ostringstream diag;
    EXPECT_FALSE(
        verifyManifest(registry(), ExperimentEngine(1), manifest, diag));
    EXPECT_NE(diag.str().find("fabric core count not in 1..1024"),
              std::string::npos)
        << diag.str();
}

TEST(PairHelpers, AppendPairConvention)
{
    std::vector<RunConfig> runs;
    appendPair(runs, "gcc", 1000, DvfsSetting(), 7);
    appendPair(runs, "ijpeg", 1000);
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_FALSE(runs[0].gals);
    EXPECT_TRUE(runs[1].gals);
    EXPECT_EQ(runs[0].benchmark, "gcc");
    EXPECT_EQ(runs[1].benchmark, "gcc");
    EXPECT_EQ(runs[0].seed, 7u);
    EXPECT_EQ(runs[2].benchmark, "ijpeg");
    EXPECT_TRUE(runs[3].gals);
}

TEST(PairHelpers, PairAtMatchesRunPair)
{
    std::vector<RunConfig> runs;
    appendPair(runs, "gcc", testInsts);
    const auto results = runMany(runs);
    const PairResults viaEngine = pairAt(results, 0);
    const PairResults direct = runPair("gcc", testInsts);
    expectIdentical(viaEngine.base, direct.base);
    expectIdentical(viaEngine.galsRun, direct.galsRun);
}

TEST(PhaseSeed, SentinelFollowsWorkloadSeed)
{
    RunConfig cfg;
    cfg.seed = 42;
    EXPECT_EQ(cfg.phaseSeed, phaseSeedFollowsWorkload);
    EXPECT_EQ(effectivePhaseSeed(cfg), 42u);

    cfg.phaseSeed = 7;
    EXPECT_EQ(effectivePhaseSeed(cfg), 7u);

    cfg.phaseSeed = phaseSeedFollowsWorkload;
    cfg.seed = 0;
    EXPECT_EQ(effectivePhaseSeed(cfg), 0u);
}

TEST(PhaseSeed, DefaultRunMatchesExplicitWorkloadSeed)
{
    RunConfig implicit;
    implicit.benchmark = "gcc";
    implicit.instructions = testInsts;
    implicit.gals = true;
    implicit.seed = 11;

    RunConfig explicitSeed = implicit;
    explicitSeed.phaseSeed = 11;

    expectIdentical(runOne(implicit), runOne(explicitSeed));
}

TEST(PhaseSeed, DifferentPhaseSeedChangesGalsTiming)
{
    RunConfig a;
    a.benchmark = "gcc";
    a.instructions = testInsts;
    a.gals = true;

    RunConfig b = a;
    b.phaseSeed = 0x1234;

    // Same workload, different clock phases: committed count equal,
    // timing (ticks) differing — the section 5.1 sensitivity.
    const RunResults ra = runOne(a);
    const RunResults rb = runOne(b);
    EXPECT_EQ(ra.committed, rb.committed);
    EXPECT_NE(ra.ticks, rb.ticks);
}

TEST(MeanTracker, IsGeometric)
{
    bench::MeanTracker m;
    m.add(2.0);
    m.add(0.5);
    EXPECT_NEAR(m.mean(), 1.0, 1e-12); // arithmetic would say 1.25

    bench::MeanTracker m2;
    m2.add(1.0);
    m2.add(4.0);
    EXPECT_NEAR(m2.mean(), 2.0, 1e-12); // arithmetic would say 2.5

    bench::MeanTracker empty;
    EXPECT_EQ(empty.mean(), 0.0);
}

TEST(Reporters, CsvHasHeaderAndOneRowPerRun)
{
    SweepOptions opts = smallSweep();
    opts.benchmarks = {"gcc"};
    const auto runs = registry().find("quickstart")->makeRuns(opts);
    const auto results = runMany(runs);

    std::ostringstream csv;
    writeCsv(csv, "quickstart", runs, results);
    std::istringstream lines(csv.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line))
        ++count;
    EXPECT_EQ(count, 1 + results.size());
    EXPECT_EQ(csv.str().rfind("scenario,index,benchmark", 0), 0u);
}
