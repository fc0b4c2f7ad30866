/**
 * @file
 * Tests for the crash-safe dispatch orchestrator.
 *
 * The slice state machine (retry caps, capped exponential backoff,
 * straggler deadlines) and the resume scan are tested pure, with
 * injected clocks and fabricated record files. The integration tests
 * then drive the real thing: runDispatch() launching actual galsbench
 * worker subprocesses with injected crashes and hangs, asserting the
 * merged trajectory is byte-identical to an in-process unsharded
 * reference — the whole point of the orchestrator — plus resume after
 * a simulated mid-record kill, plan-mismatch refusal, retry-cap
 * exhaustion and the atomic-write guarantees underneath it all.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/register_all.hh"
#include "power/power_model.hh"
#include "runner/atomic_file.hh"
#include "runner/cli.hh"
#include "runner/engine.hh"
#include "runner/fault.hh"
#include "runner/gtrj.hh"
#include "runner/json.hh"
#include "runner/merge.hh"
#include "runner/orchestrator.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace fs = std::filesystem;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "galssim_orch_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
    ASSERT_TRUE(os.good()) << path;
}

DispatchPolicy
testPolicy()
{
    DispatchPolicy p;
    p.maxAttempts = 3;
    p.backoffBaseMs = 100;
    p.backoffCapMs = 800;
    p.stragglerFactor = 4.0;
    p.minDeadlineMs = 50;
    return p;
}

// ---------------------------------------------------------------- tracker

TEST(DispatchTracker, BackoffScheduleIsCappedExponential)
{
    const DispatchTracker t(1, testPolicy());
    EXPECT_EQ(t.backoffDelayMs(1), 100u);
    EXPECT_EQ(t.backoffDelayMs(2), 200u);
    EXPECT_EQ(t.backoffDelayMs(3), 400u);
    EXPECT_EQ(t.backoffDelayMs(4), 800u);
    EXPECT_EQ(t.backoffDelayMs(5), 800u); // capped
    EXPECT_EQ(t.backoffDelayMs(64), 800u); // no shift overflow
}

TEST(DispatchTracker, FailedSliceWaitsOutItsBackoff)
{
    DispatchTracker t(2, testPolicy());
    ASSERT_EQ(t.nextDispatch(0), std::optional<std::size_t>(0));
    t.onLaunched(0, 0);
    // Slice 0 running: the next dispatch is slice 1.
    ASSERT_EQ(t.nextDispatch(0), std::optional<std::size_t>(1));
    t.onLaunched(1, 0);
    EXPECT_FALSE(t.nextDispatch(0).has_value());

    t.onFailed(0, 1000); // first failure: 100 ms backoff
    EXPECT_EQ(t.state(0), SliceState::pending);
    EXPECT_EQ(t.eligibleAtMs(0), 1100u);
    EXPECT_FALSE(t.nextDispatch(1099).has_value());
    EXPECT_EQ(t.nextDispatch(1100), std::optional<std::size_t>(0));

    t.onLaunched(0, 1100);
    t.onFailed(0, 1200); // second failure: 200 ms backoff
    EXPECT_EQ(t.eligibleAtMs(0), 1400u);
}

TEST(DispatchTracker, AttemptCapMarksSliceFailed)
{
    DispatchTracker t(1, testPolicy()); // maxAttempts = 3
    for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_EQ(t.state(0), SliceState::pending);
        t.onLaunched(0, 0);
        t.onFailed(0, 10);
    }
    EXPECT_EQ(t.state(0), SliceState::failed);
    EXPECT_EQ(t.attempts(0), 3u);
    EXPECT_TRUE(t.anyExhausted());
    EXPECT_FALSE(t.nextDispatch(100000).has_value());
    EXPECT_FALSE(t.allDone());
}

TEST(DispatchTracker, NoStragglerDeadlineBeforeFirstCompletion)
{
    DispatchTracker t(3, testPolicy());
    t.onLaunched(0, 0);
    EXPECT_EQ(t.deadlineMs(), 0u);
    // Hours pass: still no deadline — there is no median to scale.
    EXPECT_TRUE(t.stragglers(3600 * 1000).empty());

    // markDone() (a resume-complete slice) must NOT arm the
    // deadline either: it contributes no wall-time observation.
    t.markDone(1);
    EXPECT_EQ(t.deadlineMs(), 0u);
    EXPECT_TRUE(t.stragglers(3600 * 1000).empty());
}

TEST(DispatchTracker, StragglerDeadlineScalesFromMedian)
{
    DispatchTracker t(3, testPolicy());
    t.onLaunched(0, 0);
    t.onFinished(0, 100); // median 100 ms
    EXPECT_EQ(t.medianDurationMs(), 100u);
    EXPECT_EQ(t.deadlineMs(), 400u); // 4 x median > 50 ms floor

    t.onLaunched(1, 100);
    t.onLaunched(2, 100);
    EXPECT_TRUE(t.stragglers(500).empty()); // 400 ms old: at limit
    const std::vector<std::size_t> late = t.stragglers(501);
    EXPECT_EQ(late, (std::vector<std::size_t>{1, 2}));
    // Pure: asking twice reports the same set.
    EXPECT_EQ(t.stragglers(501), late);
    // A straggler leaves the set only through onFailed().
    t.onFailed(1, 501);
    EXPECT_EQ(t.stragglers(501), (std::vector<std::size_t>{2}));
}

TEST(DispatchTracker, DeadlineRespectsTheFloor)
{
    DispatchPolicy p = testPolicy();
    p.minDeadlineMs = 5000;
    DispatchTracker t(2, p);
    t.onLaunched(0, 0);
    t.onFinished(0, 10); // 4 x 10 ms << the 5 s floor
    EXPECT_EQ(t.deadlineMs(), 5000u);
}

/** A straggler factor whose scaled median overflows uint64 saturates
 *  the deadline (no slice is ever a straggler) instead of converting
 *  an out-of-range double, and a NaN factor falls back to the floor. */
TEST(DispatchTracker, HugeStragglerFactorSaturatesTheDeadline)
{
    DispatchPolicy p = testPolicy();
    p.stragglerFactor = 1e300;
    DispatchTracker t(2, p);
    t.onLaunched(0, 0);
    t.onLaunched(1, 0);
    t.onFinished(0, 100);
    EXPECT_EQ(t.deadlineMs(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(
        t.stragglers(std::numeric_limits<std::uint64_t>::max()).empty());

    p.stragglerFactor = std::nan("");
    DispatchTracker n(1, p);
    n.onLaunched(0, 0);
    n.onFinished(0, 100);
    EXPECT_EQ(n.deadlineMs(), p.minDeadlineMs);
}

TEST(DispatchTracker, MedianOfEvenCountAveragesTheMiddle)
{
    DispatchTracker t(4, testPolicy());
    t.onLaunched(0, 0);
    t.onFinished(0, 100);
    t.onLaunched(1, 0);
    t.onFinished(1, 300);
    EXPECT_EQ(t.medianDurationMs(), 200u);
    t.onLaunched(2, 0);
    t.onFinished(2, 1000);
    EXPECT_EQ(t.medianDurationMs(), 300u);
}

TEST(DispatchTracker, CountsAndCompletion)
{
    DispatchTracker t(3, testPolicy());
    t.markDone(0);
    t.onLaunched(1, 0);
    EXPECT_EQ(t.countIn(SliceState::done), 1u);
    EXPECT_EQ(t.countIn(SliceState::running), 1u);
    EXPECT_EQ(t.countIn(SliceState::pending), 1u);
    EXPECT_FALSE(t.allDone());
    t.onFinished(1, 10);
    t.onLaunched(2, 10);
    t.onFinished(2, 20);
    EXPECT_TRUE(t.allDone());
}

// ------------------------------------------------------------ slice scan

std::vector<SliceExpectation>
expectations(const std::string &scenario,
             std::initializer_list<std::uint64_t> indices)
{
    std::vector<SliceExpectation> out;
    for (std::uint64_t i : indices)
        out.push_back({scenario, i});
    return out;
}

/** One encoded gtrj frame with just enough record identity for the
 *  scan: scenario, canonical index, benchmark, time_sec. */
std::string
fakeGtrjFrame(const std::string &scenario, std::uint64_t index,
              const std::string &benchmark = "adpcm")
{
    RunConfig cfg;
    cfg.benchmark = benchmark;
    cfg.instructions = 2000;
    RunResults r;
    r.benchmark = benchmark;
    r.timeSec = 0.5;
    // The encoder's positional unit-energy block requires the full
    // power-model unit set, exactly like a real run.
    for (unsigned u = 0; u < numUnits; ++u)
        r.unitEnergyNj[unitName(static_cast<Unit>(u))] = 1.0;
    return gtrj::encodeRecord(scenario, index, cfg, r);
}

TEST(SliceScan, MissingFileIsAnEmptyPrefix)
{
    SliceScan scan;
    std::string err;
    ASSERT_TRUE(scanSliceRecords(tempPath("scan_missing.gtrj"),
                                 expectations("s", {0, 3}), scan,
                                 err));
    EXPECT_EQ(scan.validRecords, 0u);
    EXPECT_EQ(scan.validBytes, 0u);
    EXPECT_FALSE(scan.trimmedTail);
}

TEST(SliceScan, ExtraRecordsPastTheExpectationAreTail)
{
    const std::string path = tempPath("scan_extra.gtrj");
    const std::string keep = gtrj::fileHeader() +
                             fakeGtrjFrame("s", 0) +
                             fakeGtrjFrame("s", 3);
    spit(path, keep + fakeGtrjFrame("s", 9));
    SliceScan scan;
    std::string err;
    ASSERT_TRUE(scanSliceRecords(path, expectations("s", {0, 3}),
                                 scan, err));
    EXPECT_EQ(scan.validRecords, 2u);
    EXPECT_EQ(scan.validBytes, keep.size());
    EXPECT_TRUE(scan.trimmedTail);
}

TEST(SliceScan, GtrjFullFileMatchesWithoutTrim)
{
    const std::string path = tempPath("scan_full.gtrj");
    spit(path, gtrj::fileHeader() + fakeGtrjFrame("s", 0) +
                   fakeGtrjFrame("s", 3, "fpppp"));
    SliceScan scan;
    std::string err;
    std::vector<RecordStat> stats;
    ASSERT_TRUE(scanSliceRecords(path, expectations("s", {0, 3}),
                                 scan, err, &stats));
    EXPECT_EQ(scan.validRecords, 2u);
    EXPECT_EQ(scan.validBytes, slurp(path).size());
    EXPECT_FALSE(scan.trimmedTail);
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].benchmark, "adpcm");
    EXPECT_EQ(stats[1].benchmark, "fpppp");
    EXPECT_DOUBLE_EQ(stats[1].timeSec, 0.5);
}

TEST(SliceScan, GtrjTornTrailingFrameIsTrimmed)
{
    const std::string path = tempPath("scan_torn.gtrj");
    const std::string keep =
        gtrj::fileHeader() + fakeGtrjFrame("s", 0);
    const std::string second = fakeGtrjFrame("s", 3);
    // A SIGKILL mid-write: the second frame lost its tail.
    spit(path, keep + second.substr(0, second.size() / 2));
    SliceScan scan;
    std::string err;
    ASSERT_TRUE(scanSliceRecords(path, expectations("s", {0, 3}),
                                 scan, err));
    EXPECT_EQ(scan.validRecords, 1u);
    EXPECT_EQ(scan.validBytes, keep.size());
    EXPECT_TRUE(scan.trimmedTail);
}

TEST(SliceScan, GtrjTornHeaderSalvagesNothing)
{
    const std::string path = tempPath("scan_header.gtrj");
    spit(path, gtrj::fileHeader().substr(0, 2));
    SliceScan scan;
    std::string err;
    ASSERT_TRUE(scanSliceRecords(path, expectations("s", {0}), scan,
                                 err));
    EXPECT_EQ(scan.validRecords, 0u);
    EXPECT_EQ(scan.validBytes, 0u); // the reopened sink rewrites it
    EXPECT_TRUE(scan.trimmedTail);
}

TEST(SliceScan, GtrjMismatchedFrameEndsThePrefix)
{
    const std::string path = tempPath("scan_mismatch.gtrj");
    spit(path, gtrj::fileHeader() + fakeGtrjFrame("s", 0) +
                   fakeGtrjFrame("s", 7) + fakeGtrjFrame("s", 5));
    SliceScan scan;
    std::string err;
    ASSERT_TRUE(scanSliceRecords(path, expectations("s", {0, 3, 5}),
                                 scan, err));
    EXPECT_EQ(scan.validRecords, 1u);
    EXPECT_EQ(scan.validBytes,
              gtrj::fileHeader().size() +
                  fakeGtrjFrame("s", 0).size());
    EXPECT_TRUE(scan.trimmedTail);
}

// ------------------------------------------------------------- fault spec

TEST(FaultSpec, ParsesExitAndHang)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("exit-after=2", plan, err)) << err;
    EXPECT_EQ(plan.exitAfter, 2u);
    EXPECT_EQ(plan.hangAfter, FaultPlan::disabled);
    ASSERT_TRUE(parseFaultSpec("hang-after=0", plan, err)) << err;
    EXPECT_EQ(plan.hangAfter, 0u);
    EXPECT_TRUE(plan.active());
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string err;
    EXPECT_FALSE(parseFaultSpec("exit-after", plan, err));
    EXPECT_FALSE(parseFaultSpec("exit-after=", plan, err));
    EXPECT_FALSE(parseFaultSpec("exit-after=-1", plan, err));
    EXPECT_FALSE(parseFaultSpec("exit-after=2x", plan, err));
    EXPECT_FALSE(parseFaultSpec("explode-after=2", plan, err));
    EXPECT_NE(err.find("explode-after"), std::string::npos);
}

// ----------------------------------------------------------- atomic write

TEST(AtomicFile, WritesAndLeavesNoTemp)
{
    const std::string path = tempPath("atomic_ok.json");
    std::string err;
    ASSERT_TRUE(atomicWriteFile(path, "{\"a\": 1}\n", err)) << err;
    EXPECT_EQ(slurp(path), "{\"a\": 1}\n");
    EXPECT_FALSE(fs::exists(atomicTempPath(path)));
    // Overwrite: same guarantee.
    ASSERT_TRUE(atomicWriteFile(path, "{\"a\": 2}\n", err)) << err;
    EXPECT_EQ(slurp(path), "{\"a\": 2}\n");
    EXPECT_FALSE(fs::exists(atomicTempPath(path)));
}

TEST(AtomicFile, FailureReportsAndSetsError)
{
    std::string err;
    EXPECT_FALSE(atomicWriteFile(
        "/nonexistent-dir/galssim_orch_atomic.json", "x", err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(AtomicFile, FailureLeavesTheOldFileIntact)
{
    const std::string path = tempPath("atomic_keep.json");
    std::string err;
    ASSERT_TRUE(atomicWriteFile(path, "old contents\n", err)) << err;
    // Block the deterministic temp path with a directory: the write
    // must fail without touching the existing file.
    const std::string tmp = atomicTempPath(path);
    fs::remove_all(tmp);
    ASSERT_TRUE(fs::create_directory(tmp));
    EXPECT_FALSE(atomicWriteFile(path, "new contents\n", err));
    EXPECT_EQ(slurp(path), "old contents\n");
    fs::remove_all(tmp);
}

TEST(AtomicFile, ManifestWriterLeavesNoTemp)
{
    // Regression for the satellite fix: writeManifestFile() goes
    // through the temp-file + rename path now.
    const std::string path = tempPath("manifest_atomic.json");
    SweepOptions opts;
    writeManifestFile(path, opts, "", {});
    EXPECT_FALSE(fs::exists(atomicTempPath(path)));
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(slurp(path), v, err)) << err;
}

// ------------------------------------------------------------ integration

/** The galsbench binary the orchestrator execs as workers: the
 *  GALSBENCH env var (set by CTest), falling back to a sibling of
 *  this test binary. */
std::string
galsbenchBinary()
{
    if (const char *env = std::getenv("GALSBENCH"))
        if (::access(env, X_OK) == 0)
            return env;
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    const std::string self(buf);
    const std::size_t slash = self.find_last_of('/');
    if (slash == std::string::npos)
        return "";
    const std::string sibling = self.substr(0, slash) + "/galsbench";
    return ::access(sibling.c_str(), X_OK) == 0 ? sibling : "";
}

/** The integration sweep: fig05, one benchmark, two seeds — a 4-run
 *  grid that exercises multi-record slices without burning time. */
SweepOptions
integrationSweep()
{
    SweepOptions sweep;
    sweep.instructions = 2000;
    sweep.benchmarks = {"adpcm"};
    sweep.explicitSeeds = {0, 1};
    return sweep;
}

DispatchOptions
integrationOptions(const std::string &outputPath)
{
    DispatchOptions opts;
    opts.scenarios = {"fig05"};
    opts.sweep = integrationSweep();
    opts.outputPath = outputPath;
    opts.workerBinary = galsbenchBinary();
    opts.slices = 3;
    opts.workers = 2;
    opts.statusIntervalMs = 50;
    opts.policy.maxAttempts = 3;
    opts.policy.backoffBaseMs = 20;
    opts.policy.backoffCapMs = 100;
    opts.policy.minDeadlineMs = 60000; // stragglers off by default
    return opts;
}

/** The unsharded single-machine trajectory the dispatch must
 *  reproduce byte for byte, generated in-process. */
void
writeReference(const ScenarioRegistry &registry,
               const std::string &path)
{
    const SweepOptions sweep = integrationSweep();
    TrajectorySink sink(path);
    const ExperimentEngine engine(1);
    const Scenario *scenario = registry.find("fig05");
    ASSERT_NE(scenario, nullptr);
    const std::vector<RunConfig> runs =
        expandReplicatedRuns(*scenario, sweep, nullptr);
    sink.append("fig05", runs, engine.run(runs));
    sink.close();
}

/** A kill -9 mid-write on a gtrj slice file: keep its header, its
 *  first frame and 7 bytes of the second. */
void
tearAfterFirstFrame(const std::string &slice)
{
    const std::string full = slurp(slice);
    std::size_t pos = 0;
    std::string err;
    ASSERT_TRUE(gtrj::readHeader(full, pos, err)) << err;
    std::string_view payload;
    ASSERT_EQ(gtrj::nextFrame(full, pos, payload, err),
              gtrj::FrameStatus::ok)
        << err;
    ASSERT_LT(pos + 7, full.size());
    spit(slice, full.substr(0, pos + 7));
}

class DispatchIntegration : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (galsbenchBinary().empty())
            GTEST_SKIP() << "galsbench binary not found (set "
                            "GALSBENCH)";
        bench::registerAllScenarios(registry_);
        writeReference(registry_, referencePath_);
    }

    ScenarioRegistry registry_;
    std::string referencePath_ = tempPath("reference.jsonl");
};

TEST_F(DispatchIntegration, CrashedWorkerIsRetriedToByteIdentity)
{
    const std::string out = tempPath("crash/merged.jsonl");
    fs::remove_all(tempPath("crash"));
    fs::create_directories(tempPath("crash"));

    DispatchOptions opts = integrationOptions(out);
    // Slice 1 (2 records) dies like a SIGKILL after flushing its
    // first record — the retry must skip that record and finish.
    opts.firstAttemptFaults[1].exitAfter = 1;

    std::ostringstream diag;
    DispatchReport report;
    ASSERT_TRUE(runDispatch(registry_, opts, diag, &report))
        << diag.str();
    EXPECT_EQ(report.totalRuns, 4u);
    EXPECT_EQ(report.retries, 1u);
    EXPECT_EQ(report.launches, 4u); // 3 slices + 1 retry
    EXPECT_EQ(slurp(out), slurp(referencePath_));

    // The relaunch appended after the salvaged record rather than
    // re-running the whole slice.
    EXPECT_NE(
        slurp(out + ".dispatch/journal.jsonl").find("\"skip\":1"),
        std::string::npos);

    // status.json reports the finished dispatch.
    json::Value status;
    std::string err;
    ASSERT_TRUE(json::parse(slurp(out + ".dispatch/status.json"),
                            status, err))
        << err;
    EXPECT_EQ(status.find("state")->str, "done");
    std::uint64_t done = 0;
    ASSERT_TRUE(
        status.find("records")->find("done")->asU64(done));
    EXPECT_EQ(done, 4u);
}

TEST_F(DispatchIntegration, HungWorkerIsKilledAndRedispatched)
{
    const std::string out = tempPath("hang/merged.jsonl");
    fs::remove_all(tempPath("hang"));
    fs::create_directories(tempPath("hang"));

    DispatchOptions opts = integrationOptions(out);
    // Slice 2 hangs after its single record; the deadline floor is
    // generous against CI timing noise but far below the test
    // timeout.
    opts.firstAttemptFaults[2].hangAfter = 0;
    opts.policy.minDeadlineMs = 1500;

    std::ostringstream diag;
    DispatchReport report;
    ASSERT_TRUE(runDispatch(registry_, opts, diag, &report))
        << diag.str();
    EXPECT_EQ(report.stragglersKilled, 1u);
    EXPECT_EQ(report.retries, 1u);
    EXPECT_EQ(slurp(out), slurp(referencePath_));
}

TEST_F(DispatchIntegration, ResumeRunsOnlyTheMissingRecords)
{
    const std::string out = tempPath("resume/merged.jsonl");
    fs::remove_all(tempPath("resume"));
    fs::create_directories(tempPath("resume"));

    DispatchOptions opts = integrationOptions(out);
    std::ostringstream diag1;
    ASSERT_TRUE(runDispatch(registry_, opts, diag1, nullptr))
        << diag1.str();
    EXPECT_EQ(slurp(out), slurp(referencePath_));

    // Simulate a kill -9 mid-slice-1: cut its trajectory mid-frame,
    // drop its manifest, drop the merged outputs.
    const std::string workDir = out + ".dispatch";
    ASSERT_NO_FATAL_FAILURE(
        tearAfterFirstFrame(workDir + "/slice_1.gtrj"));
    fs::remove(workDir + "/slice_1.manifest.json");
    fs::remove(out);

    std::ostringstream diag2;
    DispatchReport report;
    ASSERT_TRUE(runDispatch(registry_, opts, diag2, &report))
        << diag2.str();
    // Slices 2 and 3 were complete: no relaunch. Slice 1 salvaged
    // its first record and re-ran only the second.
    EXPECT_EQ(report.resumedDoneSlices, 2u);
    EXPECT_EQ(report.launches, 1u);
    EXPECT_EQ(report.resumedRecords, 3u); // 1 salvaged + 2 + 1 done
    EXPECT_EQ(report.recordsRun, 1u);
    EXPECT_EQ(slurp(out), slurp(referencePath_));
    // The torn tail was journaled as a trim.
    EXPECT_NE(slurp(workDir + "/journal.jsonl").find("\"trim\""),
              std::string::npos);

    // The merged manifest replays clean: grid shapes, config hashes
    // and record bytes all line up with the archive.
    std::ostringstream vdiag;
    const ExperimentEngine engine(1);
    EXPECT_TRUE(verifyManifest(registry_, engine,
                               workDir + "/manifest.json", vdiag))
        << vdiag.str();
}

TEST_F(DispatchIntegration, WarmupSnapshotDirSurvivesKillAndResume)
{
    const std::string out = tempPath("warmsnap/merged.jsonl");
    fs::remove_all(tempPath("warmsnap"));
    fs::create_directories(tempPath("warmsnap"));
    const std::string snapDir = tempPath("warmsnap/snapshots");
    fs::create_directories(snapDir);

    // Warm variant of the integration sweep: same 4-run grid, every
    // run split 3:1 warmup:measure so the seeds' two warmup stems are
    // shared through the exchange directory.
    SweepOptions sweep = integrationSweep();
    sweep.warmupInstructions = 1500;

    // In-process warm reference (no snapshot directory: in-process
    // memoization alone must already give the same bytes).
    const std::string ref = tempPath("warmsnap/reference.jsonl");
    {
        TrajectorySink sink(ref);
        const ExperimentEngine engine(1);
        const Scenario *scenario = registry_.find("fig05");
        ASSERT_NE(scenario, nullptr);
        const std::vector<RunConfig> runs =
            expandReplicatedRuns(*scenario, sweep, nullptr);
        sink.append("fig05", runs, engine.run(runs));
        sink.close();
    }

    DispatchOptions opts = integrationOptions(out);
    opts.sweep = sweep;
    opts.snapshotDir = snapDir;

    std::ostringstream diag1;
    ASSERT_TRUE(runDispatch(registry_, opts, diag1, nullptr))
        << diag1.str();
    EXPECT_EQ(slurp(out), slurp(ref));

    // The workers exchanged warmup stems through the directory.
    std::size_t snapshots = 0;
    for (const auto &e : fs::directory_iterator(snapDir)) {
        EXPECT_EQ(e.path().extension(), ".gsnp") << e.path();
        ++snapshots;
    }
    EXPECT_GT(snapshots, 0u);

    // Kill -9 aftermath: a torn slice trajectory, every snapshot in
    // the exchange directory truncated to half, and a stale garbage
    // file alongside them. The resumed dispatch must ignore the
    // partial/foreign snapshots (re-producing whichever stems it
    // needs) and still converge to the reference bytes.
    const std::string workDir = out + ".dispatch";
    ASSERT_NO_FATAL_FAILURE(
        tearAfterFirstFrame(workDir + "/slice_1.gtrj"));
    fs::remove(workDir + "/slice_1.manifest.json");
    fs::remove(out);
    for (const auto &e : fs::directory_iterator(snapDir))
        fs::resize_file(e.path(), fs::file_size(e.path()) / 2);
    spit(snapDir + "/snap_0000000000000bad.gsnp",
         "not a snapshot at all");

    std::ostringstream diag2;
    DispatchReport report;
    ASSERT_TRUE(runDispatch(registry_, opts, diag2, &report))
        << diag2.str();
    EXPECT_EQ(report.resumedDoneSlices, 2u);
    EXPECT_EQ(report.launches, 1u);
    EXPECT_EQ(slurp(out), slurp(ref));
}

TEST_F(DispatchIntegration, GtrjDispatchResumesAcrossATornFrame)
{
    const std::string out = tempPath("gtrj/merged.gtrj");
    fs::remove_all(tempPath("gtrj"));
    fs::create_directories(tempPath("gtrj"));

    // The unsharded binary reference the dispatch must reproduce.
    const std::string refPath = tempPath("gtrj/reference.gtrj");
    writeReference(registry_, refPath);

    DispatchOptions opts = integrationOptions(out);
    // Slice 1 dies after flushing its first frame; the retry must
    // append from the salvaged frame.
    opts.firstAttemptFaults[1].exitAfter = 1;
    std::ostringstream diag1;
    DispatchReport report;
    ASSERT_TRUE(runDispatch(registry_, opts, diag1, &report))
        << diag1.str();
    EXPECT_EQ(report.retries, 1u);
    EXPECT_EQ(slurp(out), slurp(refPath));

    // Kill -9 simulation on the binary slice: tear its second frame,
    // drop the slice manifest and the merged outputs, then resume.
    const std::string workDir = out + ".dispatch";
    ASSERT_NO_FATAL_FAILURE(
        tearAfterFirstFrame(workDir + "/slice_1.gtrj"));
    fs::remove(workDir + "/slice_1.manifest.json");
    fs::remove(out);

    opts.firstAttemptFaults.clear(); // the resume runs fault-free
    std::ostringstream diag2;
    ASSERT_TRUE(runDispatch(registry_, opts, diag2, &report))
        << diag2.str();
    EXPECT_EQ(report.resumedDoneSlices, 2u);
    EXPECT_EQ(report.launches, 1u);
    EXPECT_EQ(report.recordsRun, 1u);
    EXPECT_EQ(slurp(out), slurp(refPath));
    EXPECT_NE(slurp(workDir + "/journal.jsonl").find("\"trim\""),
              std::string::npos);

    // The merged binary manifest replays clean through --verify.
    std::ostringstream vdiag;
    const ExperimentEngine engine(1);
    EXPECT_TRUE(verifyManifest(registry_, engine,
                               workDir + "/manifest.json", vdiag))
        << vdiag.str();
}

/** A CSV output is merged like any other: the slices are gtrj, and
 *  the fan-in renders the CSV an unsharded run writes. */
TEST_F(DispatchIntegration, CsvDispatchMatchesTheUnshardedCsv)
{
    const std::string out = tempPath("csv/merged.csv");
    fs::remove_all(tempPath("csv"));
    fs::create_directories(tempPath("csv"));
    const std::string refPath = tempPath("csv/reference.csv");
    writeReference(registry_, refPath);

    DispatchOptions opts = integrationOptions(out);
    opts.firstAttemptFaults[1].exitAfter = 1;
    std::ostringstream diag;
    DispatchReport report;
    ASSERT_TRUE(runDispatch(registry_, opts, diag, &report))
        << diag.str();
    EXPECT_EQ(report.retries, 1u);
    EXPECT_EQ(slurp(out), slurp(refPath));
    EXPECT_TRUE(fs::exists(out + ".dispatch/slice_1.gtrj"));

    std::ostringstream vdiag;
    EXPECT_TRUE(verifyManifest(registry_, ExperimentEngine(1),
                               out + ".dispatch/manifest.json", vdiag))
        << vdiag.str();
}

TEST_F(DispatchIntegration, PlanMismatchRefusesToResume)
{
    const std::string out = tempPath("plan/merged.jsonl");
    fs::remove_all(tempPath("plan"));
    fs::create_directories(tempPath("plan"));

    DispatchOptions opts = integrationOptions(out);
    std::ostringstream diag1;
    ASSERT_TRUE(runDispatch(registry_, opts, diag1, nullptr))
        << diag1.str();

    // Same work dir, different sweep: must refuse, not mis-merge.
    DispatchOptions other = opts;
    other.sweep.instructions = 4000;
    std::ostringstream diag2;
    EXPECT_FALSE(runDispatch(registry_, other, diag2, nullptr));
    EXPECT_NE(diag2.str().find("different sweep plan"),
              std::string::npos)
        << diag2.str();

    // --fresh discards the old state and runs the new plan.
    other.fresh = true;
    std::ostringstream diag3;
    ASSERT_TRUE(runDispatch(registry_, other, diag3, nullptr))
        << diag3.str();
}

TEST_F(DispatchIntegration, RetryCapExhaustionFailsTheDispatch)
{
    const std::string out = tempPath("exhaust/merged.jsonl");
    fs::remove_all(tempPath("exhaust"));
    fs::create_directories(tempPath("exhaust"));

    DispatchOptions opts = integrationOptions(out);
    opts.slices = 2;
    opts.workers = 1;
    opts.policy.maxAttempts = 2;
    // Every attempt of every slice dies before its first record.
    opts.workerArgs = {"--fault-exit-after", "0"};

    std::ostringstream diag;
    DispatchReport report;
    EXPECT_FALSE(runDispatch(registry_, opts, diag, &report));
    EXPECT_NE(diag.str().find("attempts exhausted"),
              std::string::npos)
        << diag.str();
    EXPECT_FALSE(fs::exists(out)); // no merged output on failure

    json::Value status;
    std::string err;
    ASSERT_TRUE(json::parse(slurp(out + ".dispatch/status.json"),
                            status, err))
        << err;
    EXPECT_EQ(status.find("state")->str, "failed");
}

TEST_F(DispatchIntegration, ConcurrentDispatchIsLockedOut)
{
    const std::string out = tempPath("lock/merged.jsonl");
    fs::remove_all(tempPath("lock"));
    fs::create_directories(tempPath("lock") + "/merged.jsonl.dispatch");

    // Hold the journal lock the way a live orchestrator would.
    const std::string journal =
        out + ".dispatch/journal.jsonl";
    const int fd = ::open(journal.c_str(), O_RDWR | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);

    DispatchOptions opts = integrationOptions(out);
    std::ostringstream diag;
    EXPECT_FALSE(runDispatch(registry_, opts, diag, nullptr));
    EXPECT_NE(diag.str().find("another dispatch"),
              std::string::npos)
        << diag.str();
    ::close(fd);
}

/** An archive whose manifest reads `"engine": "heap"` (written before
 *  the std::set event queue was retired; same pop order) still
 *  verifies; any other engine name is rejected. */
TEST(ArchiveCompat, HeapEraManifestStillVerifies)
{
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);
    const std::string traj = tempPath("compat.jsonl");
    writeReference(registry, traj);

    const SweepOptions sweep = integrationSweep();
    std::size_t gridSize = 0;
    const std::vector<RunConfig> runs = expandReplicatedRuns(
        *registry.find("fig05"), sweep, &gridSize);
    const std::string manifest = tempPath("compat.manifest.json");
    writeManifestFile(manifest, sweep, traj,
                      {{"fig05", gridSize, 2, runConfigHash(runs)}});

    const std::string calendarField = "\"engine\": \"calendar\"";
    const std::string text = slurp(manifest);
    const std::size_t at = text.find(calendarField);
    ASSERT_NE(at, std::string::npos) << text;
    const auto verifyAs = [&](const std::string &engine,
                              std::ostringstream &diag) {
        std::string edited = text;
        edited.replace(at, calendarField.size(),
                       "\"engine\": \"" + engine + "\"");
        spit(manifest, edited);
        return verifyManifest(registry, ExperimentEngine(2), manifest,
                              diag);
    };

    std::ostringstream heap;
    EXPECT_TRUE(verifyAs("heap", heap)) << heap.str();
    std::ostringstream bogus;
    EXPECT_FALSE(verifyAs("bogus", bogus));
    EXPECT_NE(bogus.str().find("unknown engine 'bogus'"),
              std::string::npos)
        << bogus.str();
}

/** A shard archived as JSON lines by an older build can no longer be
 *  merged, but its manifest still replays against it. */
TEST(ArchiveCompat, TextShardManifestStillVerifies)
{
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);
    SweepOptions sweep = integrationSweep();
    std::size_t gridSize = 0;
    const std::vector<RunConfig> runs = expandReplicatedRuns(
        *registry.find("fig05"), sweep, &gridSize);
    sweep.shard = ShardSpec{2, 3};
    const std::vector<std::size_t> indices =
        shardRunIndices(runs.size(), sweep.shard);
    const std::vector<RunConfig> shardRuns = selectRuns(runs, indices);

    const std::string traj = tempPath("text_shard.jsonl");
    {
        TrajectorySink sink(traj);
        sink.append("fig05", shardRuns,
                    ExperimentEngine(1).run(shardRuns), &indices);
        sink.close();
    }
    const std::string manifest = tempPath("text_shard.manifest.json");
    writeManifestFile(manifest, sweep, traj,
                      {{"fig05", gridSize, 2, runConfigHash(runs)}});

    std::ostringstream diag;
    EXPECT_TRUE(verifyManifest(registry, ExperimentEngine(1), manifest,
                               diag))
        << diag.str();
}

/** Flag combinations that cannot do what a manifest would claim are
 *  usage errors (exit 2) on both the sweep and the dispatch parser:
 *  a warmup split on a fabric sweep, a fabric beyond the core cap, an
 *  interval meter finer than the nominal clock period, the retired
 *  --engine flag, an unknown benchmark, and environment defaults that
 *  the flags they stand for would reject. */
TEST(CliUsage, UnsupportedSweepsExitTwoOnBothParsers)
{
    const std::string bin = galsbenchBinary();
    if (bin.empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string out = tempPath("cli_usage.jsonl");
    fs::remove_all(out);
    fs::remove_all(out + ".dispatch");
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"", "--scenario fabric_smoke --insts 5000 --warmup-insts 1000"},
        {"", "--scenario fabric_smoke --cores 1000000"},
        {"", "--scenario fabric_smoke --cores 2,1025"},
        {"", "--scenario fig05 --insts 3000 --interval-ticks 1"},
        {"", "--scenario fig05 --insts 3000 --interval-ticks 999"},
        // The retired event-queue selector is an unknown flag.
        {"", "--scenario quickstart --engine calendar"},
        {"", "--scenario quickstart --bench nosuch"},
        {"GALSSIM_BENCH=nosuch ", "--scenario quickstart"},
        {"GALSSIM_INSTS=0 ", "--scenario quickstart"},
        {"GALSSIM_INSTS=abc ", "--scenario quickstart"},
        {"GALSSIM_INSTS=5x ", "--scenario quickstart"},
    };
    for (const auto &[env, args] : cases) {
        for (const char *prefix : {"", "dispatch "}) {
            const std::string cmd = env + bin + " " + prefix + args +
                                    " --output " + out +
                                    " > /dev/null 2>&1";
            const int status = std::system(cmd.c_str());
            ASSERT_TRUE(WIFEXITED(status)) << cmd;
            EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
        }
    }
    EXPECT_FALSE(fs::exists(out));

    // A negative count would wrap to a near-endless run if it got
    // past the parser, so it is checked through the parser alone.
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);
    const char *saved = std::getenv("GALSSIM_INSTS");
    const std::string restore = saved ? saved : "";
    ::setenv("GALSSIM_INSTS", "-3", 1);
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--scenario", "quickstart"},
          std::vector<std::string>{"dispatch", "--scenario",
                                   "quickstart", "--output", out}}) {
        CliOptions opts;
        std::string err;
        EXPECT_FALSE(parseCli(args, registry, opts, err));
        EXPECT_NE(err.find("GALSSIM_INSTS"), std::string::npos) << err;
    }
    // The command line wins over the environment.
    CliOptions opts;
    std::string err;
    EXPECT_TRUE(parseCli({"--scenario", "quickstart", "--insts", "7"},
                         registry, opts, err))
        << err;
    EXPECT_EQ(opts.sweep.instructions, 7u);
    if (saved)
        ::setenv("GALSSIM_INSTS", restore.c_str(), 1);
    else
        ::unsetenv("GALSSIM_INSTS");
}

/** Flags a mode does not accept, values dispatch cannot honour, and
 *  text shard outputs or merge inputs (shards are .gtrj) are usage
 *  errors (exit 2) that write nothing. */
TEST(CliUsage, EachModeRejectsWhatItCannotUse)
{
    const std::string bin = galsbenchBinary();
    if (bin.empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string jsonl = tempPath("cli_mode.jsonl");
    const std::string csv = tempPath("cli_mode.csv");
    const std::string dispatch = "dispatch --scenario quickstart ";
    for (const std::string &path : {jsonl, csv})
        for (const std::string &left : {path, path + ".dispatch"})
            fs::remove_all(left);
    const std::vector<std::string> cases = {
        dispatch + "--output " + jsonl + " --jobs 2",
        "parse " + tempPath("cli_mode.gtrj") + " --insts 5 --output " +
            jsonl,
        "--verify " + tempPath("cli_mode.manifest.json") + " --seed 3",
        "--list --insts 5",
        "--list --jobs 4",
        "--scenario quickstart --shard 1/2 --output " + jsonl,
        "--scenario quickstart --shard 1/2 --output " + csv,
        "--merge " + tempPath("a.jsonl") + " " + tempPath("b.jsonl") +
            " --output " + jsonl,
        dispatch + "--output " + jsonl + " --straggler-factor nan",
        dispatch + "--output " + jsonl + " --straggler-factor inf",
    };
    for (const std::string &args : cases) {
        const std::string cmd = bin + " " + args + " > /dev/null 2>&1";
        const int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << cmd;
        EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
    }
    for (const std::string &path : {jsonl, csv})
        for (const std::string &left : {path, path + ".dispatch"})
            EXPECT_FALSE(fs::exists(left)) << left;
}

/** `--help` and `dispatch --help` exit 0 and name every flag the
 *  usage text is meant to show, and none of the hidden ones. */
TEST(CliUsage, HelpListsEveryVisibleFlag)
{
    const std::string bin = galsbenchBinary();
    if (bin.empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string out = tempPath("cli_help.txt");
    for (const char *prefix : {"", "dispatch "}) {
        const std::string cmd =
            bin + " " + prefix + "--help > " + out + " 2>/dev/null";
        const int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << cmd;
        EXPECT_EQ(WEXITSTATUS(status), 0) << cmd;
        std::string text = slurp(out);
        std::replace(text.begin(), text.end(), '[', ' ');
        std::replace(text.begin(), text.end(), ']', ' ');
        std::istringstream words(text);
        const std::set<std::string> tokens{
            std::istream_iterator<std::string>(words),
            std::istream_iterator<std::string>()};
        for (const CliFlag &f : cliFlags())
            EXPECT_EQ(tokens.count(f.name) == 1, !f.hidden)
                << prefix << f.name;
    }
}

/** The argv a dispatch worker is launched with, parsed back through
 *  the flag table, describes the same sweep byte for byte: a flag
 *  that is parsed but not forwarded to workers fails here. */
TEST(CliArgv, WorkerArgvRoundTripsTheManifest)
{
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);
    const std::string snapshots = tempPath("argv_snapshots");
    fs::create_directories(snapshots);

    DispatchOptions d;
    d.scenarios = {"quickstart", "fig05"};
    d.sweep.instructions = 3000;
    d.sweep.explicitSeeds = {7, 11, 13};
    d.sweep.benchmarks = {"gcc", "adpcm"};
    d.sweep.coreCounts = {2, 4};
    d.sweep.topologies = {"ring", "mesh2d"};
    d.sweep.traffics = {"uniform", "hotspot:1"};
    d.sweep.intervalTicks = 2000;
    d.sweep.warmupInstructions = 1000;
    d.snapshotDir = snapshots;
    d.workerJobs = 3;

    CliOptions worker = workerOptions(d, ShardSpec{2, 3});
    worker.outputPath = "slice_2.gtrj";
    worker.manifestPath = "slice_2.manifest.json";
    worker.resumeSkip = 4;
    worker.fault.exitAfter = 5;

    CliOptions back;
    std::string err;
    ASSERT_TRUE(parseCli(cliArgv(worker), registry, back, err)) << err;
    const auto manifest = [](const CliOptions &o) {
        std::ostringstream os;
        writeManifest(os, o.sweep, o.outputPath, {{"fig05", 32, 3, 1}});
        return os.str();
    };
    EXPECT_EQ(manifest(back), manifest(worker));
    EXPECT_EQ(back.mode, cliRun);
    EXPECT_EQ(back.scenarios, d.scenarios);
    EXPECT_EQ(back.jobs, d.workerJobs);
    EXPECT_EQ(back.snapshotDir, snapshots);
    EXPECT_EQ(back.manifestPath, worker.manifestPath);
    EXPECT_EQ(back.resumeSkip, worker.resumeSkip);
    EXPECT_EQ(back.fault.exitAfter, worker.fault.exitAfter);
    EXPECT_EQ(back.fault.hangAfter, FaultPlan::disabled);
}

} // namespace
