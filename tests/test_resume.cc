/**
 * @file
 * Tests for crash-resume (`galsbench --resume`) and the run path's
 * command line.
 *
 * The resume scan is tested pure on fabricated frames: which prefix
 * it keeps, where it cuts, and which files it refuses as another
 * sweep. The integration tests then drive the real binary: every cut
 * point of four sweeps' trajectories (empty, inside the header, at,
 * just after and just before every frame boundary) resumed at --jobs
 * 1 and 3 must reproduce the uninterrupted trajectory and manifest
 * byte for byte, and so must a child SIGKILLed part way through its
 * sweep. Also here: the atomic-write guarantees the manifest rests
 * on, the archive compatibility of older manifests, and the usage
 * errors (exit 2) of the run path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/register_all.hh"
#include "power/power_model.hh"
#include "runner/atomic_file.hh"
#include "runner/cli.hh"
#include "runner/engine.hh"
#include "runner/gtrj.hh"
#include "runner/json.hh"
#include "runner/merge.hh"
#include "runner/reporter.hh"
#include "runner/trajectory.hh"

extern char **environ;

using namespace gals;
using namespace gals::runner;

namespace fs = std::filesystem;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "galssim_resume_" + name;
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

// -------------------------------------------------------------- resume scan

/** The config fakeGtrjFrame() encodes. */
RunConfig
fakeConfig(const std::string &benchmark = "adpcm",
           std::uint64_t instructions = 2000)
{
    RunConfig cfg;
    cfg.benchmark = benchmark;
    cfg.instructions = instructions;
    return cfg;
}

/** One encoded gtrj frame with just enough record identity for the
 *  scan: scenario, canonical index, benchmark, instruction count. */
std::string
fakeGtrjFrame(const std::string &scenario, std::uint64_t index,
              const std::string &benchmark = "adpcm",
              std::uint64_t instructions = 2000)
{
    RunResults r;
    r.benchmark = benchmark;
    r.timeSec = 0.5;
    // The encoder's positional unit-energy block requires the full
    // power-model unit set, exactly like a real run.
    for (unsigned u = 0; u < numUnits; ++u)
        r.unitEnergyNj[unitName(static_cast<Unit>(u))] = 1.0;
    return gtrj::encodeRecord(scenario, index,
                              fakeConfig(benchmark, instructions), r);
}

/** A one-scenario plan of fakeConfig() runs at @p indices. */
SweepPlan
expectations(const std::string &scenario,
             std::initializer_list<std::size_t> indices)
{
    PlannedScenario p;
    p.manifest.name = scenario;
    p.indices = indices;
    p.runs.assign(p.indices.size(), fakeConfig());
    return {p};
}

TEST(ResumeScan, MissingFileIsAnEmptyPrefix)
{
    const std::string path = tempPath("scan_missing.gtrj");
    fs::remove(path);
    std::size_t kept = 1;
    std::string err;
    ASSERT_TRUE(resumeTrajectory(path, expectations("s", {0, 3}), kept, err))
        << err;
    EXPECT_EQ(kept, 0u);
    EXPECT_FALSE(fs::exists(path));
}

/** Records past the planned end mean the file holds a larger sweep:
 *  the run refuses it rather than cutting records it did not write. */
TEST(ResumeScan, RecordsPastTheExpectedEndAreAnotherSweep)
{
    const std::string path = tempPath("scan_extra.gtrj");
    const std::string text = gtrj::fileHeader() +
                             fakeGtrjFrame("s", 0) +
                             fakeGtrjFrame("s", 3) +
                             fakeGtrjFrame("s", 9);
    spit(path, text);
    ResumeScan scan;
    std::string err;
    std::size_t kept = 0;
    EXPECT_FALSE(scanResume(text, expectations("s", {0, 3}), scan, err));
    EXPECT_NE(err.find("another sweep"), std::string::npos) << err;
    EXPECT_FALSE(resumeTrajectory(path, expectations("s", {0, 3}), kept,
                                  err));
    EXPECT_NE(err.find(path), std::string::npos) << err;
    EXPECT_EQ(slurp(path), text); // untouched
}

TEST(ResumeScan, FullFileIsKeptWhole)
{
    const std::string text = gtrj::fileHeader() + fakeGtrjFrame("s", 0) +
                             fakeGtrjFrame("s", 3, "fpppp");
    SweepPlan plan = expectations("s", {0, 3});
    plan[0].runs[1].benchmark = "fpppp";
    ResumeScan scan;
    std::string err;
    ASSERT_TRUE(scanResume(text, plan, scan, err)) << err;
    EXPECT_EQ(scan.records, 2u);
    EXPECT_EQ(scan.bytes, text.size());
}

TEST(ResumeScan, TornTrailingFrameIsCut)
{
    const std::string path = tempPath("scan_torn.gtrj");
    const std::string keep =
        gtrj::fileHeader() + fakeGtrjFrame("s", 0);
    const std::string second = fakeGtrjFrame("s", 3);
    // A SIGKILL mid-write: the second frame lost its tail.
    spit(path, keep + second.substr(0, second.size() / 2));
    ResumeScan scan;
    std::string err;
    ASSERT_TRUE(
        scanResume(slurp(path), expectations("s", {0, 3}), scan, err))
        << err;
    EXPECT_EQ(scan.records, 1u);
    EXPECT_EQ(scan.bytes, keep.size());

    std::size_t kept = 0;
    ASSERT_TRUE(resumeTrajectory(path, expectations("s", {0, 3}), kept,
                                 err))
        << err;
    EXPECT_EQ(kept, 1u);
    EXPECT_EQ(slurp(path), keep);
}

TEST(ResumeScan, TornHeaderKeepsNothing)
{
    ResumeScan scan;
    std::string err;
    ASSERT_TRUE(scanResume(gtrj::fileHeader().substr(0, 2),
                           expectations("s", {0}), scan, err))
        << err;
    EXPECT_EQ(scan.records, 0u);
    EXPECT_EQ(scan.bytes, 0u); // the reopened sink rewrites it

    // A header that is not a prefix of ours is a foreign file.
    EXPECT_FALSE(scanResume("{\"not\": \"gtrj\"}\n",
                            expectations("s", {0}), scan, err));
}

/** A frame that decodes but is not the planned record — another
 *  index, another instruction budget — is another sweep's: the scan
 *  refuses it instead of silently cutting valid records away. */
TEST(ResumeScan, MismatchedFrameIsAnotherSweep)
{
    ResumeScan scan;
    std::string err;
    EXPECT_FALSE(scanResume(gtrj::fileHeader() + fakeGtrjFrame("s", 0) +
                                fakeGtrjFrame("s", 7) +
                                fakeGtrjFrame("s", 5),
                            expectations("s", {0, 3, 5}), scan, err));
    EXPECT_NE(err.find("another sweep"), std::string::npos) << err;

    EXPECT_FALSE(
        scanResume(gtrj::fileHeader() + fakeGtrjFrame("s", 0, "adpcm", 3000),
                   expectations("s", {0}), scan, err));
    EXPECT_NE(err.find("3000 insts"), std::string::npos) << err;

    // The benchmark is encoded from the results, and compared too.
    EXPECT_FALSE(scanResume(gtrj::fileHeader() + fakeGtrjFrame("s", 0, "gcc"),
                            expectations("s", {0}), scan, err));
    EXPECT_NE(err.find("gcc"), std::string::npos) << err;
}

/** An undecodable frame is a torn tail, not evidence of another
 *  sweep: it and everything after it is cut and re-run. */
TEST(ResumeScan, UndecodableFrameEndsThePrefix)
{
    const std::string keep = gtrj::fileHeader() + fakeGtrjFrame("s", 0);
    std::string bad = fakeGtrjFrame("s", 3);
    bad[1] = '\x7f'; // the scenario name's length runs off the payload
    ResumeScan scan;
    std::string err;
    ASSERT_TRUE(scanResume(keep + bad + fakeGtrjFrame("s", 5),
                           expectations("s", {0, 3, 5}), scan, err))
        << err;
    EXPECT_EQ(scan.records, 1u);
    EXPECT_EQ(scan.bytes, keep.size());
}

// ------------------------------------------------------------ atomic write

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
        "/nonexistent-dir/galssim_resume_atomic.json", "x", err));
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
    // writeManifestFile() goes through the temp-file + rename path.
    const std::string path = tempPath("manifest_atomic.json");
    SweepOptions opts;
    writeManifestFile(path, opts, "", {});
    EXPECT_FALSE(fs::exists(atomicTempPath(path)));
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(slurp(path), v, err)) << err;
}

// ------------------------------------------------------- archive compat

/** fig05, one benchmark, two seeds: a 4-run grid. */
SweepOptions
smallSweep()
{
    SweepOptions sweep;
    sweep.instructions = 2000;
    sweep.benchmarks = {"adpcm"};
    sweep.explicitSeeds = {0, 1};
    return sweep;
}

/** smallSweep()'s fig05 grid and its results, as an archive of an
 *  older build wrote them: JSON lines straight from the reporter. */
void
writeReference(const std::vector<RunConfig> &runs, const std::string &path,
               const std::vector<std::size_t> *indices = nullptr)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    writeJsonLines(os, "fig05", runs, ExperimentEngine(1).run(runs),
                   indices);
    ASSERT_TRUE(os.good()) << path;
}

/** An archive whose manifest reads `"engine": "heap"` (written before
 *  the std::set event queue was retired; same pop order) still
 *  verifies; any other engine name is rejected. */
TEST(ArchiveCompat, HeapEraManifestStillVerifies)
{
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);
    const SweepOptions sweep = smallSweep();
    std::size_t gridSize = 0;
    const std::vector<RunConfig> runs = expandReplicatedRuns(
        *registry.find("fig05"), sweep, &gridSize);
    const std::string traj = tempPath("compat.jsonl");
    writeReference(runs, traj);
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
    SweepOptions sweep = smallSweep();
    std::size_t gridSize = 0;
    const std::vector<RunConfig> runs = expandReplicatedRuns(
        *registry.find("fig05"), sweep, &gridSize);
    sweep.shard = ShardSpec{2, 3};
    const std::vector<std::size_t> indices =
        shardRunIndices(runs.size(), sweep.shard);
    const std::vector<RunConfig> shardRuns = selectRuns(runs, indices);

    const std::string traj = tempPath("text_shard.jsonl");
    writeReference(shardRuns, traj, &indices);
    const std::string manifest = tempPath("text_shard.manifest.json");
    writeManifestFile(manifest, sweep, traj,
                      {{"fig05", gridSize, 2, runConfigHash(runs)}});

    std::ostringstream diag;
    EXPECT_TRUE(verifyManifest(registry, ExperimentEngine(1), manifest,
                               diag))
        << diag.str();
}

// -------------------------------------------------------------- binary

/** The galsbench binary under test: the GALSBENCH env var (set by
 *  CTest), falling back to a sibling of this test binary. */
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

/** Run `cd DIR && galsbench ARGS` with output discarded; returns the
 *  exit code, or -1 if it did not exit normally. */
int
galsbench(const std::string &dir, const std::string &args)
{
    const std::string cmd = "cd '" + dir + "' && '" + galsbenchBinary() +
                            "' " + args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// --------------------------------------------------------- usage errors

/** Flag combinations that cannot do what a manifest would claim are
 *  usage errors (exit 2) that write nothing: a warmup split on a
 *  fabric sweep, a fabric beyond the core cap or with a traffic spec
 *  naming a core it lacks, an interval meter finer than the nominal
 *  clock period, a manifest directory that does not exist, more runs
 *  than maxPlannedRuns, a manifest at the trajectory's path, trajectory
 *  files given to --merge, the retired --engine, --merge-manifest,
 *  dispatch and --resume-skip, an unknown benchmark, and environment
 *  defaults that the flags they stand for would reject. */
TEST(CliUsage, UnsupportedSweepsExitTwo)
{
    if (galsbenchBinary().empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string dir = tempPath("cli_usage");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"", "--scenario fabric_smoke --insts 5000 --warmup-insts 1000"},
        {"", "--scenario fabric_smoke --cores 1000000"},
        {"", "--scenario fabric_smoke --cores 2,1025"},
        {"", "--scenario fabric_smoke --traffic hotspot:99"},
        {"", "--scenario fabric_smoke --traffic hotspot:99 --format json"},
        {"", "--all --traffic hotspot:99"},
        {"", "--scenario fig05 --insts 3000 --interval-ticks 1"},
        {"", "--scenario fig05 --insts 3000 --interval-ticks 999"},
        {"", "--scenario fig05 --manifest /nonexistent/m.json"},
        // Retired flags and modes are unknown arguments.
        {"", "--scenario quickstart --engine calendar"},
        {"", "dispatch --scenario fig05"},
        {"", "--scenario quickstart --resume-skip 3"},
        {"", "--scenario quickstart --bench nosuch"},
        {"GALSSIM_BENCH=nosuch ", "--scenario quickstart"},
        {"GALSSIM_INSTS=0 ", "--scenario quickstart"},
        {"GALSSIM_INSTS=abc ", "--scenario quickstart"},
        {"GALSSIM_INSTS=5x ", "--scenario quickstart"},
        // More runs than one invocation may plan.
        {"", "--scenario fig05 --insts 100 --seeds 4000000000"},
        // The manifest would replace the trajectory it describes.
        {"", "--scenario quickstart --manifest out.jsonl"},
        {"", "--scenario quickstart --manifest ./out.jsonl"},
        {"", "--merge s1.json s2.json --manifest out.jsonl"},
        // --merge takes the shard manifests.
        {"", "--merge s1.gtrj s2.gtrj"},
        {"", "--merge s1.json --merge-manifest s1.json"},
    };
    for (const auto &[env, args] : cases) {
        const std::string cmd = "cd '" + dir + "' && " + env + "'" +
                                galsbenchBinary() + "' " + args +
                                " --output out.jsonl > /dev/null 2>&1";
        const int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << cmd;
        EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
    }
    EXPECT_TRUE(fs::is_empty(dir));

    // A negative count would wrap to a near-endless run if it got
    // past the parser, so it is checked through the parser alone.
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);
    const char *saved = std::getenv("GALSSIM_INSTS");
    const std::string restore = saved ? saved : "";
    ::setenv("GALSSIM_INSTS", "-3", 1);
    {
        CliOptions opts;
        std::string err;
        EXPECT_FALSE(
            parseCli({"--scenario", "quickstart"}, registry, opts, err));
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

/** Flags a mode does not accept, text shard or resume outputs,
 *  trajectories given to --merge, a merge with nothing to write, an
 *  --output directory that does not exist, and a parse --output that
 *  is not text or is given with --format are usage errors (exit 2)
 *  that write nothing. */
TEST(CliUsage, EachModeRejectsWhatItCannotUse)
{
    if (galsbenchBinary().empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string dir = tempPath("cli_mode");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::vector<std::string> cases = {
        "parse in.gtrj --insts 5 --output out.jsonl",
        "--verify m.manifest.json --seed 3",
        "--verify m.manifest.json --resume",
        "--list --insts 5",
        "--list --jobs 4",
        "--scenario quickstart --shard 1/2 --output out.jsonl",
        "--scenario quickstart --shard 1/2 --output out.csv",
        "--scenario quickstart --resume",
        "--scenario quickstart --resume --output out.jsonl",
        "--scenario quickstart --resume --output out.csv",
        "--scenario quickstart --shard 1/2 --resume --manifest m.json",
        "--merge a.jsonl b.jsonl --output out.jsonl",
        "--merge a.json b.json",
        "--scenario quickstart --output nodir/out.jsonl",
        "parse in.gtrj --output out.gtrj",
        "parse in.gtrj --output out.txt",
        "parse in.gtrj --format csv --output out.csv",
    };
    for (const std::string &args : cases)
        EXPECT_EQ(galsbench(dir, args), 2) << args;
    EXPECT_TRUE(fs::is_empty(dir));
}

/** `--help` exits 0 and names every flag of the table. */
TEST(CliUsage, HelpListsEveryFlag)
{
    if (galsbenchBinary().empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string out = tempPath("cli_help.txt");
    const std::string cmd =
        "'" + galsbenchBinary() + "' --help > " + out + " 2>/dev/null";
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
        EXPECT_EQ(tokens.count(f.name), 1u) << f.name;
}

// ---------------------------------------------------------- resume exact

/** Byte offsets a kill can leave a trajectory at: empty, inside the
 *  header, and at, one byte after and one byte before the end of
 *  every frame. */
std::vector<std::size_t>
cutPoints(const std::string &full)
{
    std::size_t pos = 0;
    std::string err;
    EXPECT_TRUE(gtrj::readHeader(full, pos, err)) << err;
    std::set<std::size_t> cuts{0, pos / 2, pos};
    std::string_view payload;
    for (std::size_t start = pos;
         gtrj::nextFrame(full, pos, payload, err) ==
         gtrj::FrameStatus::ok;
         start = pos)
        cuts.insert({start + 1, pos - 1, pos});
    return {cuts.begin(), cuts.end()};
}

/**
 * Run @p args uninterrupted into DIR/ref, then, for every cut point of
 * its trajectory and at --jobs 1 and 3, resume the cut file in
 * DIR/res with the same command plus --resume: trajectory and
 * manifest must equal the uninterrupted ones byte for byte. Both runs
 * use the same relative paths, which the manifest records.
 */
void
expectEveryCutResumes(const std::string &name, const std::string &args)
{
    if (galsbenchBinary().empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string dir = tempPath(name);
    fs::remove_all(dir);
    fs::create_directories(dir + "/ref");
    fs::create_directories(dir + "/res");
    const std::string files = " --output out.gtrj --manifest out.json";
    ASSERT_EQ(galsbench(dir + "/ref", args + files + " --jobs 2"), 0);
    const std::string full = slurp(dir + "/ref/out.gtrj");
    const std::string manifest = slurp(dir + "/ref/out.json");

    for (std::size_t cut : cutPoints(full))
        for (const char *jobs : {" --jobs 1", " --jobs 3"}) {
            spit(dir + "/res/out.gtrj", full.substr(0, cut));
            fs::remove(dir + "/res/out.json");
            ASSERT_EQ(galsbench(dir + "/res",
                                args + files + jobs + " --resume"),
                      0)
                << "cut at byte " << cut << jobs;
            ASSERT_EQ(slurp(dir + "/res/out.gtrj"), full)
                << "cut at byte " << cut << jobs;
            ASSERT_EQ(slurp(dir + "/res/out.json"), manifest)
                << "cut at byte " << cut << jobs;
        }
}

TEST(ResumeExact, UnshardedFig05)
{
    expectEveryCutResumes("exact_fig05",
                          "--scenario fig05 --seeds 2 --insts 1000");
}

TEST(ResumeExact, ShardOfFig05)
{
    expectEveryCutResumes(
        "exact_shard", "--scenario fig05 --seeds 2 --insts 1000 --shard 2/3");
}

TEST(ResumeExact, FabricSmoke)
{
    expectEveryCutResumes("exact_fabric",
                          "--scenario fabric_smoke --cores 2,4 "
                          "--topology ring --insts 1000");
}

TEST(ResumeExact, WarmSweepSharingASnapshotDir)
{
    const std::string snapshots = tempPath("exact_warm_snapshots");
    fs::remove_all(snapshots);
    fs::create_directories(snapshots);
    expectEveryCutResumes("exact_warm",
                          "--scenario dvfs-explorer --bench gcc "
                          "--insts 3000 --warmup-insts 2000 "
                          "--snapshot-dir '" + snapshots + "'");
}

/** A file written by another sweep (another instruction budget) is
 *  refused with exit 1 and left byte for byte as it was. */
TEST(ResumeExact, AnotherSweepIsRefusedAndLeftUntouched)
{
    if (galsbenchBinary().empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string dir = tempPath("exact_foreign");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string sweep = "--scenario fig05 --bench gcc --seeds 2 ";
    ASSERT_EQ(galsbench(dir, sweep + "--insts 3000 --output out.gtrj"), 0);
    const std::string before = slurp(dir + "/out.gtrj");
    EXPECT_EQ(galsbench(dir, sweep + "--insts 4000 --output out.gtrj "
                                     "--manifest out.json --resume"),
              1);
    EXPECT_EQ(slurp(dir + "/out.gtrj"), before);
    EXPECT_FALSE(fs::exists(dir + "/out.json"));
}

/**
 * Shards of two sweeps, a shard file replaced by another sweep's and
 * a shard cut at a frame boundary are refused with exit 1, and no
 * merged trajectory or manifest is left behind; once --resume has
 * completed the cut shard, the merge equals the unsharded run.
 */
TEST(MergeExact, OnlyCompleteShardsOfOneSweepMerge)
{
    if (galsbenchBinary().empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string dir = tempPath("merge");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string sweep = "--scenario fig05 --seeds 2 --insts 2000 ";
    const std::string gcc = sweep + "--bench gcc ";
    ASSERT_EQ(galsbench(dir, gcc + "--shard 1/2 --output a1.gtrj "
                                   "--manifest a1.json"),
              0);
    ASSERT_EQ(galsbench(dir, gcc + "--shard 2/2 --output a2.gtrj "
                                   "--manifest a2.json"),
              0);
    ASSERT_EQ(galsbench(dir, sweep + "--bench go --shard 2/2 --output "
                                     "b2.gtrj --manifest b2.json"),
              0);
    ASSERT_EQ(galsbench(dir, gcc + "--output m.jsonl --manifest m.json"), 0);
    fs::rename(dir + "/m.jsonl", dir + "/ref.jsonl");
    fs::rename(dir + "/m.json", dir + "/ref.json");

    const std::string merged = " --output m.jsonl --manifest m.json";
    const auto refused = [&](const std::string &args) {
        EXPECT_EQ(galsbench(dir, args + merged), 1) << args;
        EXPECT_FALSE(fs::exists(dir + "/m.jsonl")) << args;
        EXPECT_FALSE(fs::exists(dir + "/m.json")) << args;
    };
    refused("--merge a1.json b2.json");
    const std::string a2 = slurp(dir + "/a2.gtrj");
    spit(dir + "/a2.gtrj", slurp(dir + "/b2.gtrj"));
    refused("--merge a1.json a2.json");

    std::size_t pos = 0;
    std::string err;
    std::string_view payload;
    ASSERT_TRUE(gtrj::readHeader(a2, pos, err)) << err;
    ASSERT_EQ(gtrj::nextFrame(a2, pos, payload, err), gtrj::FrameStatus::ok);
    spit(dir + "/a2.gtrj", a2.substr(0, pos));
    refused("--merge a1.json a2.json");

    ASSERT_EQ(galsbench(dir, gcc + "--shard 2/2 --output a2.gtrj "
                                   "--manifest a2.json --resume"),
              0);
    EXPECT_EQ(slurp(dir + "/a2.gtrj"), a2);
    ASSERT_EQ(galsbench(dir, "--merge a1.json a2.json" + merged), 0);
    EXPECT_EQ(slurp(dir + "/m.jsonl"), slurp(dir + "/ref.jsonl"));
    EXPECT_EQ(slurp(dir + "/m.json"), slurp(dir + "/ref.json"));
}

/** Frames currently in @p path (a torn tail just ends the count). */
std::size_t
framesIn(const std::string &path)
{
    std::string text, err;
    return readFile(path, text, err) ? gtrj::countFrames(text) : 0;
}

/**
 * The real thing: a galsbench child SIGKILLed once its trajectory
 * holds at least @p frames records, then resumed. The resumed
 * trajectory, its manifest and its .jsonl/.csv renderings equal an
 * uninterrupted run's, and the killed run left no manifest.
 */
TEST(ResumeExact, SigkilledChildResumesByteIdentical)
{
    if (galsbenchBinary().empty())
        GTEST_SKIP() << "galsbench binary not found (set GALSBENCH)";
    const std::string dir = tempPath("sigkill");
    fs::remove_all(dir);
    fs::create_directories(dir + "/ref");
    const std::string sweep =
        "--scenario fig05 --seeds 2 --insts 20000 --jobs 1";
    for (const char *ext : {"gtrj", "jsonl", "csv"})
        ASSERT_EQ(galsbench(dir + "/ref",
                            sweep + " --output out." + ext +
                                " --manifest out." + ext + ".json"),
                  0);
    const std::string full = slurp(dir + "/ref/out.gtrj");
    const std::size_t total = gtrj::countFrames(full);
    ASSERT_EQ(total, 64u);

    unsigned killed = 0;
    for (std::size_t frames : {std::size_t(1), total / 3, 2 * total / 3}) {
        const std::string res = dir + "/res" + std::to_string(frames);
        fs::create_directories(res);
        const std::string cmd = "cd '" + res + "' && exec '" +
                                galsbenchBinary() + "' " + sweep +
                                " --output out.gtrj --manifest "
                                "out.gtrj.json > /dev/null 2>&1";
        const char *argv[] = {"/bin/sh", "-c", cmd.c_str(), nullptr};
        pid_t pid = 0;
        ASSERT_EQ(::posix_spawn(&pid, "/bin/sh", nullptr, nullptr,
                                const_cast<char *const *>(argv), environ),
                  0);
        int status = 0;
        while (::waitpid(pid, &status, WNOHANG) == 0) {
            if (framesIn(res + "/out.gtrj") >= frames) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (WIFSIGNALED(status)) {
            ++killed;
            // The manifest is written last: a killed run has none.
            EXPECT_FALSE(fs::exists(res + "/out.gtrj.json")) << frames;
            EXPECT_LT(framesIn(res + "/out.gtrj"), total) << frames;
        }
        ASSERT_EQ(galsbench(res, sweep + " --output out.gtrj --manifest "
                                         "out.gtrj.json --resume"),
                  0);
        EXPECT_EQ(slurp(res + "/out.gtrj"), full) << frames;
        EXPECT_EQ(slurp(res + "/out.gtrj.json"),
                  slurp(dir + "/ref/out.gtrj.json"))
            << frames;
        for (const char *ext : {"jsonl", "csv"}) {
            ASSERT_EQ(galsbench(res, std::string("parse out.gtrj --output "
                                                 "out.") + ext),
                      0);
            EXPECT_EQ(slurp(res + "/out." + ext),
                      slurp(dir + "/ref/out." + ext))
                << frames << " " << ext;
        }
    }
    // At 20000 instructions a run takes milliseconds, so the sweep
    // lasts far longer than the kill takes to land.
    EXPECT_GT(killed, 0u);
}

} // namespace
