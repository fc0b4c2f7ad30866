/**
 * @file
 * Tests for grid sharding and shard fan-in: shardRunIndices() must
 * partition any grid completely, disjointly and near-evenly; the
 * JSON reader must round-trip our own record formats; and
 * mergeTrajectories()/mergeManifests() must reassemble .gtrj shard
 * files byte-identical to the unsharded originals in every output
 * format — including scenario-order recovery, the overlap/gap error
 * paths and the refusal of text or torn shards. Everything here runs
 * on fabricated results, no simulation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "power/power_model.hh"
#include "runner/json.hh"
#include "runner/merge.hh"
#include "runner/reporter.hh"
#include "runner/scenario.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "galssim_shard_" + name;
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

/** A fabricated run: every field deterministic in @p i, including
 *  the unit-energy columns the CSV header names. The gtrj encoder
 *  stores them positionally, so the set is the power model's, as in
 *  a real run. */
RunResults
fakeResult(std::size_t i)
{
    RunResults r;
    r.benchmark = i % 2 ? "fpppp" : "adpcm";
    r.gals = i % 2;
    r.committed = 1000 + i;
    r.fetched = 2000 + 3 * i;
    r.ticks = 5000 + 17 * i;
    r.timeSec = 1e-6 * static_cast<double>(i + 1);
    r.ipcNominal = 0.5 + 0.01 * static_cast<double>(i);
    r.energyJ = 1e-5 + 1e-7 * static_cast<double>(i);
    r.avgPowerW = 20.0 - 0.1 * static_cast<double>(i);
    for (unsigned u = 0; u < numUnits; ++u)
        r.unitEnergyNj[unitName(static_cast<Unit>(u))] =
            10.5 + static_cast<double>(i) + 3.25 * u;
    return r;
}

RunConfig
fakeConfig(std::size_t i)
{
    RunConfig c;
    c.benchmark = i % 2 ? "fpppp" : "adpcm";
    c.instructions = 2000;
    c.gals = i % 2;
    c.seed = i / 2;
    return c;
}

/** One fabricated scenario grid: cfgs/results for @p n runs. */
struct FakeGrid
{
    std::string name;
    std::vector<RunConfig> cfgs;
    std::vector<RunResults> results;

    FakeGrid(std::string scenario, std::size_t n)
        : name(std::move(scenario))
    {
        for (std::size_t i = 0; i < n; ++i) {
            cfgs.push_back(fakeConfig(i));
            results.push_back(fakeResult(i));
        }
    }
};

/** Write the unsharded trajectory of @p grids to @p path. */
void
writeUnsharded(const std::string &path,
               const std::vector<FakeGrid> &grids)
{
    TrajectorySink sink(path);
    for (const FakeGrid &g : grids)
        sink.append(g.name, g.cfgs, g.results);
    sink.close();
}

/** Write shard @p shard of @p grids to @p path, the way galsbench
 *  does: slice per scenario, records carrying canonical indices. */
void
writeShard(const std::string &path, const std::vector<FakeGrid> &grids,
           const ShardSpec &shard)
{
    TrajectorySink sink(path);
    for (const FakeGrid &g : grids) {
        const std::vector<std::size_t> indices =
            shardRunIndices(g.cfgs.size(), shard);
        std::vector<RunConfig> cfgs;
        std::vector<RunResults> results;
        for (std::size_t i : indices) {
            cfgs.push_back(g.cfgs[i]);
            results.push_back(g.results[i]);
        }
        sink.append(g.name, cfgs, results, &indices);
    }
    sink.close();
}

} // namespace

TEST(ShardIndices, PartitionIsCompleteDisjointAndBalanced)
{
    for (std::size_t total : {0u, 1u, 2u, 5u, 16u, 17u, 64u}) {
        for (unsigned count : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
            std::set<std::size_t> seen;
            for (unsigned i = 1; i <= count; ++i) {
                const auto slice =
                    shardRunIndices(total, ShardSpec{i, count});
                // Balanced: every slice within one run of total/N.
                EXPECT_LE(slice.size(), total / count + 1);
                EXPECT_GE(slice.size() + 1,
                          (total + count - 1) / count);
                for (std::size_t idx : slice) {
                    EXPECT_LT(idx, total);
                    // Disjoint: no index in two shards.
                    EXPECT_TRUE(seen.insert(idx).second)
                        << "duplicate index " << idx;
                }
            }
            // Complete: the union is exactly [0, total).
            EXPECT_EQ(seen.size(), total)
                << "total " << total << " count " << count;
        }
    }
}

TEST(ShardIndices, DefaultSpecIsWholeGridInOrder)
{
    const auto all = shardRunIndices(5, ShardSpec{});
    ASSERT_EQ(all.size(), 5u);
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], i);
    EXPECT_FALSE(ShardSpec{}.active());
    EXPECT_TRUE((ShardSpec{1, 3}).active());
}

TEST(ShardIndices, StrideInterleavesBenchmarks)
{
    // Round-robin, not blocks: shard 1 of 2 over 6 runs is 0,2,4.
    const auto s1 = shardRunIndices(6, ShardSpec{1, 2});
    const auto s2 = shardRunIndices(6, ShardSpec{2, 2});
    EXPECT_EQ(s1, (std::vector<std::size_t>{0, 2, 4}));
    EXPECT_EQ(s2, (std::vector<std::size_t>{1, 3, 5}));
}

TEST(Json, ParsesOurRecordShapes)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(
        "{\"scenario\":\"fig\\u00350\",\"index\":42,"
        "\"nested\":{\"a\":[1,2.5,-3e2,null,true,false]},"
        "\"big\":18446744073709551615}",
        v, err))
        << err;
    const json::Value *s = v.find("scenario");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->str, "fig50");
    std::uint64_t idx = 0;
    ASSERT_TRUE(v.find("index")->asU64(idx));
    EXPECT_EQ(idx, 42u);
    std::uint64_t big = 0;
    ASSERT_TRUE(v.find("big")->asU64(big));
    EXPECT_EQ(big, 18446744073709551615ull);
    const json::Value *nested = v.find("nested");
    ASSERT_NE(nested, nullptr);
    const json::Value *arr = nested->find("a");
    ASSERT_NE(arr, nullptr);
    ASSERT_EQ(arr->items.size(), 6u);
    EXPECT_DOUBLE_EQ(arr->items[1].number, 2.5);
    EXPECT_DOUBLE_EQ(arr->items[2].number, -300.0);
    EXPECT_TRUE(arr->items[3].isNull());
    EXPECT_TRUE(arr->items[4].boolean);
    // Negative / fractional numbers are not u64s.
    std::uint64_t bad = 0;
    EXPECT_FALSE(arr->items[1].asU64(bad));
    EXPECT_FALSE(arr->items[2].asU64(bad));
}

TEST(Json, RejectsMalformedInput)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("{\"a\":1} trailing", v, err));
    EXPECT_FALSE(json::parse("{\"a\":nan}", v, err));
    EXPECT_FALSE(json::parse("{\"a\":'single'}", v, err));
    EXPECT_FALSE(json::parse("{\"a\":\"\\q\"}", v, err));
    EXPECT_FALSE(json::parse("{\"a\":1", v, err));
    EXPECT_FALSE(json::parse("", v, err));
    EXPECT_TRUE(json::parse(" [ ] ", v, err)) << err;
    EXPECT_TRUE(json::parse("{\"q\":\"a\\\"b\\\\c\"}", v, err));
    EXPECT_EQ(v.find("q")->str, "a\"b\\c");
}

TEST(Merge, GtrjShardsReassembleByteIdenticalInEveryFormat)
{
    // Two scenarios: one whose grid (2 runs) is smaller than the
    // shard count, so one shard holds no record of it at all.
    const std::vector<FakeGrid> grids = {FakeGrid("alpha", 7),
                                         FakeGrid("beta", 2)};
    std::vector<std::string> shardFiles;
    for (unsigned i = 1; i <= 3; ++i) {
        const std::string path =
            tempPath("s" + std::to_string(i) + ".gtrj");
        writeShard(path, grids, ShardSpec{i, 3});
        shardFiles.push_back(path);
    }
    // File order must not matter: shard files arrive in whatever
    // order the CI fan-in downloaded them.
    const std::vector<std::string> reversed(shardFiles.rbegin(),
                                            shardFiles.rend());

    for (const char *ext : {".gtrj", ".jsonl", ".csv"}) {
        const std::string ref = tempPath(std::string("ref") + ext);
        writeUnsharded(ref, grids);
        const std::string merged =
            tempPath(std::string("merged") + ext);
        for (const auto &files : {shardFiles, reversed}) {
            std::ostringstream diag;
            ASSERT_TRUE(mergeTrajectories(files, merged, diag))
                << ext << ": " << diag.str();
            EXPECT_EQ(slurp(merged), slurp(ref)) << ext;
        }
    }
}

TEST(Merge, DetectsOverlapGapAndFormatMismatch)
{
    const std::vector<FakeGrid> grids = {FakeGrid("alpha", 6)};
    std::vector<std::string> shardFiles;
    for (unsigned i = 1; i <= 3; ++i) {
        const std::string path =
            tempPath("e" + std::to_string(i) + ".gtrj");
        writeShard(path, grids, ShardSpec{i, 3});
        shardFiles.push_back(path);
    }
    const std::string merged = tempPath("emerged.jsonl");
    std::remove(merged.c_str());

    // Same shard twice: duplicate canonical indices.
    {
        std::ostringstream diag;
        EXPECT_FALSE(mergeTrajectories(
            {shardFiles[0], shardFiles[1], shardFiles[1]}, merged,
            diag));
        EXPECT_NE(diag.str().find("overlapping"), std::string::npos)
            << diag.str();
    }
    // A shard missing: index gaps.
    {
        std::ostringstream diag;
        EXPECT_FALSE(mergeTrajectories(
            {shardFiles[0], shardFiles[2]}, merged, diag));
        EXPECT_NE(diag.str().find("missing"), std::string::npos)
            << diag.str();
    }
    // A text shard (what older builds wrote): refused with a message,
    // and no output file is left behind.
    {
        const std::string text = tempPath("e2.jsonl");
        writeShard(text, grids, ShardSpec{2, 3});
        std::ostringstream diag;
        EXPECT_FALSE(mergeTrajectories(
            {shardFiles[0], text, shardFiles[2]}, merged, diag));
        EXPECT_NE(diag.str().find("shard files are .gtrj"),
                  std::string::npos)
            << diag.str();
        EXPECT_FALSE(std::filesystem::exists(merged));
    }
    // A torn shard (a worker killed mid-frame): refused the same way.
    {
        const std::string torn = tempPath("e2_torn.gtrj");
        const std::string full = slurp(shardFiles[1]);
        spit(torn, full.substr(0, full.size() - 5));
        std::ostringstream diag;
        EXPECT_FALSE(mergeTrajectories(
            {shardFiles[0], torn, shardFiles[2]}, merged, diag));
        EXPECT_NE(diag.str().find(torn + " record 2"),
                  std::string::npos)
            << diag.str();
        EXPECT_FALSE(std::filesystem::exists(merged));
    }
    // A lone shard file whose records reveal the stride: the file
    // count contradicts it even though indices are a contiguous
    // prefix... of nothing — shard 1 alone starts at 0 with step 3.
    {
        std::ostringstream diag;
        EXPECT_FALSE(
            mergeTrajectories({shardFiles[0]}, merged, diag));
        EXPECT_NE(diag.str().find("missing"), std::string::npos)
            << diag.str();
    }
    // Shard files from different sweeps: same scenario, different
    // instruction budgets — must not fuse.
    {
        std::vector<FakeGrid> other = {FakeGrid("alpha", 6)};
        for (RunConfig &c : other[0].cfgs)
            c.instructions = 4000; // grids[] uses 2000
        const std::string path = tempPath("e_other.gtrj");
        writeShard(path, other, ShardSpec{2, 3});
        std::ostringstream diag;
        EXPECT_FALSE(mergeTrajectories(
            {shardFiles[0], path, shardFiles[2]}, merged, diag));
        EXPECT_NE(diag.str().find("different sweeps"),
                  std::string::npos)
            << diag.str();
    }
    EXPECT_FALSE(std::filesystem::exists(merged));
}

TEST(Merge, SuffixGapsAreCaughtByStrideOrManifestPlan)
{
    // The adversarial case: a 2-run grid over 2 shards leaves one
    // record per file, so the records alone carry no stride
    // evidence. A lone shard 1 must be refused outright, and with
    // the manifest plan the missing-suffix merge is caught by the
    // declared run count.
    const std::vector<FakeGrid> grids = {FakeGrid("alpha", 2)};
    std::vector<std::string> shardFiles;
    for (unsigned i = 1; i <= 2; ++i) {
        const std::string path =
            tempPath("sg" + std::to_string(i) + ".gtrj");
        writeShard(path, grids, ShardSpec{i, 2});
        shardFiles.push_back(path);
    }
    const std::string merged = tempPath("sg.merged.gtrj");

    {
        std::ostringstream diag;
        EXPECT_FALSE(
            mergeTrajectories({shardFiles[0]}, merged, diag));
        EXPECT_NE(diag.str().find("cannot be proven"),
                  std::string::npos)
            << diag.str();
        // Even with both files, no record-level evidence proves
        // completeness — without the manifest plan the merge must
        // refuse rather than silently accept a possibly-truncated
        // set.
        std::ostringstream diag2;
        EXPECT_FALSE(mergeTrajectories(shardFiles, merged, diag2));
        EXPECT_NE(diag2.str().find("cannot be proven"),
                  std::string::npos)
            << diag2.str();
    }
    {
        MergePlan plan;
        plan.shardCount = 2;
        plan.scenarios = {{"alpha", 2, 1, 0}};
        std::ostringstream diag;
        EXPECT_FALSE(mergeTrajectories({shardFiles[0]}, merged,
                                       diag, &plan));
        std::ostringstream diag2;
        EXPECT_TRUE(mergeTrajectories(shardFiles, merged, diag2,
                                      &plan))
            << diag2.str();
        // Plan with a wrong run count: records can't satisfy it.
        plan.scenarios = {{"alpha", 3, 1, 0}};
        std::ostringstream diag3;
        EXPECT_FALSE(mergeTrajectories(shardFiles, merged, diag3,
                                       &plan));
        EXPECT_NE(diag3.str().find("declare"), std::string::npos)
            << diag3.str();
    }
}

TEST(Merge, ManifestsReassembleByteIdentical)
{
    SweepOptions opts;
    opts.instructions = 2000;
    opts.explicitSeeds = {3, 5};
    opts.benchmarks = {"gcc", "fpppp"};
    const std::vector<ManifestScenario> scenarios = {
        {"alpha", 4, 2, 0x0123456789abcdefull},
        {"beta", 2, 2, 0xfedcba9876543210ull},
    };

    const std::string ref = tempPath("ref.manifest.json");
    writeManifestFile(ref, opts, "BENCH.jsonl", scenarios);

    std::vector<std::string> shardFiles;
    for (unsigned i = 1; i <= 3; ++i) {
        SweepOptions shardOpts = opts;
        shardOpts.shard = ShardSpec{i, 3};
        const std::string path =
            tempPath("m" + std::to_string(i) + ".json");
        writeManifestFile(path, shardOpts,
                          "shard_" + std::to_string(i) + ".jsonl",
                          scenarios);
        shardFiles.push_back(path);
    }

    const std::string merged = tempPath("merged.manifest.json");
    std::ostringstream diag;
    ASSERT_TRUE(
        mergeManifests(shardFiles, merged, "BENCH.jsonl", diag))
        << diag.str();
    EXPECT_EQ(slurp(merged), slurp(ref));
}

TEST(Merge, ManifestsRejectMismatchesAndIncompleteSets)
{
    SweepOptions opts;
    opts.instructions = 2000;
    opts.explicitSeeds = {0};
    const std::vector<ManifestScenario> scenarios = {
        {"alpha", 4, 1, 0x1111111111111111ull}};

    std::vector<std::string> shardFiles;
    for (unsigned i = 1; i <= 2; ++i) {
        SweepOptions shardOpts = opts;
        shardOpts.shard = ShardSpec{i, 2};
        const std::string path =
            tempPath("mm" + std::to_string(i) + ".json");
        writeManifestFile(path, shardOpts, "s.jsonl", scenarios);
        shardFiles.push_back(path);
    }
    const std::string merged = tempPath("mm.merged.json");

    // A shard missing.
    {
        std::ostringstream diag;
        EXPECT_FALSE(
            mergeManifests({shardFiles[0]}, merged, "", diag));
    }
    // The same shard twice.
    {
        std::ostringstream diag;
        EXPECT_FALSE(mergeManifests({shardFiles[0], shardFiles[0]},
                                    merged, "", diag));
        EXPECT_NE(diag.str().find("twice"), std::string::npos)
            << diag.str();
    }
    // Disagreeing sweeps (different instruction budget).
    {
        SweepOptions other = opts;
        other.instructions = 4000;
        other.shard = ShardSpec{2, 2};
        const std::string path = tempPath("mm2b.json");
        writeManifestFile(path, other, "s.jsonl", scenarios);
        std::ostringstream diag;
        EXPECT_FALSE(mergeManifests({shardFiles[0], path}, merged,
                                    "", diag));
        EXPECT_NE(diag.str().find("disagrees"), std::string::npos)
            << diag.str();
    }
    // An unsharded manifest is not a shard.
    {
        const std::string path = tempPath("mm.unsharded.json");
        writeManifestFile(path, opts, "s.jsonl", scenarios);
        std::ostringstream diag;
        EXPECT_FALSE(mergeManifests({path}, merged, "", diag));
        EXPECT_NE(diag.str().find("not a shard"), std::string::npos)
            << diag.str();
    }
    // An unwritable destination returns false instead of dying.
    {
        std::ostringstream diag;
        EXPECT_FALSE(mergeManifests(
            shardFiles, "/nonexistent-dir/merged.json", "", diag));
        EXPECT_NE(diag.str().find("cannot open"), std::string::npos)
            << diag.str();
    }
}

/** Manifests written before the std::set event queue was retired may
 *  read `"engine": "heap"`: the same pop order, so such shards merge
 *  with calendar ones, and the merged manifest reads "calendar". */
TEST(Merge, HeapEraShardManifestsMergeToCalendar)
{
    SweepOptions opts;
    opts.instructions = 2000;
    opts.explicitSeeds = {0};
    const std::vector<ManifestScenario> scenarios = {
        {"alpha", 4, 1, 0x2222222222222222ull}};

    const std::string ref = tempPath("he.ref.json");
    writeManifestFile(ref, opts, "he.jsonl", scenarios);
    const std::string calendarField = "\"engine\": \"calendar\"";
    ASSERT_NE(slurp(ref).find(calendarField), std::string::npos);

    std::vector<std::string> shardFiles;
    for (unsigned i = 1; i <= 2; ++i) {
        SweepOptions shardOpts = opts;
        shardOpts.shard = ShardSpec{i, 2};
        const std::string path =
            tempPath("he" + std::to_string(i) + ".json");
        writeManifestFile(path, shardOpts, "s.jsonl", scenarios);
        shardFiles.push_back(path);
    }
    const auto withEngine = [&](const std::string &path,
                                const std::string &engine) {
        std::string text = slurp(path);
        text.replace(text.find(calendarField), calendarField.size(),
                     "\"engine\": \"" + engine + "\"");
        spit(path, text);
    };
    withEngine(shardFiles[0], "heap");

    const std::string merged = tempPath("he.merged.json");
    std::ostringstream diag;
    ASSERT_TRUE(mergeManifests(shardFiles, merged, "he.jsonl", diag))
        << diag.str();
    EXPECT_EQ(slurp(merged), slurp(ref));

    // Any other engine name is still rejected.
    withEngine(shardFiles[1], "bogus");
    std::ostringstream bad;
    EXPECT_FALSE(mergeManifests(shardFiles, merged, "he.jsonl", bad));
    EXPECT_NE(bad.str().find("unknown engine 'bogus'"),
              std::string::npos)
        << bad.str();
}

TEST(Trajectory, ShardRecordsCarryCanonicalIndices)
{
    const FakeGrid grid("alpha", 5);
    const ShardSpec shard{2, 2}; // canonical indices 1, 3
    const std::vector<std::size_t> indices =
        shardRunIndices(grid.cfgs.size(), shard);
    ASSERT_EQ(indices, (std::vector<std::size_t>{1, 3}));

    std::vector<RunConfig> cfgs;
    std::vector<RunResults> results;
    for (std::size_t i : indices) {
        cfgs.push_back(grid.cfgs[i]);
        results.push_back(grid.results[i]);
    }
    std::ostringstream shardOut, fullOut;
    writeJsonLines(shardOut, "alpha", cfgs, results, &indices);
    writeJsonLines(fullOut, "alpha", grid.cfgs, grid.results);

    // Every shard record must be byte-identical to the same record
    // of the unsharded stream.
    std::vector<std::string> shardLines, fullLines;
    for (std::istringstream is(shardOut.str()); !is.eof();) {
        std::string line;
        if (std::getline(is, line))
            shardLines.push_back(line);
    }
    for (std::istringstream is(fullOut.str()); !is.eof();) {
        std::string line;
        if (std::getline(is, line))
            fullLines.push_back(line);
    }
    ASSERT_EQ(shardLines.size(), 2u);
    ASSERT_EQ(fullLines.size(), 5u);
    EXPECT_EQ(shardLines[0], fullLines[1]);
    EXPECT_EQ(shardLines[1], fullLines[3]);
}
