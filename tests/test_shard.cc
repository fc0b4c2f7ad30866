/**
 * @file
 * Tests for grid sharding and shard fan-in: shardRunIndices() must
 * partition any grid completely, disjointly and near-evenly; the
 * JSON reader must round-trip our own record formats; and
 * mergeShards() must reassemble complete .gtrj shards, named by their
 * manifests, byte-identical to the unsharded originals in every
 * output format, and refuse duplicate, missing, short, torn, text and
 * foreign shards without writing anything. Everything here runs on
 * fabricated scenarios and results, no simulation.
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

/** A registry of two fabricated scenarios: "alpha" (7 runs) and
 *  "beta" (2 runs, fewer than the shard count of the merge tests, so
 *  one shard holds none of its records). */
const ScenarioRegistry &
fakeRegistry()
{
    static const ScenarioRegistry registry = [] {
        ScenarioRegistry r;
        for (const auto &[name, n] :
             {std::pair<const char *, std::size_t>{"alpha", 7},
              {"beta", 2}}) {
            Scenario s;
            s.name = name;
            s.makeRuns = [n = n](const SweepOptions &opts) {
                std::vector<RunConfig> runs;
                for (std::size_t i = 0; i < n; ++i) {
                    runs.push_back(fakeConfig(i));
                    runs.back().instructions = opts.instructions;
                    runs.back().seed = opts.seed;
                }
                return runs;
            };
            r.add(std::move(s));
        }
        return r;
    }();
    return registry;
}

/** A sweep of both fake scenarios. */
SweepOptions
fakeSweep()
{
    SweepOptions opts;
    opts.instructions = 2000;
    opts.explicitSeeds = {3, 5};
    return opts;
}

/**
 * Write @p opts's sweep of the fake scenarios the way galsbench does:
 * the planned records (the shard's slice under opts.shard) to
 * @p output in its extension's format, unless empty, then the
 * manifest.
 */
void
writeSweep(const SweepOptions &opts, const std::string &output,
           const std::string &manifest)
{
    SweepPlan plan;
    std::string err;
    ASSERT_TRUE(
        planSweep(fakeRegistry(), {"alpha", "beta"}, opts, plan, err))
        << err;
    std::vector<ManifestScenario> entries;
    for (const PlannedScenario &p : plan)
        entries.push_back(p.manifest);
    if (!output.empty()) {
        TrajectorySink sink(output);
        for (const PlannedScenario &p : plan)
            for (std::size_t k = 0; k < p.runs.size(); ++k) {
                RunResults r = fakeResult(p.indices[k]);
                r.benchmark = p.runs[k].benchmark;
                r.gals = p.runs[k].gals;
                sink.appendOne(p.manifest.name, p.runs[k], r,
                               p.indices[k]);
            }
        sink.close();
    }
    writeManifestFile(manifest, opts, output, entries);
}

/** Shard @p i of @p n of @p opts: its .gtrj and its manifest, named
 *  after @p stem; returns the manifest path. */
std::string
writeShard(SweepOptions opts, const std::string &stem, unsigned i,
           unsigned n, bool withOutput = true)
{
    opts.shard = ShardSpec{i, n};
    const std::string base = tempPath(stem + std::to_string(i));
    writeSweep(opts, withOutput ? base + ".gtrj" : "", base + ".json");
    return base + ".json";
}

/** mergeShards() of the fake registry, expected to fail with
 *  @p message and to write neither output. */
void
expectRefused(const std::vector<std::string> &manifests,
              const std::string &message)
{
    const std::string merged = tempPath("refused.jsonl");
    const std::string mergedManifest = tempPath("refused.json");
    std::remove(merged.c_str());
    std::remove(mergedManifest.c_str());
    std::ostringstream diag;
    EXPECT_FALSE(mergeShards(fakeRegistry(), manifests, merged,
                             mergedManifest, diag));
    EXPECT_NE(diag.str().find(message), std::string::npos) << diag.str();
    EXPECT_FALSE(std::filesystem::exists(merged)) << message;
    EXPECT_FALSE(std::filesystem::exists(mergedManifest)) << message;
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

/** The reader recurses once per nesting level, so depth is capped: a
 *  100,000-deep input is an error with a message, not a stack
 *  overflow, while a real manifest (3 deep) still parses. */
TEST(Json, DeepNestingIsAnErrorNotACrash)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse(std::string(100000, '['), v, err));
    EXPECT_EQ(err, "nesting deeper than 64 at byte 64");
    EXPECT_FALSE(json::parse("{\"a\": " + std::string(100000, '['), v, err));
    EXPECT_EQ(err, "nesting deeper than 64 at byte 69");

    SweepOptions sweep;
    sweep.coreCounts = {2, 4};
    sweep.topologies = {"ring"};
    sweep.shard = ShardSpec{1, 2};
    std::ostringstream manifest;
    writeManifest(manifest, sweep, "out.gtrj", {{"fig05", 32, 1, 7}});
    ASSERT_TRUE(json::parse(manifest.str(), v, err)) << err;
    EXPECT_EQ(v.find("fabric")->find("cores")->items.size(), 2u);
    EXPECT_TRUE(json::parse(std::string(64, '[') + std::string(64, ']'), v,
                            err))
        << err;
}

TEST(Merge, ShardsReassembleByteIdenticalInEveryFormat)
{
    std::vector<std::string> manifests;
    for (unsigned i = 1; i <= 3; ++i)
        manifests.push_back(writeShard(fakeSweep(), "s", i, 3));
    // Manifest order must not matter: shards arrive in whatever order
    // the CI fan-in downloaded them.
    const std::vector<std::string> reversed(manifests.rbegin(),
                                            manifests.rend());

    for (const char *ext : {".gtrj", ".jsonl", ".csv"}) {
        const std::string merged = tempPath(std::string("merged") + ext);
        const std::string ref = tempPath(std::string("ref") + ext);
        // The reference manifest records the merged output's path.
        writeSweep(fakeSweep(), merged, ref + ".json");
        std::filesystem::rename(merged, ref);
        for (const auto &files : {manifests, reversed}) {
            std::ostringstream diag;
            ASSERT_TRUE(mergeShards(fakeRegistry(), files, merged,
                                    merged + ".json", diag))
                << ext << ": " << diag.str();
            EXPECT_EQ(slurp(merged), slurp(ref)) << ext;
            EXPECT_EQ(slurp(merged + ".json"), slurp(ref + ".json")) << ext;
        }
    }
}

/** Shards run with --manifest only merge into the manifest alone;
 *  asking for the trajectory too is refused. */
TEST(Merge, ManifestOnlyShardsMergeTheManifest)
{
    std::vector<std::string> manifests;
    for (unsigned i = 1; i <= 3; ++i)
        manifests.push_back(writeShard(fakeSweep(), "mo", i, 3, false));
    const std::string ref = tempPath("mo.ref.json");
    writeSweep(fakeSweep(), "", ref);
    const std::string merged = tempPath("mo.merged.json");
    std::ostringstream diag;
    ASSERT_TRUE(mergeShards(fakeRegistry(), manifests, "", merged, diag))
        << diag.str();
    EXPECT_EQ(slurp(merged), slurp(ref));
    expectRefused(manifests, "names no trajectory");
}

TEST(Merge, RefusesAnIncompleteOrForeignShardSet)
{
    std::vector<std::string> m;
    for (unsigned i = 1; i <= 3; ++i)
        m.push_back(writeShard(fakeSweep(), "e", i, 3));

    expectRefused({m[0], m[1], m[1]}, "appears twice");
    expectRefused({m[0], m[2]}, "declare 3 shards but 2");
    // Another sweep's shard: its manifest disagrees.
    SweepOptions other = fakeSweep();
    other.instructions = 4000;
    const std::string foreign = writeShard(other, "e_other", 2, 3);
    expectRefused({m[0], foreign, m[2]}, "disagrees");
    // An unsharded manifest is not a shard.
    const std::string whole = tempPath("e_whole.json");
    writeSweep(fakeSweep(), "", whole);
    expectRefused({whole}, "not a shard");

    // Another sweep's frames behind a valid manifest.
    const std::string shard2 = tempPath("e2.gtrj");
    const std::string saved = slurp(shard2);
    spit(shard2, slurp(tempPath("e_other2.gtrj")));
    expectRefused(m, "holds another sweep");
    // A text shard, as an older build wrote them.
    spit(shard2, "{\"scenario\": \"alpha\"}\n");
    expectRefused(m, "is not a gtrj trajectory");
    spit(shard2, saved);

    // An unwritable destination reports back instead of dying.
    std::ostringstream diag;
    EXPECT_FALSE(mergeShards(fakeRegistry(), m, "",
                             "/nonexistent-dir/merged.json", diag));
    EXPECT_NE(diag.str().find("cannot open"), std::string::npos)
        << diag.str();
}

/** The records alone cannot show that a shard lost its last record;
 *  the plan can. A shard cut at any frame boundary, or torn inside a
 *  frame, is refused until --resume completes it. */
TEST(Merge, ShortShardIsRefusedUntilResumed)
{
    std::vector<std::string> m;
    for (unsigned i = 1; i <= 2; ++i)
        m.push_back(writeShard(fakeSweep(), "sg", i, 2));
    const std::string shard2 = tempPath("sg2.gtrj");
    const std::string full = slurp(shard2);
    const std::string merged = tempPath("sg.merged.gtrj");
    const std::string ref = tempPath("sg.ref.gtrj");
    writeSweep(fakeSweep(), ref, ref + ".json");

    SweepOptions opts = fakeSweep();
    opts.shard = ShardSpec{2, 2};
    SweepPlan plan;
    std::string err;
    ASSERT_TRUE(
        planSweep(fakeRegistry(), {"alpha", "beta"}, opts, plan, err))
        << err;
    const std::size_t records = plannedRecords(plan);
    ASSERT_EQ(records, 9u); // 7 of alpha's 14 runs, 2 of beta's 4

    for (std::size_t cut : {std::size_t(0), std::size_t(5), full.size() / 2,
                            full.size() - 1}) {
        spit(shard2, full.substr(0, cut));
        ResumeScan scan;
        ASSERT_TRUE(scanResume(full.substr(0, cut), plan, scan, err)) << err;
        ASSERT_LT(scan.records, records);
        expectRefused(m, " holds " + std::to_string(scan.records) +
                             " of its 9 records; complete it with --resume");

        // Resume: keep the valid prefix, append the rest.
        std::size_t kept = 0;
        ASSERT_TRUE(resumeTrajectory(shard2, plan, kept, err)) << err;
        {
            TrajectorySink sink(shard2, true);
            std::size_t k = 0;
            for (const PlannedScenario &p : plan)
                for (std::size_t j = 0; j < p.runs.size(); ++j, ++k) {
                    if (k < kept)
                        continue;
                    RunResults r = fakeResult(p.indices[j]);
                    r.benchmark = p.runs[j].benchmark;
                    r.gals = p.runs[j].gals;
                    sink.appendOne(p.manifest.name, p.runs[j], r,
                                   p.indices[j]);
                }
            sink.close();
        }
        ASSERT_EQ(slurp(shard2), full) << cut;
        std::ostringstream diag;
        ASSERT_TRUE(mergeShards(fakeRegistry(), m, merged, "", diag))
            << diag.str();
        EXPECT_EQ(slurp(merged), slurp(ref)) << cut;
    }
}

/** Manifests written before the std::set event queue was retired may
 *  read `"engine": "heap"`: the same pop order, so such shards merge
 *  with calendar ones, and the merged manifest reads "calendar". */
TEST(Merge, HeapEraShardManifestsMergeToCalendar)
{
    const std::string ref = tempPath("he.ref.json");
    writeSweep(fakeSweep(), "", ref);
    const std::string calendarField = "\"engine\": \"calendar\"";
    ASSERT_NE(slurp(ref).find(calendarField), std::string::npos);

    std::vector<std::string> shardFiles;
    for (unsigned i = 1; i <= 2; ++i)
        shardFiles.push_back(writeShard(fakeSweep(), "he", i, 2, false));
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
    ASSERT_TRUE(mergeShards(fakeRegistry(), shardFiles, "", merged, diag))
        << diag.str();
    EXPECT_EQ(slurp(merged), slurp(ref));

    // Any other engine name is still rejected.
    withEngine(shardFiles[1], "bogus");
    std::ostringstream bad;
    EXPECT_FALSE(mergeShards(fakeRegistry(), shardFiles, "", merged, bad));
    EXPECT_NE(bad.str().find("unknown engine 'bogus'"), std::string::npos)
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
