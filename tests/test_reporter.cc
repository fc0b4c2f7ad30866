/**
 * @file
 * Tests for the record formats and replication statistics behind
 * archivable sweeps: every JSON-lines record must parse as strict
 * JSON (escaping, non-finite -> null), CSV must be RFC-4180 (quoted
 * fields, non-finite -> empty), manifests must be byte-deterministic,
 * and the multi-seed aggregation must produce textbook mean / CI
 * numbers. The JSON checks go through a real recursive-descent
 * parser, not substring matching, so structural corruption cannot
 * slip through.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "runner/reporter.hh"
#include "runner/scenario.hh"
#include "runner/stats.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

/**
 * Minimal strict JSON parser (validator): objects, arrays, strings
 * with escapes, numbers, true/false/null. Returns true iff the whole
 * input is exactly one valid JSON value. Deliberately rejects the
 * bare `nan` / `inf` tokens %.17g would produce.
 */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    const std::string &s_;
    std::size_t pos_ = 0;

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }
    bool
    eat(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }
    void
    skipWs()
    {
        while (pos_ < s_.size() && std::isspace(
                   static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }
    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p)
            if (!eat(*p))
                return false;
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (pos_ < s_.size()) {
            const unsigned char c =
                static_cast<unsigned char>(s_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20)
                return false; // unescaped control character
            if (c == '\\') {
                ++pos_;
                const char e = peek();
                if (e == 'u') {
                    ++pos_;
                    for (int i = 0; i < 4; ++i, ++pos_)
                        if (!std::isxdigit(static_cast<unsigned char>(
                                peek())))
                            return false;
                } else if (std::strchr("\"\\/bfnrt", e) && e) {
                    ++pos_;
                } else {
                    return false;
                }
            } else {
                ++pos_;
            }
        }
        return false; // unterminated
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        eat('-');
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return false;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (eat('.')) {
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return false;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return false;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    value()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        if (!eat('{'))
            return false;
        skipWs();
        if (eat('}'))
            return true;
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!eat(':'))
                return false;
            if (!value())
                return false;
            skipWs();
            if (eat('}'))
                return true;
            if (!eat(','))
                return false;
        }
    }

    bool
    array()
    {
        if (!eat('['))
            return false;
        skipWs();
        if (eat(']'))
            return true;
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (eat(']'))
                return true;
            if (!eat(','))
                return false;
        }
    }
};

bool
everyLineIsStrictJson(const std::string &text)
{
    std::istringstream lines(text);
    std::string line;
    bool any = false;
    while (std::getline(lines, line)) {
        any = true;
        if (!JsonValidator(line).valid())
            return false;
    }
    return any;
}

/** A synthetic run with hostile strings and simple exact doubles. */
RunConfig
awkwardConfig()
{
    RunConfig c;
    c.benchmark = "ad,pcm\"x";
    c.instructions = 1000;
    c.gals = true;
    c.seed = 7;
    return c;
}

RunResults
awkwardResults()
{
    RunResults r;
    r.benchmark = "ad,pcm\"x";
    r.gals = true;
    r.committed = 1000;
    r.fetched = 1500;
    r.wrongPathFetched = 500;
    r.ticks = 4000;
    r.timeSec = 0.5;
    r.ipcNominal = 0.25;
    r.energyJ = 2.0;
    r.avgPowerW = 4.0;
    r.fifoEvents = 12;
    r.avgSlipCycles = 1.5;
    r.avgFifoSlipCycles = 0.5;
    r.misspecFraction = std::numeric_limits<double>::quiet_NaN();
    r.mispredictsPerKCommitted =
        std::numeric_limits<double>::infinity();
    r.dirAccuracy = 0.75;
    r.avgRobOcc = 8.0;
    r.avgIntRenames = 4.0;
    r.avgFpRenames = 2.0;
    r.intIQOcc = 1.0;
    r.fpIQOcc = 0.5;
    r.memIQOcc = 0.25;
    r.il1MissRate = 0.125;
    r.dl1MissRate = 0.0625;
    r.l2MissRate = 0.03125;
    r.unitEnergyNj = {{"alu", 1.5},
                      {"we\"ird,unit",
                       std::numeric_limits<double>::quiet_NaN()}};
    return r;
}

/** Helpers shared by the replication tests: a 2-point grid (gcc
 *  base/gals) whose ipcNominal samples over 3 replicas are known. */
std::vector<RunResults>
replicatedResults(std::size_t gridSize, std::size_t replicas)
{
    std::vector<RunResults> all;
    for (std::size_t r = 0; r < replicas; ++r) {
        for (std::size_t g = 0; g < gridSize; ++g) {
            RunResults res;
            res.benchmark = "gcc";
            res.gals = g % 2 == 1;
            // ipc samples per grid point: {1,2,3} + g
            res.ipcNominal = double(1 + r + g);
            res.committed = 100 * (r + 1);
            res.energyJ = 2.0;
            res.unitEnergyNj = {{"alu", double(10 * (r + 1))}};
            all.push_back(res);
        }
    }
    return all;
}

} // namespace

TEST(JsonLines, EscapesStringsAndParses)
{
    std::ostringstream os;
    writeJsonLines(os, "sce\"na,rio", {awkwardConfig()},
                   {awkwardResults()});
    const std::string text = os.str();

    EXPECT_TRUE(everyLineIsStrictJson(text)) << text;
    // The quote inside the benchmark name must be escaped, and no
    // raw nan/inf tokens may survive.
    EXPECT_NE(text.find("\"benchmark\":\"ad,pcm\\\"x\""),
              std::string::npos);
    EXPECT_NE(text.find("\"scenario\":\"sce\\\"na,rio\""),
              std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);
    EXPECT_NE(text.find("\"misspec_fraction\":null"),
              std::string::npos);
    EXPECT_NE(text.find("\"mispredicts_per_k\":null"),
              std::string::npos);
}

TEST(JsonLines, ControlCharactersEscaped)
{
    RunConfig c;
    RunResults r;
    r.benchmark = "a\nb\tc";
    std::ostringstream os;
    writeJsonLines(os, "s", {c}, {r});
    EXPECT_TRUE(everyLineIsStrictJson(os.str())) << os.str();
    EXPECT_NE(os.str().find("a\\nb\\tc"), std::string::npos);
}

TEST(Csv, GoldenRowWithQuotingAndNonFinite)
{
    std::ostringstream os;
    writeCsv(os, "tra,j", {awkwardConfig()}, {awkwardResults()});
    std::istringstream lines(os.str());
    std::string header, row;
    ASSERT_TRUE(std::getline(lines, header));
    ASSERT_TRUE(std::getline(lines, row));

    EXPECT_EQ(header,
              "scenario,index,benchmark,gals,dynamic_dvfs,"
              "instructions,seed,phase_seed,committed,fetched,"
              "wrong_path_fetched,ticks,time_sec,ipc_nominal,"
              "energy_j,avg_power_w,fifo_events,avg_slip_cycles,"
              "avg_fifo_slip_cycles,misspec_fraction,"
              "mispredicts_per_k,dir_accuracy,avg_rob_occ,"
              "avg_int_renames,avg_fp_renames,int_iq_occ,fp_iq_occ,"
              "mem_iq_occ,il1_miss_rate,dl1_miss_rate,l2_miss_rate,"
              "energy_nj.alu,\"energy_nj.we\"\"ird,unit\"");
    // RFC 4180: scenario and benchmark quoted (comma / quote),
    // internal quotes doubled; nan -> empty, inf -> empty.
    EXPECT_EQ(row,
              "\"tra,j\",0,\"ad,pcm\"\"x\",1,0,1000,7,7,1000,1500,"
              "500,4000,0.5,0.25,2,4,12,1.5,0.5,,,0.75,8,4,2,1,0.5,"
              "0.25,0.125,0.0625,0.03125,1.5,");
}

TEST(Csv, PlainFieldsStayUnquoted)
{
    RunConfig c;
    c.benchmark = "gcc";
    RunResults r;
    r.benchmark = "gcc";
    std::ostringstream os;
    writeCsv(os, "fig05", {c}, {r});
    EXPECT_EQ(os.str().find('"'), std::string::npos);
    EXPECT_EQ(os.str().rfind("scenario,index,benchmark", 0), 0u);
}

TEST(FormatPrimitives, JsonQuoteAndCsvField)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote(std::string("x\x01y")), "\"x\\u0001y\"");
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(csvField("a\"b"), "\"a\"\"b\"");
    EXPECT_EQ(csvField("a\nb"), "\"a\nb\"");
}

TEST(Stats, SummarizeMatchesTextbookCi)
{
    const MetricSummary s = summarize({1.0, 2.0, 3.0});
    EXPECT_EQ(s.n, 3u);
    EXPECT_DOUBLE_EQ(s.mean, 2.0);
    EXPECT_DOUBLE_EQ(s.stddev, 1.0);
    // 95% CI half-width: t(dof=2) * sd / sqrt(n).
    EXPECT_DOUBLE_EQ(s.ci95, tCritical95(2) * 1.0 / std::sqrt(3.0));
    EXPECT_NEAR(tCritical95(2), 4.3027, 1e-9);

    const MetricSummary one = summarize({5.0});
    EXPECT_DOUBLE_EQ(one.mean, 5.0);
    EXPECT_DOUBLE_EQ(one.ci95, 0.0);

    // t decreases toward the normal asymptote; the step
    // approximation past dof 30 uses each bracket's lower-dof
    // (larger) value so CIs are never understated.
    EXPECT_GT(tCritical95(1), tCritical95(2));
    EXPECT_GT(tCritical95(30), tCritical95(121));
    EXPECT_NEAR(tCritical95(31), 2.0395, 1e-9);  // t(31), not t(40)
    EXPECT_NEAR(tCritical95(1000), 1.9799, 1e-9); // t(121) floor
    EXPECT_GE(tCritical95(30), tCritical95(31));
    EXPECT_GE(tCritical95(40), tCritical95(41));
    EXPECT_GE(tCritical95(60), tCritical95(61));
}

TEST(Stats, SummarizeReplicasThreeSeedGrid)
{
    const std::size_t gridSize = 2;
    const auto all = replicatedResults(gridSize, 3);
    const ReplicaSummary summary = summarizeReplicas(gridSize, all);

    EXPECT_EQ(summary.gridSize, 2u);
    EXPECT_EQ(summary.replicas, 3u);
    ASSERT_EQ(summary.mean.size(), 2u);

    // Grid point 0: ipc samples {1,2,3}; grid point 1: {2,3,4}.
    const MetricSummary *ipc0 = summary.metric(0, "ipc_nominal");
    const MetricSummary *ipc1 = summary.metric(1, "ipc_nominal");
    ASSERT_NE(ipc0, nullptr);
    ASSERT_NE(ipc1, nullptr);
    EXPECT_DOUBLE_EQ(ipc0->mean, 2.0);
    EXPECT_DOUBLE_EQ(ipc1->mean, 3.0);
    EXPECT_DOUBLE_EQ(ipc0->ci95,
                     tCritical95(2) * 1.0 / std::sqrt(3.0));

    // The mean RunResults carry metric-wise means (integers
    // rounded) and replica-averaged unit energies.
    EXPECT_DOUBLE_EQ(summary.mean[0].ipcNominal, 2.0);
    EXPECT_EQ(summary.mean[0].committed, 200u); // mean of 100,200,300
    EXPECT_DOUBLE_EQ(summary.mean[0].unitEnergyNj.at("alu"), 20.0);
    EXPECT_EQ(summary.mean[0].benchmark, "gcc");
    EXPECT_FALSE(summary.mean[0].gals);
    EXPECT_TRUE(summary.mean[1].gals);

    // Zero-spread metric: CI must be exactly 0.
    const MetricSummary *e = summary.metric(0, "energy_j");
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->mean, 2.0);
    EXPECT_DOUBLE_EQ(e->ci95, 0.0);

    EXPECT_EQ(summary.metric(0, "no_such_metric"), nullptr);
}

TEST(Stats, RatioCi95DeltaMethod)
{
    // a = 2 ± 0.2, b = 4 ± 0.4 -> a/b = 0.5, rel errs 0.1 each.
    const double ci = ratioCi95(2.0, 0.2, 4.0, 0.4);
    EXPECT_NEAR(ci, 0.5 * std::sqrt(0.02), 1e-12);
    EXPECT_TRUE(std::isnan(ratioCi95(0.0, 0.1, 1.0, 0.1)));
}

TEST(Stats, SummaryReportersEmitCiColumnsAndParse)
{
    const std::size_t gridSize = 2;
    const auto all = replicatedResults(gridSize, 3);
    const ReplicaSummary summary = summarizeReplicas(gridSize, all);
    const std::vector<RunConfig> gridCfgs(2);

    std::ostringstream json;
    writeJsonLinesSummary(json, "fig05", gridCfgs, summary);
    EXPECT_TRUE(everyLineIsStrictJson(json.str())) << json.str();
    EXPECT_NE(json.str().find("\"replicas\":3"), std::string::npos);
    EXPECT_NE(json.str().find("\"ipc_nominal_ci95\":"),
              std::string::npos);

    std::ostringstream csv;
    writeCsvSummary(csv, "fig05", gridCfgs, summary);
    std::istringstream lines(csv.str());
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_NE(header.find(",replicas"), std::string::npos);
    EXPECT_NE(header.find(",ipc_nominal,ipc_nominal_ci95"),
              std::string::npos);
    std::string row;
    std::size_t rows = 0;
    while (std::getline(lines, row))
        ++rows;
    EXPECT_EQ(rows, gridSize); // one aggregated row per grid point
}

TEST(SweepOptions, SeedListSemantics)
{
    SweepOptions opts;
    EXPECT_EQ(opts.seedList(), std::vector<std::uint64_t>{0});
    EXPECT_FALSE(opts.replicated());

    opts.seed = 5;
    opts.seedReplicas = 3;
    EXPECT_EQ(opts.seedList(),
              (std::vector<std::uint64_t>{5, 6, 7}));
    EXPECT_TRUE(opts.replicated());

    opts.explicitSeeds = {42, 7};
    EXPECT_EQ(opts.seedList(),
              (std::vector<std::uint64_t>{42, 7}));
}

TEST(SweepOptions, ExpandReplicatedRunsLayout)
{
    Scenario s;
    s.name = "toy";
    s.makeRuns = [](const SweepOptions &o) {
        std::vector<RunConfig> runs(2);
        runs[0].benchmark = "gcc";
        runs[1].benchmark = "adpcm";
        for (RunConfig &r : runs) {
            r.seed = o.seed;
            r.instructions = o.instructions;
        }
        return runs;
    };

    SweepOptions opts;
    opts.seed = 10;
    opts.seedReplicas = 3;
    std::size_t gridSize = 0;
    const auto all = expandReplicatedRuns(s, opts, &gridSize);

    EXPECT_EQ(gridSize, 2u);
    ASSERT_EQ(all.size(), 6u);
    // Replica r occupies [r*G, (r+1)*G) with seed 10+r throughout.
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(all[r * 2].seed, 10 + r);
        EXPECT_EQ(all[r * 2 + 1].seed, 10 + r);
        EXPECT_EQ(all[r * 2].benchmark, "gcc");
        EXPECT_EQ(all[r * 2 + 1].benchmark, "adpcm");
    }
}

TEST(Manifest, DeterministicAndParses)
{
    SweepOptions opts;
    opts.instructions = 2000;
    opts.seed = 0;
    opts.seedReplicas = 3;
    opts.benchmarks = {"gcc", "ad,pcm"};

    RunConfig cfg;
    cfg.benchmark = "gcc";
    const std::vector<ManifestScenario> scenarios = {
        {"fig05", 8, 3, runConfigHash(std::vector<RunConfig>(24, cfg))},
        {"fig09", 8, 3, 0x1234abcd5678ef00ull},
    };

    std::ostringstream a, b;
    writeManifest(a, opts, "out.jsonl", scenarios);
    writeManifest(b, opts, "out.jsonl", scenarios);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_TRUE(JsonValidator(a.str()).valid()) << a.str();
    EXPECT_NE(a.str().find("\"seeds\": [0, 1, 2]"),
              std::string::npos);
    EXPECT_NE(a.str().find("\"galssim_version\": \""),
              std::string::npos);
    EXPECT_NE(a.str().find("\"runs\": 24"), std::string::npos);
    EXPECT_NE(a.str().find("\"engine\": \"calendar\""),
              std::string::npos);

    // No output file: "output" must be null and still parse.
    std::ostringstream noOut;
    writeManifest(noOut, opts, "", {});
    EXPECT_TRUE(JsonValidator(noOut.str()).valid()) << noOut.str();
    EXPECT_NE(noOut.str().find("\"output\": null"),
              std::string::npos);
}

TEST(Manifest, ConfigHashDistinguishesRuns)
{
    RunConfig a;
    a.benchmark = "gcc";
    RunConfig b = a;
    EXPECT_EQ(runConfigHash(a), runConfigHash(b));

    b.seed = 1;
    EXPECT_NE(runConfigHash(a), runConfigHash(b));

    RunConfig c = a;
    c.gals = true;
    EXPECT_NE(runConfigHash(a), runConfigHash(c));

    RunConfig d = a;
    d.dvfs.slowdown[2] = 1.25;
    EXPECT_NE(runConfigHash(a), runConfigHash(d));

    // The phase-seed sentinel hashes like its resolved value.
    RunConfig e = a;
    e.seed = 9;
    RunConfig f = e;
    f.phaseSeed = 9;
    EXPECT_EQ(runConfigHash(e), runConfigHash(f));

    EXPECT_NE(runConfigHash(std::vector<RunConfig>{a}),
              runConfigHash(std::vector<RunConfig>{a, a}));
}

TEST(Manifest, ConfigHashPinnedForPreFabricConfigs)
{
    // Byte-stability pin: archived sweep manifests (the CI
    // verify-archive artifacts from earlier PRs) replay through
    // --verify by comparing these exact hash values. The fabric
    // fields may extend the hash only behind fabric.active(); if
    // this test fails, the change broke every archived manifest.
    RunConfig cfg;
    cfg.benchmark = "gcc";
    EXPECT_EQ(runConfigHash(cfg), 0xf908c34edfbbcd09ull);
    cfg.instructions = 50000;
    EXPECT_EQ(runConfigHash(cfg), 0x465975452ebb9273ull);

    // An inert fabric config (cores == 1) must not perturb the hash,
    // whatever its other fields say.
    RunConfig inert = cfg;
    inert.fabric.traffic = "incast";
    inert.fabric.trafficWindow = 2;
    EXPECT_EQ(runConfigHash(inert), runConfigHash(cfg));

    // An active one must: the fabric axes are part of the sweep
    // identity for multi-core points.
    RunConfig active = cfg;
    active.fabric.cores = 4;
    EXPECT_NE(runConfigHash(active), runConfigHash(cfg));
    RunConfig mesh = active;
    mesh.fabric.topology = TopologyKind::mesh2d;
    EXPECT_NE(runConfigHash(mesh), runConfigHash(active));
    RunConfig hot = active;
    hot.fabric.traffic = "hotspot:1";
    EXPECT_NE(runConfigHash(hot), runConfigHash(active));
}

TEST(Trajectory, CsvHeaderDeferredPastEmptyGrids)
{
    // A literature-only scenario (empty grid) appended first must
    // not pin a header without the energy_nj.* columns.
    const std::string path =
        testing::TempDir() + "/traj_header.csv";
    TrajectorySink sink(path);
    sink.append("table1", {}, {});
    sink.append("fig05", {awkwardConfig()}, {awkwardResults()});
    sink.close();

    std::ifstream in(path);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_NE(header.find("energy_nj.alu"), std::string::npos)
        << header;
    std::string row;
    std::size_t rows = 0;
    while (std::getline(in, row))
        ++rows;
    EXPECT_EQ(rows, 1u);
}

TEST(Trajectory, FormatFollowsExtension)
{
    EXPECT_EQ(trajectoryFormatForPath("out.jsonl"),
              TrajectoryFormat::jsonLines);
    EXPECT_EQ(trajectoryFormatForPath("out.json"),
              TrajectoryFormat::jsonLines);
    EXPECT_EQ(trajectoryFormatForPath("out"),
              TrajectoryFormat::jsonLines);
    EXPECT_EQ(trajectoryFormatForPath("out.csv"),
              TrajectoryFormat::csv);
    EXPECT_STREQ(trajectoryFormatName(TrajectoryFormat::csv), "csv");
    EXPECT_STREQ(trajectoryFormatName(TrajectoryFormat::jsonLines),
                 "jsonl");
}
