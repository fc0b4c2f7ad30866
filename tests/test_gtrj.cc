/**
 * @file
 * Tests for the `.gtrj` binary trajectory format (runner/gtrj.hh).
 *
 * The format's contract is exactness: a decoded record regenerates
 * the JSON-lines / CSV bytes of the native run, non-finite doubles
 * round-trip bit-for-bit, and a torn tail (mid-write SIGKILL) is
 * detected rather than misparsed. These tests pin the varint
 * encoding (including canonicality of the 10-byte case), the
 * header/version gate, the full record round trip through every
 * optional block (fabric, per-core, intervals), the byte-identity of
 * toJsonLines()/toCsv() against the strict reporters, the size
 * advantage over the text twin, and the TrajectorySink append-mode
 * header-once behavior the dispatch resume path relies on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "power/power_model.hh"
#include "runner/gtrj.hh"
#include "runner/record.hh"
#include "runner/reporter.hh"
#include "runner/stats.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "galssim_gtrj_" + name;
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

/** Every record reports the full power-model unit set (the encoder
 *  asserts it); fill it with distinguishable values. */
std::map<std::string, double>
fullUnitEnergies(double base)
{
    std::map<std::string, double> m;
    for (unsigned i = 0; i < numUnits; ++i)
        m[unitName(static_cast<Unit>(i))] = base + double(i) * 0.25;
    return m;
}

/** A config exercising hostile strings and the phase-seed
 *  sentinel. */
RunConfig
sampleConfig(std::uint64_t seed)
{
    RunConfig c;
    c.benchmark = "ad,pcm\"x";
    c.instructions = 2000;
    c.gals = true;
    c.seed = seed;
    // The follows-workload sentinel (~0) must survive the round trip
    // raw, not resolved.
    c.phaseSeed = phaseSeedFollowsWorkload;
    return c;
}

/** Results with non-finite doubles in both a metric column and a
 *  unit-energy cell. */
RunResults
sampleResults(std::uint64_t seed)
{
    RunResults r;
    r.benchmark = "ad,pcm\"x";
    r.gals = true;
    r.committed = 2000 + seed;
    r.fetched = 3000;
    r.wrongPathFetched = 400;
    r.ticks = 9000 + seed;
    r.timeSec = 0.5;
    r.ipcNominal = 0.25;
    r.energyJ = 2.0;
    r.avgPowerW = 4.0;
    r.fifoEvents = 12;
    r.avgSlipCycles = 1.5;
    r.misspecFraction = std::numeric_limits<double>::quiet_NaN();
    r.mispredictsPerKCommitted =
        -std::numeric_limits<double>::infinity();
    r.dirAccuracy = 0.75;
    r.unitEnergyNj = fullUnitEnergies(double(seed));
    r.unitEnergyNj[unitName(static_cast<Unit>(0))] =
        std::numeric_limits<double>::quiet_NaN();
    return r;
}

/** header + one frame per (cfg, result) pair. */
std::string
buildFile(const std::string &scenario,
          const std::vector<RunConfig> &cfgs,
          const std::vector<RunResults> &results,
          const std::vector<std::size_t> &indices)
{
    std::string buf = gtrj::fileHeader();
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        buf += gtrj::encodeRecord(scenario, indices[i], cfgs[i],
                                  results[i]);
    return buf;
}

// ---------------------------------------------------------------
// Varints
// ---------------------------------------------------------------

TEST(GtrjVarint, RoundTripsBoundaryValues)
{
    const std::uint64_t values[] = {0,         1,
                                    127,       128,
                                    300,       (1ull << 32) - 1,
                                    1ull << 32, ~std::uint64_t(0)};
    for (std::uint64_t v : values) {
        std::string buf;
        gtrj::appendVarint(buf, v);
        std::size_t pos = 0;
        std::uint64_t back = 0;
        ASSERT_TRUE(gtrj::readVarint(buf, pos, back)) << v;
        EXPECT_EQ(back, v);
        EXPECT_EQ(pos, buf.size()) << v;
    }

    // Single-byte and two-byte boundaries are exact.
    std::string one, two;
    gtrj::appendVarint(one, 127);
    gtrj::appendVarint(two, 128);
    EXPECT_EQ(one.size(), 1u);
    EXPECT_EQ(two.size(), 2u);
}

TEST(GtrjVarint, RejectsTruncatedAndOverlongEncodings)
{
    // Truncated: a continuation bit with nothing after it.
    std::size_t pos = 0;
    std::uint64_t v = 0;
    EXPECT_FALSE(gtrj::readVarint(std::string("\x80", 1), pos, v));

    // ~0 encodes as 10 bytes whose last byte is exactly 0x01: the
    // 10th byte may carry only bit 63.
    std::string max;
    gtrj::appendVarint(max, ~std::uint64_t(0));
    ASSERT_EQ(max.size(), 10u);
    EXPECT_EQ(static_cast<unsigned char>(max.back()), 0x01u);

    // A 10th byte with any other bit set is non-canonical garbage.
    std::string bad(9, '\x80');
    bad.push_back('\x02');
    pos = 0;
    EXPECT_FALSE(gtrj::readVarint(bad, pos, v));

    // An 11-byte encoding can never be valid.
    std::string over(10, '\x80');
    over.push_back('\x01');
    pos = 0;
    EXPECT_FALSE(gtrj::readVarint(over, pos, v));
}

// ---------------------------------------------------------------
// Header
// ---------------------------------------------------------------

TEST(GtrjHeader, AcceptsOwnHeaderRejectsForeignBytes)
{
    std::string err;
    std::size_t pos = 0;
    ASSERT_TRUE(gtrj::readHeader(gtrj::fileHeader(), pos, err));
    EXPECT_EQ(pos, gtrj::fileHeader().size());

    // Short buffer (a torn header from a killed writer).
    pos = 0;
    EXPECT_FALSE(gtrj::readHeader("GT", pos, err));

    // Wrong magic — a JSONL file fed to the binary reader.
    pos = 0;
    EXPECT_FALSE(gtrj::readHeader("{\"scenario\":1}", pos, err));

    // Right magic, unknown future version: readers reject rather
    // than guess at an unknown payload layout.
    std::string future(gtrj::magic, sizeof(gtrj::magic));
    gtrj::appendVarint(future, gtrj::formatVersion + 1);
    pos = 0;
    EXPECT_FALSE(gtrj::readHeader(future, pos, err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

// ---------------------------------------------------------------
// Record round trip
// ---------------------------------------------------------------

TEST(GtrjRecord, RoundTripsConfigMetricsAndNonFiniteDoubles)
{
    const RunConfig cfg = sampleConfig(7);
    const RunResults r = sampleResults(7);
    const std::string frame =
        gtrj::encodeRecord("fig05\"x", 42, cfg, r);

    std::size_t pos = 0;
    std::string_view payload;
    std::string err;
    ASSERT_EQ(gtrj::nextFrame(frame, pos, payload, err),
              gtrj::FrameStatus::ok);
    EXPECT_EQ(pos, frame.size());

    gtrj::DecodedRecord dec;
    ASSERT_TRUE(gtrj::decodePayload(payload, dec, err)) << err;
    EXPECT_EQ(dec.scenario, "fig05\"x");
    EXPECT_EQ(dec.index, 42u);
    EXPECT_EQ(dec.cfg.benchmark, cfg.benchmark);
    EXPECT_EQ(dec.cfg.instructions, cfg.instructions);
    EXPECT_EQ(dec.cfg.seed, cfg.seed);
    EXPECT_EQ(dec.cfg.phaseSeed, phaseSeedFollowsWorkload);
    EXPECT_TRUE(dec.cfg.gals);
    EXPECT_EQ(dec.results.committed, r.committed);
    EXPECT_EQ(dec.results.ticks, r.ticks);
    EXPECT_DOUBLE_EQ(dec.results.ipcNominal, r.ipcNominal);
    EXPECT_TRUE(std::isnan(dec.results.misspecFraction));
    EXPECT_TRUE(std::isinf(dec.results.mispredictsPerKCommitted));
    EXPECT_LT(dec.results.mispredictsPerKCommitted, 0.0);
    ASSERT_EQ(dec.results.unitEnergyNj.size(), std::size_t(numUnits));
    EXPECT_TRUE(std::isnan(
        dec.results.unitEnergyNj.at(unitName(static_cast<Unit>(0)))));
    EXPECT_TRUE(dec.results.intervals.empty());
    EXPECT_TRUE(dec.results.cores.empty());
}

TEST(GtrjRecord, RoundTripsFabricAndPerCoreBlocks)
{
    RunConfig cfg = sampleConfig(1);
    cfg.fabric.cores = 4;
    cfg.fabric.topology = TopologyKind::mesh2d;
    cfg.fabric.traffic = "hotspot:2";

    RunResults r = sampleResults(1);
    for (unsigned c = 0; c < 4; ++c) {
        CoreResults cr;
        cr.core = c;
        cr.committed = 500 + c;
        cr.ipcNominal = 0.5 + double(c);
        cr.energyJ = 0.25 * double(c);
        cr.fifoEvents = 3 * c;
        cr.msgsSent = c;
        cr.msgsReceived = 4 - c;
        cr.remoteStallCycles = 10 * c;
        cr.avgRemoteLatencyCycles = 12.5 + double(c);
        r.cores.push_back(cr);
    }

    const std::string frame = gtrj::encodeRecord("fabric", 3, cfg, r);
    std::size_t pos = 0;
    std::string_view payload;
    std::string err;
    ASSERT_EQ(gtrj::nextFrame(frame, pos, payload, err),
              gtrj::FrameStatus::ok);
    gtrj::DecodedRecord dec;
    ASSERT_TRUE(gtrj::decodePayload(payload, dec, err)) << err;
    EXPECT_EQ(dec.cfg.fabric.cores, 4u);
    EXPECT_EQ(dec.cfg.fabric.topology, TopologyKind::mesh2d);
    EXPECT_EQ(dec.cfg.fabric.traffic, "hotspot:2");
    ASSERT_EQ(dec.results.cores.size(), 4u);
    EXPECT_EQ(dec.results.cores[2].committed, 502u);
    EXPECT_EQ(dec.results.cores[2].msgsReceived, 2u);
    EXPECT_DOUBLE_EQ(dec.results.cores[3].avgRemoteLatencyCycles,
                     15.5);
}

TEST(GtrjRecord, RoundTripsIntervalSamples)
{
    RunConfig cfg = sampleConfig(2);
    cfg.intervalTicks = 5000;

    RunResults r = sampleResults(2);
    for (int i = 1; i <= 3; ++i) {
        IntervalSample s;
        s.tick = 5000u * unsigned(i);
        s.committed = 100u * unsigned(i);
        s.ipc = 0.1 * double(i);
        for (unsigned d = 0; d < numDomains; ++d)
            s.energyNj[d] = double(i) + 0.5 * double(d);
        s.fifoOcc = unsigned(i);
        r.intervals.push_back(s);
    }

    const std::string frame = gtrj::encodeRecord("fig05", 0, cfg, r);
    std::size_t pos = 0;
    std::string_view payload;
    std::string err;
    ASSERT_EQ(gtrj::nextFrame(frame, pos, payload, err),
              gtrj::FrameStatus::ok);
    gtrj::DecodedRecord dec;
    ASSERT_TRUE(gtrj::decodePayload(payload, dec, err)) << err;
    EXPECT_EQ(dec.cfg.intervalTicks, 5000u);
    ASSERT_EQ(dec.results.intervals.size(), 3u);
    EXPECT_EQ(dec.results.intervals[1].tick, Tick(10000));
    EXPECT_EQ(dec.results.intervals[1].committed, 200u);
    EXPECT_DOUBLE_EQ(dec.results.intervals[2].ipc, 0.3);
    EXPECT_DOUBLE_EQ(dec.results.intervals[2].energyNj[1], 3.5);
    EXPECT_EQ(dec.results.intervals[2].fifoOcc, 3u);
}

TEST(GtrjRecord, RejectsTrailingBytesAndUnknownFlags)
{
    const std::string frame =
        gtrj::encodeRecord("s", 0, sampleConfig(0), sampleResults(0));
    std::size_t pos = 0;
    std::string_view payload;
    std::string err;
    ASSERT_EQ(gtrj::nextFrame(frame, pos, payload, err),
              gtrj::FrameStatus::ok);

    // A payload with junk appended must not decode: the format has
    // no in-band skipping, so trailing bytes mean a layout mismatch.
    std::string padded(payload);
    padded.push_back('\x00');
    gtrj::DecodedRecord dec;
    EXPECT_FALSE(gtrj::decodePayload(padded, dec, err));

    // Corrupt the flags byte (after scenario, index and benchmark
    // strings) to set an undefined bit: readers reject rather than
    // misattribute the following bytes.
    std::string mangled(payload);
    std::size_t p = 0;
    std::uint64_t n = 0;
    ASSERT_TRUE(gtrj::readVarint(mangled, p, n)); // scenario len
    p += n;
    ASSERT_TRUE(gtrj::readVarint(mangled, p, n)); // index
    ASSERT_TRUE(gtrj::readVarint(mangled, p, n)); // benchmark len
    p += n;
    mangled[p] = static_cast<char>(0x80);
    EXPECT_FALSE(gtrj::decodePayload(mangled, dec, err));
    EXPECT_NE(err.find("flag"), std::string::npos) << err;
}

/** The writer sets a gate bit exactly when its block is present, so a
 *  frame with a gate bit over a zero warmup or interval length, a
 *  single core or an empty per-core block is refused, not rendered
 *  as a record without the block. */
TEST(GtrjRecord, RejectsGateBitsTheirBlocksDoNotMatch)
{
    const auto payloadOf = [](const RunConfig &cfg, const RunResults &r) {
        const std::string frame = gtrj::encodeRecord("s", 0, cfg, r);
        std::size_t pos = 0;
        std::uint64_t len = 0;
        EXPECT_TRUE(gtrj::readVarint(frame, pos, len));
        return frame.substr(pos);
    };
    // Offsets of the flags byte and of the first field after the
    // seeds (the warmup or fabric block).
    const auto layout = [](const std::string &p) {
        std::size_t pos = 0;
        std::uint64_t n = 0;
        EXPECT_TRUE(gtrj::readVarint(p, pos, n)); // scenario
        pos += n;
        EXPECT_TRUE(gtrj::readVarint(p, pos, n)); // index
        EXPECT_TRUE(gtrj::readVarint(p, pos, n)); // benchmark
        pos += n;
        const std::size_t flags = pos++;
        for (int i = 0; i < 3; ++i) // instructions, seed, phase seed
            EXPECT_TRUE(gtrj::readVarint(p, pos, n));
        return std::pair<std::size_t, std::size_t>(flags, pos);
    };
    const auto refused = [](const std::string &payload) {
        gtrj::DecodedRecord dec;
        std::string err;
        const bool ok = gtrj::decodePayload(payload, dec, err);
        EXPECT_FALSE(err.empty() && !ok);
        return !ok;
    };

    RunConfig warm = sampleConfig(0);
    warm.warmupInstructions = 1; // one varint byte
    std::string p = payloadOf(warm, sampleResults(0));
    ASSERT_FALSE(refused(p));
    p[layout(p).second] = 0;
    EXPECT_TRUE(refused(p)) << "zero warmup";

    RunConfig fabric = sampleConfig(0);
    fabric.fabric.cores = 2;
    p = payloadOf(fabric, sampleResults(0));
    ASSERT_FALSE(refused(p));
    p[layout(p).second] = 1;
    EXPECT_TRUE(refused(p)) << "fabric bit over one core";

    RunConfig metered = sampleConfig(0);
    metered.intervalTicks = 100; // one varint byte, then a zero count
    p = payloadOf(metered, sampleResults(0));
    ASSERT_FALSE(refused(p));
    p[p.size() - 2] = 0;
    EXPECT_TRUE(refused(p)) << "zero interval length";

    // An empty per-core block behind a set per-core bit.
    p = payloadOf(sampleConfig(0), sampleResults(0));
    p[layout(p).first] |= flagPerCore;
    p.push_back('\0');
    EXPECT_TRUE(refused(p)) << "empty per-core block";
}

// ---------------------------------------------------------------
// Golden record: the column order of every view, pinned
// ---------------------------------------------------------------

namespace
{

/** A record carrying every gated block at once: warmup, fabric axes
 *  with per-core results, interval samples and dynamic DVFS, with
 *  NaN and +-inf in metric, unit-energy, per-core and interval
 *  cells. No simulation produces it; every view must still render
 *  it. */
RunConfig
goldenConfig()
{
    RunConfig c;
    c.benchmark = "gcc";
    c.instructions = 5000;
    c.gals = true;
    c.dynamicDvfs = true;
    c.seed = 3;
    c.phaseSeed = 11;
    c.warmupInstructions = 1000;
    c.fabric.cores = 2;
    c.fabric.topology = TopologyKind::ring;
    c.fabric.traffic = "uniform";
    c.intervalTicks = 2500;
    return c;
}

RunResults
goldenResults()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    RunResults r;
    r.benchmark = "gcc";
    r.gals = true;
    // Every metric column gets a distinct value; three of them are
    // non-finite.
    std::size_t m = 0;
    for (const MetricAccessor &acc : metricAccessors()) {
        ++m;
        if (acc.integral)
            acc.setU(r, 100 * m + (std::uint64_t(1) << (3 * m)));
        else
            acc.set(r, double(m) / 8.0 + 0.1);
    }
    r.ipcNominal = nan;
    r.avgPowerW = inf;
    r.avgSlipCycles = -inf;
    r.unitEnergyNj = fullUnitEnergies(0.5);
    r.unitEnergyNj[unitName(static_cast<Unit>(1))] = -inf;
    for (unsigned k = 0; k < 2; ++k) {
        CoreResults cr;
        cr.core = k;
        cr.committed = 2500 + k;
        cr.ipcNominal = k ? nan : 0.75;
        cr.energyJ = 1.5e-9 * double(k + 1);
        cr.fifoEvents = 40 + k;
        cr.msgsSent = 7 * k;
        cr.msgsReceived = 9 - k;
        cr.remoteStallCycles = 300 + k;
        cr.avgRemoteLatencyCycles = k ? 12.25 : inf;
        r.cores.push_back(cr);
    }
    for (unsigned i = 1; i <= 2; ++i) {
        IntervalSample s;
        s.tick = 2500 * i;
        s.committed = 600 + i;
        s.ipc = i == 2 ? -inf : 0.24;
        for (unsigned d = 0; d < numDomains; ++d)
            s.energyNj[d] = d == 1 && i == 1 ? nan : 0.5 * d + i;
        s.fifoOcc = 3 * i;
        r.intervals.push_back(s);
    }
    return r;
}

/** A scenario name that JSON must escape and CSV must quote. */
const std::string goldenScenario = "gold,en \"rec\"";

std::string
hexOf(std::string_view bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const unsigned char b = static_cast<unsigned char>(c);
        out += digits[b >> 4];
        out += digits[b & 15];
    }
    return out;
}

} // namespace

TEST(GoldenRecord, JsonLineIsPinned)
{
    std::ostringstream os;
    const std::vector<std::size_t> indices = {17};
    writeJsonLines(os, goldenScenario, {goldenConfig()}, {goldenResults()},
                   &indices);
    EXPECT_EQ(os.str(),
              "{\"scenario\":\"gold,en \\\"rec\\\"\",\"index\":17,\"benchmark\":\"gc"
              "c\",\"gals\":true,\"dynamic_dvfs\":true,\"instructions\":5000,\""
              "seed\":3,\"phase_seed\":11,\"warmup_insts\":1000,\"cores\":2,\"t"
              "opology\":\"ring\",\"traffic\":\"uniform\",\"committed\":108,\"fet"
              "ched\":264,\"wrong_path_fetched\":812,\"ticks\":4496,\"time_se"
              "c\":0.72499999999999998,\"ipc_nominal\":null,\"energy_j\":0.9"
              "7499999999999998,\"avg_power_w\":null,\"fifo_events\":134218"
              "628,\"avg_slip_cycles\":null,\"avg_fifo_slip_cycles\":1.4750"
              "000000000001,\"misspec_fraction\":1.6000000000000001,\"misp"
              "redicts_per_k\":1.7250000000000001,\"dir_accuracy\":1.85000"
              "00000000001,\"avg_rob_occ\":1.9750000000000001,\"avg_int_re"
              "names\":2.1000000000000001,\"avg_fp_renames\":2.22500000000"
              "00001,\"int_iq_occ\":2.3500000000000001,\"fp_iq_occ\":2.4750"
              "000000000001,\"mem_iq_occ\":2.6000000000000001,\"il1_miss_r"
              "ate\":2.7250000000000001,\"dl1_miss_rate\":2.85000000000000"
              "01,\"l2_miss_rate\":2.9750000000000001,\"energy_nj\":{\"async"
              "_fifos\":6,\"branch_pred\":2.25,\"dcache\":5.25,\"decode_clock"
              "\":1,\"decode_logic\":2.5,\"fetch_clock\":null,\"fp_alus\":5,\"f"
              "p_clock\":1.5,\"fp_issue_q\":4,\"global_clock\":0.5,\"icache\":"
              "2,\"int_alus\":4.75,\"int_clock\":1.25,\"int_issue_q\":3.75,\"l"
              "2_cache\":5.5,\"lsq\":4.5,\"mem_clock\":1.75,\"mem_issue_q\":4."
              "25,\"regfile_fp\":3.5,\"regfile_int\":3.25,\"rename_table\":2."
              "75,\"result_bus\":5.75,\"rob\":3},\"per_core\":[{\"core\":0,\"com"
              "mitted\":2500,\"ipc_nominal\":0.75,\"energy_j\":1.5e-09,\"fifo"
              "_events\":40,\"msgs_sent\":0,\"msgs_received\":9,\"remote_stal"
              "l_cycles\":300,\"avg_remote_latency_cycles\":null},{\"core\":"
              "1,\"committed\":2501,\"ipc_nominal\":null,\"energy_j\":3e-09,\""
              "fifo_events\":41,\"msgs_sent\":7,\"msgs_received\":8,\"remote_"
              "stall_cycles\":301,\"avg_remote_latency_cycles\":12.25}],\"i"
              "nterval_ticks\":2500,\"intervals\":[{\"tick\":2500,\"committed"
              "\":601,\"ipc\":0.23999999999999999,\"energy_nj\":{\"fetch\":1,\""
              "decode\":null,\"int\":2,\"fp\":2.5,\"mem\":3},\"fifo_occ\":3},{\"t"
              "ick\":5000,\"committed\":602,\"ipc\":null,\"energy_nj\":{\"fetch"
              "\":2,\"decode\":2.5,\"int\":3,\"fp\":3.5,\"mem\":4},\"fifo_occ\":6}"
              "]}\n");
}

TEST(GoldenRecord, CsvHeaderAndRowArePinned)
{
    std::ostringstream os;
    writeCsv(os, goldenScenario, {goldenConfig()}, {goldenResults()});
    EXPECT_EQ(os.str(),
              "scenario,index,benchmark,gals,dynamic_dvfs,instructions,"
              "seed,phase_seed,committed,fetched,wrong_path_fetched,tic"
              "ks,time_sec,ipc_nominal,energy_j,avg_power_w,fifo_events"
              ",avg_slip_cycles,avg_fifo_slip_cycles,misspec_fraction,m"
              "ispredicts_per_k,dir_accuracy,avg_rob_occ,avg_int_rename"
              "s,avg_fp_renames,int_iq_occ,fp_iq_occ,mem_iq_occ,il1_mis"
              "s_rate,dl1_miss_rate,l2_miss_rate,energy_nj.async_fifos,"
              "energy_nj.branch_pred,energy_nj.dcache,energy_nj.decode_"
              "clock,energy_nj.decode_logic,energy_nj.fetch_clock,energ"
              "y_nj.fp_alus,energy_nj.fp_clock,energy_nj.fp_issue_q,ene"
              "rgy_nj.global_clock,energy_nj.icache,energy_nj.int_alus,"
              "energy_nj.int_clock,energy_nj.int_issue_q,energy_nj.l2_c"
              "ache,energy_nj.lsq,energy_nj.mem_clock,energy_nj.mem_iss"
              "ue_q,energy_nj.regfile_fp,energy_nj.regfile_int,energy_n"
              "j.rename_table,energy_nj.result_bus,energy_nj.rob\n"
              "\"gold,en \"\"rec\"\"\",0,gcc,1,1,5000,3,11,108,264,812,4496,0"
              ".72499999999999998,,0.97499999999999998,,134218628,,1.47"
              "50000000000001,1.6000000000000001,1.7250000000000001,1.8"
              "500000000000001,1.9750000000000001,2.1000000000000001,2."
              "2250000000000001,2.3500000000000001,2.4750000000000001,2"
              ".6000000000000001,2.7250000000000001,2.8500000000000001,"
              "2.9750000000000001,6,2.25,5.25,1,2.5,,5,1.5,4,0.5,2,4.75"
              ",1.25,3.75,5.5,4.5,1.75,4.25,3.5,3.25,2.75,5.75,3\n");
}

TEST(GoldenRecord, GtrjFrameIsPinnedAndDecodesToTheSameViews)
{
    const RunConfig cfg = goldenConfig();
    const RunResults r = goldenResults();
    const std::string frame =
        gtrj::encodeRecord(goldenScenario, 17, cfg, r);
    EXPECT_EQ(hexOf(frame),
              "ab040d676f6c642c656e20227265632211036763633f8827030be807"
              "020472696e6707756e69666f726d176c8802ac069023333333333333"
              "e73f000000000000f87f333333333333ef3f000000000000f07f8487"
              "8040000000000000f0ff9a9999999999f73f9a9999999999f93f9a99"
              "99999999fb3f9a9999999999fd3f9a9999999999ff3fcdcccccccccc"
              "0040cdcccccccccc0140cdcccccccccc0240cdcccccccccc0340cdcc"
              "cccccccc0440cdcccccccccc0540cdcccccccccc0640cdcccccccccc"
              "07401700000000000018400000000000000240000000000000154000"
              "0000000000f03f0000000000000440000000000000f0ff0000000000"
              "001440000000000000f83f0000000000001040000000000000e03f00"
              "000000000000400000000000001340000000000000f43f0000000000"
              "000e4000000000000016400000000000001240000000000000fc3f00"
              "000000000011400000000000000c400000000000000a400000000000"
              "000640000000000000174000000000000008400200c4130000000000"
              "00e83fdf413adc11c5193e280009ac02000000000000f07f01c51300"
              "0000000000f87fdf413adc11c5293e290708ad020000000000802840"
              "c41302c413d904b81e85eb51b8ce3f000000000000f03f0000000000"
              "00f87f00000000000000400000000000000440000000000000084003"
              "8827da04000000000000f0ff00000000000000400000000000000440"
              "00000000000008400000000000000c40000000000000104006");

    // The decoded record renders the native record's text bytes.
    std::string json, csv, err;
    ASSERT_TRUE(gtrj::toJsonLines(gtrj::fileHeader() + frame, json, err))
        << err;
    std::ostringstream native;
    const std::vector<std::size_t> indices = {17};
    writeJsonLines(native, goldenScenario, {cfg}, {r}, &indices);
    EXPECT_EQ(json, native.str());
    ASSERT_TRUE(gtrj::toCsv(gtrj::fileHeader() + frame, csv, err)) << err;
    native.str("");
    writeCsvHeader(native, r);
    writeCsvRows(native, goldenScenario, {cfg}, {r}, &indices);
    EXPECT_EQ(csv, native.str());
}

// ---------------------------------------------------------------
// Frame walking / torn tails
// ---------------------------------------------------------------

TEST(GtrjFrames, DetectsCleanEofAndTornTail)
{
    const std::string f1 =
        gtrj::encodeRecord("s", 0, sampleConfig(0), sampleResults(0));
    const std::string f2 =
        gtrj::encodeRecord("s", 1, sampleConfig(1), sampleResults(1));
    const std::string whole = gtrj::fileHeader() + f1 + f2;

    std::size_t pos = 0;
    std::string err;
    ASSERT_TRUE(gtrj::readHeader(whole, pos, err));
    std::string_view payload;
    EXPECT_EQ(gtrj::nextFrame(whole, pos, payload, err),
              gtrj::FrameStatus::ok);
    EXPECT_EQ(gtrj::nextFrame(whole, pos, payload, err),
              gtrj::FrameStatus::ok);
    EXPECT_EQ(gtrj::nextFrame(whole, pos, payload, err),
              gtrj::FrameStatus::eof);
    EXPECT_EQ(pos, whole.size());

    // Cut the second frame mid-payload: the walk reports torn, not
    // eof and not a bogus record.
    const std::string torn =
        whole.substr(0, gtrj::fileHeader().size() + f1.size() + 5);
    pos = 0;
    ASSERT_TRUE(gtrj::readHeader(torn, pos, err));
    EXPECT_EQ(gtrj::nextFrame(torn, pos, payload, err),
              gtrj::FrameStatus::ok);
    const std::size_t afterFirst = pos;
    EXPECT_EQ(gtrj::nextFrame(torn, pos, payload, err),
              gtrj::FrameStatus::torn);
    EXPECT_EQ(pos, afterFirst); // pos is not advanced past a torn tail

    EXPECT_EQ(gtrj::countFrames(whole), 2u);
    EXPECT_EQ(gtrj::countFrames(torn), 1u);
}

// ---------------------------------------------------------------
// parse byte-identity against the strict reporters
// ---------------------------------------------------------------

TEST(GtrjParse, JsonLinesMatchNativeReporterByteForByte)
{
    std::vector<RunConfig> cfgs = {sampleConfig(0), sampleConfig(1)};
    std::vector<RunResults> results = {sampleResults(0),
                                       sampleResults(1)};
    cfgs[1].intervalTicks = 5000;
    IntervalSample s;
    s.tick = 5000;
    s.committed = 123;
    s.ipc = 0.125;
    s.fifoOcc = 2;
    results[1].intervals.push_back(s);
    // Shard-style non-contiguous canonical indices.
    const std::vector<std::size_t> indices = {5, 9};

    const std::string buf =
        buildFile("fig05", cfgs, results, indices);

    std::ostringstream expected;
    writeJsonLines(expected, "fig05", cfgs, results, &indices);

    std::string text, err;
    ASSERT_TRUE(gtrj::toJsonLines(buf, text, err)) << err;
    EXPECT_EQ(text, expected.str());
}

TEST(GtrjParse, CsvMatchesNativeReporterByteForByte)
{
    std::vector<RunConfig> cfgs = {sampleConfig(0), sampleConfig(1)};
    std::vector<RunResults> results = {sampleResults(0),
                                       sampleResults(1)};
    const std::vector<std::size_t> indices = {0, 1};

    const std::string buf =
        buildFile("fig05", cfgs, results, indices);

    std::ostringstream expected;
    writeCsv(expected, "fig05", cfgs, results);

    std::string text, err;
    ASSERT_TRUE(gtrj::toCsv(buf, text, err)) << err;
    EXPECT_EQ(text, expected.str());
}

TEST(GtrjParse, RejectsTornInput)
{
    const std::string whole =
        gtrj::fileHeader() +
        gtrj::encodeRecord("s", 0, sampleConfig(0), sampleResults(0));
    std::string text, err;
    ASSERT_TRUE(gtrj::toJsonLines(whole, text, err)) << err;
    EXPECT_FALSE(
        gtrj::toJsonLines(whole.substr(0, whole.size() - 3), text,
                          err));
    EXPECT_FALSE(gtrj::toJsonLines("GT", text, err));
}

// ---------------------------------------------------------------
// Size: the whole point of the binary twin
// ---------------------------------------------------------------

TEST(GtrjSize, BinaryIsAtMostAThirdOfJsonLines)
{
    std::vector<RunConfig> cfgs;
    std::vector<RunResults> results;
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < 16; ++i) {
        cfgs.push_back(sampleConfig(i));
        // Realistic records: every metric column carries a value, and
        // the doubles need full shortest-round-trip precision in the
        // text twin (a simulated IPC is 0.23076923076923078, not 0).
        RunResults r = sampleResults(i);
        std::size_t m = 0;
        for (const MetricAccessor &acc : metricAccessors()) {
            ++m;
            if (acc.integral)
                acc.setU(r, 10000 + 137 * m * (i + 1));
            else
                acc.set(r, double(m * (i + 1)) / 13.0);
        }
        r.unitEnergyNj = fullUnitEnergies(double(i) + 1.0 / 7.0);
        results.push_back(r);
        indices.push_back(i);
    }
    const std::string bin = buildFile("fig05", cfgs, results, indices);
    std::ostringstream text;
    writeJsonLines(text, "fig05", cfgs, results, &indices);
    EXPECT_LE(bin.size() * 3, text.str().size())
        << bin.size() << " vs " << text.str().size();
}

// ---------------------------------------------------------------
// CLI path validation
// ---------------------------------------------------------------

TEST(GtrjPaths, CliPathParseIsStrictWhileLegacyParseIsLenient)
{
    TrajectoryFormat f = TrajectoryFormat::csv;
    EXPECT_TRUE(trajectoryFormatForCliPath("a/run.jsonl", f));
    EXPECT_EQ(f, TrajectoryFormat::jsonLines);
    EXPECT_TRUE(trajectoryFormatForCliPath("run.json", f));
    EXPECT_EQ(f, TrajectoryFormat::jsonLines);
    EXPECT_TRUE(trajectoryFormatForCliPath("run.csv", f));
    EXPECT_EQ(f, TrajectoryFormat::csv);
    EXPECT_TRUE(trajectoryFormatForCliPath("run.gtrj", f));
    EXPECT_EQ(f, TrajectoryFormat::gtrj);

    // Unknown extensions are a usage error at the CLI...
    EXPECT_FALSE(trajectoryFormatForCliPath("out", f));
    EXPECT_FALSE(trajectoryFormatForCliPath("run.txt", f));
    EXPECT_FALSE(trajectoryFormatForCliPath("run.GTRJ", f));

    // ...but the lenient mapping (archives, internal paths) still
    // defaults them to JSON lines.
    EXPECT_EQ(trajectoryFormatForPath("out"),
              TrajectoryFormat::jsonLines);
    EXPECT_EQ(trajectoryFormatForPath("run.gtrj"),
              TrajectoryFormat::gtrj);
}

// ---------------------------------------------------------------
// TrajectorySink gtrj backend
// ---------------------------------------------------------------

TEST(GtrjSink, StreamedAppendMatchesHandBuiltFile)
{
    const std::string path = tempPath("sink.gtrj");
    std::remove(path.c_str());

    std::vector<RunConfig> cfgs = {sampleConfig(0), sampleConfig(1)};
    std::vector<RunResults> results = {sampleResults(0),
                                       sampleResults(1)};
    {
        TrajectorySink sink(path);
        sink.appendOne("fig05", cfgs[0], results[0], 0);
        sink.appendOne("fig05", cfgs[1], results[1], 1);
        sink.close();
    }
    EXPECT_EQ(slurp(path),
              buildFile("fig05", cfgs, results, {0, 1}));
    std::remove(path.c_str());
}

TEST(GtrjSink, AppendModeWritesTheHeaderExactlyOnce)
{
    const std::string path = tempPath("resume.gtrj");
    std::remove(path.c_str());

    std::vector<RunConfig> cfgs = {sampleConfig(0), sampleConfig(1)};
    std::vector<RunResults> results = {sampleResults(0),
                                       sampleResults(1)};
    {
        TrajectorySink sink(path);
        sink.appendOne("fig05", cfgs[0], results[0], 0);
        sink.close();
    }
    {
        // A resumed worker reopens in append mode: the header is
        // already on disk and must not repeat.
        TrajectorySink sink(path, /*appendMode=*/true);
        sink.appendOne("fig05", cfgs[1], results[1], 1);
        sink.close();
    }
    EXPECT_EQ(slurp(path),
              buildFile("fig05", cfgs, results, {0, 1}));

    {
        // Append mode on an empty file (the resume scan truncated a
        // torn header to zero bytes) writes the header fresh.
        std::ofstream(path, std::ios::trunc).close();
        TrajectorySink sink(path, /*appendMode=*/true);
        sink.appendOne("fig05", cfgs[0], results[0], 0);
        sink.close();
    }
    EXPECT_EQ(slurp(path), buildFile("fig05", {cfgs[0]},
                                     {results[0]}, {0}));
    std::remove(path.c_str());
}

} // namespace
