/**
 * @file
 * Tests for the interval meter (sim/meter.hh + the runOne()
 * `--interval-ticks` wiring).
 *
 * Two contracts matter. First, the meter is read-only: a metered run
 * must reproduce the unmetered run's headline metrics exactly, with
 * the interval series strictly additive. Second, the series itself
 * is part of the deterministic output: samples must be
 * byte-identical (checked through the gtrj frame encoding, which
 * covers every field bit-for-bit) across job counts and to a pinned
 * digest, or archived metered trajectories could never be
 * `--verify`d.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "runner/engine.hh"
#include "runner/gtrj.hh"
#include "sim/event_queue.hh"
#include "sim/meter.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

/** A short deterministic run. */
RunConfig
meteredConfig(std::uint64_t seed, bool gals)
{
    RunConfig c;
    c.benchmark = "adpcm";
    c.instructions = 2000;
    c.gals = gals;
    c.seed = seed;
    return c;
}

/** One frame per run: byte-wise equality covers every config field,
 *  metric column and interval sample at full precision. */
std::string
framesOf(const std::vector<RunConfig> &cfgs,
         const std::vector<RunResults> &results)
{
    std::string buf;
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        buf += gtrj::encodeRecord("t", i, cfgs[i], results[i]);
    return buf;
}

class CountingMeter final : public PeriodicMeter
{
  public:
    CountingMeter(EventQueue &eq, Tick k) : PeriodicMeter(eq, "m", k)
    {
    }
    std::vector<Tick> sampleTicks;

  protected:
    void
    sampleInterval(std::uint64_t index, Tick now) override
    {
        EXPECT_EQ(index, sampleTicks.size());
        sampleTicks.push_back(now);
    }
};

} // namespace

TEST(PeriodicMeter, FirstSampleLandsOneFullIntervalAfterStart)
{
    EventQueue eq;
    CountingMeter meter(eq, 1000);
    EXPECT_EQ(meter.intervalTicks(), Tick(1000));
    meter.start();
    eq.runUntil(3500);
    // No sample at tick 0: the first interval must elapse first.
    EXPECT_EQ(meter.sampleTicks,
              (std::vector<Tick>{1000, 2000, 3000}));
    EXPECT_EQ(meter.samples(), 3u);

    // stop() deschedules: no further edges fire.
    meter.stop();
    eq.runUntil(9000);
    EXPECT_EQ(meter.samples(), 3u);
}

TEST(RunMeter, MeterIsReadOnlyAndSamplesAreConsistent)
{
    RunConfig plain = meteredConfig(1, /*gals=*/true);
    const RunResults bare = runOne(plain);
    ASSERT_GT(bare.ticks, 0u);
    EXPECT_TRUE(bare.intervals.empty());

    // Sample ~5 times over the run.
    RunConfig metered = plain;
    metered.intervalTicks = bare.ticks / 5;
    ASSERT_GT(metered.intervalTicks, 0u);
    const RunResults r = runOne(metered);

    // Read-only: every headline metric of the metered run equals the
    // bare run's.
    EXPECT_EQ(r.committed, bare.committed);
    EXPECT_EQ(r.fetched, bare.fetched);
    EXPECT_EQ(r.ticks, bare.ticks);
    EXPECT_DOUBLE_EQ(r.ipcNominal, bare.ipcNominal);
    EXPECT_DOUBLE_EQ(r.energyJ, bare.energyJ);
    EXPECT_EQ(r.fifoEvents, bare.fifoEvents);
    EXPECT_EQ(r.unitEnergyNj, bare.unitEnergyNj);

    // The series: strictly ascending multiples of K, with
    // per-interval deltas that never exceed the run totals.
    ASSERT_GE(r.intervals.size(), 3u);
    std::uint64_t committedSum = 0;
    double energyNjSum = 0.0;
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        const IntervalSample &s = r.intervals[i];
        EXPECT_EQ(s.tick, metered.intervalTicks * (i + 1));
        committedSum += s.committed;
        for (unsigned d = 0; d < numDomains; ++d) {
            EXPECT_GE(s.energyNj[d], 0.0);
            energyNjSum += s.energyNj[d];
        }
        EXPECT_GE(s.ipc, 0.0);
    }
    // The samples stop at the last full interval before the final
    // commit, so the sums are partial but bounded by the totals.
    EXPECT_LE(committedSum, r.committed);
    EXPECT_GT(committedSum, 0u);
    EXPECT_LE(energyNjSum, r.energyJ * 1e9 * (1.0 + 1e-9));
    EXPECT_GT(energyNjSum, 0.0);
}

TEST(RunMeter, ZeroIntervalTicksDisablesTheMeter)
{
    RunConfig cfg = meteredConfig(0, /*gals=*/false);
    cfg.intervalTicks = 0;
    EXPECT_TRUE(runOne(cfg).intervals.empty());
}

TEST(RunMeter, SeriesIsByteIdenticalAcrossJobCounts)
{
    std::vector<RunConfig> cfgs;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        RunConfig c = meteredConfig(seed, seed % 2 == 1);
        c.intervalTicks = 1500;
        cfgs.push_back(c);
    }

    const std::vector<RunResults> serial =
        ExperimentEngine(1).run(cfgs);
    const std::vector<RunResults> parallel =
        ExperimentEngine(8).run(cfgs);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const RunResults &r : serial)
        EXPECT_FALSE(r.intervals.empty());
    EXPECT_EQ(framesOf(cfgs, serial), framesOf(cfgs, parallel));
}

/** The series of one metered GALS run, pinned to the frame bytes a
 *  std::set event queue and the calendar queue both produced before
 *  the std::set one was retired. */
TEST(RunMeter, SeriesIsPinned)
{
    RunConfig cfg = meteredConfig(3, /*gals=*/true);
    cfg.intervalTicks = 1500;

    const RunResults r = runOne(cfg);
    ASSERT_EQ(r.intervals.size(), 832u);
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    for (const unsigned char c : framesOf({cfg}, {r})) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(h, 0xea6064579eca3538ULL);
}
