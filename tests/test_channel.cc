/**
 * @file
 * Tests for the mixed-clock Channel — the paper's central mechanism.
 *
 * Covers: synchronous-latch semantics (1-cycle visibility, immediate
 * slot reuse), asynchronous-FIFO semantics (empty-flag synchronizer
 * latency, delayed full-flag slot release, steady-state streaming
 * throughput), ordering/no-loss properties under parameterized period
 * ratios, squash behaviour, the pending-free list (bounded on a stream
 * that never drains and on a roomy channel that never fills, exact
 * when the producer speeds up), and a seeded brute-force oracle for
 * the full flag.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <tuple>

#include "core/channel.hh"
#include "sim/random.hh"

using namespace gals;

namespace
{

struct Harness
{
    EventQueue eq;
    ClockDomain prod;
    ClockDomain cons;

    Harness(Tick pp, Tick cp, Tick cphase = 0)
        : prod(eq, "prod", pp), cons(eq, "cons", cp, cphase)
    {
    }
};

} // namespace

TEST(SyncChannel, VisibleNextConsumerEdge)
{
    Harness h(1000, 1000);
    Channel<int> ch("ch", ChannelMode::syncLatch, h.prod, h.cons, 4);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(7); // pushed at t=0
    EXPECT_TRUE(ch.empty());
    h.eq.runUntil(999);
    EXPECT_TRUE(ch.empty());
    h.eq.runUntil(1000);
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(ch.front(), 7);
}

TEST(SyncChannel, PopFreesSlotImmediately)
{
    Harness h(1000, 1000);
    Channel<int> ch("ch", ChannelMode::syncLatch, h.prod, h.cons, 2);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(1);
    ch.push(2);
    EXPECT_TRUE(ch.full());
    h.eq.runUntil(1000);
    ch.pop();
    EXPECT_FALSE(ch.full());
}

TEST(SyncChannel, FifoOrderPreserved)
{
    Harness h(1000, 1000);
    Channel<int> ch("ch", ChannelMode::syncLatch, h.prod, h.cons, 8);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    for (int i = 0; i < 5; ++i)
        ch.push(i);
    h.eq.runUntil(1000);
    for (int i = 0; i < 5; ++i) {
        ASSERT_FALSE(ch.empty());
        EXPECT_EQ(ch.front(), i);
        ch.pop();
    }
    EXPECT_TRUE(ch.empty());
}

TEST(AsyncChannel, EmptyFlagSynchronizerLatency)
{
    // Consumer period 1000, phase 300; push at t=0 into an EMPTY fifo
    // with syncEdges=2: first edge strictly after 0 is 300, plus one
    // more period -> visible at 1300.
    Harness h(1000, 1000, 300);
    Channel<int> ch("ch", ChannelMode::asyncFifo, h.prod, h.cons, 4, 2);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(9);
    h.eq.runUntil(1299);
    EXPECT_TRUE(ch.empty());
    h.eq.runUntil(1300);
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(ch.front(), 9);
}

TEST(AsyncChannel, StreamingBackToBackThroughput)
{
    // Items pushed into a non-empty FIFO ride one consumer edge behind
    // their predecessor: steady-state throughput one per cycle.
    Harness h(1000, 1000, 300);
    Channel<int> ch("ch", ChannelMode::asyncFifo, h.prod, h.cons, 8, 2);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(0); // empty fifo: synchronizer latency, visible at 1300
    h.eq.runUntil(1000);
    ch.push(1); // non-empty: rides behind item0, also ready by 1300
    h.eq.runUntil(2000);
    ch.push(2); // ready at the edge after its push: 2300
    h.eq.runUntil(1300);
    ASSERT_FALSE(ch.empty());
    ch.pop();
    ASSERT_FALSE(ch.empty()); // item1 streamed in right behind
    ch.pop();
    EXPECT_TRUE(ch.empty());
    h.eq.runUntil(2300);
    ASSERT_FALSE(ch.empty());
    ch.pop();
}

TEST(AsyncChannel, NonStreamingPaysFullLatencyPerItem)
{
    Harness h(1000, 1000, 300);
    Channel<int> ch("ch", ChannelMode::asyncFifo, h.prod, h.cons, 8, 2,
                    /*streaming=*/false);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(0); // visible 1300
    h.eq.runUntil(1000);
    ch.push(1); // visible at first edge after 1000 (=1300) + 1000 = 2300
    h.eq.runUntil(1300);
    ASSERT_FALSE(ch.empty());
    ch.pop();
    EXPECT_TRUE(ch.empty());
    h.eq.runUntil(2300);
    EXPECT_FALSE(ch.empty());
}

TEST(AsyncChannel, FullFlagReleaseIsDelayed)
{
    Harness h(1000, 1000, 0);
    Channel<int> ch("ch", ChannelMode::asyncFifo, h.prod, h.cons, 2, 2);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(1);
    ch.push(2);
    EXPECT_TRUE(ch.full());
    h.eq.runUntil(2000); // both visible by now
    ch.pop();            // pop at t=2000
    // Slot release synchronizes back: producer edge after 2000 is
    // 3000, plus one period -> visible to producer at 4000.
    EXPECT_TRUE(ch.full());
    h.eq.runUntil(3999);
    EXPECT_TRUE(ch.full());
    h.eq.runUntil(4000);
    EXPECT_FALSE(ch.full());
}

TEST(AsyncChannel, SquashFreesCapacity)
{
    Harness h(1000, 1000);
    Channel<int> ch("ch", ChannelMode::asyncFifo, h.prod, h.cons, 4, 2);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    for (int i = 0; i < 4; ++i)
        ch.push(i);
    EXPECT_TRUE(ch.full());
    const unsigned removed = ch.squash([](int v) { return v >= 2; });
    EXPECT_EQ(removed, 2u);
    EXPECT_EQ(ch.rawSize(), 2u);
    EXPECT_EQ(ch.squashedItems(), 2u);
    h.eq.runUntil(10000);
    EXPECT_FALSE(ch.full());
}

TEST(AsyncChannel, SquashKeepsSurvivorsInOrder)
{
    Harness h(1000, 1000);
    Channel<int> ch("ch", ChannelMode::asyncFifo, h.prod, h.cons, 8, 2);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    for (int i = 0; i < 6; ++i)
        ch.push(i);
    ch.squash([](int v) { return v % 2 == 1; });
    h.eq.runUntil(20000);
    std::vector<int> got;
    while (!ch.empty()) {
        got.push_back(ch.front());
        ch.pop();
    }
    EXPECT_EQ(got, (std::vector<int>{0, 2, 4}));
}

TEST(AsyncChannel, MidFlightSquashOnInterCoreLink)
{
    // Inter-core link shape (fabric/system.cc): non-streaming FIFO
    // between two cores' mismatched-period domains. A squash must
    // also remove items still crossing the synchronizer (pushed but
    // not yet visible) — the remote half of a pipeline flush — and
    // the consumer must never observe them afterwards.
    Harness h(1000, 1300, 500);
    Channel<int> ch("link", ChannelMode::asyncFifo, h.prod, h.cons, 8,
                    2, false);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(1);
    ch.push(2);
    ch.push(3);
    // Nothing is visible yet; the squash reaches into the raw FIFO.
    EXPECT_TRUE(ch.empty());
    EXPECT_EQ(ch.squash([](int v) { return v % 2 == 0; }), 1u);
    std::vector<int> got;
    for (Tick t = 0; t <= 20000; t += 100) {
        h.eq.runUntil(t);
        while (!ch.empty()) {
            got.push_back(ch.front());
            ch.pop();
        }
    }
    EXPECT_EQ(got, (std::vector<int>{1, 3}));
    EXPECT_EQ(ch.squashedItems(), 1u);
}

TEST(Channel, ResidencyAccounting)
{
    Harness h(1000, 1000);
    Channel<int> ch("ch", ChannelMode::asyncFifo, h.prod, h.cons, 4, 2);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(5); // at t=0
    h.eq.runUntil(2000);
    EXPECT_EQ(ch.frontPushTick(), 0u);
    ch.pop(); // at t=2000
    EXPECT_EQ(ch.totalResidency(), 2000u);
    EXPECT_EQ(ch.pushes(), 1u);
    EXPECT_EQ(ch.pops(), 1u);
}

TEST(Channel, ClearEmptiesEverything)
{
    Harness h(1000, 1000);
    Channel<int> ch("ch", ChannelMode::syncLatch, h.prod, h.cons, 4);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(1);
    ch.push(2);
    ch.clear();
    EXPECT_EQ(ch.rawSize(), 0u);
    h.eq.runUntil(5000);
    EXPECT_TRUE(ch.empty());
    EXPECT_FALSE(ch.full());
}

/**
 * Property tests over mismatched clock periods: no item is ever lost
 * or reordered, visibility is never before the synchronizer bound, and
 * capacity is never exceeded.
 */
class ChannelProperty
    : public ::testing::TestWithParam<
          std::tuple<Tick, Tick, Tick, unsigned, bool>>
{
};

TEST_P(ChannelProperty, NoLossNoReorderLatencyBound)
{
    const auto [pp, cp, phase, sync_edges, streaming] = GetParam();
    EventQueue eq;
    ClockDomain prod(eq, "p", pp);
    ClockDomain cons(eq, "c", cp, phase);
    Channel<std::uint64_t> ch("ch", ChannelMode::asyncFifo, prod, cons,
                              8, sync_edges, streaming);

    std::uint64_t next_push = 0;
    std::uint64_t expect_pop = 0;
    std::deque<Tick> push_times;
    bool ok = true;

    prod.addTicker([&] {
        if (next_push < 300 && ch.canPush()) {
            push_times.push_back(eq.now());
            ch.push(next_push++);
        }
    });
    cons.addTicker([&] {
        while (!ch.empty()) {
            // Ordering property.
            if (ch.front() != expect_pop)
                ok = false;
            // Latency lower bound: never visible before the first
            // consumer edge strictly after the push.
            if (eq.now() <= push_times.front())
                ok = false;
            push_times.pop_front();
            ++expect_pop;
            ch.pop();
        }
        if (ch.rawSize() > 8)
            ok = false;
    });

    prod.start();
    cons.start();
    eq.runUntil(pp * 2000);
    prod.stop();
    cons.stop();
    eq.runUntil(pp * 2000 + cp * 10);

    EXPECT_TRUE(ok);
    EXPECT_EQ(next_push, 300u);   // producer finished
    EXPECT_EQ(expect_pop, 300u);  // everything arrived, in order
    EXPECT_EQ(ch.pushes(), 300u);
    EXPECT_EQ(ch.pops(), 300u);
}

INSTANTIATE_TEST_SUITE_P(
    PeriodRatios, ChannelProperty,
    ::testing::Values(
        std::make_tuple(1000, 1000, 0, 2u, true),
        std::make_tuple(1000, 1000, 437, 2u, true),
        std::make_tuple(1000, 1300, 211, 2u, true),
        std::make_tuple(1300, 1000, 59, 2u, true),
        std::make_tuple(1000, 2000, 999, 2u, true),
        std::make_tuple(2000, 1000, 1, 2u, true),
        std::make_tuple(1000, 1111, 300, 3u, true),
        std::make_tuple(1111, 1000, 300, 3u, true),
        std::make_tuple(1000, 1300, 211, 2u, false),
        std::make_tuple(1300, 1000, 59, 3u, false),
        std::make_tuple(997, 1009, 13, 1u, true),
        std::make_tuple(1009, 997, 13, 1u, false)));

/**
 * Entry-pool reuse: cycle far more items than the channel has pooled
 * nodes under mismatched clocks, interleaving mid-list squashes. FIFO
 * order of survivors must hold through arbitrary node recycling.
 */
TEST(AsyncChannel, IntrusivePoolReuseKeepsOrderUnderChurn)
{
    EventQueue eq;
    ClockDomain prod(eq, "p", 997);
    ClockDomain cons(eq, "c", 1303, 211);
    Channel<std::uint64_t> ch("ch", ChannelMode::asyncFifo, prod, cons,
                              4, 2);

    std::uint64_t next_push = 0;
    std::uint64_t last_pop = 0;
    std::uint64_t popped = 0, squashed = 0;
    bool ordered = true;

    prod.addTicker([&] {
        if (next_push < 5000 && ch.canPush())
            ch.push(++next_push);
    });
    cons.addTicker([&] {
        // Every ~16 consumer edges, squash the odd survivors from the
        // middle of the list instead of popping.
        if (cons.cycle() % 16 == 0 && ch.rawSize() > 1) {
            squashed += ch.squash(
                [](std::uint64_t v) { return v % 2 == 1; });
            return;
        }
        while (!ch.empty()) {
            if (ch.front() <= last_pop)
                ordered = false;
            last_pop = ch.front();
            ch.pop();
            ++popped;
        }
    });

    prod.start();
    cons.start();
    eq.runUntil(997 * 20000);

    EXPECT_TRUE(ordered);
    EXPECT_EQ(next_push, 5000u);
    // Cycled the 4-node pool three orders of magnitude over.
    EXPECT_EQ(popped + squashed + ch.rawSize(), 5000u);
    EXPECT_EQ(ch.pops(), popped);
    EXPECT_EQ(ch.squashedItems(), squashed);
    EXPECT_GT(squashed, 0u);
}

/** Move-only payloads: the pooled entries placement-construct items,
 *  so channels work without default- or copy-constructible types. */
TEST(AsyncChannel, MoveOnlyPayload)
{
    Harness h(1000, 1000);
    Channel<std::unique_ptr<int>> ch("ch", ChannelMode::asyncFifo,
                                     h.prod, h.cons, 2, 2);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(std::make_unique<int>(41));
    ch.push(std::make_unique<int>(42));
    h.eq.runUntil(5000);
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(*ch.front(), 41);
    std::unique_ptr<int> got = std::move(ch.front());
    ch.pop();
    EXPECT_EQ(*got, 41);
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(*ch.front(), 42);
    ch.clear(); // destroys the live item, returns its node
    EXPECT_EQ(ch.rawSize(), 0u);
}

/** The same properties for the synchronous latch configuration. */
TEST(SyncChannel, PropertySweepSameClock)
{
    EventQueue eq;
    ClockDomain prod(eq, "p", 1000);
    ClockDomain cons(eq, "c", 1000);
    Channel<std::uint64_t> ch("ch", ChannelMode::syncLatch, prod, cons,
                              4);
    std::uint64_t next_push = 0, expect_pop = 0;
    bool ok = true;
    cons.addTicker([&] {
        while (!ch.empty()) {
            if (ch.front() != expect_pop)
                ok = false;
            ++expect_pop;
            ch.pop();
        }
    });
    prod.addTicker([&] {
        for (int k = 0; k < 2 && next_push < 500; ++k)
            if (ch.canPush())
                ch.push(next_push++);
    });
    prod.start();
    cons.start();
    eq.runUntil(1000 * 600);
    EXPECT_TRUE(ok);
    EXPECT_EQ(next_push, 500u);
    EXPECT_EQ(expect_pop, 500u);
}

/** A stream that never drains: the producer outruns the consumer, and
 *  the consumer pops every one of its (faster) edges, so slot releases
 *  are always in flight when the next push prunes the observed ones.
 *  The observed prefix of the pending-free list must still be
 *  compacted, keeping its footprint bounded over a long run. */
TEST(AsyncChannel, PendingFreeListStaysBoundedWhenNeverDrained)
{
    EventQueue eq;
    ClockDomain prod(eq, "p", 1000);
    ClockDomain cons(eq, "c", 500, 211);
    Channel<std::uint64_t> ch("ch", ChannelMode::asyncFifo, prod, cons,
                              64, 2);
    std::uint64_t next_push = 0, popped = 0;
    std::size_t max_footprint = 0;
    bool drained = false;
    prod.addTicker([&] {
        for (int k = 0; k < 4 && ch.canPush(); ++k)
            ch.push(next_push++);
        max_footprint = std::max(max_footprint, ch.pendingFreeFootprint());
    });
    cons.addTicker([&] {
        if (ch.empty()) {
            drained = drained || popped > 0;
            return;
        }
        ch.pop();
        ++popped;
        max_footprint = std::max(max_footprint, ch.pendingFreeFootprint());
    });
    prod.start();
    cons.start();
    eq.runUntil(1000 * 100000);
    EXPECT_FALSE(drained);
    EXPECT_GT(popped, 50000u);
    EXPECT_LE(max_footprint, 32u);
}

/** A roomy channel that never fills, like the wakeup and completion
 *  FIFOs: the pending-free list must hold only the releases still in
 *  flight, not grow toward the channel's capacity. */
TEST(AsyncChannel, PendingFreeListBoundedByReleasesInFlight)
{
    EventQueue eq;
    ClockDomain prod(eq, "p", 1000);
    ClockDomain cons(eq, "c", 700, 211);
    Channel<std::uint64_t> ch("ch", ChannelMode::asyncFifo, prod, cons,
                              1024, 2, false);
    std::uint64_t next_push = 0;
    std::size_t max_footprint = 0;
    prod.addTicker([&] {
        ch.push(next_push++);
        max_footprint = std::max(max_footprint, ch.pendingFreeFootprint());
    });
    cons.addTicker([&] {
        while (!ch.empty())
            ch.pop();
    });
    prod.start();
    cons.start();
    eq.runUntil(1000 * 20000);
    EXPECT_GT(ch.pops(), 19000u);
    EXPECT_LE(max_footprint, 32u);
}

/** A producer that speeds up (DVFS) can observe a later pop's slot
 *  release before an earlier one; full() must count exactly the
 *  releases it has not observed yet. */
TEST(AsyncChannel, FullFlagWhenProducerPeriodShrinks)
{
    Harness h(1000, 1000, 500);
    Channel<int> ch("ch", ChannelMode::asyncFifo, h.prod, h.cons, 2, 2);
    h.prod.start();
    h.cons.start();
    h.eq.runUntil(0);
    ch.push(1);
    ch.push(2);
    h.eq.runUntil(1500); // both visible at the second consumer edge
    ASSERT_FALSE(ch.empty());
    ch.pop(); // released at producer edge 2000 + one period: 3000
    h.prod.setPeriod(250);
    ch.pop(); // edge 2000 is committed; + one new period: 2250
    h.eq.runUntil(2249);
    EXPECT_TRUE(ch.full());
    h.eq.runUntil(2250);
    EXPECT_FALSE(ch.full());
    ch.push(3);
    EXPECT_TRUE(ch.full()); // one occupant + the release due at 3000
    h.eq.runUntil(2999);
    EXPECT_TRUE(ch.full());
    h.eq.runUntil(3000);
    EXPECT_FALSE(ch.full());
}

/**
 * Full-flag oracle. Seeded random push/pop/squash traffic between
 * mismatched clocks. Right after some pops the producer's period
 * shrinks or grows back (DVFS), so a later pop can release its slot
 * before an earlier one. The test keeps every
 * slot release time itself; at every step full() must equal the brute
 * force: occupants plus releases later than now reach capacity.
 */
class ChannelFlagOracle
    : public ::testing::TestWithParam<std::tuple<ChannelMode, std::uint64_t>>
{
};

TEST_P(ChannelFlagOracle, FullMatchesBruteForceReleaseCount)
{
    const auto [mode, seed] = GetParam();
    constexpr std::size_t cap = 6;
    constexpr unsigned sync_edges = 2;
    EventQueue eq;
    ClockDomain prod(eq, "p", 1000);
    ClockDomain cons(eq, "c", 1300, 211);
    Channel<std::uint64_t> ch("ch", mode, prod, cons, cap, sync_edges);
    Rng rng(seed);

    std::vector<Tick> releases;
    std::uint64_t next = 0, checks = 0, mismatches = 0, out_of_order = 0;
    const auto release = [&] {
        // A latch frees the slot at once; a FIFO's release crosses the
        // full-flag synchronizer into the producer's clock.
        const Tick now = eq.now();
        const Tick t = mode == ChannelMode::syncLatch
                           ? now
                           : prod.nextEdgeAfter(now) +
                                 (sync_edges - 1) * prod.period();
        if (!releases.empty() && t < releases.back())
            ++out_of_order;
        releases.push_back(t);
    };
    const auto check = [&] {
        const Tick now = eq.now();
        const auto later = std::count_if(releases.begin(), releases.end(),
                                         [now](Tick t) { return t > now; });
        const bool expect =
            ch.rawSize() + static_cast<std::size_t>(later) >= cap;
        ++checks;
        if (ch.full() != expect)
            ++mismatches;
    };

    prod.addTicker([&] {
        for (auto k = rng.range(0, 3); k > 0; --k) {
            check();
            if (!ch.full())
                ch.push(next++);
        }
    });
    cons.addTicker([&] {
        check();
        if (rng.chance(0.1)) {
            const std::uint64_t parity = rng.range(0, 1);
            for (auto n = ch.squash([parity](std::uint64_t v) {
                     return v % 2 == parity;
                 });
                 n > 0; --n)
                release();
        } else {
            for (auto k = rng.range(0, 2); k > 0 && !ch.empty(); --k) {
                ch.pop();
                release();
                if (rng.chance(0.05))
                    prod.setPeriod(prod.period() == 1000 ? 350 : 1000);
            }
        }
        check();
    });

    prod.start();
    cons.start();
    eq.runUntil(800000);
    prod.stop();
    cons.stop();

    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(checks, 2000u);
    EXPECT_GT(ch.pushes(), 500u);
    EXPECT_GT(ch.squashedItems(), 0u);
    if (mode == ChannelMode::asyncFifo) {
        EXPECT_GT(out_of_order, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeededTraffic, ChannelFlagOracle,
    ::testing::Combine(::testing::Values(ChannelMode::syncLatch,
                                         ChannelMode::asyncFifo),
                       ::testing::Values(1u, 7u, 104729u)));
