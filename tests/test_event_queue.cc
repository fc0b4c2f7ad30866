/**
 * @file
 * Unit tests for the event-driven simulation engine (paper section
 * 4.2): ordering, priorities, the repeat rule and the Figure 4
 * three-clock example. One-shot edges are never-started clock
 * domains scheduled by hand: each fires once per schedule() and is
 * not re-queued.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"

using namespace gals;

namespace
{

/** A never-started domain whose one ticker runs @p fn. */
std::unique_ptr<ClockDomain>
shot(EventQueue &eq, std::function<void()> fn, std::string name = "shot",
     int priority = ClockDomain::clockEdgePri)
{
    auto cd = std::make_unique<ClockDomain>(eq, std::move(name), 1, 0,
                                            priority);
    cd->addTicker(std::move(fn));
    return cd;
}

} // namespace

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, ServiceOneOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.serviceOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    auto a = shot(eq, [&] { order.push_back(1); }, "a");
    auto b = shot(eq, [&] { order.push_back(2); }, "b");
    auto c = shot(eq, [&] { order.push_back(3); }, "c");
    eq.schedule(c.get(), 30);
    eq.schedule(a.get(), 10);
    eq.schedule(b.get(), 20);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTimePriorityBreaksTie)
{
    EventQueue eq;
    std::vector<int> order;
    auto lo = shot(eq, [&] { order.push_back(1); }, "lo", 10);
    auto hi = shot(eq, [&] { order.push_back(2); }, "hi", 90);
    eq.schedule(hi.get(), 5);
    eq.schedule(lo.get(), 5);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, SameTimeSamePriorityInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    auto a = shot(eq, [&] { order.push_back(1); }, "a");
    auto b = shot(eq, [&] { order.push_back(2); }, "b");
    auto c = shot(eq, [&] { order.push_back(3); }, "c");
    eq.schedule(a.get(), 7);
    eq.schedule(b.get(), 7);
    eq.schedule(c.get(), 7);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue eq;
    Tick seen = 0;
    auto a = shot(eq, [&] { seen = eq.now(); }, "a");
    eq.schedule(a.get(), 42);
    eq.serviceOne();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    bool ran = false;
    auto a = shot(eq, [&] { ran = true; }, "a");
    eq.schedule(a.get(), 10);
    EXPECT_TRUE(a->scheduled());
    eq.deschedule(a.get());
    EXPECT_FALSE(a->scheduled());
    eq.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, UnstartedDomainFiresOnce)
{
    // The repeat rule: a domain that is not running fires the edge it
    // was scheduled for and leaves the queue.
    EventQueue eq;
    int count = 0;
    auto a = shot(eq, [&] { ++count; }, "a");
    eq.schedule(a.get(), 10);
    eq.runUntil(1000);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(a->cycle(), 1u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StopInOwnEdgeEndsRepeat)
{
    // A running domain that stops itself mid-edge fires that edge and
    // is not re-queued.
    EventQueue eq;
    ClockDomain cd(eq, "p", 10);
    int count = 0;
    cd.addTicker([&] {
        if (++count == 3)
            cd.stop();
    });
    cd.start();
    eq.runUntil(1000);
    EXPECT_EQ(count, 3);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int count = 0;
    auto a = shot(eq, [&] { ++count; }, "a");
    auto b = shot(eq, [&] { ++count; }, "b");
    auto c = shot(eq, [&] { ++count; }, "c");
    eq.schedule(a.get(), 10);
    eq.schedule(b.get(), 20);
    eq.schedule(c.get(), 30);
    const auto n = eq.runUntil(20);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, NextEventTime)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTime(), maxTick);
    auto a = shot(eq, [] {}, "a");
    eq.schedule(a.get(), 123);
    EXPECT_EQ(eq.nextEventTime(), 123u);
}

TEST(EventQueue, ProcessedCount)
{
    EventQueue eq;
    auto a = shot(eq, [] {}, "a");
    auto b = shot(eq, [] {}, "b");
    eq.schedule(a.get(), 1);
    eq.schedule(b.get(), 2);
    eq.runAll();
    EXPECT_EQ(eq.processedCount(), 2u);
}

TEST(EventQueue, DomainDestructorDeschedules)
{
    EventQueue eq;
    {
        ClockDomain a(eq, "a", 10);
        a.start();
        EXPECT_FALSE(eq.empty());
    }
    EXPECT_TRUE(eq.empty());
}

/**
 * The paper's Figure 4 example: three clocks with periods 2, 3 and
 * 2.5 ns and phases 0.5, 1.0 and 0.0 ns. Reproduced at picosecond
 * resolution; checks the interleaving over the first 8 ns.
 */
TEST(EventQueue, PaperFigure4ThreeClockExample)
{
    EventQueue eq;
    std::vector<std::pair<int, Tick>> fires;
    ClockDomain clk1(eq, "clk1", 2000, 500);
    ClockDomain clk2(eq, "clk2", 3000, 1000);
    ClockDomain clk3(eq, "clk3", 2500, 0);
    clk1.addTicker([&] { fires.emplace_back(1, eq.now()); });
    clk2.addTicker([&] { fires.emplace_back(2, eq.now()); });
    clk3.addTicker([&] { fires.emplace_back(3, eq.now()); });
    clk1.start();
    clk2.start();
    clk3.start();
    eq.runUntil(8000);

    // Expected edges within [0, 8] ns:
    // clk1: 0.5 2.5 4.5 6.5   clk2: 1 4 7   clk3: 0 2.5 5 7.5
    // At t = 2.5 ns both clk1 and clk3 fire; clk3 re-queued itself
    // first (it fired at t = 0, before clk1's t = 0.5 edge), so it
    // executes first — ties resolve by re-queue order.
    std::vector<std::pair<int, Tick>> expect = {
        {3, 0},    {1, 500},  {2, 1000}, {3, 2500}, {1, 2500},
        {2, 4000}, {1, 4500}, {3, 5000}, {1, 6500}, {2, 7000},
        {3, 7500},
    };
    ASSERT_EQ(fires.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(fires[i].second, expect[i].second) << "edge " << i;
        EXPECT_EQ(fires[i].first, expect[i].first) << "edge " << i;
    }
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    std::vector<std::unique_ptr<ClockDomain>> events;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        events.push_back(shot(eq, [&] {
            if (eq.now() < last)
                monotonic = false;
            last = eq.now();
        }));
        // Deterministic pseudo-scatter of times.
        eq.schedule(events.back().get(), (i * 7919) % 10007);
    }
    eq.runAll();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.processedCount(), 1000u);
}
