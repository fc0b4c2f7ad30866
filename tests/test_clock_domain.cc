/**
 * @file
 * Tests for ClockDomain: edge timing, phases, cycle counting,
 * runtime retiming (the DVFS mechanism) and next-edge queries (the
 * primitive the asynchronous FIFO visibility rules are built on).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/clock_domain.hh"

using namespace gals;

TEST(ClockDomain, TicksAtPeriod)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000);
    std::vector<Tick> edges;
    cd.addTicker([&] { edges.push_back(eq.now()); });
    cd.start();
    eq.runUntil(3500);
    EXPECT_EQ(edges, (std::vector<Tick>{0, 1000, 2000, 3000}));
}

TEST(ClockDomain, PhaseOffsetsFirstEdge)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000, 250);
    std::vector<Tick> edges;
    cd.addTicker([&] { edges.push_back(eq.now()); });
    cd.start();
    eq.runUntil(2500);
    EXPECT_EQ(edges, (std::vector<Tick>{250, 1250, 2250}));
}

TEST(ClockDomain, CycleCounts)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 500);
    cd.start();
    eq.runUntil(2400);
    EXPECT_EQ(cd.cycle(), 5u); // edges at 0,500,1000,1500,2000
}

TEST(ClockDomain, TickerPriorityOrder)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000);
    std::vector<int> order;
    cd.addTicker([&] { order.push_back(2); }, 50);
    cd.addTicker([&] { order.push_back(1); }, 10);
    cd.addTicker([&] { order.push_back(3); }, 90);
    cd.start();
    eq.runUntil(0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ClockDomain, EqualPriorityRegistrationOrder)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000);
    std::vector<int> order;
    cd.addTicker([&] { order.push_back(1); });
    cd.addTicker([&] { order.push_back(2); });
    cd.start();
    eq.runUntil(0);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ClockDomain, StopHaltsEdges)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    int ticks = 0;
    cd.addTicker([&] { ++ticks; });
    cd.start();
    eq.runUntil(250);
    cd.stop();
    eq.runUntil(1000);
    EXPECT_EQ(ticks, 3);
    EXPECT_TRUE(eq.empty());
}

TEST(ClockDomain, RetimeTakesEffectNextEdge)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    std::vector<Tick> edges;
    cd.addTicker([&] {
        edges.push_back(eq.now());
        if (edges.size() == 2)
            cd.setPeriod(300);
    });
    cd.start();
    eq.runUntil(1000);
    ASSERT_GE(edges.size(), 4u);
    EXPECT_EQ(edges[0], 0u);
    EXPECT_EQ(edges[1], 100u);
    EXPECT_EQ(edges[2], 400u);
    EXPECT_EQ(edges[3], 700u);
}

TEST(ClockDomain, FrequencyMHz)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000); // 1 ns
    EXPECT_DOUBLE_EQ(cd.frequencyMHz(), 1000.0);
    cd.setPeriod(2000);
    EXPECT_DOUBLE_EQ(cd.frequencyMHz(), 500.0);
}

TEST(ClockDomain, NextEdgeAtBeforeStart)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000, 300);
    EXPECT_EQ(cd.nextEdgeAt(0), 300u);
    EXPECT_EQ(cd.nextEdgeAt(300), 300u);
    EXPECT_EQ(cd.nextEdgeAt(301), 1300u);
}

TEST(ClockDomain, NextEdgeAtWhileRunning)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000);
    cd.start();
    eq.runUntil(2100); // edges at 0,1000,2000; next scheduled 3000
    EXPECT_EQ(cd.nextEdgeAt(2100), 3000u);
    EXPECT_EQ(cd.nextEdgeAt(3000), 3000u);
    EXPECT_EQ(cd.nextEdgeAt(3001), 4000u);
    EXPECT_EQ(cd.nextEdgeAt(7500), 8000u);
}

TEST(ClockDomain, NextEdgeAfterIsStrict)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000);
    cd.start();
    eq.runUntil(500);
    EXPECT_EQ(cd.nextEdgeAfter(1000), 2000u);
    EXPECT_EQ(cd.nextEdgeAfter(999), 1000u);
}

TEST(ClockDomain, NextEdgeAtExactWhileStopped)
{
    // A clock stopped from its own edge extrapolates its grid from
    // the last edge: the same answers it gave while running.
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000, 250);
    cd.addTicker([&] {
        if (cd.cycle() == 3)
            cd.stop();
    });
    cd.start();
    eq.runUntil(20000); // edges at 250, 1250, 2250; then stopped
    ASSERT_FALSE(cd.running());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(cd.lastEdge(), 2250u);
    EXPECT_EQ(cd.nextEdgeAt(2251), 3250u);
    EXPECT_EQ(cd.nextEdgeAt(20000), 20250u);
    EXPECT_EQ(cd.nextEdgeAt(20250), 20250u);
    EXPECT_EQ(cd.nextEdgeAfter(20250), 21250u);
}

TEST(ClockDomain, RestartAtLandsOnTheGrid)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000, 250);
    std::vector<Tick> edges;
    cd.addTicker([&] {
        edges.push_back(eq.now());
        if (edges.size() == 2)
            cd.stop();
    });
    cd.start();
    eq.runUntil(5600); // edges at 250, 1250; parked since
    ASSERT_FALSE(cd.running());

    // Off-grid and on-grid restart points: the first grid edge at or
    // after t; skipped edges are not run and not counted.
    cd.restartAt(5601);
    EXPECT_TRUE(cd.running());
    EXPECT_EQ(cd.nextEdgeAt(5601), 6250u);
    eq.runUntil(7300);
    EXPECT_EQ(edges, (std::vector<Tick>{250, 1250, 6250, 7250}));
    EXPECT_EQ(cd.cycle(), 4u);

    cd.stop();
    cd.restartAt(9250);
    eq.runUntil(9250);
    EXPECT_EQ(edges.back(), 9250u);
    EXPECT_EQ(cd.cycle(), 5u);
}

TEST(ClockDomain, HigherEdgePriorityRunsAfterSameTickEdges)
{
    // A clock with edge priority clockEdgePri + 1 runs after every
    // default-priority edge at the same tick, even when it was
    // (re)started first and carries the older insertion seq.
    EventQueue eq;
    ClockDomain late(eq, "late", 1000, 0, ClockDomain::clockEdgePri + 1);
    ClockDomain a(eq, "a", 1000);
    ClockDomain b(eq, "b", 500);
    std::string log;
    late.addTicker([&] { log += 'L'; });
    a.addTicker([&] { log += 'a'; });
    b.addTicker([&] { log += 'b'; });
    late.start();
    a.start();
    b.start();
    eq.runUntil(1000);
    EXPECT_EQ(log, "abLbabL");

    // Restarted from within a same-tick edge: still runs last.
    log.clear();
    late.stop();
    a.addTicker([&] {
        if (!late.running())
            late.restartAt(eq.now() + 1);
    });
    eq.runUntil(3000);
    EXPECT_EQ(log, "babbabL");
}

TEST(ClockDomain, SetPhaseBeforeStart)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000);
    cd.setPhase(420);
    std::vector<Tick> edges;
    cd.addTicker([&] { edges.push_back(eq.now()); });
    cd.start();
    eq.runUntil(1500);
    EXPECT_EQ(edges, (std::vector<Tick>{420, 1420}));
}

TEST(ClockDomain, VddStorage)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1000);
    EXPECT_DOUBLE_EQ(cd.vdd(), 1.5);
    cd.setVdd(1.1);
    EXPECT_DOUBLE_EQ(cd.vdd(), 1.1);
}

TEST(ClockDomain, TwoDomainsInterleave)
{
    EventQueue eq;
    ClockDomain a(eq, "a", 200);
    ClockDomain b(eq, "b", 300, 50);
    std::vector<std::pair<char, Tick>> log;
    a.addTicker([&] { log.emplace_back('a', eq.now()); });
    b.addTicker([&] { log.emplace_back('b', eq.now()); });
    a.start();
    b.start();
    eq.runUntil(650);
    const std::vector<std::pair<char, Tick>> expect = {
        {'a', 0},   {'b', 50},  {'a', 200}, {'b', 350},
        {'a', 400}, {'a', 600}, {'b', 650},
    };
    EXPECT_EQ(log, expect);
}

TEST(ClockDomain, LastEdgeTracksMostRecent)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 400);
    cd.start();
    eq.runUntil(900);
    EXPECT_EQ(cd.lastEdge(), 800u);
}

TEST(ClockDomain, RemoveTickerHeadMiddleTail)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    std::string log;
    auto *a = cd.addTicker([&] { log += 'a'; }, 10);
    auto *b = cd.addTicker([&] { log += 'b'; }, 20);
    auto *c = cd.addTicker([&] { log += 'c'; }, 30);
    auto *d = cd.addTicker([&] { log += 'd'; }, 40);
    cd.start();
    eq.runUntil(0);
    EXPECT_EQ(log, "abcd");

    log.clear();
    cd.removeTicker(b); // middle
    eq.runUntil(100);
    EXPECT_EQ(log, "acd");

    log.clear();
    cd.removeTicker(a); // head
    eq.runUntil(200);
    EXPECT_EQ(log, "cd");

    log.clear();
    cd.removeTicker(d); // tail
    eq.runUntil(300);
    EXPECT_EQ(log, "c");

    log.clear();
    cd.removeTicker(c); // sole remaining ticker
    eq.runUntil(400);
    EXPECT_EQ(log, "");

    // Registration after emptying the list works again.
    cd.addTicker([&] { log += 'e'; });
    eq.runUntil(500);
    EXPECT_EQ(log, "e");
}

TEST(ClockDomain, TickerPriorityAndRegistrationOrder)
{
    // Equal priorities keep registration order; lower priority runs
    // first regardless of registration order.
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    std::string log;
    cd.addTicker([&] { log += '1'; }, 50);
    cd.addTicker([&] { log += '2'; }, 50);
    cd.addTicker([&] { log += '0'; }, 10);
    cd.addTicker([&] { log += '3'; }, 50);
    cd.addTicker([&] { log += '9'; }, 90);
    cd.start();
    eq.runUntil(0);
    EXPECT_EQ(log, "01239");
}

namespace
{

/** Typed ticker for the devirtualized registration path. */
struct CountingTicker : ClockDomain::Ticker
{
    std::string &log;
    char tag;

    CountingTicker(std::string &l, char t) : log(l), tag(t) {}
    void tick() override { log += tag; }
};

} // namespace

TEST(ClockDomain, TypedTickerRegistration)
{
    // A Ticker subclass registers by reference and interleaves with
    // function tickers under the same priority rules.
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    std::string log;
    CountingTicker a(log, 'a');
    CountingTicker c(log, 'c');
    cd.addTicker(a, 10);
    cd.addTicker([&] { log += 'b'; }, 20);
    cd.addTicker(c, 30);
    cd.start();
    eq.runUntil(100);
    EXPECT_EQ(log, "abcabc");
}

TEST(ClockDomain, TypedTickerUnregistersOnDestruction)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    std::string log;
    CountingTicker a(log, 'a');
    cd.addTicker(a, 10);
    {
        CountingTicker b(log, 'b');
        cd.addTicker(b, 20);
        cd.start();
        eq.runUntil(0);
        EXPECT_EQ(log, "ab");
    }
    // b went out of scope while registered: it must have unlinked
    // itself, leaving the walk intact.
    log.clear();
    eq.runUntil(100);
    EXPECT_EQ(log, "a");
}

TEST(ClockDomain, RemoveSelfFromOwnCallback)
{
    // Regression: removeTicker() from within the running ticker's own
    // callback used to be documented UB; it is now a deferred unlink.
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    std::string log;
    ClockDomain::Ticker *b = nullptr;
    cd.addTicker([&] { log += 'a'; }, 10);
    b = cd.addTicker(
        [&] {
            log += 'b';
            cd.removeTicker(b); // self-removal mid-tick
        },
        20);
    cd.addTicker([&] { log += 'c'; }, 30);
    cd.start();

    // Edge 0: b still runs (and asks to go), and the walk continues
    // to c afterwards.
    eq.runUntil(0);
    EXPECT_EQ(log, "abc");

    // Edge 1: b is gone.
    log.clear();
    eq.runUntil(100);
    EXPECT_EQ(log, "ac");
}

TEST(ClockDomain, RemoveSoleTickerFromOwnCallback)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    int ticks = 0;
    ClockDomain::Ticker *t = nullptr;
    t = cd.addTicker([&] {
        ++ticks;
        cd.removeTicker(t);
    });
    cd.start();
    eq.runUntil(300);
    EXPECT_EQ(ticks, 1);

    // The list is empty and usable again.
    cd.addTicker([&] { ticks += 10; });
    eq.runUntil(400);
    EXPECT_EQ(ticks, 11);
}

TEST(ClockDomain, RemoveNextTickerMidEdge)
{
    // Removing a *different*, not-yet-run ticker from a callback takes
    // effect immediately: the walk must not visit the freed node.
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    std::string log;
    ClockDomain::Ticker *c = nullptr;
    cd.addTicker(
        [&] {
            log += 'a';
            if (c != nullptr) {
                // Victim is later in this same edge's walk.
                cd.removeTicker(c);
                c = nullptr;
            }
        },
        10);
    c = cd.addTicker([&] { log += 'c'; }, 20);
    cd.addTicker([&] { log += 'd'; }, 30);
    cd.start();
    eq.runUntil(0);
    EXPECT_EQ(log, "ad");

    log.clear();
    eq.runUntil(100);
    EXPECT_EQ(log, "ad"); // removal is permanent
}

TEST(ClockDomain, MidTickAddRunsSameEdgeWhenLater)
{
    // A ticker added during an edge at a priority after the current
    // one is visited on that same edge (successor is read after the
    // callback), matching the historical semantics.
    EventQueue eq;
    ClockDomain cd(eq, "c", 100);
    std::string log;
    bool added = false;
    cd.addTicker(
        [&] {
            log += 'a';
            if (!added) {
                added = true;
                cd.addTicker([&] { log += 'n'; }, 50);
            }
        },
        10);
    cd.addTicker([&] { log += 'z'; }, 90);
    cd.start();
    eq.runUntil(0);
    EXPECT_EQ(log, "anz");

    log.clear();
    eq.runUntil(100);
    EXPECT_EQ(log, "anz");
}
