/**
 * @file
 * EventQueue pop order: the calendar queue against a reference oracle.
 *
 * The queue must pop events in (time, priority, insertion-seq) order
 * for any schedule/deschedule/reschedule/service history, including
 * same-tick (priority, seq) ties and runUntil boundary hits. The
 * churn test drives the queue and a std::set oracle with one
 * deterministic op stream and compares the full pop logs. The clock-
 * domain and channel tests pin FNV-1a digests of their pop logs,
 * captured while a std::set backend still ran beside the calendar
 * and agreed with it. The rest pins the calendar's own machinery
 * (dynamic resize, teardown).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/channel.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace gals;

namespace
{

/** One (event id, fire time) pop record. */
using PopLog = std::vector<std::pair<int, Tick>>;

/** FNV-1a over a pop log, each field as 8 little-endian bytes. */
std::uint64_t
digest(const PopLog &log)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int shift = 0; shift < 64; shift += 8) {
            h ^= (v >> shift) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto &[id, when] : log) {
        mix(static_cast<std::uint64_t>(id));
        mix(when);
    }
    return h;
}

/**
 * The reference pop order: a std::set of (when, priority, seq, id)
 * keys, one per pending event. A reschedule is a deschedule plus a
 * schedule with a fresh seq, as on the queue.
 */
class SetOracle
{
  public:
    void
    schedule(int id, int priority, Tick when)
    {
        const Key key{when, priority, nextSeq_++, id};
        pending_.insert(key);
        keyOf_[id] = key;
    }

    void
    deschedule(int id)
    {
        pending_.erase(keyOf_.at(id));
        keyOf_.erase(id);
    }

    void
    reschedule(int id, int priority, Tick when)
    {
        if (keyOf_.count(id))
            deschedule(id);
        schedule(id, priority, when);
    }

    /** Pop the minimum; false when empty. */
    bool
    serviceOne()
    {
        if (pending_.empty())
            return false;
        const Key key = *pending_.begin();
        deschedule(std::get<3>(key));
        now_ = std::get<0>(key);
        log.emplace_back(std::get<3>(key), now_);
        return true;
    }

    void
    runUntil(Tick until)
    {
        while (!pending_.empty() &&
               std::get<0>(*pending_.begin()) <= until)
            serviceOne();
        now_ = std::max(now_, until);
    }

    void
    runAll()
    {
        while (serviceOne()) {
        }
    }

    PopLog log;

  private:
    using Key = std::tuple<Tick, int, std::uint64_t, int>;
    std::set<Key> pending_;
    std::map<int, Key> keyOf_;
    std::uint64_t nextSeq_ = 0;
    Tick now_ = 0;
};

/**
 * A queue plus N recording events, the oracle, and a deterministic
 * churn driver that applies every op to both. Any divergence from the
 * oracle's order shows up as a pop-log mismatch.
 */
struct ChurnHarness
{
    EventQueue eq{"churn"};
    SetOracle oracle;
    Rng rng;
    PopLog log;
    std::vector<std::unique_ptr<CallbackEvent>> events;

    ChurnHarness(int nEvents, std::uint64_t seed) : rng(seed)
    {
        for (int i = 0; i < nEvents; ++i) {
            // Three priority classes create same-tick priority ties;
            // same-priority same-tick schedules fall back to seq.
            events.push_back(std::make_unique<CallbackEvent>(
                [this, i] { log.emplace_back(i, eq.now()); },
                "ev" + std::to_string(i), (i % 3) * 40));
        }
    }

    void
    reschedule(int id, Tick when)
    {
        CallbackEvent &ev = *events[id];
        eq.reschedule(&ev, when);
        oracle.reschedule(id, ev.priority(), when);
    }

    /** Apply @p ops random operations, then drain. With @p sparse,
     *  every schedule lands up to 50 M ticks out, many wheel
     *  revolutions apart, so pops take the direct-search path and min
     *  cache repairs meet same-bucket successors of later years. */
    void
    churn(int ops, bool sparse = false)
    {
        const Tick farSteps = sparse ? 50000 : 500;
        for (int k = 0; k < ops; ++k) {
            const int id =
                static_cast<int>(rng.range(0, events.size() - 1));
            switch (rng.range(0, 9)) {
              case 0:
              case 1:
              case 2: // schedule/reschedule nearby (often same tick)
                if (!sparse) {
                    reschedule(id, eq.now() + rng.range(0, 3) * 10);
                    break;
                }
                [[fallthrough]];
              case 3:
              case 4: // schedule/reschedule far out (bucket laps)
                reschedule(id,
                           eq.now() + rng.range(1, farSteps) * 1000);
                break;
              case 5: // cancel
                if (events[id]->scheduled()) {
                    eq.deschedule(events[id].get());
                    oracle.deschedule(id);
                }
                break;
              case 6:
              case 7: // service one
                eq.serviceOne();
                oracle.serviceOne();
                break;
              default: { // run to a boundary events can land on exactly
                const Tick until = eq.now() + rng.range(0, 40) * 10;
                eq.runUntil(until);
                oracle.runUntil(until);
                break;
              }
            }
        }
        eq.runAll();
        oracle.runAll();
    }
};

} // namespace

TEST(EventOrder, RandomChurnPopOrderIdentical)
{
    // Dense churn always has near events pending; sparse churn leaves
    // every event many wheel revolutions from the next, below (12
    // events) and above (64) the first grow threshold.
    const struct
    {
        int nEvents;
        bool sparse;
    } shapes[] = {{32, false}, {12, true}, {64, true}};
    for (const auto &shape : shapes)
        for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
            ChurnHarness h(shape.nEvents, seed);
            h.churn(4000, shape.sparse);
            ASSERT_FALSE(h.log.empty());
            EXPECT_EQ(h.log, h.oracle.log)
                << shape.nEvents << " events, sparse " << shape.sparse
                << ", seed " << seed;
        }
}

TEST(EventOrder, SameTickTieBreaksIdentical)
{
    // Everything lands on one tick: order must be (priority, seq).
    EventQueue eq("ties");
    PopLog log;
    std::vector<std::unique_ptr<CallbackEvent>> evs;
    for (int i = 0; i < 16; ++i)
        evs.push_back(std::make_unique<CallbackEvent>(
            [&log, &eq, i] { log.emplace_back(i, eq.now()); },
            "t" + std::to_string(i), (15 - i) % 4));
    for (auto &ev : evs)
        eq.schedule(ev.get(), 777);
    eq.runAll();

    PopLog expect;
    for (int pri = 0; pri < 4; ++pri)
        for (int i = 0; i < 16; ++i)
            if ((15 - i) % 4 == pri)
                expect.emplace_back(i, 777);
    EXPECT_EQ(log, expect);
}

TEST(EventOrder, PeriodicClockTrafficIdentical)
{
    // GALS-shaped traffic: five mismatched periodic clocks plus churny
    // one-shots over many edges.
    auto run = [] {
        EventQueue eq("clocks");
        PopLog log;
        std::vector<std::unique_ptr<PeriodicEvent>> clocks;
        const Tick periods[] = {1000, 1300, 2500, 997, 1111};
        for (int i = 0; i < 5; ++i)
            clocks.push_back(std::make_unique<PeriodicEvent>(
                [&log, &eq, i] { log.emplace_back(i, eq.now()); },
                periods[i], "clk" + std::to_string(i)));
        for (int i = 0; i < 5; ++i)
            eq.schedule(clocks[i].get(), 100 * i);
        CallbackEvent oneShot([&log, &eq] { log.emplace_back(99,
                                                             eq.now()); },
                              "shot", Event::statsPri);
        for (Tick t = 0; t < 400000; t += 50000) {
            eq.runUntil(t + 49999);
            eq.reschedule(&oneShot, eq.now() + 500);
        }
        eq.runUntil(500000);
        for (auto &c : clocks)
            c->cancelRepeat();
        eq.runAll();
        return log;
    };
    const PopLog log = run();
    ASSERT_EQ(log.size(), 2051u);
    EXPECT_EQ(digest(log), 0xf203bb8fd912a66dULL);
}

TEST(EventOrder, SameTickBatchDrainIdentical)
{
    // Edge batching: five equal-period, equal-phase periodic events at
    // the clock-edge priority all tie at every edge, so the calendar
    // services each edge's run in one pop. Order within a batch must
    // remain (priority, seq), and events scheduled *during* a batch
    // at the same (when, priority) must be drained by that same
    // batch, in insertion order.
    auto run = [] {
        EventQueue eq("batch");
        PopLog log;
        std::vector<std::unique_ptr<PeriodicEvent>> clocks;
        std::vector<std::unique_ptr<CallbackEvent>> echoes;
        for (int i = 0; i < 5; ++i) {
            echoes.push_back(std::make_unique<CallbackEvent>(
                [&log, &eq, i] { log.emplace_back(100 + i, eq.now()); },
                "echo" + std::to_string(i), Event::clockEdgePri));
            CallbackEvent *echo = echoes.back().get();
            clocks.push_back(std::make_unique<PeriodicEvent>(
                [&log, &eq, i, echo] {
                    log.emplace_back(i, eq.now());
                    // Same (when, priority) as the batch being
                    // drained: must fire within this batch, after
                    // the pending tie (larger seq).
                    if (i == 2 && !echo->scheduled())
                        eq.schedule(echo, eq.now());
                },
                1000, "clk" + std::to_string(i), Event::clockEdgePri));
        }
        for (auto &c : clocks)
            eq.schedule(c.get(), 0);
        eq.runUntil(20000);
        for (auto &c : clocks)
            c->cancelRepeat();
        eq.runAll();
        return log;
    };

    const PopLog log = run();
    ASSERT_EQ(log.size(), 132u);
    EXPECT_EQ(digest(log), 0xe58a9325d1dd5355ULL);

    // Shape check on one edge: the five clocks in registration order,
    // then the echo scheduled mid-batch.
    PopLog first(log.begin(), log.begin() + 6);
    const PopLog expect = {{0, 0}, {1, 0}, {2, 0},
                           {3, 0}, {4, 0}, {102, 0}};
    EXPECT_EQ(first, expect);
}

TEST(EventOrder, MidTickTickerChurnIdentical)
{
    // Mid-tick add/remove of tickers on clock domains: the observable
    // tick log must keep its pinned order.
    auto run = [] {
        EventQueue eq("tickers");
        ClockDomain a(eq, "a", 700);
        ClockDomain b(eq, "b", 1100, 300);
        PopLog log;
        ClockDomain::Ticker *victim = nullptr;
        int edges = 0;
        a.addTicker([&] {
            log.emplace_back(1, eq.now());
            ++edges;
            if (edges == 3)
                victim = a.addTicker(
                    [&] { log.emplace_back(2, eq.now()); }, 60);
            if (edges == 6 && victim != nullptr) {
                a.removeTicker(victim);
                victim = nullptr;
            }
        });
        b.addTicker([&] { log.emplace_back(3, eq.now()); });
        a.start();
        b.start();
        eq.runUntil(15000);
        a.stop();
        b.stop();
        return log;
    };

    const PopLog log = run();
    ASSERT_EQ(log.size(), 39u);
    EXPECT_EQ(digest(log), 0x912d9bd2972f75f6ULL);
}

TEST(EventOrder, CrossDomainChannelFanInFanOutIdentical)
{
    // The fabric-shaped workload: three producer domains fan into a
    // hub domain through async FIFOs (the inter-core link pattern of
    // fabric/system.cc), the hub routes each item onward to one of
    // two sink domains, and every so often a mid-flight squash rips
    // items out of an in-flight link — exactly what a pipeline flush
    // does to an inter-core channel. Six domains with pairwise
    // mismatched periods and phases; the full pop log (value, tick)
    // plus the squash accounting must match the pin of every seed.
    auto run = [](std::uint64_t seed) {
        EventQueue eq("fabric");
        ClockDomain p0(eq, "p0", 1000), p1(eq, "p1", 1300, 250),
            p2(eq, "p2", 1700, 600);
        ClockDomain hub(eq, "hub", 900, 100);
        ClockDomain s0(eq, "s0", 1100, 40), s1(eq, "s1", 701, 7);
        ClockDomain *prods[] = {&p0, &p1, &p2};

        std::vector<std::unique_ptr<Channel<int>>> in, out;
        for (int i = 0; i < 3; ++i)
            in.push_back(std::make_unique<Channel<int>>(
                "in" + std::to_string(i), ChannelMode::asyncFifo,
                *prods[i], hub, 8, 2, false));
        ClockDomain *sinks[] = {&s0, &s1};
        for (int j = 0; j < 2; ++j)
            out.push_back(std::make_unique<Channel<int>>(
                "out" + std::to_string(j), ChannelMode::asyncFifo,
                hub, *sinks[j], 8, 2, false));

        PopLog log;
        std::uint64_t squashed = 0;

        std::vector<Rng> prodRng;
        std::vector<int> sent(3, 0);
        for (int i = 0; i < 3; ++i)
            prodRng.emplace_back(seed * 31 + i);
        for (int i = 0; i < 3; ++i)
            prods[i]->addTicker([&, i] {
                if (prodRng[i].chance(0.7) && in[i]->canPush())
                    in[i]->push(i * 1000000 + sent[i]++);
            });

        int hubEdges = 0;
        hub.addTicker([&] {
            // Fixed ascending-source drain order with per-port
            // backpressure — the NIC discipline.
            for (int i = 0; i < 3; ++i)
                while (!in[i]->empty()) {
                    const int v = in[i]->front();
                    Channel<int> &hop = *out[v % 2];
                    if (hop.full())
                        break;
                    hop.push(v);
                    in[i]->pop();
                }
            // Mid-flight squash on a rotating link every 7 hub
            // edges: items still inside the FIFO (including ones not
            // yet visible through the synchronizer) vanish, survivors
            // keep their order.
            if (++hubEdges % 7 == 0)
                squashed += in[hubEdges / 7 % 3]->squash(
                    [](int v) { return v % 3 == 0; });
        });

        for (int j = 0; j < 2; ++j)
            sinks[j]->addTicker([&, j] {
                while (!out[j]->empty()) {
                    log.emplace_back(out[j]->front(), eq.now());
                    out[j]->pop();
                }
            });

        for (ClockDomain *d : {&p0, &p1, &p2, &hub, &s0, &s1})
            d->start();
        eq.runUntil(300000);
        for (ClockDomain *d : {&p0, &p1, &p2, &hub, &s0, &s1})
            d->stop();
        eq.runAll();
        log.emplace_back(static_cast<int>(squashed), 0);
        return log;
    };

    const struct
    {
        std::uint64_t seed;
        std::size_t pops;
        std::uint64_t digest;
    } pins[] = {
        {1, 484, 0x6f2cbd4c4b7c2646ULL},
        {9, 479, 0xadca2ffaef033f7dULL},
        {0xfab41c, 480, 0x5db9536951da3c6aULL},
    };
    for (const auto &pin : pins) {
        const PopLog log = run(pin.seed);
        ASSERT_EQ(log.size(), pin.pops) << "seed " << pin.seed;
        EXPECT_GT(log.back().first, 0) << "no squashes, seed "
                                       << pin.seed;
        EXPECT_EQ(digest(log), pin.digest) << "seed " << pin.seed;
    }
}

TEST(CalendarQueue, ResizeGrowsAndShrinksWithPopulation)
{
    EventQueue eq("resize");
    EXPECT_EQ(eq.calendarBuckets(), EventQueue::calInitialBuckets);

    std::vector<std::unique_ptr<CallbackEvent>> evs;
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        evs.push_back(std::make_unique<CallbackEvent>([] {}));
        // Widely varying gaps: clustered ticks and distant outliers.
        const Tick when = (i % 7 == 0) ? rng.range(1, 100)
                                       : rng.range(1, 50'000'000);
        eq.schedule(evs.back().get(), when);
    }
    EXPECT_GT(eq.calendarBuckets(), EventQueue::calInitialBuckets);
    EXPECT_GE(eq.calendarBucketWidth(), 1u);

    // Cancel everything; the wheel must shrink back to its floor.
    for (auto &ev : evs)
        eq.deschedule(ev.get());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.calendarBuckets(), EventQueue::calInitialBuckets);
}

TEST(CalendarQueue, ResizedQueueStillPopsSorted)
{
    EventQueue eq("sorted");
    std::vector<std::unique_ptr<CallbackEvent>> evs;
    std::vector<Tick> popped;
    Rng rng(11);
    for (int i = 0; i < 3000; ++i) {
        evs.push_back(std::make_unique<CallbackEvent>(
            [&popped, &eq] { popped.push_back(eq.now()); }));
        eq.schedule(evs.back().get(), rng.range(0, 10'000'000));
    }
    eq.runAll();
    ASSERT_EQ(popped.size(), 3000u);
    EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
}

TEST(CalendarQueue, EventDestructorDeschedulesAcrossResize)
{
    // Destroying still-scheduled events must stay safe while the
    // wheel is far from its initial geometry.
    EventQueue eq("dtor");
    {
        std::vector<std::unique_ptr<CallbackEvent>> evs;
        Rng rng(3);
        for (int i = 0; i < 200; ++i) {
            evs.push_back(std::make_unique<CallbackEvent>([] {}));
            eq.schedule(evs.back().get(), rng.range(1, 1'000'000));
        }
        // evs destructs here, one deschedule (and shrink) at a time.
    }
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTime(), maxTick);
}
