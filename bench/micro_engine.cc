/**
 * @file
 * Engine microbenchmarks (google-benchmark): event queue scheduling,
 * schedule/cancel and hold-model churn, clock-domain ticking,
 * mixed-clock channel traffic, squash churn, and end-to-end
 * simulation rate of one GALS core and of 8- and 64-core fabrics.
 * docs/PERFORMANCE.md records their numbers from:
 *
 *   galsmicro --benchmark_repetitions=5
 *             --benchmark_report_aggregates_only=true
 *             --benchmark_format=json --benchmark_out=BENCH_micro.json
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "core/channel.hh"
#include "core/domain.hh"
#include "core/experiment.hh"
#include "core/snapshot.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace gals;

namespace
{

/** Hold-model event: every firing reschedules itself a pseudo-random
 *  increment into the future, keeping the queue population constant. */
class HoldEvent : public Event
{
  public:
    HoldEvent(EventQueue &eq, Rng &rng) : Event("hold"), eq_(eq),
                                          rng_(rng)
    {
    }

    void
    process() override
    {
        eq_.schedule(this, eq_.now() + 1 + (rng_.next64() & 2047));
    }

  private:
    EventQueue &eq_;
    Rng &rng_;
};

/**
 * Batch schedule + drain: the seed benchmark shape, kept for
 * trajectory continuity.
 */
void
BM_EventQueueScheduleService(benchmark::State &state)
{
    EventQueue eq("bench");
    std::vector<std::unique_ptr<CallbackEvent>> events;
    for (int i = 0; i < 64; ++i)
        events.push_back(std::make_unique<CallbackEvent>([] {}));
    std::uint64_t t = 1;
    for (auto _ : state) {
        for (auto &ev : events)
            eq.schedule(ev.get(), t += 3);
        while (eq.serviceOne()) {
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleService);

/**
 * Hold-model churn at a steady queue population: the classic
 * discrete-event-simulator access pattern (pop the minimum, schedule
 * one replacement) and the headline docs/PERFORMANCE.md number.
 */
void
BM_EventQueueHoldChurn(benchmark::State &state)
{
    const std::size_t population =
        static_cast<std::size_t>(state.range(0));
    EventQueue eq("bench");
    Rng rng(0x9e3779b9u);
    std::vector<std::unique_ptr<HoldEvent>> events;
    for (std::size_t i = 0; i < population; ++i) {
        events.push_back(std::make_unique<HoldEvent>(eq, rng));
        eq.schedule(events.back().get(),
                    1 + (rng.next64() & 2047));
    }
    for (auto _ : state) {
        for (int k = 0; k < 1024; ++k)
            eq.serviceOne();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueHoldChurn)
    ->Arg(16)->Arg(256)->Arg(4096);

/**
 * Pure schedule/cancel churn: events are rescheduled to scattered
 * future times without ever firing (the deschedule-heavy pattern of
 * speculative wakeups and DVFS timer moves).
 */
void
BM_EventQueueScheduleCancel(benchmark::State &state)
{
    const std::size_t population =
        static_cast<std::size_t>(state.range(0));
    EventQueue eq("bench");
    Rng rng(0x2545f491u);
    std::vector<std::unique_ptr<CallbackEvent>> events;
    for (std::size_t i = 0; i < population; ++i) {
        events.push_back(std::make_unique<CallbackEvent>([] {}));
        eq.schedule(events.back().get(), 1 + (rng.next64() & 4095));
    }
    for (auto _ : state) {
        for (std::size_t i = 0; i < population; ++i)
            eq.reschedule(events[i].get(),
                          1 + (rng.next64() & 4095));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(population));
}
BENCHMARK(BM_EventQueueScheduleCancel)
    ->Arg(16)->Arg(256)->Arg(4096);

void
BM_ClockDomainTick(benchmark::State &state)
{
    EventQueue eq("bench");
    ClockDomain cd(eq, "clk", 1000);
    std::uint64_t count = 0;
    cd.addTicker([&count] { ++count; });
    cd.start();
    Tick until = 0;
    for (auto _ : state) {
        until += 1000 * 1000; // 1000 cycles
        eq.runUntil(until);
    }
    benchmark::DoNotOptimize(count);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ClockDomainTick);

/** Counter ticker for the devirtualized dispatch path. */
class CountTicker final : public ClockDomain::Ticker
{
  public:
    void tick() override { ++count; }
    std::uint64_t count = 0;
};

/**
 * Typed ticker dispatch: eight Ticker subclass nodes per edge — one
 * virtual call each, no std::function hop. Compare against
 * BM_TickerDispatchFunction for the devirtualization delta.
 */
void
BM_TickerDispatchTyped(benchmark::State &state)
{
    EventQueue eq("bench");
    ClockDomain cd(eq, "clk", 1000);
    CountTicker tickers[8];
    for (auto &t : tickers)
        cd.addTicker(t);
    cd.start();
    Tick until = 0;
    for (auto _ : state) {
        until += 1000 * 1000; // 1000 cycles x 8 tickers
        eq.runUntil(until);
    }
    benchmark::DoNotOptimize(tickers[0].count);
    state.SetItemsProcessed(state.iterations() * 1000 * 8);
}
BENCHMARK(BM_TickerDispatchTyped);

/**
 * The same edge walk through the std::function adapter
 * (FunctionTicker), i.e. the pre-devirtualization dispatch cost.
 */
void
BM_TickerDispatchFunction(benchmark::State &state)
{
    EventQueue eq("bench");
    ClockDomain cd(eq, "clk", 1000);
    std::uint64_t count = 0;
    for (int i = 0; i < 8; ++i)
        cd.addTicker([&count] { ++count; });
    cd.start();
    Tick until = 0;
    for (auto _ : state) {
        until += 1000 * 1000;
        eq.runUntil(until);
    }
    benchmark::DoNotOptimize(count);
    state.SetItemsProcessed(state.iterations() * 1000 * 8);
}
BENCHMARK(BM_TickerDispatchFunction);

/**
 * Same-tick edge batching: five domains with identical period and
 * phase, so every edge is a five-way (tick, priority) tie serviced as
 * one calendar batch — the GALS worst case for pop pressure and the
 * shape the batching fast path targets.
 */
void
BM_EdgeBatchChurn(benchmark::State &state)
{
    EventQueue eq("bench");
    std::vector<std::unique_ptr<ClockDomain>> domains;
    CountTicker tickers[5];
    for (int i = 0; i < 5; ++i) {
        domains.push_back(std::make_unique<ClockDomain>(
            eq, "clk" + std::to_string(i), 1000));
        domains[i]->addTicker(tickers[i]);
        domains[i]->start();
    }
    Tick until = 0;
    for (auto _ : state) {
        until += 1000 * 1000; // 1000 edges x 5 tied domains
        eq.runUntil(until);
    }
    benchmark::DoNotOptimize(tickers[0].count);
    state.SetItemsProcessed(state.iterations() * 1000 * 5);
}
BENCHMARK(BM_EdgeBatchChurn);

/** Steady-state mixed-clock FIFO traffic between two domains. */
void
BM_AsyncFifoTraffic(benchmark::State &state)
{
    EventQueue eq("bench");
    ClockDomain prod(eq, "prod", 1000, 0);
    ClockDomain cons(eq, "cons", 1300, 400);
    Channel<int> ch("ch", ChannelMode::asyncFifo, prod, cons, 16, 2);
    std::uint64_t moved = 0;
    prod.addTicker([&] {
        if (ch.canPush())
            ch.push(42);
    });
    cons.addTicker([&] {
        while (!ch.empty()) {
            ch.pop();
            ++moved;
        }
    });
    prod.start();
    cons.start();
    Tick until = 0;
    for (auto _ : state) {
        until += 1000 * 1000;
        eq.runUntil(until);
    }
    benchmark::DoNotOptimize(moved);
    state.SetItemsProcessed(static_cast<std::int64_t>(moved));
}
BENCHMARK(BM_AsyncFifoTraffic);

/**
 * Channel squash churn: fill, squash every other item (the pipeline-
 * flush pattern), drain the survivors. Exercises the ring's in-place
 * compaction pass and slot reuse across its wrap point.
 */
void
BM_ChannelSquashChurn(benchmark::State &state)
{
    EventQueue eq("bench");
    ClockDomain prod(eq, "prod", 1000, 0);
    ClockDomain cons(eq, "cons", 1000, 500);
    Channel<int> ch("ch", ChannelMode::asyncFifo, prod, cons, 32, 2);
    prod.start();
    cons.start();
    std::uint64_t squashed = 0;
    Tick until = 0;
    for (auto _ : state) {
        until += 4000;
        eq.runUntil(until);
        while (ch.canPush() && ch.rawSize() < 16)
            ch.push(static_cast<int>(ch.rawSize()));
        squashed += ch.squash([](int v) { return v % 2 == 1; });
        until += 40000;
        eq.runUntil(until);
        while (!ch.empty())
            ch.pop();
    }
    benchmark::DoNotOptimize(squashed);
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ChannelSquashChurn);

/**
 * Whole GALS runs on gcc through runOne, construction included: one
 * core at 20000 instructions (arg 1), or a 2D-mesh fabric with uniform
 * traffic at 2500 instructions per core (args 8 and 64). Reports
 * committed instructions per host second and host ns per core-cycle
 * (one nominal cycle of one core). A fabric whose per-core costs are
 * constant reads the same ns per core-cycle at 8 and 64 cores.
 */
void
BM_SimulationRate(benchmark::State &state)
{
    RunConfig cfg;
    cfg.benchmark = "gcc";
    cfg.gals = true;
    const auto cores = static_cast<unsigned>(state.range(0));
    if (cores > 1) {
        cfg.fabric.cores = cores;
        cfg.fabric.topology = TopologyKind::mesh2d;
        cfg.fabric.traffic = "uniform";
        cfg.instructions = 2500;
    } else {
        cfg.instructions = 20000;
    }

    double ns = 0.0, committed = 0.0, coreCycles = 0.0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        const RunResults r = runOne(cfg);
        const auto t1 = std::chrono::steady_clock::now();
        ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
        committed += static_cast<double>(r.committed);
        coreCycles += static_cast<double>(r.ticks) /
                      static_cast<double>(cfg.proc.nominalPeriod) *
                      cores;
    }
    state.counters["inst_per_s"] = committed / (ns * 1e-9);
    state.counters["ns_per_core_cycle"] = ns / coreCycles;
}
BENCHMARK(BM_SimulationRate)
    ->ArgName("cores")
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Warm-state memoization payoff: a four-cell DVFS sweep whose cells
 * share one warmup stem at a 10:1 warmup:measure split. The cold leg
 * clears the snapshot cache before every cell, so each one pays the
 * full warmup simulation; the memoized leg produces the stem's
 * snapshot once and restores it into the other three cells. Records
 * are byte-identical either way (tests/test_snapshot.cc) — this
 * benchmark measures only the wall-clock delta the memoization buys.
 */
void
BM_WarmupReuse(benchmark::State &state)
{
    const bool memoized = state.range(0) != 0;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        clearSnapshotCache();
        for (int cell = 0; cell < 4; ++cell) {
            if (!memoized)
                clearSnapshotCache();
            RunConfig rc;
            rc.benchmark = "gcc";
            rc.gals = true;
            rc.instructions = 22000;
            rc.warmupInstructions = 20000;
            rc.dvfs.slowdown[domainIndex(DomainId::fpd)] =
                1.0 + 0.2 * cell;
            const RunResults r = runOne(rc);
            benchmark::DoNotOptimize(r.ipcNominal);
            insts += r.committed;
        }
    }
    clearSnapshotCache();
    state.SetLabel(memoized ? "memoized" : "cold");
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_WarmupReuse)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
