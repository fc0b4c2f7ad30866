/**
 * @file
 * Pipeline-model microbenchmarks (google-benchmark), linked into
 * galsmicro beside the engine micros: the per-edge energy close-out,
 * issue-queue insert + select driven by scoreboard wakeups, ROB churn
 * across its ring wrap, rename with commit-time frees, D-side cache
 * accesses, the workload generator, and one instruction's lifetime
 * from allocation to retirement. They isolate the layers the
 * benchmark's power, cpu, cache, workload and isa shares attribute
 * host time to, so a change to one of them shows up here on its own.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/hierarchy.hh"
#include "core/channel.hh"
#include "cpu/core_config.hh"
#include "cpu/issue_queue.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "cpu/scoreboard.hh"
#include "isa/dyn_inst_pool.hh"
#include "power/energy_account.hh"
#include "power/power_model.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace gals;

namespace
{

/** One domain edge's close-out, round robin over the five domains,
 *  with a few units accessed and the rest charged idle. */
void
BM_EnergyDomainCycle(benchmark::State &state)
{
    const CoreConfig core;
    const PowerModel model(core, defaultTech(), defaultClockHierarchy());
    EnergyAccount energy(model);
    unsigned d = 0;
    for (auto _ : state) {
        energy.chargeAccess(Unit::intIssueQueue, 2);
        energy.chargeAccess(Unit::regfileInt, 4);
        energy.chargeAccess(Unit::rob, 3);
        energy.chargeAccess(Unit::dcache);
        energy.domainCycle(static_cast<DomainId>(d), 1.2);
        d = d + 1 < numDomains ? d + 1 : 0;
    }
    benchmark::DoNotOptimize(energy.totalNj());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnergyDomainCycle);

/**
 * One issue cycle of the integer queue: dispatch up to four
 * instructions, select up to four ready ones, and observe their
 * results in the scoreboard (the wakeup). Instruction s reads the
 * results of s-3 and s-5, so the queue holds a mix of ready and
 * waiting entries. DynInsts are recycled from a pool much larger than
 * the queue.
 */
void
BM_IssueQueueSelect(benchmark::State &state)
{
    const CoreConfig core;
    constexpr unsigned regs = 128;
    Scoreboard view(regs);
    IssueQueue iq("micro.iq", core.intQueueSize, view);
    std::vector<DynInstPtr> pool(256);
    for (DynInstPtr &p : pool)
        p = std::make_shared<DynInst>();
    const auto dest = [](InstSeqNum s) {
        return static_cast<PhysRegId>(s % regs);
    };
    const auto epoch = [](InstSeqNum s) {
        return static_cast<std::uint32_t>(s / regs + 1);
    };
    const auto any_fu = [](const DynInst &) { return true; };

    // Instructions 0..4 retired before the run: their results exist.
    InstSeqNum next = 5;
    for (InstSeqNum s = 0; s < next; ++s)
        view.observe(dest(s), epoch(s));
    std::uint64_t issued = 0;
    for (auto _ : state) {
        for (unsigned n = 0; n < core.dispatchWidth && !iq.full(); ++n) {
            DynInst &d = *pool[next % pool.size()];
            d.seq = next;
            d.numSrcs = 2;
            d.physSrcs[0] = dest(next - 3);
            d.srcEpochs[0] = epoch(next - 3);
            d.physSrcs[1] = dest(next - 5);
            d.srcEpochs[1] = epoch(next - 5);
            d.physDest = dest(next);
            d.destEpoch = epoch(next);
            iq.insert(pool[next % pool.size()]);
            ++next;
        }
        for (const DynInstPtr &d :
             iq.selectIssue(core.intIssueWidth, any_fu)) {
            view.observe(d->physDest, d->destEpoch);
            ++issued;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(issued));
}
BENCHMARK(BM_IssueQueueSelect);

/**
 * One commit cycle of the ROB: insert up to four instructions at the
 * tail, mark four in-flight ones completed at pseudo-random positions
 * of the window (completions arrive out of order), and retire every
 * completed instruction at the head. The window slides around the
 * ring continuously.
 */
void
BM_RobChurn(benchmark::State &state)
{
    const CoreConfig core;
    Rob rob(core.robSize);
    std::vector<DynInstPtr> pool(2 * core.robSize);
    for (DynInstPtr &p : pool)
        p = std::make_shared<DynInst>();
    std::vector<InstSeqNum> inflight;
    inflight.reserve(core.robSize);
    std::uint64_t lcg = 1;

    InstSeqNum next = 1;
    std::uint64_t retired = 0;
    for (auto _ : state) {
        for (unsigned n = 0; n < 4 && !rob.full(); ++n) {
            const DynInstPtr &d = pool[next % pool.size()];
            d->seq = next++;
            d->completed = false;
            rob.insert(d);
            inflight.push_back(d->seq);
        }
        for (unsigned n = 0; n < 4 && !inflight.empty(); ++n) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            const std::size_t k = (lcg >> 33) % inflight.size();
            benchmark::DoNotOptimize(rob.markCompleted(inflight[k]));
            inflight[k] = inflight.back();
            inflight.pop_back();
        }
        while (!rob.empty() && rob.head()->completed) {
            rob.popHead();
            ++retired;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(retired));
}
BENCHMARK(BM_RobChurn);

/** The first @p n instructions of gcc's correct-path stream. */
std::vector<GenInst>
gccStream(std::size_t n)
{
    StreamGenerator gen(findBenchmark("gcc"), 1);
    std::vector<GenInst> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(gen.next());
    return out;
}

/**
 * Rename in program order with a ROB-sized window: the oldest
 * instruction commits, freeing its previous mapping, whenever the
 * window or a free list runs out. Instructions come from gcc's stream
 * and are recycled round a buffer much larger than the window.
 */
void
BM_RenameChurn(benchmark::State &state)
{
    const CoreConfig core;
    RenameUnit rename(core.numIntPhysRegs, core.numFpPhysRegs);
    std::vector<DynInst> insts(4096);
    const std::vector<GenInst> stream = gccStream(insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        DynInst &d = insts[i];
        d.cls = stream[i].cls;
        d.numSrcs = stream[i].numSrcs;
        for (unsigned k = 0; k < d.numSrcs; ++k)
            d.srcs[k] = stream[i].srcs[k];
        d.dest = stream[i].dest;
    }
    std::uint64_t head = 0, tail = 0;
    for (auto _ : state) {
        DynInst &d = insts[tail % insts.size()];
        while (tail - head >= core.robSize || !rename.canRename(d))
            rename.commitFree(insts[head++ % insts.size()]);
        rename.rename(d);
        benchmark::DoNotOptimize(d.physDest);
        ++tail;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(tail));
}
BENCHMARK(BM_RenameChurn);

/** D-side accesses (L1D, then L2 on a miss) at the addresses of
 *  gcc's loads and stores, replayed round robin. */
void
BM_CacheAccess(benchmark::State &state)
{
    CacheHierarchy hier{HierarchyConfig()};
    std::vector<std::pair<std::uint64_t, bool>> accesses;
    for (const GenInst &g : gccStream(200000))
        if (isMemClass(g.cls))
            accesses.emplace_back(g.memAddr, g.cls == InstClass::store);
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &[addr, write] = accesses[i];
        benchmark::DoNotOptimize(hier.dataAccess(addr, write));
        i = i + 1 < accesses.size() ? i + 1 : 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/** StreamGenerator::next on gcc: one correct-path instruction. */
void
BM_StreamNext(benchmark::State &state)
{
    StreamGenerator gen(findBenchmark("gcc"), 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next().pc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamNext);

/**
 * One instruction's lifetime as the pipeline lives it: made, pushed
 * through a latch channel, inserted into the ROB, and retired 64
 * instructions later. Each iteration is one clock edge moving four
 * instructions. Arg 0 allocates with std::make_shared, arg 1 from a
 * DynInstPool, so the difference is the allocation cost alone.
 */
void
BM_DynInstLifetime(benchmark::State &state)
{
    const bool pooled = state.range(0) != 0;
    constexpr unsigned width = 4;
    constexpr std::size_t window = 64;
    DynInstPool pool;
    EventQueue eq("micro.lifetime");
    ClockDomain clk(eq, "micro.clk", 1000);
    Channel<DynInstPtr> ch("micro.ch", ChannelMode::syncLatch, clk, clk,
                           2 * width);
    Rob rob(2 * window);
    InstSeqNum next = 1;
    std::uint64_t retired = 0;

    // Consumer first, as the pipeline ticks consumers before producers.
    clk.addTicker(
        [&] {
            while (!ch.empty()) {
                rob.insert(ch.front());
                ch.pop();
            }
            while (rob.size() > window) {
                rob.popHead();
                ++retired;
            }
        },
        10);
    clk.addTicker(
        [&] {
            for (unsigned n = 0; n < width && ch.canPush(); ++n) {
                DynInstPtr inst =
                    pooled ? pool.make() : std::make_shared<DynInst>();
                inst->seq = next++;
                ch.push(std::move(inst));
            }
        },
        20);
    clk.start();
    for (auto _ : state)
        eq.serviceOne();
    clk.stop();
    ch.clear();
    while (!rob.empty())
        rob.popHead();
    state.SetItemsProcessed(static_cast<std::int64_t>(retired));
}
BENCHMARK(BM_DynInstLifetime)->ArgName("pooled")->Arg(0)->Arg(1);

} // namespace
