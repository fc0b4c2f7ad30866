/**
 * @file
 * Pipeline-model microbenchmarks (google-benchmark), linked into
 * galsmicro beside the engine micros: the per-edge energy close-out,
 * issue-queue insert + select driven by scoreboard wakeups, and ROB
 * churn across its ring wrap. They isolate the layers the benchmark's
 * power.share, cpu.iq_share and cpu.rob_share metrics attribute host
 * time to, so a change to one of them shows up here on its own.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cpu/core_config.hh"
#include "cpu/issue_queue.hh"
#include "cpu/rob.hh"
#include "cpu/scoreboard.hh"
#include "power/energy_account.hh"
#include "power/power_model.hh"

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

} // namespace
