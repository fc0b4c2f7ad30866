/**
 * @file
 * The run-record schema: the one place a record field is declared.
 *
 * walkRecord() names every field of a record once, in record order,
 * and each record view is a visitor it drives: a JSON line, a CSV
 * header and row and the replica summaries (runner/reporter.cc), and
 * the `.gtrj` frame writer and reader (runner/gtrj.cc). A visitor
 * takes each value by its type (const for writers, mutable for the
 * reader) through `field(name, v)`, plus one hook per structural
 * element: `blocks` (the flags byte of a frame; which gated blocks a
 * text view shows), `flag` (a boolean kept in that byte), `replicas`
 * (a summary's count in place of the seeds), `columns`, `metric`,
 * `energies` and `list` (a per-core or interval block, each entry
 * walked by walkEntry()).
 */

#ifndef RUNNER_RECORD_HH
#define RUNNER_RECORD_HH

#include <concepts>
#include <string>
#include <type_traits>

#include "core/experiment.hh"
#include "runner/stats.hh"

namespace gals::runner
{

/** @p T is @p U, const or not: the walk serves writers and readers. */
template <class T, class U>
concept RefTo = std::same_as<std::remove_const_t<T>, U>;

/** The bits of a record's flags byte (its gtrj encoding): two config
 *  booleans and the four gated blocks. A gtrj reader rejects a
 *  record carrying a bit outside flagKnownMask. */
enum RecordFlag : unsigned
{
    flagGals = 1u << 0,
    flagDynamicDvfs = 1u << 1,
    flagFabric = 1u << 2,
    flagPerCore = 1u << 3,
    flagIntervals = 1u << 4,
    flagWarmup = 1u << 5,
    flagKnownMask = (1u << 6) - 1,
};

/** The gated blocks a record carries: the one definition of each
 *  gate, so that pre-warmup, pre-fabric and unmetered records keep
 *  their exact bytes in every view. */
inline unsigned
recordBlocks(const RunConfig &c, const RunResults &r)
{
    return (c.warmupInstructions > 0 ? flagWarmup : 0u) |
           (c.fabric.active() ? flagFabric : 0u) |
           (r.cores.empty() ? 0u : flagPerCore) |
           (c.intervalTicks > 0 ? flagIntervals : 0u);
}

/** One per_core entry of a fabric record. */
template <class V, RefTo<CoreResults> E>
void
walkEntry(V &v, E &e)
{
    v.field("core", e.core);
    v.field("committed", e.committed);
    v.field("ipc_nominal", e.ipcNominal);
    v.field("energy_j", e.energyJ);
    v.field("fifo_events", e.fifoEvents);
    v.field("msgs_sent", e.msgsSent);
    v.field("msgs_received", e.msgsReceived);
    v.field("remote_stall_cycles", e.remoteStallCycles);
    v.field("avg_remote_latency_cycles", e.avgRemoteLatencyCycles);
}

/** One sample of a metered record's intervals block. */
template <class V, RefTo<IntervalSample> E>
void
walkEntry(V &v, E &e)
{
    v.field("tick", e.tick);
    v.field("committed", e.committed);
    v.field("ipc", e.ipc);
    v.energies("energy_nj", e.energyNj);
    v.field("fifo_occ", e.fifoOcc);
}

/** Walk one record through visitor @p v, field by field. */
template <class V, RefTo<std::string> S, std::integral I,
          RefTo<RunConfig> C, RefTo<RunResults> R>
void
walkRecord(V &v, S &scenario, I &index, C &c, R &r)
{
    v.field("scenario", scenario);
    v.field("index", index);
    v.field("benchmark", r.benchmark);
    const unsigned blocks = v.blocks(recordBlocks(c, r));
    v.flag("gals", flagGals, r.gals);
    v.flag("dynamic_dvfs", flagDynamicDvfs, c.dynamicDvfs);
    v.field("instructions", c.instructions);
    if (!v.replicas("replicas")) {
        v.field("seed", c.seed);
        // Text shows the resolved phase seed. A frame stores the raw
        // one, so that the follows-workload sentinel survives the
        // round trip and a decoded config resolves like the native.
        v.field("phase_seed", c.phaseSeed, effectivePhaseSeed(c));
    }
    if (blocks & flagWarmup)
        v.field("warmup_insts", c.warmupInstructions);
    if (blocks & flagFabric) {
        v.field("cores", c.fabric.cores);
        v.field("topology", c.fabric.topology);
        v.field("traffic", c.fabric.traffic);
    }
    const auto &metrics = metricAccessors();
    v.columns("metric columns", metrics.size());
    for (std::size_t m = 0; m < metrics.size(); ++m)
        v.metric(metrics[m], m, r);
    v.energies("energy_nj", r.unitEnergyNj);
    if (blocks & flagPerCore)
        v.list("per_core", r.cores);
    if (blocks & flagIntervals) {
        v.field("interval_ticks", c.intervalTicks);
        v.list("intervals", r.intervals);
    }
}

} // namespace gals::runner

#endif // RUNNER_RECORD_HH
