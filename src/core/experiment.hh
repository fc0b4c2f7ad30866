/**
 * @file
 * Experiment harness: runs one processor configuration on one
 * benchmark and extracts every metric the paper reports; pairs a base
 * run with a GALS run for the normalized comparisons of Figures 5-13.
 */

#ifndef CORE_EXPERIMENT_HH
#define CORE_EXPERIMENT_HH

#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/processor.hh"
#include "fabric/fabric_config.hh"
#include "workload/profile.hh"

namespace gals
{

/**
 * Sentinel for RunConfig::phaseSeed: the clock-phase seed follows the
 * workload seed, so re-running the same config reproduces both the
 * instruction stream and the clock phases.
 */
constexpr std::uint64_t phaseSeedFollowsWorkload = ~std::uint64_t(0);

/** One simulation to run. */
struct RunConfig
{
    std::string benchmark = "gcc";
    std::uint64_t instructions = 100000;
    bool gals = false;
    DvfsSetting dvfs;          ///< applied in GALS mode only
    std::uint64_t seed = 0;    ///< workload seed
    /** Clock-phase seed; defaults to the workload seed (see
     *  phaseSeedFollowsWorkload / effectivePhaseSeed()). Set it
     *  independently to vary phases over an identical instruction
     *  stream (the section 5.1 phase-sensitivity experiment). */
    std::uint64_t phaseSeed = phaseSeedFollowsWorkload;
    /** Online application-driven DVFS on the FP domain (the paper's
     *  section 6 future direction); only meaningful with gals=true. */
    bool dynamicDvfs = false;
    ProcessorConfig proc;      ///< gals/dvfs fields are overridden
    /** Multi-core fabric axes; inert (and unhashed) at cores == 1, so
     *  every pre-fabric config keeps its archived hash. */
    FabricConfig fabric;
    /** Interval-meter period in ticks (`--interval-ticks K`): sample
     *  IPC / per-domain energy / FIFO occupancy every K ticks into
     *  RunResults::intervals. 0 (the default) disables the meter and
     *  — like the fabric axes — keeps the config unhashed, so every
     *  pre-meter config keeps its archived hash. Applies to the
     *  single-core path; fabric runs record no samples. */
    std::uint64_t intervalTicks = 0;
    /** Warm-state split (`--warmup-insts K`): run the first K
     *  instructions under the canonical warmup configuration
     *  (core/snapshot.hh), snapshot the quiescent machine, and
     *  measure only the remaining instructions on a fresh event
     *  queue — statistics, energy and time cover the measured region
     *  alone. Snapshots are memoized across runs sharing a warmup
     *  stem. 0 (the default) keeps the classic single-region run
     *  and — like the fabric/meter axes — leaves archived hashes
     *  untouched. Single-core only; must be < instructions. */
    std::uint64_t warmupInstructions = 0;
};

/**
 * Resolve the phase seed of a run: @p cfg.phaseSeed, unless it is the
 * phaseSeedFollowsWorkload sentinel, in which case the workload seed.
 * The single point where the sentinel is interpreted.
 */
std::uint64_t effectivePhaseSeed(const RunConfig &cfg);

/**
 * Per-core slice of a fabric run: the headline metrics of one core
 * plus its NIC traffic counters. Empty for single-core runs.
 */
struct CoreResults
{
    unsigned core = 0;
    std::uint64_t committed = 0;
    double ipcNominal = 0.0; ///< committed per nominal cycle, to the
                             ///< core's own last commit
    double energyJ = 0.0;
    std::uint64_t fifoEvents = 0;      ///< intra-core channel activity
    std::uint64_t msgsSent = 0;        ///< requests this core injected
    std::uint64_t msgsReceived = 0;    ///< requests served for others
    std::uint64_t remoteStallCycles = 0; ///< fetch cycles blocked on
                                         ///< the completion window
    double avgRemoteLatencyCycles = 0.0; ///< request round trip
};

/**
 * One interval-meter sample (RunConfig::intervalTicks > 0): the
 * in-run time series behind the phase-aware DVFS work. Counters are
 * per-interval deltas, the FIFO occupancy is the instantaneous sum at
 * the sample edge.
 */
struct IntervalSample
{
    Tick tick = 0;              ///< sample time (K, 2K, ...)
    std::uint64_t committed = 0; ///< instructions committed this
                                 ///< interval
    double ipc = 0.0;            ///< committed per nominal cycle of
                                 ///< this interval
    /** Energy charged this interval, per clock domain (domainIndex
     *  order), nJ. */
    std::array<double, numDomains> energyNj{};
    /** Items resident in the inter-domain FIFOs at the sample edge
     *  (sum of pushes - pops over every channel). */
    std::uint64_t fifoOcc = 0;
};

/** Everything measured in one run. */
struct RunResults
{
    std::string benchmark;
    bool gals = false;

    /** @name Throughput */
    /// @{
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t wrongPathFetched = 0;
    Tick ticks = 0;
    double timeSec = 0.0;
    double ipcNominal = 0.0; ///< committed per nominal clock period
    /// @}

    /** @name Energy / power */
    /// @{
    double energyJ = 0.0;
    double avgPowerW = 0.0;
    std::map<std::string, double> unitEnergyNj;
    std::uint64_t fifoEvents = 0;
    /// @}

    /** @name Latency (paper Figures 6, 7) */
    /// @{
    double avgSlipCycles = 0.0;     ///< fetch-to-commit, nominal cycles
    double avgFifoSlipCycles = 0.0; ///< portion spent inside FIFOs
    /// @}

    /** @name Speculation (paper Figure 8) */
    /// @{
    double misspecFraction = 0.0; ///< wrong-path / all fetched
    double mispredictsPerKCommitted = 0.0;
    double dirAccuracy = 0.0;
    /// @}

    /** @name Occupancies (paper section 5.1) */
    /// @{
    double avgRobOcc = 0.0;
    double avgIntRenames = 0.0;
    double avgFpRenames = 0.0;
    double intIQOcc = 0.0, fpIQOcc = 0.0, memIQOcc = 0.0;
    /// @}

    /** @name Cache behaviour */
    /// @{
    double il1MissRate = 0.0, dl1MissRate = 0.0, l2MissRate = 0.0;
    /// @}

    /** Per-core breakdown; non-empty only for fabric (cores > 1)
     *  runs. The scalar metrics above are the system aggregates. */
    std::vector<CoreResults> cores;

    /** Interval-meter time series; non-empty only when
     *  RunConfig::intervalTicks > 0 on the single-core path. */
    std::vector<IntervalSample> intervals;
};

/**
 * Library version string, recorded in run manifests so archived
 * trajectory files can be matched to the simulator that produced
 * them. Bump whenever a change alters simulation results or the
 * meaning of a RunConfig field.
 */
const char *galssimVersion();

/**
 * One disjoint slice of a run grid for multi-machine sweeps
 * (`galsbench --shard i/N`): shard @ref index (1-based) of
 * @ref count. The default (count 0) means "not sharded"; an
 * explicit `--shard 1/1` is a *sharded* run of one slice, so a
 * driver script parameterized by N behaves identically at N=1
 * (reports suppressed, shard-tagged manifest, mergeable output).
 */
struct ShardSpec
{
    unsigned index = 1; ///< which shard, 1..count
    unsigned count = 0; ///< total shards; 0 = unsharded

    /** True when this invocation runs a shard (even 1/1). */
    bool active() const { return count >= 1; }
};

/**
 * The canonical run indices owned by @p shard of a @p total-run
 * grid: the round-robin slice {index-1, index-1+count, ...}, in
 * ascending order. Striding (rather than contiguous blocks) spreads
 * every benchmark across every shard, so shards finish in comparable
 * wall-clock even though run lengths are heterogeneous. Across
 * i = 1..count the slices are disjoint and cover [0, total) exactly —
 * merging shard outputs by canonical index reproduces the unsharded
 * ordering byte for byte.
 */
std::vector<std::size_t> shardRunIndices(std::size_t total,
                                         const ShardSpec &shard);

/**
 * Stable 64-bit hash of everything that defines a run: benchmark,
 * instruction budget, GALS/DVFS settings, seeds (with the phase-seed
 * sentinel resolved) and the run-defining ProcessorConfig scalars
 * (core widths and sizes, FIFO capacities, tech voltages). The hash
 * is computed over a canonical little-endian byte stream, so it is
 * identical across machines and job counts — it is what makes run
 * manifests byte-diffable. Deep structural config (branch predictor,
 * cache geometry, clock hierarchy) is covered by galssimVersion()
 * instead.
 */
std::uint64_t runConfigHash(const RunConfig &cfg);

/** Chained hash of a whole grid (order-sensitive, size included). */
std::uint64_t runConfigHash(const std::vector<RunConfig> &cfgs);

/** Execute one run. Dispatches to fabric::runSystem() when
 *  cfg.fabric.active(); otherwise the classic single-core path. */
RunResults runOne(const RunConfig &cfg);

/**
 * Derive the rate metrics of @p r (time, IPC, power, slip, FIFO
 * slip, misspeculation, mispredicts per 1k, direction accuracy) from
 * its counts, the slip and mispredict sums of @p cs and the branch
 * direction counts. A single-core run and a fabric's aggregate (whose
 * @p cs sums its cores') both derive their rates here.
 */
void deriveRates(RunResults &r, const CommitStats &cs,
                 std::uint64_t dirCorrect, std::uint64_t dirWrong,
                 Tick nominalPeriod);

/**
 * Harvest every RunResults metric from a finished Processor. Shared
 * by the single-core path and fabric::System (which extracts one per
 * core and aggregates). @p cfg supplies the labels and the nominal
 * period.
 */
RunResults extractRunResults(Processor &proc, const RunConfig &cfg);

/**
 * Execute a batch of runs serially; results[i] belongs to cfgs[i].
 * The parallel counterpart is runner::ExperimentEngine, which yields
 * element-wise identical results (each run owns its EventQueue and
 * Processor, so runs are independent).
 */
std::vector<RunResults> runMany(const std::vector<RunConfig> &cfgs);

/** A matched base/GALS pair on the same workload. */
struct PairResults
{
    RunResults base;
    RunResults galsRun;

    /** Relative performance: time_base / time_gals (Figure 5). */
    double perfRatio() const
    {
        return base.timeSec / galsRun.timeSec;
    }
    /** Normalized energy: E_gals / E_base (Figure 9). */
    double energyRatio() const
    {
        return galsRun.energyJ / base.energyJ;
    }
    /** Normalized average power: P_gals / P_base (Figure 9). */
    double powerRatio() const
    {
        return galsRun.avgPowerW / base.avgPowerW;
    }
    /** Slip growth: slip_gals / slip_base (Figure 6). */
    double slipRatio() const
    {
        return galsRun.avgSlipCycles / base.avgSlipCycles;
    }
};

/**
 * Run base and GALS on one benchmark with identical workloads.
 * @p galsDvfs applies to the GALS run only.
 */
PairResults runPair(const std::string &benchmark,
                    std::uint64_t instructions,
                    const DvfsSetting &galsDvfs = DvfsSetting(),
                    std::uint64_t seed = 0,
                    const ProcessorConfig &baseProc = ProcessorConfig());

} // namespace gals

#endif // CORE_EXPERIMENT_HH
