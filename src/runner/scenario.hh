/**
 * @file
 * Declarative experiment scenarios.
 *
 * Every paper figure, ablation and sweep in this repo is a grid of
 * independent simulations. A Scenario captures one such grid
 * declaratively: a function expanding sweep options into the flat list
 * of RunConfigs, and a reduce step that turns the finished RunResults
 * back into the figure's human-readable report. The ExperimentEngine
 * runs the grid (serially or across a thread pool); reporters can also
 * emit the raw per-run records as JSON lines or CSV.
 *
 * The ScenarioRegistry is a plain container — registrations are
 * explicit (bench/register_all.cc), not static-initializer magic, so
 * the set of scenarios is deterministic and testable.
 */

#ifndef RUNNER_SCENARIO_HH
#define RUNNER_SCENARIO_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace gals::runner
{

/** Sweep-wide knobs every scenario expands against. */
struct SweepOptions
{
    /** Instructions per run. */
    std::uint64_t instructions = 50000;

    /** Benchmarks to sweep; empty means the scenario's default set
     *  (usually all shipped benchmarks). */
    std::vector<std::string> benchmarks;

    /** Workload seed for every run (the first replica's seed when
     *  the sweep is replicated). */
    std::uint64_t seed = 0;

    /** Seed replications (`--seeds N`): each scenario grid is run
     *  once per seed in seedList(). 1 = the classic single sweep. */
    unsigned seedReplicas = 1;

    /** Explicit replica seeds (`--seed-list a,b,c`); overrides
     *  @ref seed / @ref seedReplicas when non-empty. */
    std::vector<std::uint64_t> explicitSeeds;

    /** Grid shard executed by this invocation (`--shard i/N`),
     *  applied to every scenario's replica-expanded flat grid via
     *  shardRunIndices(). Default: inactive (the whole grid, with
     *  normal reports); an explicit 1/1 is a sharded run of one
     *  slice. */
    ShardSpec shard;

    /** @name Fabric axes (`--cores`, `--topology`, `--traffic`)
     *
     * Empty vectors mean "the scenario's default sweep" — the state
     * every pre-fabric invocation is in, so manifests, plan lines and
     * worker command lines only mention these axes when they are
     * explicitly set. Fabric-family scenarios cross their grid with
     * whichever of these are non-empty.
     */
    /// @{
    std::vector<unsigned> coreCounts;
    std::vector<std::string> topologies;
    std::vector<std::string> traffics;

    /** The core-count sweep: coreCounts, or @p def when unset. */
    std::vector<unsigned> coreSet(std::vector<unsigned> def) const
    {
        return coreCounts.empty() ? def : coreCounts;
    }
    /** The topology sweep: topologies, or @p def when unset. */
    std::vector<std::string>
    topologySet(std::vector<std::string> def) const
    {
        return topologies.empty() ? def : topologies;
    }
    /** The traffic sweep: traffics, or @p def when unset. */
    std::vector<std::string>
    trafficSet(std::vector<std::string> def) const
    {
        return traffics.empty() ? def : traffics;
    }
    /// @}

    /** Interval-meter period (`--interval-ticks K`), stamped onto
     *  every expanded run by expandReplicatedRuns(); 0 = off (the
     *  pre-meter state every manifest and plan line is in). */
    std::uint64_t intervalTicks = 0;

    /** Warm-state split (`--warmup-insts K`), stamped by
     *  expandReplicatedRuns() onto every *single-core* run of the
     *  grid (fabric runs do not support warmup snapshots and keep
     *  the field 0, so their hashes never change). 0 = off. */
    std::uint64_t warmupInstructions = 0;

    /** The replica seeds, in run order: @ref explicitSeeds when
     *  given, else seed, seed+1, ..., seed+seedReplicas-1. */
    std::vector<std::uint64_t> seedList() const;

    /** seedList().size(), without building the list. */
    std::size_t replicaCount() const
    {
        return explicitSeeds.empty() ? std::max(1u, seedReplicas)
                                     : explicitSeeds.size();
    }

    /** True when the sweep runs more than one replica per grid
     *  point. */
    bool replicated() const { return replicaCount() > 1; }

    /** The benchmark sweep set: @ref benchmarks, or all shipped
     *  benchmarks when empty. */
    std::vector<std::string> benchmarkSet() const;

    /**
     * Defaults from the environment, honouring the knobs the
     * hand-rolled bench drivers always supported: GALSSIM_INSTS
     * (instructions per run) and GALSSIM_BENCH (restrict the sweep to
     * one benchmark). The values are not checked here; galsbench reads
     * both through its flag table instead (parseCli(), runner/cli.hh),
     * which rejects what --insts and --bench would.
     */
    static SweepOptions fromEnvironment();
};

struct ReplicaSummary; // runner/stats.hh

/**
 * The finished results of one sweep, as handed to Scenario::reduce.
 *
 * For a single-seed sweep, @ref runs is the engine output in
 * makeRuns() order and @ref replicas is null. For a replicated sweep
 * (SweepOptions::replicated()), @ref runs holds the per-grid-point
 * replica *means* — so existing reduce() code reads means without
 * change — and @ref replicas carries the per-metric spread for
 * reduce() paths that print mean ± 95% CI columns.
 */
struct SweepView
{
    const std::vector<RunResults> &runs;
    const ReplicaSummary *replicas = nullptr;
};

/** One declarative experiment: a run grid plus its report. */
struct Scenario
{
    /** CLI key, e.g. "fig05". */
    std::string name;

    /** Display title, e.g. "Figure 5". */
    std::string figure;

    /** One-line summary for `galsbench --list`. */
    std::string description;

    /** Expand the sweep into independent runs. May be empty for
     *  pure-literature scenarios (Table 1). */
    std::function<std::vector<RunConfig>(const SweepOptions &)> makeRuns;

    /** Turn the finished sweep (per-grid-point results in makeRuns()
     *  order, see SweepView) into the figure's report on stdout. */
    std::function<void(const SweepOptions &, const SweepView &)>
        reduce;
};

/** Named collection of scenarios, in registration order. */
class ScenarioRegistry
{
  public:
    /** Register a scenario; fatal on a duplicate or empty name. */
    void add(Scenario s);

    /**
     * Look up a scenario by CLI key.
     * @param name the Scenario::name, e.g. "fig05".
     * @return the scenario, or nullptr if absent.
     */
    const Scenario *find(const std::string &name) const;

    /** Every registered scenario, in registration order. */
    const std::vector<Scenario> &all() const { return scenarios_; }

    /** Number of registered scenarios. */
    std::size_t size() const { return scenarios_.size(); }

  private:
    std::vector<Scenario> scenarios_;
};

/** @name Pair-sweep helpers
 *
 * Most figures compare a base/GALS pair per sweep point. These helpers
 * fix the convention: appendPair() pushes the base config then the
 * GALS config, so pair i lives at results[2i] / results[2i+1], which
 * pairAt() reassembles.
 */
/// @{

/** Append a base/GALS config pair for one sweep point. */
void appendPair(std::vector<RunConfig> &runs,
                const std::string &benchmark,
                std::uint64_t instructions,
                const DvfsSetting &galsDvfs = DvfsSetting(),
                std::uint64_t seed = 0,
                const ProcessorConfig &proc = ProcessorConfig());

/** Reassemble pair @p i from a flat appendPair()-built result list. */
PairResults pairAt(const std::vector<RunResults> &results,
                   std::size_t i);

/// @}

/**
 * Expand @p s into its replica-expanded flat grid: the scenario's
 * makeRuns() once per seed in opts.seedList() (each call sees
 * SweepOptions::seed set to that replica's seed), concatenated so
 * replica r occupies [r*G, (r+1)*G) for grid size G. Every replica
 * must expand to the same grid size (fatal otherwise: a scenario's
 * grid shape may not depend on the seed).
 *
 * @param gridSize out: the per-replica grid size G (may be null).
 * @param maxRuns stop after the first replica when G times the
 *     replica count exceeds this; the caller compares the two.
 */
std::vector<RunConfig>
expandReplicatedRuns(const Scenario &s, const SweepOptions &opts,
                     std::size_t *gridSize,
                     std::size_t maxRuns = static_cast<std::size_t>(-1));

/** The subset of @p runs at @p indices (ascending canonical order —
 *  the shardRunIndices() slice), for executing one shard of a
 *  grid. */
std::vector<RunConfig> selectRuns(const std::vector<RunConfig> &runs,
                                  const std::vector<std::size_t> &indices);

} // namespace gals::runner

#endif // RUNNER_SCENARIO_HH
