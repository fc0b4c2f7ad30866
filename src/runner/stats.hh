/**
 * @file
 * Replication statistics for multi-seed sweeps.
 *
 * A replicated sweep runs the same scenario grid once per workload
 * seed (`galsbench --seeds N` / `--seed-list`); this module reduces
 * the R×G flat result list back to the G grid points, giving each
 * scalar metric a sample mean, standard deviation and 95%
 * confidence-interval half-width (Student's t, two-sided). The
 * reporters and the scenarios' own reduce() tables render these as
 * "mean ± ci" columns; the raw per-replica rows stay in the
 * trajectory file (runner/trajectory.hh).
 *
 * The canonical metric column list lives here too (MetricAccessor):
 * the record schema (runner/record.hh) walks it for every record view,
 * and the aggregation below reduces it.
 */

#ifndef RUNNER_STATS_HH
#define RUNNER_STATS_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace gals::runner
{

/** One scalar metric column of RunResults, with uniform double
 *  access for aggregation and a setter for writing means back. */
struct MetricAccessor
{
    const char *name;    ///< column name, e.g. "ipc_nominal"
    bool integral;       ///< printed as an integer in per-run records
    double (*get)(const RunResults &);
    void (*set)(RunResults &, double);
    /** Exact integer access for integral columns (null otherwise):
     *  per-run records print this directly so values above 2^53 are
     *  not rounded through double. */
    std::uint64_t (*getU)(const RunResults &);
    /** Exact integer setter for integral columns (null otherwise):
     *  the binary-trajectory decoder restores counters without
     *  rounding through double. */
    void (*setU)(RunResults &, std::uint64_t);
};

/** The scalar metric columns, in canonical reporter column order. */
const std::vector<MetricAccessor> &metricAccessors();

/** Sample statistics of one metric over the replicas of a grid
 *  point. */
struct MetricSummary
{
    unsigned n = 0;      ///< replica count
    double mean = 0.0;   ///< sample mean
    double stddev = 0.0; ///< sample standard deviation (n-1)
    double ci95 = 0.0;   ///< 95% CI half-width; 0 when n < 2
};

/** Two-sided 95% Student-t critical value for @p dof degrees of
 *  freedom (dof >= 1; large dof asymptotes to the normal 1.96). */
double tCritical95(unsigned dof);

/** Reduce one sample to mean / stddev / 95% CI half-width.
 *  Non-finite samples propagate into the summary as NaN. */
MetricSummary summarize(const std::vector<double> &xs);

/**
 * A replicated sweep reduced per grid point. Replica r of grid point
 * g lives at index r*gridSize + g of the flat engine results (the
 * expandReplicatedRuns() layout).
 */
struct ReplicaSummary
{
    std::size_t gridSize = 0;
    std::size_t replicas = 0;

    /** Per-grid-point metric-wise means (integral metrics rounded;
     *  benchmark/gals/unit energies carried over). This is what a
     *  scenario's reduce() sees for a replicated sweep. */
    std::vector<RunResults> mean;

    /** metrics[g][m]: summary of metricAccessors()[m] at grid point
     *  g. */
    std::vector<std::vector<MetricSummary>> metrics;

    /** Summary of metric @p name at grid point @p grid, or nullptr
     *  for an unknown name. */
    const MetricSummary *metric(std::size_t grid,
                                const std::string &name) const;
};

/**
 * Aggregate a flat replicated result list (layout above) into
 * per-grid-point summaries. @p all must hold an integral number of
 * @p gridSize-sized replica blocks.
 */
ReplicaSummary summarizeReplicas(std::size_t gridSize,
                                 const std::vector<RunResults> &all);

/**
 * Delta-method 95% half-width of the ratio a/b given each side's
 * mean and CI half-width: |a/b| * sqrt((ciA/a)^2 + (ciB/b)^2).
 * The scenarios' normalized-ratio tables (rel. perf, energy ratio)
 * use this to qualify ratios of replicated metrics.
 */
double ratioCi95(double meanA, double ciA, double meanB, double ciB);

/** "mean ± ci" with %.3f fields, e.g. "0.912 ± 0.004". */
std::string formatMeanCi(double mean, double ci);

/**
 * Generic replication appendix printed after a scenario's own table:
 * one row per grid point with mean ± 95% CI for the headline metrics
 * (IPC, time, energy, power, slip). @p gridCfgs is the first replica
 * block of the expanded grid (size == summary.gridSize).
 */
void writeReplicationTable(std::ostream &os,
                           const std::string &scenario,
                           const std::vector<RunConfig> &gridCfgs,
                           const ReplicaSummary &summary);

} // namespace gals::runner

#endif // RUNNER_STATS_HH
