/**
 * @file
 * Machine-readable reporters for experiment sweeps.
 *
 * The scenarios' own reduce() steps print the paper-style tables; the
 * reporters here emit the raw per-run records instead — one JSON
 * object per line, or CSV with a header row — for trajectory files
 * and downstream analysis. Doubles are printed round-trip exact, so
 * serial and parallel runs of the same grid produce byte-identical
 * output.
 *
 * The records are strict: string fields are JSON-escaped /
 * RFC-4180-quoted, and non-finite doubles render as JSON `null`
 * (empty in CSV) rather than the bare `nan`/`inf` every parser
 * rejects.
 *
 * For replicated (multi-seed) sweeps, the *Summary writers emit one
 * aggregated record per grid point with `<metric>` (mean) and
 * `<metric>_ci95` (95% confidence half-width) columns; the raw
 * per-replica rows belong in the trajectory file
 * (runner/trajectory.hh).
 */

#ifndef RUNNER_REPORTER_HH
#define RUNNER_REPORTER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace gals::runner
{

class ScenarioRegistry;
struct SweepOptions;
struct ReplicaSummary;

/** How a sweep's results are rendered. */
enum class OutputFormat
{
    table,    ///< the scenario's own human-readable reduce()
    json,     ///< one JSON object per run, one per line
    csv,      ///< header row + one CSV row per run
    markdown, ///< scenario catalog table (valid with --list only)
};

/** @name Record-format primitives
 *
 * Shared by the reporters, the trajectory sink and the manifest
 * writer, so every emitted file obeys the same quoting rules.
 */
/// @{

/** JSON string literal for @p s, including the surrounding quotes:
 *  escapes `"`, `\` and control characters. */
std::string jsonQuote(const std::string &s);

/** RFC-4180 CSV field: quoted (with internal quotes doubled) when
 *  @p s contains a comma, quote or newline; verbatim otherwise. */
std::string csvField(const std::string &s);

/// @}

/**
 * Emit one JSON object per run (JSON-lines). @p indices, when given,
 * supplies each record's canonical run index (its position in the
 * full unsharded grid) instead of the default 0..n-1 — a shard's
 * records then carry the same bytes they would in an unsharded run,
 * which is what lets `--merge` reassemble shard files cmp-identical
 * to the single-machine trajectory.
 */
void writeJsonLines(std::ostream &os, const std::string &scenario,
                    const std::vector<RunConfig> &cfgs,
                    const std::vector<RunResults> &results,
                    const std::vector<std::size_t> *indices = nullptr);

/** Emit a CSV table, one row per run, unit energies flattened into
 *  energy_nj.<unit> columns. */
void writeCsv(std::ostream &os, const std::string &scenario,
              const std::vector<RunConfig> &cfgs,
              const std::vector<RunResults> &results);

/** @name CSV header/rows split
 *
 * The trajectory sink appends several scenarios to one file and must
 * write the header exactly once; writeCsv() is header + rows.
 */
/// @{

/** The CSV header row. @p sample supplies the unit-energy column
 *  set (identical for every run: the power-model Unit enum). */
void writeCsvHeader(std::ostream &os, const RunResults &sample);

/** CSV data rows only, in the writeCsvHeader() column order.
 *  @p indices as in writeJsonLines(): canonical run indices for
 *  shard slices. */
void writeCsvRows(std::ostream &os, const std::string &scenario,
                  const std::vector<RunConfig> &cfgs,
                  const std::vector<RunResults> &results,
                  const std::vector<std::size_t> *indices = nullptr);

/// @}

/** @name Aggregated (replicated-sweep) records
 *
 * One record per grid point instead of per run: each scalar metric
 * becomes a `<name>` mean plus `<name>_ci95` half-width pair, the
 * per-replica seed columns are replaced by a `replicas` count, and
 * unit energies are replica means. @p gridCfgs is the first replica
 * block (size == summary.gridSize).
 */
/// @{

void writeJsonLinesSummary(std::ostream &os,
                           const std::string &scenario,
                           const std::vector<RunConfig> &gridCfgs,
                           const ReplicaSummary &summary);

void writeCsvSummary(std::ostream &os, const std::string &scenario,
                     const std::vector<RunConfig> &gridCfgs,
                     const ReplicaSummary &summary);

/// @}

/**
 * Emit the scenario catalog as a markdown table (one row per
 * registered scenario: name, figure/table reference, description,
 * grid size and instructions per run at @p opts). This is what
 * `galsbench --list --format md` prints and what docs/SCENARIOS.md is
 * generated from; CI regenerates it and fails on drift, so the output
 * must be deterministic for fixed registry + options.
 */
void writeScenarioCatalogMarkdown(std::ostream &os,
                                  const ScenarioRegistry &registry,
                                  const SweepOptions &opts);

} // namespace gals::runner

#endif // RUNNER_REPORTER_HH
