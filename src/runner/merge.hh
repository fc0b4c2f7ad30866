/**
 * @file
 * Shard fan-in and archive replay: `--merge`, `--merge-manifest`
 * and `--verify`.
 *
 * A sharded sweep (`galsbench --shard i/N`) leaves N trajectory
 * files and N manifests, each covering a disjoint round-robin slice
 * of the run grid but carrying the records' *canonical* grid
 * indices. mergeTrajectories() fuses the shard files back into the
 * single-machine ordering — cmp-identical to an unsharded run — and
 * mergeManifests() fuses the shard manifests into the canonical
 * manifest. verifyManifest() closes the loop: it re-runs an archived
 * manifest (instruction budget, seeds, benchmarks, shard) against the
 * current binary, checks the per-scenario grid shapes and config
 * hashes first, and byte-compares the regenerated
 * trajectory against the archived file, reporting a per-record diff
 * on mismatch.
 *
 * All three return false with a diagnostic instead of dying, so the
 * CLI can exit non-zero cleanly and tests can assert on messages.
 */

#ifndef RUNNER_MERGE_HH
#define RUNNER_MERGE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace gals::runner
{

class ExperimentEngine;
class ScenarioRegistry;
struct ManifestScenario;

/** What a complete merge must contain, as recovered from the shard
 *  manifests: the authoritative completeness cross-check for
 *  mergeTrajectories(). */
struct MergePlan
{
    unsigned shardCount = 0;
    /** Canonical scenario entries (full grid sizes / replicas), in
     *  execution order. */
    std::vector<ManifestScenario> scenarios;
};

/**
 * Merge shard trajectory files into @p outputPath in canonical
 * (unsharded) record order. All inputs and the output must share one
 * format (by extension, trajectoryFormatForPath()). Fails on
 * malformed records, on overlapping shards (duplicate canonical
 * index), on shard files whose records disagree on a scenario's
 * instruction budget (inputs from different sweeps), and on
 * incomplete merges: interior index gaps, a file count that
 * contradicts the shard stride visible in the records, and — when
 * @p expected is given (recovered from the shard manifests by
 * mergeManifests()) — any deviation from the manifest's scenario
 * set and per-scenario run counts. When neither a plan nor stride
 * evidence exists (no scenario has two records in any one file — a
 * grid no larger than the shard count), completeness is unprovable
 * from the records, and the merge is refused. Records alone can
 * never prove the *tail* of a sweep survived (a lost last record
 * leaves a set indistinguishable from a complete smaller grid), so
 * a manifest-less merge prints a note and the shard manifests —
 * `--merge-manifest` in the same invocation — remain the
 * authoritative completeness check (what CI uses).
 * @param diag human-readable progress and errors.
 * @return true iff the merged file was written.
 */
bool mergeTrajectories(const std::vector<std::string> &shardFiles,
                       const std::string &outputPath,
                       std::ostream &diag,
                       const MergePlan *expected = nullptr);

/**
 * Merge shard manifests into the canonical manifest at
 * @p manifestPath: every shard manifest must agree on version,
 * sweep options and scenario grids, and the shard indices must cover
 * 1..N exactly. The `"engine"` field may read `"calendar"` or the
 * retired `"heap"` (the same pop order). The merged manifest reads
 * `"calendar"`, drops the shard object and records @p outputPath
 * (the merged trajectory's path; may be empty) — making it
 * byte-identical to the manifest an unsharded `--output outputPath`
 * run writes. @p plan, when given, receives the recovered canonical
 * sweep shape for mergeTrajectories() to cross-check against.
 */
bool mergeManifests(const std::vector<std::string> &shardFiles,
                    const std::string &manifestPath,
                    const std::string &outputPath,
                    std::ostream &diag, MergePlan *plan = nullptr);

/**
 * Replay an archived manifest and byte-compare the regenerated
 * trajectory against the archived one (the manifest's `output` path,
 * resolved relative to the manifest file's directory). Before
 * spending any simulation time, each scenario's regenerated grid
 * must match the manifest's grid size, replica count and full-grid
 * config hash — catching config drift early. @p engine supplies the
 * worker pool (any job count: records are index-slotted).
 * @return true iff every record matches byte for byte.
 */
bool verifyManifest(const ScenarioRegistry &registry,
                    const ExperimentEngine &engine,
                    const std::string &manifestPath,
                    std::ostream &diag);

} // namespace gals::runner

#endif // RUNNER_MERGE_HH
