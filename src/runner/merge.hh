/**
 * @file
 * Shard fan-in and archive replay: `--merge` and `--verify`.
 *
 * Both start from manifests, and both rebuild the sweep's plan from
 * them (planSweep(), runner/trajectory.hh): a manifest names its
 * sweep options, its per-scenario grids and config hashes, and the
 * trajectory it describes. The plan is checked against the manifest
 * (grid size, replicas, config hash per scenario) before any record
 * is read or simulated.
 *
 * A sharded sweep (`galsbench --shard i/N`) leaves N `.gtrj`
 * trajectory files and N manifests, each shard covering a disjoint
 * round-robin slice of the run grid but carrying the records'
 * *canonical* grid indices. mergeShards() is N complete resumes,
 * interleaved: every shard's file must hold exactly its plan's
 * records (scanResume()), and their frames are then interleaved back
 * into the single-machine order and written as `.gtrj`, or rendered
 * as JSON lines or CSV through the parse path — cmp-identical to an
 * unsharded run in any of the three formats — next to the canonical
 * manifest. verifyManifest() closes the loop: it replays an archived
 * manifest against the current binary and byte-compares the
 * regenerated trajectory with the archived file, reporting a
 * per-record diff on mismatch.
 *
 * Both return false with a diagnostic instead of dying, so the CLI
 * can exit non-zero cleanly and tests can assert on messages.
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

/**
 * Merge the shards named by the shard manifests @p manifests. The
 * manifests must agree on version, sweep options and scenario grids,
 * and name shards 1..N exactly once; the `"engine"` field may read
 * `"calendar"` or the retired `"heap"` (the same pop order). With an
 * @p outputPath, each manifest's `output` locates its shard's `.gtrj`
 * (next to the manifest first, as `--verify` finds it), which must
 * hold every record of its shard's plan and nothing else — a short or
 * torn shard is refused with a hint to `--resume` it, a frame of
 * another sweep as such. Only once every shard has passed is the
 * output written, atomically, in the format its extension picks; the
 * merged manifest at @p manifestPath (may be empty) comes last. It
 * reads `"calendar"`, drops the shard object and records
 * @p outputPath (may be empty: shards run with `--manifest` only),
 * which makes it byte-identical to the manifest of an unsharded run.
 * @param diag human-readable progress and errors.
 * @return true iff every requested file was written.
 */
bool mergeShards(const ScenarioRegistry &registry,
                 const std::vector<std::string> &manifests,
                 const std::string &outputPath,
                 const std::string &manifestPath, std::ostream &diag);

/**
 * Replay an archived manifest and byte-compare the regenerated
 * trajectory against the archived one (the manifest's `output` path,
 * resolved next to the manifest first). @p engine supplies the worker
 * pool (any job count: records are index-slotted).
 * @return true iff every record matches byte for byte.
 */
bool verifyManifest(const ScenarioRegistry &registry,
                    const ExperimentEngine &engine,
                    const std::string &manifestPath,
                    std::ostream &diag);

} // namespace gals::runner

#endif // RUNNER_MERGE_HH
