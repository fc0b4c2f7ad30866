/**
 * @file
 * Shard fan-in and archive replay: `--merge` and `--verify`.
 *
 * Both start from manifests, and a manifest is checked the way its
 * trajectory is: its inputs are read (sweep options, scenario names,
 * the trajectory it describes), the sweep is planned from them
 * (planSweep(), runner/trajectory.hh), and the manifest that plan
 * writes (writeManifest()) must equal the file byte for byte, before
 * any record is read or simulated. Nothing the writer works out
 * (grids, run counts, config hashes, output format) is parsed, so an
 * edit to any byte is a mismatch, reported as the first differing
 * lines, archived against expected.
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
 * Merge the shards named by the shard manifests @p manifests. Each
 * manifest must re-render from its own plan, all of them must render
 * the same once their shard object and output are dropped, and they
 * must name shards 1..N exactly once; the `"engine"` field may read
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
 * Replay an archived manifest: re-render it from its plan and
 * byte-compare, then byte-compare the regenerated trajectory against
 * the archived one (the manifest's `output` path, resolved next to
 * the manifest first). @p engine supplies the worker pool (any job
 * count: records are index-slotted).
 * @return true iff the manifest and every record match byte for byte.
 */
bool verifyManifest(const ScenarioRegistry &registry,
                    const ExperimentEngine &engine,
                    const std::string &manifestPath,
                    std::ostream &diag);

} // namespace gals::runner

#endif // RUNNER_MERGE_HH
