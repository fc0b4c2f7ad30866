/**
 * @file
 * Warm-state checkpointing: serialize the long-lived
 * microarchitectural state of a machine that has committed a warmup
 * prefix, and restore it into fresh machines so sweep cells sharing
 * the same warmup stem pay for it once (RunConfig::warmupInstructions,
 * `galsbench --warmup-insts K`).
 *
 * ## The split and the contract
 *
 * A run with warmupInstructions = W and instructions = N executes
 * W instructions under the *canonical warmup configuration* (DVFS
 * neutral, clock-phase seed following the workload seed, dynamic
 * DVFS and the interval meter off), drains the pipeline to total
 * quiescence, snapshots, then runs the remaining N - W instructions
 * on a fresh event queue under the cell's own DVFS / phases / meter.
 * Statistics, energy and simulated time cover the measured region
 * only.
 *
 * Every warm run — including the very first, "cold" one — goes
 * through serialize -> deserialize: the producer's machine is only
 * ever used to make bytes, and the measured machine is always a
 * fresh construction restored from those bytes. Memoized and
 * non-memoized runs of the same configuration therefore execute
 * byte-identical instruction-by-instruction trajectories at any job
 * count: the contract holds by construction, not by careful
 * bookkeeping.
 *
 * ## Keying and sharing
 *
 * warmupKeyHash() hashes exactly the warmup-relevant subset of a
 * RunConfig — benchmark, W, workload seed, GALS mode and the
 * run-defining processor scalars — by reusing runConfigHash() over
 * canonicalWarmupConfig(). Cells that differ only in DVFS setting,
 * phase seed, dynamic-DVFS flag, meter period or total instruction
 * count share one key and one snapshot.
 *
 * Snapshots are memoized in a process-wide cache (one producer per
 * key, concurrent requesters block on its completion) and never
 * leave the process: each shard or resumed run produces the stems
 * it needs itself, so snapshot bytes are only ever restored by the
 * process that made them.
 */

#ifndef CORE_SNAPSHOT_HH
#define CORE_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/experiment.hh"

namespace gals
{

/** Warm-snapshot container format version (header field; bumped on
 *  any layout change — readers reject other versions). */
constexpr std::uint64_t snapshotFormatVersion = 1;

/**
 * The configuration a warmup snapshot for @p cfg is produced under:
 * @p cfg with instructions = warmupInstructions, DVFS neutralized,
 * the phase seed following the workload seed, dynamic DVFS and the
 * interval meter off, and warmupInstructions itself cleared. The
 * single point defining which axes share a warmup stem.
 */
RunConfig canonicalWarmupConfig(const RunConfig &cfg);

/**
 * Stable 64-bit key of the warmup-relevant subset of @p cfg:
 * runConfigHash() of canonicalWarmupConfig(). Identical across
 * machines and job counts.
 */
std::uint64_t warmupKeyHash(const RunConfig &cfg);

/**
 * Run the canonical warmup for @p cfg from scratch and serialize the
 * quiescent machine. Deterministic: same cfg, same bytes. Does not
 * consult or populate any cache.
 */
std::string produceWarmupSnapshot(const RunConfig &cfg);

/**
 * Snapshot bytes for @p cfg's warmup stem: from the in-process
 * cache, else produced by produceWarmupSnapshot() and cached.
 * Thread-safe; concurrent calls for one key produce once.
 */
std::shared_ptr<const std::string> acquireWarmupSnapshot(
    const RunConfig &cfg);

/**
 * Restore warm state from @p bytes into the freshly constructed
 * @p proc, checking the header (magic, format version, simulator
 * version, warmup key of @p cfg) and every structural field on the
 * way. Returns false and sets @p err on any mismatch or truncation;
 * @p proc is then partially mutated and must be discarded.
 */
bool restoreWarmMachine(Processor &proc, const RunConfig &cfg,
                        std::string_view bytes, std::string *err);

/** Drop every memoized snapshot (tests and benchmark cold legs). */
void clearSnapshotCache();

} // namespace gals

#endif // CORE_SNAPSHOT_HH
