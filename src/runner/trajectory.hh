/**
 * @file
 * Sweep persistence: trajectory files and run manifests.
 *
 * `galsbench --output PATH` streams the raw per-run records of every
 * executed scenario into one trajectory file — JSON lines, CSV or
 * binary gtrj frames (runner/gtrj.hh), by PATH's extension — through
 * the TrajectorySink below. `--manifest PATH` additionally writes a
 * run manifest describing the whole evaluation (galssim version,
 * engine, instruction budget, seeds, shard, and per-scenario grid
 * sizes + config hashes).
 *
 * Both files are deliberately free of timestamps, hostnames and job
 * counts: re-running the same sweep on any machine at any `--jobs`
 * must produce byte-identical bytes, so an archived evaluation can be
 * verified with `cmp` (or `galsbench --verify MANIFEST`).
 *
 * Sharded sweeps (`--shard i/N`) write gtrj only, with the same frame
 * bytes they would unsharded — each record carries its canonical grid
 * index — so `galsbench --merge` can reassemble N shard files into
 * the canonical single-machine trajectory in any of the three
 * formats (runner/merge.hh). The text writers serve unsharded runs
 * and `--verify` replays, including those of text-shard manifests
 * archived by older builds. The shard manifest records the canonical
 * per-scenario grid (full grid size and full-grid config hash) plus
 * a `shard` object naming the slice.
 */

#ifndef RUNNER_TRAJECTORY_HH
#define RUNNER_TRAJECTORY_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace gals::runner
{

struct SweepOptions;

/** On-disk record format of a trajectory file. */
enum class TrajectoryFormat
{
    jsonLines, ///< one JSON object per run per line
    csv,       ///< one header row, then one row per run
    gtrj,      ///< binary frames (runner/gtrj.hh)
};

/** Format implied by a `--output` path: `.csv` → csv, `.gtrj` →
 *  gtrj, anything else (including `.json` / `.jsonl`) → JSON lines.
 *  Lenient by design — existing extensionless archives stay
 *  readable; the CLI validates new paths with
 *  trajectoryFormatForCliPath() instead. */
TrajectoryFormat trajectoryFormatForPath(const std::string &path);

/** Strict CLI-side parse of a `--output` path: true with @p out set
 *  for the known extensions (`.jsonl` / `.json` / `.csv` / `.gtrj`),
 *  false for anything else — the caller rejects with usage instead
 *  of silently writing JSON lines to a surprising filename. */
bool trajectoryFormatForCliPath(const std::string &path,
                                TrajectoryFormat &out);

/** Short format name for manifests: "jsonl", "csv" or "gtrj". */
const char *trajectoryFormatName(TrajectoryFormat format);

/**
 * An open trajectory file accepting one scenario's finished grid (or
 * shard slice) at a time. Rows are the raw per-run records
 * (per-replica for multi-seed sweeps) in engine order, so the file is
 * byte-identical for any job count. The CSV header is written once,
 * before the first rows.
 *
 * Write errors are detected eagerly: append() fails fatal as soon as
 * the stream goes bad (disk full, unwritable path), rather than
 * burning the rest of the sweep and only noticing at close().
 */
class TrajectorySink
{
  public:
    /**
     * Open @p path; fatal if the file cannot be created. A gtrj sink
     * writes the file header on open (append mode: only when the
     * file is empty, i.e. a fresh slice or a resume scan that
     * truncated everything including a torn header).
     * @param appendMode keep existing contents and append (the
     *     dispatch orchestrator's resumed workers extend a salvaged
     *     frame prefix); gtrj only.
     */
    explicit TrajectorySink(const std::string &path,
                            bool appendMode = false);

    /**
     * Write to a caller-owned stream instead of a file — this is how
     * `--verify` regenerates an archived trajectory in memory before
     * byte-comparing it. @p path is used in error messages only.
     */
    TrajectorySink(std::ostream &os, TrajectoryFormat format,
                   const std::string &path = "<stream>");

    /**
     * Append one scenario's cfgs/results (parallel vectors).
     * @p indices, when given, are the canonical grid indices of a
     * shard slice (see writeJsonLines()).
     */
    void append(const std::string &scenario,
                const std::vector<RunConfig> &cfgs,
                const std::vector<RunResults> &results,
                const std::vector<std::size_t> *indices = nullptr);

    /**
     * Append ONE record and flush it to disk before returning (gtrj
     * only). This is the crash-safety primitive behind `galsbench
     * dispatch`: a worker streaming records through appendOne() in
     * canonical order loses at most the one record being written
     * when it is killed, and the surviving prefix is a valid frame
     * prefix the orchestrator's resume scan can keep.
     * @param canonicalIndex the record's index in the unsharded grid.
     */
    void appendOne(const std::string &scenario, const RunConfig &cfg,
                   const RunResults &result,
                   std::size_t canonicalIndex);

    /** Flush and verify the stream; fatal on any write error. Safe
     *  to call more than once. Caller-owned streams are flushed but
     *  not closed. */
    void close();

    const std::string &path() const { return path_; }
    TrajectoryFormat format() const { return format_; }

  private:
    std::string path_;
    TrajectoryFormat format_;
    std::ofstream file_;
    std::ostream *os_; ///< &file_, or the caller's stream
    bool wroteHeader_ = false;
};

/** The `"engine"` value every manifest and dispatch plan line
 *  records: the event queue's one pop order. Readers also accept
 *  `"heap"`, the retired backend that popped in the same order. */
inline constexpr const char *manifestEngineName = "calendar";

/** One executed scenario as recorded in a manifest. */
struct ManifestScenario
{
    std::string name;           ///< scenario key, e.g. "fig05"
    std::size_t gridSize = 0;   ///< runs per replica (full grid)
    std::size_t replicas = 0;   ///< seed replications
    std::uint64_t configHash = 0; ///< runConfigHash of the full grid
};

/**
 * Write the run manifest as deterministic pretty-printed JSON: fixed
 * key order, no timestamps or host details. The `"engine"` field is
 * always manifestEngineName. @p outputPath is the trajectory file
 * this manifest describes (empty when --output was not given). A
 * sharded sweep (opts.shard.active()) additionally records a
 * `"shard": {"index": i, "count": N}` object; the scenario
 * entries always describe the canonical full grid, so N shard
 * manifests differ from the unsharded manifest only by the shard
 * object and the output path — which is what lets
 * `--merge-manifest` fuse them back byte-identically.
 */
void writeManifest(std::ostream &os, const SweepOptions &opts,
                   const std::string &outputPath,
                   const std::vector<ManifestScenario> &scenarios);

/** writeManifest() to @p path via temp-file + atomic rename, so a
 *  crash mid-write never leaves a torn manifest — either the old
 *  file survives intact or the new one is complete. Fatal on any IO
 *  error. */
void writeManifestFile(const std::string &path,
                       const SweepOptions &opts,
                       const std::string &outputPath,
                       const std::vector<ManifestScenario> &scenarios);

} // namespace gals::runner

#endif // RUNNER_TRAJECTORY_HH
