/**
 * @file
 * Sweep plans and their record stream: which records a sweep
 * consists of, how they are written, and how a file is checked
 * against them.
 *
 * planSweep() is the one definition of a sweep's records: per
 * scenario, its manifest entry (the canonical full grid) and the runs
 * one invocation executes — a shard's round-robin slice or the whole
 * replicated grid — with their canonical grid indices. A run streams
 * the plan's records into a TrajectorySink (runSliceStreamed()),
 * `--resume` and `--merge` check a file against the plan
 * (scanResume()), and `--verify` replays it (runner/merge.hh).
 *
 * TrajectorySink encodes every record as a gtrj frame
 * (runner/gtrj.hh). A `.gtrj` output is flushed frame by frame; a
 * `.jsonl`, `.json` or `.csv` output keeps its frames in memory and is
 * rendered once, at close(), through renderTrajectory() — the path
 * `parse` and `--merge` take too — and written atomically.
 * `--manifest PATH` additionally writes a run manifest describing the
 * whole evaluation (galssim version, engine, instruction budget,
 * seeds, shard, and per-scenario grid sizes + config hashes).
 *
 * Both files are deliberately free of timestamps, hostnames and job
 * counts: re-running the same sweep on any machine at any `--jobs`
 * must produce byte-identical bytes, so an archived evaluation can be
 * verified with `cmp` (or `galsbench --verify MANIFEST`).
 *
 * Shard files are `.gtrj`, with the same frame bytes they would have
 * unsharded — each record carries its canonical grid index — so
 * `galsbench --merge` can interleave N complete shards into the
 * canonical single-machine trajectory in any of the three formats.
 * The shard manifest records the canonical per-scenario grid (full
 * grid size and full-grid config hash) plus a `shard` object naming
 * the slice.
 *
 * Crash safety: a gtrj run appends and flushes one frame per record
 * in canonical order (TrajectorySink::appendOne()), so a SIGKILL at
 * any instant leaves a valid frame prefix plus at most one torn
 * frame, and the manifest is written last, atomically. `--resume`
 * continues such a run: resumeTrajectory() keeps the prefix that
 * matches the plan and the run appends the rest.
 */

#ifndef RUNNER_TRAJECTORY_HH
#define RUNNER_TRAJECTORY_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"

namespace gals::runner
{

class ExperimentEngine;
class ScenarioRegistry;
struct Scenario;
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
 * Render a gtrj buffer (header + frames) in @p format: the frames
 * themselves for gtrj, gtrj::toJsonLines() or gtrj::toCsv() for the
 * text formats — byte-identical to what the native reporters write.
 * @return false with @p err set on a torn or undecodable buffer.
 */
bool renderTrajectory(std::string_view frames, TrajectoryFormat format,
                      std::string &out, std::string &err);

/**
 * Where a run's records go, one gtrj frame per record in canonical
 * order. Write errors are fatal as soon as they happen, rather than
 * after the rest of the sweep has been simulated.
 */
class TrajectorySink
{
  public:
    /** An in-memory sink: frames() collects the records (how
     *  `--verify` replays an archive). */
    TrajectorySink();

    /**
     * A sink writing @p path, whose extension picks the format. A
     * `.gtrj` file is opened now (fatal if it cannot be) and gets the
     * file header — in append mode only when the file is empty, i.e.
     * new or cut to nothing by resumeTrajectory() because even its
     * header was torn. Any other file is written at close().
     * @param appendMode keep existing contents and append (a
     *     `--resume` run extends the kept frame prefix); gtrj only.
     */
    explicit TrajectorySink(const std::string &path,
                            bool appendMode = false);

    /**
     * Append ONE record; a `.gtrj` file has it flushed to disk before
     * this returns. This is the crash-safety primitive behind
     * `--resume`: a run streaming its records in canonical order loses
     * at most the one being written when it is killed, and the
     * surviving prefix is a valid frame prefix the resume scan keeps.
     * @param canonicalIndex the record's index in the unsharded grid.
     */
    void appendOne(const std::string &scenario, const RunConfig &cfg,
                   const RunResults &result,
                   std::size_t canonicalIndex);

    /** Close a `.gtrj` file, or render a text file from the frames
     *  and write it atomically; fatal on any write error. */
    void close();

    /** The file header and frames of a sink that is not a `.gtrj`
     *  file. */
    const std::string &frames() const { return frames_; }

  private:
    std::string path_; ///< empty: in memory
    TrajectoryFormat format_ = TrajectoryFormat::gtrj;
    std::ofstream file_; ///< a `.gtrj` file, flushed per record
    std::string frames_;
};

/** The `"engine"` value every manifest records: the event queue's
 *  one pop order. Readers also accept `"heap"`, the retired backend
 *  that popped in the same order. */
inline constexpr const char *manifestEngineName = "calendar";

/** One executed scenario as recorded in a manifest. */
struct ManifestScenario
{
    std::string name;           ///< scenario key, e.g. "fig05"
    std::size_t gridSize = 0;   ///< runs per replica (full grid)
    std::size_t replicas = 0;   ///< seed replications
    std::uint64_t configHash = 0; ///< runConfigHash of the full grid
};

/** Most runs one invocation may plan, summed over its scenarios
 *  (grid times replicas): 150x the 419 runs of `--all`. A larger plan
 *  is refused before its grids are expanded past one replica. */
inline constexpr std::size_t maxPlannedRuns = std::size_t(1) << 16;

/** One scenario of a sweep plan. */
struct PlannedScenario
{
    const Scenario *scenario = nullptr;
    ManifestScenario manifest;        ///< the canonical full grid
    std::vector<RunConfig> runs;      ///< the runs this invocation executes
    std::vector<std::size_t> indices; ///< their canonical grid indices
};

/** An invocation's scenarios, in execution order; its records are
 *  each scenario's runs in order. */
using SweepPlan = std::vector<PlannedScenario>;

/**
 * Plan @p names under @p opts: expand each scenario's replicated grid
 * once, hash it for the manifest entry and keep the shard's slice
 * (opts.shard) or the whole grid. Every fabric run must pass
 * FabricConfig::validate() and may not carry a warmup split.
 * @return false with @p err set on an unknown scenario, an invalid
 *     fabric run, or more than maxPlannedRuns runs.
 */
bool planSweep(const ScenarioRegistry &registry,
               const std::vector<std::string> &names,
               const SweepOptions &opts, SweepPlan &plan,
               std::string &err);

/** The number of records @p plan writes. */
std::size_t plannedRecords(const SweepPlan &plan);

/**
 * Run @p p's runs on @p engine; results come back in plan order. With
 * a @p sink, every finished run is appended in canonical order the
 * moment it and all its predecessors are done, so a crash at any
 * instant loses at most the record being written. The first @p skip
 * runs (kept on disk by `--resume`) are neither re-simulated nor
 * re-written; their result slots stay empty.
 */
std::vector<RunResults> runSliceStreamed(const ExperimentEngine &engine,
                                         const PlannedScenario &p,
                                         TrajectorySink *sink = nullptr,
                                         std::size_t skip = 0);

/** The valid prefix scanResume() found. */
struct ResumeScan
{
    std::size_t records = 0; ///< the plan's records already in the file
    /** Length of the file that holds them; 0 when not even the
     *  header is intact (the reopened sink writes a new one). */
    std::uint64_t bytes = 0;
};

/**
 * Scan the (possibly crash-truncated) gtrj bytes @p text against the
 * records of @p plan. The kept prefix is the file header plus the
 * longest run of frames that decode and re-encode byte for byte:
 * gtrj::encodeRecord() of the planned scenario, index and config with
 * the decoded results must reproduce the frame, so configs are
 * compared exactly. A torn or undecodable frame ends the prefix (it
 * and everything after it is the tail to cut); a torn header keeps
 * nothing. Nothing is allocated from a length read from the bytes.
 * @return false with @p err set when the bytes hold another sweep: a
 *     foreign header, a frame that decodes but does not match, or
 *     records past the plan's end.
 */
bool scanResume(std::string_view text, const SweepPlan &plan,
                ResumeScan &out, std::string &err);

/** scanResume() of the file at @p path (a missing file is an empty
 *  prefix), then cut it to the kept prefix, ready for an append-mode
 *  TrajectorySink. @p kept receives the number of planned records
 *  already on disk. On false the file is untouched. */
bool resumeTrajectory(const std::string &path, const SweepPlan &plan,
                      std::size_t &kept, std::string &err);

/**
 * Write the run manifest as deterministic pretty-printed JSON: fixed
 * key order, no timestamps or host details. The `"engine"` field is
 * always manifestEngineName. @p outputPath is the trajectory file
 * this manifest describes (empty when --output was not given). A
 * sharded sweep (opts.shard.active()) additionally records a
 * `"shard": {"index": i, "count": N}` object; the scenario
 * entries always describe the canonical full grid, so N shard
 * manifests differ from the unsharded manifest only by the shard
 * object and the output path — which is what lets `--merge` fuse
 * them back byte-identically.
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
