/**
 * @file
 * Crash-safe sweep orchestration: `galsbench dispatch`.
 *
 * PR 4 built the passive substrate for multi-machine sweeps —
 * `--shard i/N` slices, `--merge` fan-in, `--verify` replay. The
 * orchestrator is the active control plane on top: it splits every
 * selected scenario's grid into M round-robin slices, launches
 * `galsbench --shard i/M` worker subprocesses (up to W at a time),
 * and drives them to completion through a slice state machine that
 * survives anything short of losing the disk:
 *
 *   pending --launch--> running --exit 0 + complete file--> done
 *      ^                   |
 *      |   crash / bad exit / straggler kill (capped exponential
 *      +---backoff---------+  backoff; attempts > cap => failed)
 *
 * Crash safety rests on three artifacts next to the output, in
 * `<output>.dispatch/`:
 *
 *  - `slice_<i>.gtrj` / `slice_<i>.manifest.json` — each worker
 *    streams records one flushed gtrj frame at a time in canonical
 *    slice order, whatever the output's format, so a SIGKILL at any
 *    instant costs at most one (truncated) trailing record. The
 *    slice manifest is written atomically after the last record, so
 *    its existence marks the slice complete.
 *  - `journal.jsonl` — append-only state-transition journal. Its
 *    first line records the full sweep plan; a resumed dispatch
 *    refuses to continue a journal whose plan differs from its own
 *    flags (pass --fresh to discard the old state instead).
 *  - `status.json` — progress snapshot (runs/sec, slices done,
 *    retries, ETA, per-benchmark stats), rewritten periodically via
 *    temp-file + atomic rename.
 *
 * Resume: on startup every existing slice file is scanned against
 * the slice's expected (scenario, canonical-index) sequence; the
 * valid prefix is kept (a truncated or mismatching tail is cut off
 * with truncate(2)) and the worker is relaunched with
 * `--resume-skip K` so it appends only the missing records. Slices
 * whose records and manifest are already complete are not re-run at
 * all.
 *
 * Stragglers: once at least one slice has finished, a running slice
 * older than max(minDeadlineMs, stragglerFactor x median finished
 * slice time) is SIGKILLed and re-dispatched (counting against the
 * same attempt cap). Re-dispatch is idempotent: the records the
 * straggler did flush are kept and skipped.
 *
 * When every slice is done the existing merge machinery
 * (runner/merge.hh) fans the slice manifests and frames back into
 * the canonical unsharded files, rendering a `.jsonl`/`.csv` output
 * through the parse path — cmp-identical to a single-machine
 * `--jobs 1` run in every format.
 */

#ifndef RUNNER_ORCHESTRATOR_HH
#define RUNNER_ORCHESTRATOR_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/fault.hh"
#include "runner/scenario.hh"

namespace gals::runner
{

/** Retry / straggler policy of one dispatch. */
struct DispatchPolicy
{
    /** Launches per slice before the dispatch gives up. */
    unsigned maxAttempts = 3;

    /** Backoff before retry k (1-based) is
     *  min(backoffCapMs, backoffBaseMs << (k-1)). */
    std::uint64_t backoffBaseMs = 500;
    std::uint64_t backoffCapMs = 8000;

    /** Straggler deadline = max(minDeadlineMs, stragglerFactor x
     *  median finished-slice wall time). No deadline until the
     *  first slice finishes (there is no median to trust). */
    double stragglerFactor = 4.0;
    std::uint64_t minDeadlineMs = 30000;
};

/** Lifecycle of one slice. */
enum class SliceState
{
    pending, ///< waiting for a worker (possibly in backoff)
    running, ///< a worker is executing it
    done,    ///< records + manifest complete on disk
    failed,  ///< attempts exhausted
};

/**
 * The dispatch slice state machine, pure and time-injected (all
 * "now" values are caller-supplied milliseconds on one monotonic
 * clock), so retry caps, backoff schedules and straggler deadlines
 * are unit-testable without processes or sleeps.
 */
class DispatchTracker
{
  public:
    DispatchTracker(std::size_t slices, DispatchPolicy policy);

    /** Mark a slice complete before any launch (resume found its
     *  records + manifest already on disk). Contributes no duration
     *  to the straggler median. */
    void markDone(std::size_t slice);

    /** The lowest-index pending slice whose backoff has elapsed, or
     *  nullopt. Does not change state — pair with onLaunched(). */
    std::optional<std::size_t> nextDispatch(std::uint64_t nowMs) const;

    /** A worker was started for @p slice (counts one attempt). */
    void onLaunched(std::size_t slice, std::uint64_t nowMs);

    /** The slice's worker exited cleanly and its artifacts are
     *  complete; records the duration for the straggler median. */
    void onFinished(std::size_t slice, std::uint64_t nowMs);

    /**
     * The slice's attempt failed (crash, non-zero exit, straggler
     * kill, incomplete output). Below the attempt cap the slice
     * returns to pending, eligible again after the capped
     * exponential backoff; at the cap it becomes failed.
     */
    void onFailed(std::size_t slice, std::uint64_t nowMs);

    /**
     * Running slices whose attempt started more than deadlineMs()
     * ago. Pure: calling it twice returns the same set; a slice
     * leaves the set only via onFailed()/onFinished(). Empty while
     * deadlineMs() == 0.
     */
    std::vector<std::size_t> stragglers(std::uint64_t nowMs) const;

    /** Current straggler deadline in ms, or 0 while no slice has
     *  finished yet. */
    std::uint64_t deadlineMs() const;

    /** Median wall time of finished slices (0 if none). */
    std::uint64_t medianDurationMs() const;

    /** Backoff delay after @p failures failures (1-based). */
    std::uint64_t backoffDelayMs(unsigned failures) const;

    SliceState state(std::size_t slice) const;
    unsigned attempts(std::size_t slice) const;
    /** Earliest time a pending slice may relaunch. */
    std::uint64_t eligibleAtMs(std::size_t slice) const;

    std::size_t size() const { return slices_.size(); }
    std::size_t countIn(SliceState s) const;
    bool allDone() const;
    /** True once any slice has exhausted its attempts. */
    bool anyExhausted() const { return countIn(SliceState::failed) > 0; }

  private:
    struct Slice
    {
        SliceState state = SliceState::pending;
        unsigned attempts = 0;
        std::uint64_t eligibleAtMs = 0;
        std::uint64_t startedMs = 0;
    };

    DispatchPolicy policy_;
    std::vector<Slice> slices_;
    std::vector<std::uint64_t> durationsMs_; ///< finished slices
};

/** One expected record of a slice file: which scenario, which
 *  canonical grid index. */
struct SliceExpectation
{
    std::string scenario;
    std::uint64_t index = 0;
};

/** Per-record stats harvested while scanning (for status.json's
 *  per-benchmark figures). */
struct RecordStat
{
    std::string benchmark;
    double timeSec = 0.0;
};

/** What scanSliceRecords() found. */
struct SliceScan
{
    std::size_t validRecords = 0; ///< matching prefix length
    std::uint64_t validBytes = 0; ///< offset just past that prefix
    bool trimmedTail = false;     ///< bytes past the prefix exist
};

/**
 * Scan a (possibly partial, possibly crash-truncated) gtrj slice
 * trajectory at @p path against its expected record sequence. The
 * valid prefix is the file header plus the run of complete frames
 * that decode as records and match @p expected position for
 * position; anything after it — a torn trailing frame from a
 * mid-write crash, a corrupted or foreign record, records past the
 * expectation — is reported via trimmedTail so the caller can
 * truncate(2) to validBytes and resume from validRecords. A missing
 * file scans as an empty valid prefix.
 * @param stats when non-null, appends one RecordStat per valid
 *     record.
 * @return false only on an I/O error reading an existing file.
 */
bool scanSliceRecords(const std::string &path,
                      const std::vector<SliceExpectation> &expected,
                      SliceScan &out, std::string &err,
                      std::vector<RecordStat> *stats = nullptr);

/** Everything `galsbench dispatch` needs to run one sweep. */
struct DispatchOptions
{
    /** Resolved scenario names, in execution order. */
    std::vector<std::string> scenarios;

    /** Sweep shape (instructions, seeds, benchmarks); the shard
     *  field is ignored — dispatch owns the slicing. */
    SweepOptions sweep;

    /** Final merged trajectory; its extension picks the format, as
     *  for `--merge`. The work directory is
     *  `<outputPath>.dispatch/`. */
    std::string outputPath;

    /** Final merged manifest; empty keeps it inside the work
     *  directory (the merge still needs it as the completeness
     *  cross-check). */
    std::string manifestPath;

    /** The galsbench binary workers exec. */
    std::string workerBinary;

    unsigned slices = 0;  ///< M; 0 = the resolved worker count
    unsigned workers = 0; ///< concurrent workers; 0 = hardware
    unsigned workerJobs = 1; ///< --jobs inside each worker

    DispatchPolicy policy;

    /** status.json rewrite cadence. */
    std::uint64_t statusIntervalMs = 1000;

    /** Discard any existing work directory instead of resuming. */
    bool fresh = false;

    /** Warm-snapshot exchange directory (`--snapshot-dir`),
     *  forwarded to every worker so slices share warmup stems on
     *  disk — including across an orchestrator crash and resume.
     *  Not run-defining: it never appears in the plan line or any
     *  manifest. Empty = workers memoize in-process only. */
    std::string snapshotDir;

    /** TEST-ONLY: extra argv appended, last, to every worker launch
     *  (e.g. a persistent fault flag). */
    std::vector<std::string> workerArgs;

    /** TEST-ONLY: a fault injected into the FIRST attempt of the
     *  keyed slice only (1-based, matching `--shard i/M`), so fault
     *  injection exercises the retry path deterministically: attempt
     *  1 faults, attempt 2 runs clean. */
    std::map<unsigned, FaultPlan> firstAttemptFaults;
};

/** Outcome accounting, for tests and the CLI summary. */
struct DispatchReport
{
    std::size_t totalRuns = 0;       ///< records in the full sweep
    std::size_t slices = 0;          ///< M
    std::size_t launches = 0;        ///< workers actually spawned
    std::size_t retries = 0;         ///< failed attempts retried
    std::size_t stragglersKilled = 0;
    std::size_t resumedDoneSlices = 0; ///< complete before any launch
    std::size_t resumedRecords = 0;  ///< records salvaged on startup
    std::size_t recordsRun = 0;      ///< totalRuns - resumedRecords
    std::vector<unsigned> sliceAttempts; ///< per slice, this run
};

/**
 * Run one dispatch to completion (or to failure). Returns true iff
 * every slice completed and the merged trajectory (and manifest)
 * were written. Diagnostics and progress lines go to @p diag;
 * machine-readable progress goes to `<output>.dispatch/status.json`.
 */
bool runDispatch(const ScenarioRegistry &registry,
                 const DispatchOptions &options, std::ostream &diag,
                 DispatchReport *report = nullptr);

} // namespace gals::runner

#endif // RUNNER_ORCHESTRATOR_HH
