#include "runner/orchestrator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "runner/atomic_file.hh"
#include "runner/cli.hh"
#include "runner/gtrj.hh"
#include "runner/json.hh"
#include "runner/merge.hh"
#include "runner/reporter.hh"
#include "runner/trajectory.hh"
#include "runner/worker_proc.hh"

namespace gals::runner
{

// ---------------------------------------------------------------------------
// DispatchTracker

DispatchTracker::DispatchTracker(std::size_t slices,
                                 DispatchPolicy policy)
    : policy_(policy), slices_(slices)
{
}

void
DispatchTracker::markDone(std::size_t slice)
{
    slices_.at(slice).state = SliceState::done;
}

std::optional<std::size_t>
DispatchTracker::nextDispatch(std::uint64_t nowMs) const
{
    for (std::size_t i = 0; i < slices_.size(); ++i) {
        const Slice &s = slices_[i];
        if (s.state == SliceState::pending && s.eligibleAtMs <= nowMs)
            return i;
    }
    return std::nullopt;
}

void
DispatchTracker::onLaunched(std::size_t slice, std::uint64_t nowMs)
{
    Slice &s = slices_.at(slice);
    s.state = SliceState::running;
    s.attempts += 1;
    s.startedMs = nowMs;
}

void
DispatchTracker::onFinished(std::size_t slice, std::uint64_t nowMs)
{
    Slice &s = slices_.at(slice);
    s.state = SliceState::done;
    durationsMs_.push_back(nowMs - s.startedMs);
}

void
DispatchTracker::onFailed(std::size_t slice, std::uint64_t nowMs)
{
    Slice &s = slices_.at(slice);
    if (s.attempts >= policy_.maxAttempts) {
        s.state = SliceState::failed;
        return;
    }
    s.state = SliceState::pending;
    s.eligibleAtMs = nowMs + backoffDelayMs(s.attempts);
}

std::vector<std::size_t>
DispatchTracker::stragglers(std::uint64_t nowMs) const
{
    std::vector<std::size_t> out;
    const std::uint64_t deadline = deadlineMs();
    if (deadline == 0)
        return out;
    for (std::size_t i = 0; i < slices_.size(); ++i) {
        const Slice &s = slices_[i];
        if (s.state == SliceState::running &&
            nowMs - s.startedMs > deadline)
            out.push_back(i);
    }
    return out;
}

std::uint64_t
DispatchTracker::deadlineMs() const
{
    const std::uint64_t median = medianDurationMs();
    if (median == 0 && durationsMs_.empty())
        return 0;
    const double scaled =
        policy_.stragglerFactor * static_cast<double>(median);
    // Converting a NaN or a double past 2^64 to an integer is
    // undefined: a NaN factor falls back to the floor, and a huge one
    // saturates (no slice is ever a straggler).
    constexpr double limit = 18446744073709551616.0; // 2^64
    std::uint64_t byMedian = 0;
    if (scaled >= limit)
        byMedian = std::numeric_limits<std::uint64_t>::max();
    else if (scaled > 0)
        byMedian = static_cast<std::uint64_t>(scaled);
    return std::max(policy_.minDeadlineMs, byMedian);
}

std::uint64_t
DispatchTracker::medianDurationMs() const
{
    if (durationsMs_.empty())
        return 0;
    std::vector<std::uint64_t> sorted = durationsMs_;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    if (n % 2 == 1)
        return sorted[n / 2];
    return (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
}

std::uint64_t
DispatchTracker::backoffDelayMs(unsigned failures) const
{
    if (failures == 0 || policy_.backoffBaseMs == 0)
        return 0;
    std::uint64_t delay = policy_.backoffBaseMs;
    for (unsigned k = 1;
         k < failures && delay < policy_.backoffCapMs; ++k)
        delay *= 2;
    return std::min(delay, policy_.backoffCapMs);
}

SliceState
DispatchTracker::state(std::size_t slice) const
{
    return slices_.at(slice).state;
}

unsigned
DispatchTracker::attempts(std::size_t slice) const
{
    return slices_.at(slice).attempts;
}

std::uint64_t
DispatchTracker::eligibleAtMs(std::size_t slice) const
{
    return slices_.at(slice).eligibleAtMs;
}

std::size_t
DispatchTracker::countIn(SliceState s) const
{
    std::size_t n = 0;
    for (const Slice &slice : slices_)
        if (slice.state == s)
            ++n;
    return n;
}

bool
DispatchTracker::allDone() const
{
    return countIn(SliceState::done) == slices_.size();
}

// ---------------------------------------------------------------------------
// Slice-file scanning

namespace
{

/** The gtrj arm of scanSliceRecords(): the valid prefix is the file
 *  header plus the run of complete frames that decode and match the
 *  expectation, so a resumed worker's append continues mid-file
 *  exactly where truncate(2) cut. A torn or missing header salvages
 *  nothing (validBytes 0 — the reopened sink writes a fresh one). */
bool
scanGtrjSliceRecords(const std::string &path,
                     const std::vector<SliceExpectation> &expected,
                     SliceScan &out, std::string &err,
                     std::vector<RecordStat> *stats)
{
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is) {
        // A never-written slice scans as an empty valid prefix.
        return true;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    if (is.bad()) {
        err = "error reading '" + path + "'";
        return false;
    }
    const std::string text = buf.str();

    std::size_t pos = 0;
    std::string herr;
    if (gtrj::readHeader(text, pos, herr)) {
        out.validBytes = pos;
        for (std::size_t k = 0; k < expected.size(); ++k) {
            std::string_view payload;
            std::string ferr;
            const gtrj::FrameStatus st =
                gtrj::nextFrame(text, pos, payload, ferr);
            if (st == gtrj::FrameStatus::eof)
                break;
            if (st == gtrj::FrameStatus::torn) {
                out.trimmedTail = true;
                break;
            }
            gtrj::DecodedRecord dec;
            if (!gtrj::decodePayload(payload, dec, ferr) ||
                dec.scenario != expected[k].scenario ||
                dec.index != expected[k].index) {
                // Corrupted or foreign record: everything from here
                // on is untrustworthy.
                out.trimmedTail = true;
                break;
            }
            if (stats)
                stats->push_back(
                    {dec.results.benchmark, dec.results.timeSec});
            out.validRecords += 1;
            out.validBytes = pos;
        }
    }

    if (text.size() > out.validBytes)
        out.trimmedTail = true;
    return true;
}

} // namespace

bool
scanSliceRecords(const std::string &path,
                 const std::vector<SliceExpectation> &expected,
                 SliceScan &out, std::string &err,
                 std::vector<RecordStat> *stats)
{
    out = SliceScan{};
    if (trajectoryFormatForPath(path) == TrajectoryFormat::gtrj)
        return scanGtrjSliceRecords(path, expected, out, err,
                                    stats);
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is) {
        // A never-written slice scans as an empty valid prefix.
        return true;
    }

    std::string line;
    for (std::size_t k = 0; k < expected.size(); ++k) {
        if (!std::getline(is, line)) {
            if (is.bad()) {
                err = "error reading '" + path + "'";
                return false;
            }
            break; // clean EOF: prefix simply ends here
        }
        if (is.eof()) {
            // getline hit EOF before a newline: a torn trailing
            // record from a mid-write crash. Cut it off.
            out.trimmedTail = true;
            break;
        }
        json::Value v;
        std::string perr;
        std::uint64_t index = 0;
        const json::Value *s = nullptr;
        const json::Value *i = nullptr;
        if (!json::parse(line, v, perr) ||
            !(s = v.find("scenario")) || !(i = v.find("index")) ||
            s->kind != json::Value::Kind::string ||
            !i->asU64(index) || s->str != expected[k].scenario ||
            index != expected[k].index) {
            // Corrupted or foreign record: everything from here on is
            // untrustworthy.
            out.trimmedTail = true;
            break;
        }
        if (stats) {
            RecordStat stat;
            if (const json::Value *b = v.find("benchmark"))
                stat.benchmark = b->str;
            if (const json::Value *t = v.find("time_sec"))
                stat.timeSec = t->number;
            stats->push_back(std::move(stat));
        }
        out.validRecords += 1;
        out.validBytes += line.size() + 1;
    }

    if (is.bad()) {
        err = "error reading '" + path + "'";
        return false;
    }

    // Anything past the valid prefix — a torn line, extra records
    // beyond the expectation — is tail to trim.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec && size > out.validBytes)
        out.trimmedTail = true;
    return true;
}

// ---------------------------------------------------------------------------
// runDispatch

namespace
{

std::uint64_t
monotonicNowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Everything known about one slice while the dispatch runs. */
struct SliceRuntime
{
    std::vector<SliceExpectation> expected;
    std::string recordsPath;
    std::string manifestPath;
    std::string logPath;
    WorkerProc worker;
    std::size_t resumeSkip = 0;     ///< records already on disk
    std::uint64_t launchedMs = 0;   ///< this attempt's start time
};

/** Append-only, line-flushed journal writer. */
class Journal
{
  public:
    bool open(const std::string &path, std::string &err)
    {
        os_.open(path, std::ios::out | std::ios::app |
                           std::ios::binary);
        if (!os_) {
            err = "cannot open journal '" + path + "' for writing";
            return false;
        }
        path_ = path;
        return true;
    }

    void line(const std::string &text)
    {
        os_ << text << "\n";
        os_.flush();
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream os_;
};

/** Aggregated per-benchmark latency from completed slices. */
struct BenchAgg
{
    std::size_t runs = 0;
    double totalTimeSec = 0.0;
};

std::size_t
countFileLines(const std::string &path)
{
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is)
        return 0;
    std::size_t lines = 0;
    char buf[65536];
    while (is.read(buf, sizeof(buf)) || is.gcount() > 0) {
        const std::streamsize got = is.gcount();
        for (std::streamsize i = 0; i < got; ++i)
            if (buf[i] == '\n')
                ++lines;
        if (got < static_cast<std::streamsize>(sizeof(buf)))
            break;
    }
    return lines;
}

/** Records currently in a slice file, for progress snapshots: lines
 *  for the text formats, complete frames for gtrj (a torn tail just
 *  stops the count — progress may briefly read one low, never
 *  wrong). */
std::size_t
countFileRecords(const std::string &path)
{
    if (trajectoryFormatForPath(path) != TrajectoryFormat::gtrj)
        return countFileLines(path);
    std::string text, err;
    return readFile(path, text, err) ? gtrj::countFrames(text) : 0;
}

} // namespace

bool
runDispatch(const ScenarioRegistry &registry,
            const DispatchOptions &options, std::ostream &diag,
            DispatchReport *reportOut)
{
    namespace fs = std::filesystem;

    DispatchOptions opts = options;
    if (opts.outputPath.empty()) {
        diag << "dispatch: --output PATH is required\n";
        return false;
    }
    const TrajectoryFormat outFormat =
        trajectoryFormatForPath(opts.outputPath);
    if (outFormat == TrajectoryFormat::csv) {
        diag << "dispatch: --output must be a JSON-lines or gtrj "
                "path (crash-safe streaming appends self-delimiting "
                "records; a CSV header cannot be resumed)\n";
        return false;
    }
    if (opts.scenarios.empty()) {
        diag << "dispatch: no scenario selected\n";
        return false;
    }
    if (opts.workerBinary.empty()) {
        diag << "dispatch: no worker binary\n";
        return false;
    }
    if (opts.policy.maxAttempts == 0)
        opts.policy.maxAttempts = 1;
    if (opts.workers == 0)
        opts.workers = std::thread::hardware_concurrency()
                           ? std::thread::hardware_concurrency()
                           : 1;
    if (opts.slices == 0)
        opts.slices = opts.workers;
    opts.sweep.shard = ShardSpec(); // dispatch owns the slicing

    // Expand every scenario once: the expectations below are the
    // ground truth each worker's slice file is validated against.
    struct ScenarioShape
    {
        const Scenario *scenario;
        std::size_t totalRuns;
        std::size_t gridSize;
    };
    std::vector<ScenarioShape> shapes;
    std::size_t totalRuns = 0;
    for (const std::string &name : opts.scenarios) {
        const Scenario *scenario = registry.find(name);
        if (!scenario) {
            diag << "dispatch: unknown scenario '" << name << "'\n";
            return false;
        }
        std::size_t gridSize = 0;
        const std::vector<RunConfig> runs =
            expandReplicatedRuns(*scenario, opts.sweep, &gridSize);
        shapes.push_back({scenario, runs.size(), gridSize});
        totalRuns += runs.size();
    }

    const unsigned M = opts.slices;
    const std::string workDir = opts.outputPath + ".dispatch";
    const std::string journalPath = workDir + "/journal.jsonl";
    const std::string statusPath = workDir + "/status.json";
    const std::string finalManifestPath =
        opts.manifestPath.empty() ? workDir + "/manifest.json"
                                  : opts.manifestPath;

    std::error_code ec;
    if (opts.fresh)
        fs::remove_all(workDir, ec);
    fs::create_directories(workDir, ec);
    if (ec) {
        diag << "dispatch: cannot create work directory '" << workDir
             << "': " << ec.message() << "\n";
        return false;
    }

    // One dispatch per work directory: two orchestrators appending to
    // one journal and relaunching each other's slices would corrupt
    // everything the journal is supposed to guarantee.
    const int lockFd =
        ::open(journalPath.c_str(), O_RDWR | O_CREAT, 0644);
    if (lockFd < 0) {
        diag << "dispatch: cannot open '" << journalPath
             << "': " << std::strerror(errno) << "\n";
        return false;
    }
    if (::flock(lockFd, LOCK_EX | LOCK_NB) != 0) {
        diag << "dispatch: another dispatch already owns '" << workDir
             << "' (journal is flock'd)\n";
        ::close(lockFd);
        return false;
    }
    // Lock released by process exit or the close below; a kill -9
    // releases it automatically, which is exactly what resume needs.

    // The plan line pins everything that defines the slice partition.
    // Resuming under different flags would mis-assign records.
    std::ostringstream plan;
    plan << "{\"event\":\"plan\",\"galssim_version\":"
         << jsonQuote(galssimVersion())
         << ",\"engine\":" << jsonQuote(manifestEngineName)
         << ",\"slices\":" << M
         << ",\"output\":" << jsonQuote(opts.outputPath)
         << ",\"instructions\":" << opts.sweep.instructions
         << ",\"seeds\":[";
    const std::vector<std::uint64_t> seeds = opts.sweep.seedList();
    for (std::size_t i = 0; i < seeds.size(); ++i)
        plan << (i ? "," : "") << seeds[i];
    plan << "],\"benchmarks\":[";
    for (std::size_t i = 0; i < opts.sweep.benchmarks.size(); ++i)
        plan << (i ? "," : "")
             << jsonQuote(opts.sweep.benchmarks[i]);
    plan << "]";
    // Gated like the manifest's fabric object: absent for pre-fabric
    // sweeps, so their plan lines (and thus resumability of archived
    // dispatch directories) keep their exact historical bytes.
    if (!opts.sweep.coreCounts.empty() ||
        !opts.sweep.topologies.empty() ||
        !opts.sweep.traffics.empty()) {
        plan << ",\"fabric\":{\"cores\":[";
        for (std::size_t i = 0; i < opts.sweep.coreCounts.size(); ++i)
            plan << (i ? "," : "") << opts.sweep.coreCounts[i];
        plan << "],\"topologies\":[";
        for (std::size_t i = 0; i < opts.sweep.topologies.size(); ++i)
            plan << (i ? "," : "")
                 << jsonQuote(opts.sweep.topologies[i]);
        plan << "],\"traffics\":[";
        for (std::size_t i = 0; i < opts.sweep.traffics.size(); ++i)
            plan << (i ? "," : "")
                 << jsonQuote(opts.sweep.traffics[i]);
        plan << "]}";
    }
    // Gated the same way: only metered sweeps mention the interval,
    // only warm sweeps mention the split. The snapshot directory is
    // deliberately absent — it caches, it does not define the sweep.
    if (opts.sweep.intervalTicks > 0)
        plan << ",\"interval_ticks\":" << opts.sweep.intervalTicks;
    if (opts.sweep.warmupInstructions > 0)
        plan << ",\"warmup_insts\":"
             << opts.sweep.warmupInstructions;
    plan << ",\"scenarios\":[";
    for (std::size_t i = 0; i < shapes.size(); ++i)
        plan << (i ? "," : "") << "{\"name\":"
             << jsonQuote(shapes[i].scenario->name)
             << ",\"runs\":" << shapes[i].totalRuns << "}";
    plan << "]}";
    const std::string planLine = plan.str();

    {
        std::ifstream is(journalPath,
                         std::ios::in | std::ios::binary);
        std::string firstLine;
        if (is && std::getline(is, firstLine) &&
            !firstLine.empty() && firstLine != planLine) {
            diag << "dispatch: '" << journalPath
                 << "' records a different sweep plan; resume with "
                    "the original flags or pass --fresh to discard "
                    "the previous state\n";
            ::close(lockFd);
            return false;
        }
    }

    Journal journal;
    std::string err;
    if (!journal.open(journalPath, err)) {
        diag << "dispatch: " << err << "\n";
        ::close(lockFd);
        return false;
    }
    if (fs::file_size(journalPath, ec) == 0 || ec)
        journal.line(planLine);

    // Build each slice's runtime state + expected record sequence
    // (scenario execution order, ascending canonical index within a
    // scenario — exactly the order a streaming worker flushes).
    std::vector<SliceRuntime> slices(M);
    for (unsigned i = 0; i < M; ++i) {
        SliceRuntime &rt = slices[i];
        const std::string base =
            workDir + "/slice_" + std::to_string(i + 1);
        // Slice files carry the output's format so the workers, the
        // resume scan and the final merge all agree from the path
        // alone.
        rt.recordsPath =
            base + (outFormat == TrajectoryFormat::gtrj ? ".gtrj"
                                                        : ".jsonl");
        rt.manifestPath = base + ".manifest.json";
        rt.logPath = base + ".log";
        ShardSpec shard;
        shard.index = i + 1;
        shard.count = M;
        for (const ScenarioShape &shape : shapes)
            for (std::size_t idx :
                 shardRunIndices(shape.totalRuns, shard))
                rt.expected.push_back(
                    {shape.scenario->name,
                     static_cast<std::uint64_t>(idx)});
    }

    DispatchReport report;
    report.totalRuns = totalRuns;
    report.slices = M;

    DispatchTracker tracker(M, opts.policy);
    std::map<std::string, BenchAgg> benchAgg;

    // Scan + trim every slice file: salvage the valid prefix, decide
    // which slices are already complete (records + manifest), and
    // arm --resume-skip for the rest.
    auto rescanSlice = [&](unsigned i, bool harvestStats,
                           std::string &scanErr) -> bool {
        SliceRuntime &rt = slices[i];
        SliceScan scan;
        std::vector<RecordStat> stats;
        if (!scanSliceRecords(rt.recordsPath, rt.expected, scan,
                              scanErr,
                              harvestStats ? &stats : nullptr))
            return false;
        if (scan.trimmedTail) {
            if (::truncate(rt.recordsPath.c_str(),
                           static_cast<off_t>(scan.validBytes)) !=
                0) {
                scanErr = "cannot truncate '" + rt.recordsPath +
                          "': " + std::strerror(errno);
                return false;
            }
            journal.line("{\"event\":\"trim\",\"slice\":" +
                         std::to_string(i + 1) + ",\"records\":" +
                         std::to_string(scan.validRecords) +
                         ",\"bytes\":" +
                         std::to_string(scan.validBytes) + "}");
        }
        rt.resumeSkip = scan.validRecords;
        if (harvestStats)
            for (const RecordStat &s : stats) {
                BenchAgg &agg = benchAgg[s.benchmark];
                agg.runs += 1;
                agg.totalTimeSec += s.timeSec;
            }
        return true;
    };

    for (unsigned i = 0; i < M; ++i) {
        SliceRuntime &rt = slices[i];
        std::string scanErr;
        const bool complete =
            rescanSlice(i, false, scanErr) &&
            rt.resumeSkip == rt.expected.size() &&
            fs::exists(rt.manifestPath);
        if (!scanErr.empty()) {
            diag << "dispatch: " << scanErr << "\n";
            ::close(lockFd);
            return false;
        }
        report.resumedRecords += rt.resumeSkip;
        if (complete) {
            tracker.markDone(i);
            report.resumedDoneSlices += 1;
            std::string statsErr;
            rescanSlice(i, true, statsErr); // harvest for status.json
            journal.line("{\"event\":\"resume-done\",\"slice\":" +
                         std::to_string(i + 1) + "}");
        } else if (rt.resumeSkip > 0) {
            journal.line("{\"event\":\"resume\",\"slice\":" +
                         std::to_string(i + 1) + ",\"records\":" +
                         std::to_string(rt.resumeSkip) + "}");
        }
    }
    report.recordsRun = totalRuns - report.resumedRecords;

    const std::uint64_t startMs = monotonicNowMs();
    const std::size_t recordsAtStart = report.resumedRecords;
    std::uint64_t lastStatusMs = 0;

    auto writeStatus = [&](const char *state) {
        std::size_t recordsDone = 0;
        for (unsigned i = 0; i < M; ++i)
            recordsDone +=
                tracker.state(i) == SliceState::done
                    ? slices[i].expected.size()
                    : countFileRecords(slices[i].recordsPath);
        const std::uint64_t elapsed = monotonicNowMs() - startMs;
        const double sec =
            static_cast<double>(elapsed) / 1000.0;
        const double rate =
            sec > 0.0 ? static_cast<double>(recordsDone -
                                            recordsAtStart) /
                            sec
                      : 0.0;
        const std::size_t remaining = totalRuns - recordsDone;
        std::ostringstream os;
        os << "{\n  \"state\": " << jsonQuote(state)
           << ",\n  \"slices\": {\"total\": " << M << ", \"done\": "
           << tracker.countIn(SliceState::done) << ", \"running\": "
           << tracker.countIn(SliceState::running)
           << ", \"pending\": "
           << tracker.countIn(SliceState::pending)
           << ", \"failed\": "
           << tracker.countIn(SliceState::failed) << "}"
           << ",\n  \"records\": {\"total\": " << totalRuns
           << ", \"done\": " << recordsDone << "}"
           << ",\n  \"retries\": " << report.retries
           << ",\n  \"stragglers_killed\": "
           << report.stragglersKilled
           << ",\n  \"elapsed_ms\": " << elapsed
           << ",\n  \"runs_per_sec\": " << rate
           << ",\n  \"eta_ms\": "
           << (rate > 0.0 ? static_cast<std::uint64_t>(
                                static_cast<double>(remaining) *
                                1000.0 / rate)
                          : 0)
           << ",\n  \"benchmarks\": [";
        bool first = true;
        for (const auto &[name, agg] : benchAgg) {
            os << (first ? "\n" : ",\n") << "    {\"name\": "
               << jsonQuote(name) << ", \"runs\": " << agg.runs
               << ", \"mean_time_sec\": "
               << (agg.runs ? agg.totalTimeSec /
                                  static_cast<double>(agg.runs)
                            : 0.0)
               << "}";
            first = false;
        }
        os << (benchAgg.empty() ? "]\n" : "\n  ]\n") << "}\n";
        std::string werr;
        if (!atomicWriteFile(statusPath, os.str(), werr))
            diag << "dispatch: status write failed: " << werr
                 << "\n";
    };

    auto launchSlice = [&](unsigned i,
                           std::uint64_t nowMs) -> bool {
        SliceRuntime &rt = slices[i];
        std::string scanErr;
        if (!rescanSlice(i, false, scanErr)) {
            diag << "dispatch: " << scanErr << "\n";
            return false;
        }
        CliOptions worker = workerOptions(opts, ShardSpec{i + 1, M});
        worker.outputPath = rt.recordsPath;
        worker.manifestPath = rt.manifestPath;
        worker.resumeSkip = rt.resumeSkip;
        if (tracker.attempts(i) == 0) {
            const auto it = opts.firstAttemptFaults.find(i + 1);
            if (it != opts.firstAttemptFaults.end())
                worker.fault = it->second;
        }
        std::vector<std::string> argv = cliArgv(worker);
        argv.insert(argv.begin(), opts.workerBinary);
        argv.insert(argv.end(), opts.workerArgs.begin(),
                    opts.workerArgs.end());
        std::string startErr;
        if (!rt.worker.start(argv, rt.logPath, startErr)) {
            diag << "dispatch: slice " << i + 1 << ": " << startErr
                 << "\n";
            tracker.onLaunched(i, nowMs); // burn the attempt
            tracker.onFailed(i, nowMs);
            journal.line(
                "{\"event\":\"fail\",\"slice\":" +
                std::to_string(i + 1) + ",\"attempt\":" +
                std::to_string(tracker.attempts(i)) +
                ",\"detail\":\"launch failed\"}");
            return true; // the dispatch itself continues
        }
        tracker.onLaunched(i, nowMs);
        rt.launchedMs = nowMs;
        report.launches += 1;
        journal.line("{\"event\":\"launch\",\"slice\":" +
                     std::to_string(i + 1) + ",\"attempt\":" +
                     std::to_string(tracker.attempts(i)) +
                     ",\"skip\":" + std::to_string(rt.resumeSkip) +
                     ",\"pid\":" +
                     std::to_string(rt.worker.pid()) + "}");
        return true;
    };

    auto failSlice = [&](unsigned i, std::uint64_t nowMs,
                         const std::string &detail) {
        journal.line("{\"event\":\"fail\",\"slice\":" +
                     std::to_string(i + 1) + ",\"attempt\":" +
                     std::to_string(tracker.attempts(i)) +
                     ",\"detail\":" + jsonQuote(detail) + "}");
        tracker.onFailed(i, nowMs);
        if (tracker.state(i) == SliceState::pending) {
            report.retries += 1;
            diag << "dispatch: slice " << i + 1 << " failed ("
                 << detail << "), retry in "
                 << tracker.backoffDelayMs(tracker.attempts(i))
                 << " ms\n";
        } else {
            diag << "dispatch: slice " << i + 1 << " failed ("
                 << detail << "), attempts exhausted\n";
        }
    };

    bool ioError = false;
    while (!tracker.allDone() && !tracker.anyExhausted() &&
           !ioError) {
        const std::uint64_t now = monotonicNowMs();

        // Reap finished workers.
        for (unsigned i = 0; i < M; ++i) {
            SliceRuntime &rt = slices[i];
            if (tracker.state(i) != SliceState::running ||
                !rt.worker.running())
                continue;
            std::string detail;
            const WorkerProc::Poll polled = rt.worker.poll(detail);
            if (polled == WorkerProc::Poll::running)
                continue;
            if (polled == WorkerProc::Poll::failed) {
                failSlice(i, now, detail);
                continue;
            }
            // Exited 0: trust nothing — the slice is done only if
            // its records and manifest actually check out on disk.
            std::string scanErr;
            if (!rescanSlice(i, true, scanErr)) {
                diag << "dispatch: " << scanErr << "\n";
                ioError = true;
                break;
            }
            if (rt.resumeSkip == rt.expected.size() &&
                fs::exists(rt.manifestPath)) {
                tracker.onFinished(i, now);
                journal.line("{\"event\":\"done\",\"slice\":" +
                             std::to_string(i + 1) + ",\"ms\":" +
                             std::to_string(now - rt.launchedMs) +
                             "}");
            } else {
                failSlice(i, now,
                          "exited 0 with incomplete output (" +
                              std::to_string(rt.resumeSkip) + "/" +
                              std::to_string(rt.expected.size()) +
                              " records)");
            }
        }
        if (ioError)
            break;

        // Straggler kills: re-dispatch is idempotent because the
        // relaunch rescans and skips whatever the straggler flushed.
        for (std::size_t i : tracker.stragglers(now)) {
            SliceRuntime &rt = slices[i];
            journal.line("{\"event\":\"kill\",\"slice\":" +
                         std::to_string(i + 1) +
                         ",\"reason\":\"straggler\","
                         "\"deadline_ms\":" +
                         std::to_string(tracker.deadlineMs()) +
                         "}");
            diag << "dispatch: slice " << i + 1
                 << " exceeded the straggler deadline ("
                 << tracker.deadlineMs() << " ms), killing pid "
                 << rt.worker.pid() << "\n";
            rt.worker.kill();
            report.stragglersKilled += 1;
            failSlice(static_cast<unsigned>(i), now,
                      "straggler killed");
        }

        // Launch work up to the worker cap.
        while (tracker.countIn(SliceState::running) <
               opts.workers) {
            const std::optional<std::size_t> next =
                tracker.nextDispatch(now);
            if (!next)
                break;
            if (!launchSlice(static_cast<unsigned>(*next), now)) {
                ioError = true;
                break;
            }
        }
        if (ioError)
            break;

        if (now - lastStatusMs >= opts.statusIntervalMs) {
            writeStatus("running");
            lastStatusMs = now;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }

    // Take down anything still running (straggler kill loops, abort
    // on exhaustion, I/O errors): WorkerProc's destructor would do
    // it too, but do it explicitly before declaring the outcome.
    for (SliceRuntime &rt : slices)
        if (rt.worker.running())
            rt.worker.kill();

    for (unsigned i = 0; i < M; ++i)
        report.sliceAttempts.push_back(tracker.attempts(i));
    if (reportOut)
        *reportOut = report;

    if (!tracker.allDone()) {
        journal.line("{\"event\":\"abort\"}");
        writeStatus("failed");
        diag << "dispatch: aborted ("
             << tracker.countIn(SliceState::failed)
             << " slices exhausted their "
             << opts.policy.maxAttempts << " attempts); see '"
             << workDir << "' logs\n";
        if (reportOut)
            *reportOut = report;
        ::close(lockFd);
        return false;
    }

    // Fan the slices back in through the PR-4 merge machinery: the
    // manifests first (the authoritative completeness cross-check),
    // then the trajectories into the canonical unsharded file.
    std::vector<std::string> manifestFiles, recordFiles;
    for (const SliceRuntime &rt : slices) {
        manifestFiles.push_back(rt.manifestPath);
        recordFiles.push_back(rt.recordsPath);
    }
    MergePlan mergePlan;
    bool ok = mergeManifests(manifestFiles, finalManifestPath,
                             opts.outputPath, diag, &mergePlan);
    if (ok)
        ok = mergeTrajectories(recordFiles, opts.outputPath, diag,
                               &mergePlan);
    if (!ok) {
        journal.line("{\"event\":\"merge-failed\"}");
        writeStatus("failed");
        ::close(lockFd);
        return false;
    }
    journal.line("{\"event\":\"merged\",\"output\":" +
                 jsonQuote(opts.outputPath) + ",\"manifest\":" +
                 jsonQuote(finalManifestPath) + "}");
    writeStatus("done");
    if (reportOut)
        *reportOut = report;

    diag << "dispatch: " << totalRuns << " runs over " << M
         << " slices -> '" << opts.outputPath << "' ("
         << report.launches << " launches, " << report.retries
         << " retries, " << report.stragglersKilled
         << " stragglers killed";
    if (report.resumedRecords)
        diag << ", " << report.resumedRecords
             << " records resumed";
    diag << ")\n";
    ::close(lockFd);
    return true;
}

} // namespace gals::runner
