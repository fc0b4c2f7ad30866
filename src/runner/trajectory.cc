#include "runner/trajectory.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <system_error>
#include <utility>

#include "runner/atomic_file.hh"
#include "runner/engine.hh"
#include "runner/gtrj.hh"
#include "runner/reporter.hh"
#include "runner/scenario.hh"
#include "sim/logging.hh"

namespace gals::runner
{

namespace
{

std::string
hashHex(std::uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

} // namespace

TrajectoryFormat
trajectoryFormatForPath(const std::string &path)
{
    TrajectoryFormat format = TrajectoryFormat::jsonLines;
    trajectoryFormatForCliPath(path, format);
    return format;
}

bool
trajectoryFormatForCliPath(const std::string &path,
                           TrajectoryFormat &out)
{
    static const std::pair<const char *, TrajectoryFormat> exts[] = {
        {".jsonl", TrajectoryFormat::jsonLines},
        {".json", TrajectoryFormat::jsonLines},
        {".csv", TrajectoryFormat::csv},
        {".gtrj", TrajectoryFormat::gtrj}};
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos)
        return false;
    for (const auto &[ext, format] : exts)
        if (path.compare(dot, std::string::npos, ext) == 0) {
            out = format;
            return true;
        }
    return false;
}

const char *
trajectoryFormatName(TrajectoryFormat format)
{
    switch (format) {
      case TrajectoryFormat::csv:
        return "csv";
      case TrajectoryFormat::gtrj:
        return "gtrj";
      default:
        return "jsonl";
    }
}

bool
renderTrajectory(std::string_view frames, TrajectoryFormat format,
                 std::string &out, std::string &err)
{
    switch (format) {
      case TrajectoryFormat::gtrj:
        out.assign(frames);
        return true;
      case TrajectoryFormat::csv:
        return gtrj::toCsv(frames, out, err);
      default:
        return gtrj::toJsonLines(frames, out, err);
    }
}

TrajectorySink::TrajectorySink() : frames_(gtrj::fileHeader()) {}

TrajectorySink::TrajectorySink(const std::string &path,
                               bool appendMode)
    : path_(path), format_(trajectoryFormatForPath(path))
{
    if (format_ != TrajectoryFormat::gtrj) {
        if (appendMode)
            gals_fatal("append mode needs a gtrj trajectory, not '",
                       path_, "'");
        frames_ = gtrj::fileHeader();
        return;
    }
    // An append-mode resume only needs a header when
    // resumeTrajectory() cut the file to nothing (a torn header counts
    // for nothing).
    std::error_code ec;
    const bool fresh = !appendMode ||
                       std::filesystem::file_size(path, ec) == 0 || ec;
    file_.open(path, std::ios::out | std::ios::binary |
                         (appendMode ? std::ios::app : std::ios::trunc));
    if (!file_)
        gals_fatal("cannot open trajectory file '", path_,
                   "' for writing");
    if (fresh)
        file_ << gtrj::fileHeader();
}

void
TrajectorySink::appendOne(const std::string &scenario,
                          const RunConfig &cfg,
                          const RunResults &result,
                          std::size_t canonicalIndex)
{
    const std::string frame =
        gtrj::encodeRecord(scenario, canonicalIndex, cfg, result);
    if (!file_.is_open()) {
        frames_ += frame;
        return;
    }
    // The flush is the contract: once appendOne() returns, the
    // record survives a SIGKILL of this process.
    file_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    file_.flush();
    if (!file_)
        gals_fatal("error writing trajectory file '", path_, "'");
}

void
TrajectorySink::close()
{
    if (file_.is_open()) {
        file_.close();
        if (!file_)
            gals_fatal("error closing trajectory file '", path_, "'");
        return;
    }
    if (path_.empty() || format_ == TrajectoryFormat::gtrj)
        return;
    std::string text, err;
    if (!renderTrajectory(frames_, format_, text, err) ||
        !atomicWriteFile(path_, text, err))
        gals_fatal("trajectory file '", path_, "': ", err);
}

bool
planSweep(const ScenarioRegistry &registry,
          const std::vector<std::string> &names, const SweepOptions &opts,
          SweepPlan &plan, std::string &err)
{
    // Bounded before the list of seeds, or any grid past its first
    // replica, is built.
    const std::size_t replicas = opts.replicaCount();
    const std::string cap = std::to_string(maxPlannedRuns) +
                            " runs one invocation may plan";
    if (replicas > maxPlannedRuns) {
        err = std::to_string(replicas) + " seed replicas: more than the " +
              cap;
        return false;
    }
    std::size_t planned = 0;
    for (const std::string &name : names) {
        const Scenario *scenario = registry.find(name);
        if (!scenario) {
            err = "unknown scenario '" + name + "'";
            return false;
        }
        std::size_t gridSize = 0;
        std::vector<RunConfig> runs = expandReplicatedRuns(
            *scenario, opts, &gridSize, maxPlannedRuns - planned);
        if (gridSize > (maxPlannedRuns - planned) / replicas) {
            err = "scenario '" + name + "' (" + std::to_string(gridSize) +
                  " runs x " + std::to_string(replicas) +
                  " replicas) takes the sweep past the " + cap;
            return false;
        }
        planned += runs.size();
        // Every fabric run must be buildable (a --traffic spec naming
        // a core the fabric lacks would otherwise stop the sweep at
        // that run), and a fabric has no warm snapshots and no
        // interval meter.
        for (const RunConfig &cfg : runs) {
            if (!cfg.fabric.active())
                continue;
            const std::string ferr = cfg.fabric.validate();
            if (!ferr.empty()) {
                err = "scenario '" + name + "': " + ferr;
                return false;
            }
            const char *singleCoreFlag =
                opts.warmupInstructions > 0 ? "--warmup-insts"
                : opts.intervalTicks > 0    ? "--interval-ticks"
                                            : nullptr;
            if (singleCoreFlag != nullptr) {
                err = std::string(singleCoreFlag) +
                      " applies to single-core runs only; scenario '" +
                      name + "' runs a " +
                      std::to_string(cfg.fabric.cores) + "-core fabric";
                return false;
            }
        }
        PlannedScenario p{scenario,
                          {name, gridSize, replicas, runConfigHash(runs)},
                          {},
                          shardRunIndices(runs.size(), opts.shard)};
        p.runs = opts.shard.active() ? selectRuns(runs, p.indices)
                                     : std::move(runs);
        plan.push_back(std::move(p));
    }
    return true;
}

std::size_t
plannedRecords(const SweepPlan &plan)
{
    std::size_t n = 0;
    for (const PlannedScenario &p : plan)
        n += p.runs.size();
    return n;
}

std::vector<RunResults>
runSliceStreamed(const ExperimentEngine &engine, const PlannedScenario &p,
                 TrajectorySink *sink, std::size_t skip)
{
    if (!sink)
        return engine.run(p.runs);
    const std::size_t n = p.runs.size();
    std::vector<RunResults> results(n);
    std::vector<char> ready(n, 0);
    std::mutex mu;
    std::size_t next = skip;
    engine.runIndexed(n - skip, [&](std::size_t t) {
        const std::size_t j = skip + t;
        RunResults r = runOne(p.runs[j]);
        const std::lock_guard<std::mutex> lock(mu);
        results[j] = std::move(r);
        ready[j] = 1;
        // Ordered flush window: drain the contiguous ready prefix.
        while (next < n && ready[next]) {
            sink->appendOne(p.manifest.name, p.runs[next], results[next],
                            p.indices[next]);
            ++next;
        }
    });
    return results;
}

bool
scanResume(std::string_view text, const SweepPlan &plan, ResumeScan &out,
           std::string &err)
{
    out = ResumeScan{};
    const std::string &header = gtrj::fileHeader();
    if (text.size() < header.size() &&
        header.compare(0, text.size(), text) == 0)
        return true; // killed while writing the header
    std::size_t pos = 0;
    if (!gtrj::readHeader(text, pos, err)) {
        err = "is not a gtrj trajectory: " + err;
        return false;
    }
    out.bytes = pos;
    for (const PlannedScenario &p : plan)
        for (std::size_t k = 0; k < p.runs.size(); ++k) {
            const RunConfig &cfg = p.runs[k];
            const std::size_t at = pos;
            std::string_view payload;
            gtrj::DecodedRecord dec;
            std::string ferr;
            const gtrj::FrameStatus st =
                gtrj::nextFrame(text, pos, payload, ferr);
            if (st == gtrj::FrameStatus::eof)
                return true;
            if (st == gtrj::FrameStatus::torn ||
                !gtrj::decodePayload(payload, dec, ferr))
                return true; // a torn or undecodable tail, cut at out.bytes
            // The record's benchmark and base/GALS bit are encoded from
            // the results; take them from the planned config so that
            // they are compared too.
            dec.results.benchmark = cfg.benchmark;
            dec.results.gals = cfg.gals;
            if (gtrj::encodeRecord(p.manifest.name, p.indices[k], cfg,
                                   dec.results) != text.substr(at, pos - at)) {
                err = "holds another sweep: its record " +
                      std::to_string(out.records + 1) + " (" + dec.scenario +
                      " #" + std::to_string(dec.index) + ", " +
                      dec.cfg.benchmark + ", " +
                      std::to_string(dec.cfg.instructions) +
                      " insts) is not this sweep's (" + p.manifest.name +
                      " #" + std::to_string(p.indices[k]) + ", " +
                      cfg.benchmark + ", " +
                      std::to_string(cfg.instructions) + " insts)";
                return false;
            }
            out.records += 1;
            out.bytes = pos;
        }
    if (pos < text.size()) {
        err = "holds another sweep: bytes past this sweep's " +
              std::to_string(out.records) + " records";
        return false;
    }
    return true;
}

bool
resumeTrajectory(const std::string &path, const SweepPlan &plan,
                 std::size_t &kept, std::string &err)
{
    std::error_code ec;
    const bool exists = std::filesystem::exists(path, ec);
    std::string text;
    if (exists && !readFile(path, text, err))
        return false;
    ResumeScan scan;
    if (!scanResume(text, plan, scan, err)) {
        err = "'" + path + "' " + err;
        return false;
    }
    kept = scan.records;
    if (exists)
        std::filesystem::resize_file(path, scan.bytes, ec);
    if (ec) {
        err = "cannot cut '" + path + "' to its valid records: " +
              ec.message();
        return false;
    }
    return true;
}

void
writeManifest(std::ostream &os, const SweepOptions &opts,
              const std::string &outputPath,
              const std::vector<ManifestScenario> &scenarios)
{
    os << "{\n"
       << "  \"manifest_version\": 1,\n"
       << "  \"galssim_version\": " << jsonQuote(galssimVersion())
       << ",\n"
       << "  \"engine\": " << jsonQuote(manifestEngineName) << ",\n"
       << "  \"instructions\": " << opts.instructions << ",\n";

    os << "  \"seeds\": [";
    bool first = true;
    for (std::uint64_t seed : opts.seedList()) {
        if (!first)
            os << ", ";
        first = false;
        os << seed;
    }
    os << "],\n";

    // The CLI benchmark restriction; empty means every scenario uses
    // its default sweep set.
    os << "  \"benchmarks\": [";
    first = true;
    for (const std::string &b : opts.benchmarks) {
        if (!first)
            os << ", ";
        first = false;
        os << jsonQuote(b);
    }
    os << "],\n";

    // Fabric axes (--cores / --topology / --traffic), written only
    // when explicitly set: pre-fabric manifests — including archived
    // PR 3-6 ones — keep their exact historical bytes.
    if (!opts.coreCounts.empty() || !opts.topologies.empty() ||
        !opts.traffics.empty()) {
        os << "  \"fabric\": {\"cores\": [";
        first = true;
        for (unsigned c : opts.coreCounts) {
            if (!first)
                os << ", ";
            first = false;
            os << c;
        }
        os << "], \"topologies\": [";
        first = true;
        for (const std::string &t : opts.topologies) {
            if (!first)
                os << ", ";
            first = false;
            os << jsonQuote(t);
        }
        os << "], \"traffics\": [";
        first = true;
        for (const std::string &t : opts.traffics) {
            if (!first)
                os << ", ";
            first = false;
            os << jsonQuote(t);
        }
        os << "]},\n";
    }

    // Interval meter (--interval-ticks), written only when enabled:
    // pre-meter manifests keep their exact historical bytes.
    if (opts.intervalTicks > 0)
        os << "  \"interval_ticks\": " << opts.intervalTicks << ",\n";

    // Warmup split (--warmup-insts), gated the same way.
    if (opts.warmupInstructions > 0)
        os << "  \"warmup_insts\": " << opts.warmupInstructions
           << ",\n";

    if (opts.shard.active())
        os << "  \"shard\": {\"index\": " << opts.shard.index
           << ", \"count\": " << opts.shard.count << "},\n";

    if (outputPath.empty()) {
        os << "  \"output\": null,\n";
    } else {
        os << "  \"output\": " << jsonQuote(outputPath) << ",\n"
           << "  \"output_format\": "
           << jsonQuote(trajectoryFormatName(
                  trajectoryFormatForPath(outputPath)))
           << ",\n";
    }

    os << "  \"scenarios\": [";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const ManifestScenario &s = scenarios[i];
        os << (i ? ",\n" : "\n") << "    {\"name\": "
           << jsonQuote(s.name) << ", \"grid\": " << s.gridSize
           << ", \"replicas\": " << s.replicas
           << ", \"runs\": " << s.gridSize * s.replicas
           << ", \"config_hash\": " << jsonQuote(hashHex(s.configHash))
           << "}";
    }
    os << (scenarios.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

void
writeManifestFile(const std::string &path, const SweepOptions &opts,
                  const std::string &outputPath,
                  const std::vector<ManifestScenario> &scenarios)
{
    // Atomic rename, not in-place truncate: a manifest's existence
    // marks its sweep complete, so a torn manifest must be
    // impossible.
    std::ostringstream os;
    writeManifest(os, opts, outputPath, scenarios);
    std::string err;
    if (!atomicWriteFile(path, os.str(), err))
        gals_fatal("manifest file: ", err);
}

} // namespace gals::runner
