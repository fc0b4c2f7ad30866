#include "runner/trajectory.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <utility>

#include "runner/atomic_file.hh"
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

TrajectorySink::TrajectorySink(const std::string &path,
                               bool appendMode)
    : path_(path), format_(trajectoryFormatForPath(path)),
      file_(path, std::ios::out | std::ios::binary |
                      (appendMode ? std::ios::app
                                  : std::ios::trunc)),
      os_(&file_)
{
    if (appendMode && format_ != TrajectoryFormat::gtrj)
        gals_fatal("append mode needs a gtrj trajectory, not '", path_,
                   "'");
    if (!file_)
        gals_fatal("cannot open trajectory file '", path_,
                   "' for writing");
    if (format_ == TrajectoryFormat::gtrj) {
        // Fresh files get the header now; an append-mode resume only
        // needs one when the salvage scan truncated the file to
        // nothing (a torn header counts for nothing).
        std::error_code ec;
        const auto size =
            appendMode ? std::filesystem::file_size(path, ec)
                       : std::uintmax_t(0);
        if (!appendMode || ec || size == 0)
            *os_ << gtrj::fileHeader();
    }
}

TrajectorySink::TrajectorySink(std::ostream &os,
                               TrajectoryFormat format,
                               const std::string &path)
    : path_(path), format_(format), os_(&os)
{
    if (format_ == TrajectoryFormat::gtrj)
        *os_ << gtrj::fileHeader();
}

void
TrajectorySink::append(const std::string &scenario,
                       const std::vector<RunConfig> &cfgs,
                       const std::vector<RunResults> &results,
                       const std::vector<std::size_t> *indices)
{
    if (format_ == TrajectoryFormat::jsonLines) {
        writeJsonLines(*os_, scenario, cfgs, results, indices);
    } else if (format_ == TrajectoryFormat::gtrj) {
        gals_assert(cfgs.size() == results.size(),
                    "trajectory sink: ", cfgs.size(), " configs vs ",
                    results.size(), " results");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const std::size_t index = indices ? (*indices)[i] : i;
            const std::string frame = gtrj::encodeRecord(
                scenario, index, cfgs[i], results[i]);
            os_->write(frame.data(),
                       static_cast<std::streamsize>(frame.size()));
        }
    } else if (!results.empty()) {
        // Defer the header to the first non-empty grid: an empty one
        // (a literature-only scenario, or a shard slice with no
        // records) has no record to take the energy_nj.* column set
        // from.
        if (!wroteHeader_) {
            writeCsvHeader(*os_, results.front());
            wroteHeader_ = true;
        }
        writeCsvRows(*os_, scenario, cfgs, results, indices);
    }
    // Fail the sweep now, not after simulating the remaining
    // scenarios: a bad stream here means records are already lost.
    if (!*os_)
        gals_fatal("error writing trajectory file '", path_, "'");
}

void
TrajectorySink::appendOne(const std::string &scenario,
                          const RunConfig &cfg,
                          const RunResults &result,
                          std::size_t canonicalIndex)
{
    if (format_ != TrajectoryFormat::gtrj)
        gals_fatal("appendOne() streams gtrj frames only, not '", path_,
                   "'");
    const std::vector<RunConfig> cfgs{cfg};
    const std::vector<RunResults> results{result};
    const std::vector<std::size_t> indices{canonicalIndex};
    append(scenario, cfgs, results, &indices);
    // The flush is the contract: once appendOne() returns, the
    // record survives a SIGKILL of this process.
    os_->flush();
    if (!*os_)
        gals_fatal("error writing trajectory file '", path_, "'");
}

void
TrajectorySink::close()
{
    if (os_ == &file_ && !file_.is_open())
        return;
    os_->flush();
    if (!*os_)
        gals_fatal("error writing trajectory file '", path_, "'");
    if (os_ != &file_)
        return;
    file_.close();
    if (!file_)
        gals_fatal("error closing trajectory file '", path_, "'");
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
    // Atomic rename, not in-place truncate: the dispatch
    // orchestrator treats a slice manifest's *existence* as the
    // slice-complete marker, so a torn manifest must be impossible.
    std::ostringstream os;
    writeManifest(os, opts, outputPath, scenarios);
    std::string err;
    if (!atomicWriteFile(path, os.str(), err))
        gals_fatal("manifest file: ", err);
}

} // namespace gals::runner
