#include "runner/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "cpu/core_config.hh"
#include "fabric/fabric_config.hh"
#include "runner/engine.hh"
#include "runner/trajectory.hh"
#include "workload/profile.hh"

namespace gals::runner
{

namespace
{

/** A usage error: parseCli() turns it into its false return. */
struct CliError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

[[noreturn]] void
fail(const std::string &msg)
{
    throw CliError(msg);
}

/** "FLAG<what>, got 'VALUE'". */
[[noreturn]] void
fail(const CliArg &a, const std::string &what)
{
    fail(a.flag + what + ", got '" + a.text + "'");
}

std::uint64_t
number(const CliArg &a)
{
    // strtoull silently wraps negatives ("-1" -> 2^64-1) and
    // saturates out-of-range values with only errno to show for it,
    // so reject a leading minus sign explicitly — skipping the same
    // whitespace set strtoull itself skips — and check ERANGE.
    const char *text = a.text.c_str();
    const char *p = text;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(text, &end, 10);
    if (*p == '-' || end == text || *end != '\0' || errno == ERANGE)
        fail(a, " expects a non-negative number");
    return v;
}

std::uint64_t
positive(const CliArg &a)
{
    const std::uint64_t v = number(a);
    if (v == 0)
        fail(a.flag + std::string(" must be > 0"));
    return v;
}

/** number(), or positive() when @p min is 1, bounded to `unsigned`
 *  so counts cannot silently truncate through a cast. */
unsigned
count(const CliArg &a, unsigned min = 0)
{
    const std::uint64_t v = min ? positive(a) : number(a);
    if (v > std::numeric_limits<unsigned>::max())
        fail(a.flag + (" value " + a.text + " is out of range"));
    return static_cast<unsigned>(v);
}

/** @p item applied to every element of a comma-separated value;
 *  empty elements are rejected. */
template <typename F>
auto
commaList(const CliArg &a, F item)
{
    std::vector<decltype(item(a.text))> out;
    std::size_t pos = 0;
    while (pos <= a.text.size()) {
        std::size_t comma = a.text.find(',', pos);
        if (comma == std::string::npos)
            comma = a.text.size();
        if (comma == pos)
            fail(a, " expects comma-separated values");
        out.push_back(item(a.text.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    return out;
}

/** Comma-joined, the form commaList() reads back. */
std::string
joined(const std::vector<std::string> &items)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + items[i];
    return out;
}

std::vector<unsigned>
coreList(const CliArg &a)
{
    return commaList(a, [&](const std::string &s) {
        const unsigned n = count({a.flag, s});
        if (n == 0 || n > FabricConfig::maxCores)
            fail(a, " values must be in 1.." +
                        std::to_string(FabricConfig::maxCores));
        return n;
    });
}

std::vector<std::string>
topologyList(const CliArg &a)
{
    return commaList(a, [&](const std::string &t) {
        TopologyKind kind;
        if (!parseTopologyKind(t, kind))
            fail(a.flag +
                 (" expects 'ring' or 'mesh2d', got '" + t + "'"));
        return t;
    });
}

/** Syntax only: checkFabricAxes() matches the specs against --cores
 *  once the whole command line is read. */
std::vector<std::string>
trafficList(const CliArg &a)
{
    return commaList(a, [&](const std::string &spec) {
        const std::string err = checkTrafficSpec(spec);
        if (!err.empty())
            fail(a.flag + (": " + err));
        return spec;
    });
}

/** A period shorter than the nominal clock period samples the same
 *  cycle repeatedly, and the output grows as 1/K (K = 1 writes
 *  hundreds of MB per run). */
std::uint64_t
intervalTicks(const CliArg &a)
{
    const std::uint64_t k = number(a);
    if (k < defaults::nominalPeriod)
        fail(a, " must be >= the nominal clock period (" +
                    std::to_string(defaults::nominalPeriod) + " ticks)");
    return k;
}

/** "I/N" with 1 <= I <= N. */
ShardSpec
shardValue(const CliArg &a)
{
    const std::size_t slash = a.text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= a.text.size())
        fail(a, " expects I/N (e.g. 2/3)");
    const ShardSpec shard{count({a.flag, a.text.substr(0, slash)}),
                          count({a.flag, a.text.substr(slash + 1)})};
    if (shard.index < 1 || shard.index > shard.count)
        fail(a, " out of range (need 1 <= I <= N)");
    return shard;
}

/** A shipped benchmark's name: an unknown one would otherwise stop
 *  the sweep at its first run. */
std::string
benchmarkName(const CliArg &a)
{
    const std::vector<std::string> names = benchmarkNames();
    if (std::find(names.begin(), names.end(), a.text) == names.end())
        fail(a, " expects one of " + joined(names));
    return a.text;
}

OutputFormat
formatValue(const CliArg &a)
{
    static const std::pair<const char *, OutputFormat> names[] = {
        {"table", OutputFormat::table}, {"json", OutputFormat::json},
        {"csv", OutputFormat::csv},     {"md", OutputFormat::markdown},
        {"markdown", OutputFormat::markdown}};
    for (const auto &[name, format] : names)
        if (a.text == name)
            return format;
    fail(a, " expects table, json, csv or md");
}

constexpr unsigned allModes =
    cliRun | cliMerge | cliVerify | cliList | cliParse;

using Opts = CliOptions;
using Arg = CliArg;

const std::vector<CliFlag> flagTable = {
    {"--list", CliArity::none, "", cliList,
     "list registered scenarios and exit (--format md emits the markdown "
     "catalog that docs/SCENARIOS.md is generated from)",
     [](Opts &o, const Arg &) { o.list = true; }},
    {"--scenario", CliArity::value, "NAME", cliRun,
     "run one scenario (repeatable)",
     [](Opts &o, const Arg &a) { o.scenarios.push_back(a.text); }},
    {"--all", CliArity::none, "", cliRun,
     "run every registered scenario",
     [](Opts &o, const Arg &) { o.runAll = true; }},
    {"--merge", CliArity::files, "M...", cliMerge,
     "merge the shards named by their manifests M...: the canonical "
     "trajectory to --output (every shard's .gtrj must be complete), the "
     "canonical manifest to --manifest",
     [](Opts &o, const Arg &a) { o.mergeFiles.push_back(a.text); }},
    {"--verify", CliArity::value, "M", cliVerify,
     "check the archived manifest M byte for byte against the one its "
     "plan writes, re-run it and byte-compare the regenerated trajectory "
     "with the archived one (exit 1 on any difference)",
     [](Opts &o, const Arg &a) { o.verifyPath = a.text; }},
    {"--shard", CliArity::value, "I/N", cliRun,
     "run only the I-th of N disjoint slices of every grid (1-based; "
     "needs --output or --manifest; merge the shards for reports)",
     [](Opts &o, const Arg &a) { o.sweep.shard = shardValue(a); }},
    {"--jobs", CliArity::value, "N", cliRun | cliVerify,
     "worker threads (0 = all hardware threads; at most 1024; default 1; "
     "results are identical for any N)",
     [](Opts &o, const Arg &a) {
         o.jobs = count(a);
         if (o.jobs > maxJobs)
             fail(a, " must be at most " + std::to_string(maxJobs));
     }},
    {"--format", CliArity::value, "F", cliRun | cliList | cliParse,
     "table (default), json or csv; md with --list; json (default) or "
     "csv for parse to stdout",
     [](Opts &o, const Arg &a) { o.format = formatValue(a); }},
    {"--insts", CliArity::value, "N", cliRun,
     "instructions per run (or GALSSIM_INSTS)",
     [](Opts &o, const Arg &a) { o.sweep.instructions = positive(a); }},
    {"--bench", CliArity::value, "NAME", cliRun,
     "restrict the benchmark sweep (repeatable, or GALSSIM_BENCH)",
     [](Opts &o, const Arg &a) { o.benchmarks.push_back(benchmarkName(a)); }},
    {"--seed", CliArity::value, "N", cliRun,
     "workload seed (default 0)",
     [](Opts &o, const Arg &a) { o.sweep.seed = number(a); }},
    {"--seeds", CliArity::value, "N", cliRun,
     "replicate every grid point over N seeds (seed, seed+1, ...); "
     "reports show mean +/- 95% CI",
     [](Opts &o, const Arg &a) { o.sweep.seedReplicas = count(a, 1); }},
    {"--seed-list", CliArity::value, "S", cliRun,
     "explicit comma-separated replica seeds (overrides --seed/--seeds)",
     [](Opts &o, const Arg &a) {
         o.sweep.explicitSeeds = commaList(
             a, [&](const std::string &s) { return number({a.flag, s}); });
     }},
    {"--cores", CliArity::value, "A,B", cliRun,
     "restrict the fabric scenarios' core-count sweep (each 1..1024; 1 = "
     "the single-core paper pipeline)",
     [](Opts &o, const Arg &a) { o.sweep.coreCounts = coreList(a); }},
    {"--topology", CliArity::value, "T", cliRun,
     "restrict the fabric topology sweep: ring, mesh2d (comma-separated)",
     [](Opts &o, const Arg &a) { o.sweep.topologies = topologyList(a); }},
    {"--traffic", CliArity::value, "P", cliRun,
     "restrict the fabric traffic-matrix sweep: none, permutation, "
     "uniform, incast, hotspot[:K] (comma-separated)",
     [](Opts &o, const Arg &a) { o.sweep.traffics = trafficList(a); }},
    {"--interval-ticks", CliArity::value, "K", cliRun,
     "sample per-interval meters (IPC, per-domain energy, FIFO "
     "occupancy) every K ticks into an \"intervals\" series per record; "
     "K >= the nominal clock period (1000 ticks)",
     [](Opts &o, const Arg &a) { o.sweep.intervalTicks = intervalTicks(a); }},
    {"--warmup-insts", CliArity::value, "K", cliRun,
     "split every single-core run into K warmup and (insts - K) measured "
     "instructions (K < --insts; fabric runs have no warmup split); runs "
     "sharing a warmup stem restore one memoized warm snapshot",
     [](Opts &o, const Arg &a) { o.sweep.warmupInstructions = positive(a); }},
    {"--output", CliArity::value, "PATH", cliRun | cliMerge | cliParse,
     "append every per-run record to a trajectory file whose extension "
     "picks the format: .jsonl/.json (JSON lines), .csv, or .gtrj "
     "(compact binary, flushed record by record; a --shard or --resume "
     "run writes .gtrj only, and --merge renders its shards in any of "
     "the three); text files are written once, at the end; parse "
     "writes .jsonl/.json or .csv here instead of stdout",
     [](Opts &o, const Arg &a) { o.outputPath = a.text; }},
    {"--manifest", CliArity::value, "PATH", cliRun | cliMerge,
     "write a run manifest (version, engine, seeds, shard, per-scenario "
     "config hashes), last and atomically",
     [](Opts &o, const Arg &a) { o.manifestPath = a.text; }},
    {"--resume", CliArity::none, "", cliRun,
     "continue an interrupted run of the same command: keep the records "
     "of the .gtrj --output that match this sweep, cut a torn tail, run "
     "only the rest (exit 1, file untouched, if it holds another sweep); "
     "no stdout report",
     [](Opts &o, const Arg &) { o.resume = true; }},
    {"--help", CliArity::none, "", allModes,
     "print this text and exit (also -h)",
     [](Opts &o, const Arg &) { o.help = true; }},
};

/** Each mode's usage synopsis, and how error messages name it. */
struct ModeInfo
{
    CliMode mode;
    const char *synopsis;
    const char *name;
    const char *why = "";
};

const ModeInfo modeTable[] = {
    {cliRun, "galsbench", "a scenario run"},
    {cliList, "galsbench", "the scenario list"},
    {cliMerge, "galsbench", "a merge",
     " (the shard manifests alone define the merge)"},
    {cliVerify, "galsbench", "a verify replay",
     " (the manifest alone defines the replay)"},
    {cliParse, "galsbench parse INPUT.gtrj", "parse"},
};

bool
isFlag(const std::string &arg)
{
    return arg.compare(0, 2, "--") == 0;
}

const CliFlag *
findFlag(const std::string &name)
{
    for (const CliFlag &f : flagTable)
        if (name == f.name)
            return &f;
    return nullptr;
}

/** Apply every argument through the table; returns the flags seen,
 *  in order. */
std::vector<const CliFlag *>
applyArgs(const std::vector<std::string> &args, std::size_t first,
          CliOptions &opts)
{
    std::vector<const CliFlag *> seen;
    for (std::size_t i = first; i < args.size() && !opts.help; ++i) {
        const std::string &arg = args[i];
        const CliFlag *f = findFlag(arg);
        if (arg == "-h") {
            opts.help = true;
        } else if (f) {
            seen.push_back(f);
            if (f->arity == CliArity::none)
                f->apply(opts, {f->name, arg});
            if (f->arity == CliArity::value) {
                if (i + 1 >= args.size())
                    fail(arg + " needs a value");
                f->apply(opts, {f->name, args[++i]});
            }
            if (f->arity == CliArity::files) {
                if (i + 1 >= args.size() || isFlag(args[i + 1]))
                    fail(arg + " needs at least one file");
                while (i + 1 < args.size() && !isFlag(args[i + 1]))
                    f->apply(opts, {f->name, args[++i]});
            }
        } else if (opts.mode == cliParse && !isFlag(arg)) {
            if (!opts.inputPath.empty())
                fail("parse takes one input file, got '" +
                     opts.inputPath + "' and '" + arg + "'");
            opts.inputPath = arg;
        } else {
            fail("unknown argument '" + arg + "'");
        }
    }
    return seen;
}

/** GALSSIM_INSTS and GALSSIM_BENCH default --insts and --bench: in
 *  the modes that take the flag, and unless the command line gives
 *  it, each is applied through its flag's entry, so it is checked
 *  like the flag and any error names the variable. */
void
applyEnvironment(CliOptions &o, const std::vector<const CliFlag *> &seen)
{
    static const std::pair<const char *, const char *> vars[] = {
        {"GALSSIM_INSTS", "--insts"}, {"GALSSIM_BENCH", "--bench"}};
    for (const auto &[var, name] : vars) {
        const CliFlag *f = findFlag(name);
        const char *env = std::getenv(var);
        if (env && (f->modes & o.mode) &&
            std::find(seen.begin(), seen.end(), f) == seen.end())
            f->apply(o, {var, std::string(env)});
    }
}

/** The --output extension rule: a typo'd path must not silently
 *  become a JSON-lines file nobody asked for, and a shard or a resumed
 *  run writes gtrj frames, the one format --merge and the resume scan
 *  read back. The directories written into must exist, or the sweep
 *  would run to completion only to fail writing there, and the
 *  manifest must not replace the trajectory it describes. */
void
checkPaths(const CliOptions &o)
{
    namespace fs = std::filesystem;
    for (const auto &[flag, path] : {std::pair{"--output", &o.outputPath},
                                     std::pair{"--manifest", &o.manifestPath}}) {
        const fs::path dir = fs::path(*path).parent_path();
        std::error_code ec;
        if (!dir.empty() && !fs::is_directory(dir, ec))
            fail(flag + (" directory '" + dir.string() +
                         "' is not an existing directory"));
    }
    const auto resolved = [](const std::string &path) {
        std::error_code ec;
        return fs::weakly_canonical(fs::absolute(path, ec), ec);
    };
    if (!o.outputPath.empty() && !o.manifestPath.empty() &&
        resolved(o.outputPath) == resolved(o.manifestPath))
        fail("--output and --manifest name the same file '" +
             o.outputPath + "'");
    if (o.resume && o.outputPath.empty())
        fail("--resume needs the .gtrj --output of the run to continue");
    if (o.outputPath.empty() || o.mode == cliParse)
        return;
    TrajectoryFormat format;
    if (!trajectoryFormatForCliPath(o.outputPath, format))
        fail("--output expects a .jsonl, .json, .csv or .gtrj path, got '" +
             o.outputPath + "'");
    if (o.sweep.shard.active() && format != TrajectoryFormat::gtrj)
        fail("--output expects a .gtrj path for a --shard run (--merge "
             "renders .jsonl or .csv from the shards), got '" +
             o.outputPath + "'");
    if (o.resume && format != TrajectoryFormat::gtrj)
        fail("--output expects a .gtrj path for a --resume run (parse "
             "renders .jsonl or .csv from it), got '" +
             o.outputPath + "'");
}

/** The checks of a scenario run. */
void
checkSweep(const ScenarioRegistry &registry, CliOptions &o)
{
    const SweepOptions &sweep = o.sweep;
    if (!o.benchmarks.empty())
        o.sweep.benchmarks = o.benchmarks;
    if (o.runAll) {
        // --all replaces any --scenario picks (no duplicate runs).
        o.scenarios.clear();
        for (const Scenario &s : registry.all())
            o.scenarios.push_back(s.name);
    }
    for (const std::string &name : o.scenarios)
        if (!registry.find(name))
            fail("unknown scenario '" + name + "' (try --list)");
    if (sweep.warmupInstructions >= sweep.instructions)
        fail("--warmup-insts (" + std::to_string(sweep.warmupInstructions) +
             ") must be < the instruction count (" +
             std::to_string(sweep.instructions) + ")");
}

void
checkMode(const ScenarioRegistry &registry, CliOptions &o)
{
    checkPaths(o);
    switch (o.mode) {
      case cliRun:
        checkSweep(registry, o);
        if (o.format == OutputFormat::markdown)
            fail("--format md is only valid with --list");
        if (o.scenarios.empty())
            fail("no scenario selected (try --list)");
        if (o.sweep.shard.active() && o.outputPath.empty() &&
            o.manifestPath.empty())
            fail("--shard runs a grid slice whose reports are "
                 "suppressed; give --output and/or --manifest to keep "
                 "its records");
        break;
      case cliMerge:
        if (o.outputPath.empty() && o.manifestPath.empty())
            fail("--merge needs --output and/or --manifest for what it "
                 "merges");
        for (const std::string &path : o.mergeFiles) {
            TrajectoryFormat format;
            if (trajectoryFormatForCliPath(path, format) &&
                std::filesystem::path(path).extension() != ".json")
                fail("--merge takes the shard manifests (each names its "
                     "shard's .gtrj), got the trajectory '" + path + "'");
        }
        break;
      case cliParse:
        if (o.inputPath.empty())
            fail("parse needs an input .gtrj file");
        if (!o.outputPath.empty()) {
            TrajectoryFormat format;
            if (o.format)
                fail("parse --format applies to stdout; --output picks "
                     "the format by its extension");
            if (!trajectoryFormatForCliPath(o.outputPath, format) ||
                format == TrajectoryFormat::gtrj)
                fail("parse --output expects a .jsonl, .json or .csv "
                     "path, got '" + o.outputPath + "'");
            o.format = format == TrajectoryFormat::csv ? OutputFormat::csv
                                                       : OutputFormat::json;
        } else if (o.format != OutputFormat::json &&
                   o.format != OutputFormat::csv) {
            if (o.format)
                fail("parse --format expects 'json' or 'csv'");
            o.format = OutputFormat::json;
        }
        break;
      case cliVerify:
      case cliList:
        break;
    }
}

/** Append @p text wrapped before column 72 at its spaces (only those
 *  before a '[' when @p bracketed); the first line continues at
 *  @p col, the others start at @p indent. */
void
wrap(std::string &out, const std::string &text, std::size_t col,
     std::size_t indent, bool bracketed = false)
{
    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t end = text.find(bracketed ? " [" : " ", pos);
        if (end == std::string::npos)
            end = text.size();
        if (pos > 0 && col + 1 + end - pos > 72) {
            out += "\n" + std::string(indent, ' ');
            col = indent;
        } else if (pos > 0) {
            out += ' ';
            ++col;
        }
        out.append(text, pos, end - pos);
        col += end - pos;
        pos = end + 1;
    }
    out += '\n';
}

std::string
label(const CliFlag &f)
{
    return f.name + std::string(*f.metavar ? " " : "") + f.metavar;
}

} // namespace

const std::vector<CliFlag> &
cliFlags()
{
    return flagTable;
}

bool
parseCli(const std::vector<std::string> &args,
         const ScenarioRegistry &registry, CliOptions &opts,
         std::string &err)
{
    if (!args.empty() && args[0] == "parse")
        opts.mode = cliParse;
    try {
        const std::vector<const CliFlag *> seen =
            applyArgs(args, opts.mode == cliRun ? 0 : 1, opts);
        if (opts.help)
            return true;
        if (opts.mode == cliRun && opts.list)
            opts.mode = cliList;
        else if (opts.mode == cliRun && !opts.mergeFiles.empty())
            opts.mode = cliMerge;
        else if (opts.mode == cliRun && !opts.verifyPath.empty())
            opts.mode = cliVerify;
        const ModeInfo &mode = *std::find_if(
            std::begin(modeTable), std::end(modeTable),
            [&](const ModeInfo &m) { return m.mode == opts.mode; });
        for (const CliFlag *f : seen)
            if (!(f->modes & opts.mode))
                fail(f->name + (" does not apply to " +
                                std::string(mode.name) + mode.why));
        applyEnvironment(opts, seen);
        checkMode(registry, opts);
    } catch (const CliError &e) {
        err = e.what();
        return false;
    }
    return true;
}

std::string
cliUsage()
{
    std::string out;
    for (const ModeInfo &m : modeTable) {
        std::string line = (out.empty() ? "usage: " : "       ") +
                           std::string(m.synopsis);
        // --help, accepted everywhere, is listed once below.
        for (const CliFlag &f : flagTable)
            if ((f.modes & m.mode) && f.modes != allModes)
                line += " [" + label(f) + "]";
        wrap(out, line, 0, 16, true);
    }
    out += "\n";
    for (const CliFlag &f : flagTable) {
        const std::string head = "  " + label(f);
        out += head.size() < 18 ? head + std::string(18 - head.size(), ' ')
                                : head + "\n" + std::string(18, ' ');
        wrap(out, f.help, 18, 18);
    }
    out += "\n";
    wrap(out,
         "A run killed part way (kill -9, a lost host) is continued by "
         "re-running the same command with --resume: its .gtrj --output "
         "keeps every record flushed before the kill, and the manifest "
         "is written only once the sweep is complete. Across hosts, run "
         "--shard I/N with --output and --manifest on each, then fuse them "
         "with --merge and the shard manifests; a shard cut short by a "
         "kill is completed with --resume first.",
         0, 0);
    return out;
}

} // namespace gals::runner
