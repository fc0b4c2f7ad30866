#include "runner/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "cpu/core_config.hh"
#include "fabric/fabric_config.hh"
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

/** A positive, finite decimal: NaN or infinity would make the
 *  straggler deadline an undefined conversion. */
double
realValue(const CliArg &a)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(a.text.c_str(), &end);
    if (end == a.text.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v <= 0.0)
        fail(a, " expects a positive finite number");
    return v;
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

std::string
text(std::uint64_t n)
{
    return std::to_string(n);
}

std::string
text(const std::string &s)
{
    return s;
}

/** Comma-joined, the form commaList() reads back. */
template <typename T>
std::string
text(const std::vector<T> &items)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + text(items[i]);
    return out;
}

using Values = std::vector<std::string>;

/** Emit @p x's argv value unless it holds its unset value. */
template <typename T>
void
emitSet(Values &v, const T &x, const T &unset = T())
{
    if (!(x == unset))
        v.push_back(text(x));
}

/** Emit one argv pair per item (the repeatable flags). */
void
emitEach(Values &v, const std::vector<std::string> &items)
{
    v.insert(v.end(), items.begin(), items.end());
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
        fail(a, " expects one of " + text(names));
    return a.text;
}

std::string
directory(const CliArg &a)
{
    std::error_code ec;
    if (!std::filesystem::is_directory(a.text, ec))
        fail(a.flag + (" '" + a.text + "' is not an existing directory"));
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

/** "SLICE:SPEC" injects SPEC (exit-after=K / hang-after=K) into that
 *  slice's first attempt only, so the retry runs clean. */
void
firstAttemptFault(CliOptions &o, const CliArg &a)
{
    const std::size_t colon = a.text.find(':');
    std::string ferr;
    if (colon == std::string::npos ||
        !parseFaultSpec(a.text.substr(colon + 1),
                        o.firstAttemptFaults[count(
                            {a.flag, a.text.substr(0, colon)})],
                        ferr))
        fail(a, " expects SLICE:exit-after=K or SLICE:hang-after=K");
}

constexpr unsigned sweepModes = cliRun | cliDispatch;
constexpr unsigned allModes = cliRun | cliDispatch | cliMerge |
                              cliVerify | cliList | cliParse;

using Opts = CliOptions;
using Arg = CliArg;

const std::vector<CliFlag> flagTable = {
    {"--list", CliArity::none, "", cliList,
     "list registered scenarios and exit (--format md emits the markdown "
     "catalog that docs/SCENARIOS.md is generated from)",
     [](Opts &o, const Arg &) { o.list = true; }},
    {"--scenario", CliArity::value, "NAME", sweepModes,
     "run one scenario (repeatable)",
     [](Opts &o, const Arg &a) { o.scenarios.push_back(a.text); },
     [](const Opts &o, Values &v) { emitEach(v, o.scenarios); }},
    {"--all", CliArity::none, "", sweepModes,
     "run every registered scenario",
     [](Opts &o, const Arg &) { o.runAll = true; }},
    {"--merge", CliArity::files, "F...", cliMerge,
     "merge shard trajectories into the canonical unsharded file at "
     "--output PATH",
     [](Opts &o, const Arg &a) { o.mergeFiles.push_back(a.text); }},
    {"--merge-manifest", CliArity::files, "F...", cliMerge,
     "merge shard manifests into the canonical manifest at --manifest",
     [](Opts &o, const Arg &a) { o.mergeManifestFiles.push_back(a.text); }},
    {"--verify", CliArity::value, "M", cliVerify,
     "re-run the archived manifest M and byte-compare the regenerated "
     "trajectory with the archived one (exit 1 on any difference)",
     [](Opts &o, const Arg &a) { o.verifyPath = a.text; }},
    {"--shard", CliArity::value, "I/N", cliRun,
     "run only the I-th of N disjoint slices of every grid (1-based; "
     "needs --output or --manifest; merge the shards for reports)",
     [](Opts &o, const Arg &a) { o.sweep.shard = shardValue(a); },
     [](const Opts &o, Values &v) {
         if (o.sweep.shard.active())
             v.push_back(std::to_string(o.sweep.shard.index) + "/" +
                         std::to_string(o.sweep.shard.count));
     }},
    {"--jobs", CliArity::value, "N", cliRun | cliVerify,
     "worker threads (0 = all hardware threads; default 1; results are "
     "identical for any N)",
     [](Opts &o, const Arg &a) { o.jobs = count(a); },
     [](const Opts &o, Values &v) { v.push_back(text(o.jobs)); }},
    {"--format", CliArity::value, "F", cliRun | cliList | cliParse,
     "table (default), json or csv; md with --list; json (default) or "
     "csv with parse",
     [](Opts &o, const Arg &a) { o.format = formatValue(a); }},
    {"--insts", CliArity::value, "N", sweepModes,
     "instructions per run (or GALSSIM_INSTS)",
     [](Opts &o, const Arg &a) { o.sweep.instructions = positive(a); },
     [](const Opts &o, Values &v) {
         v.push_back(text(o.sweep.instructions));
     }},
    {"--bench", CliArity::value, "NAME", sweepModes,
     "restrict the benchmark sweep (repeatable, or GALSSIM_BENCH)",
     [](Opts &o, const Arg &a) { o.benchmarks.push_back(benchmarkName(a)); },
     [](const Opts &o, Values &v) { emitEach(v, o.sweep.benchmarks); }},
    {"--seed", CliArity::value, "N", sweepModes,
     "workload seed (default 0)",
     [](Opts &o, const Arg &a) { o.sweep.seed = number(a); }},
    {"--seeds", CliArity::value, "N", sweepModes,
     "replicate every grid point over N seeds (seed, seed+1, ...); "
     "reports show mean +/- 95% CI",
     [](Opts &o, const Arg &a) { o.sweep.seedReplicas = count(a, 1); }},
    {"--seed-list", CliArity::value, "S", sweepModes,
     "explicit comma-separated replica seeds (overrides --seed/--seeds)",
     [](Opts &o, const Arg &a) {
         o.sweep.explicitSeeds = commaList(
             a, [&](const std::string &s) { return number({a.flag, s}); });
     },
     [](const Opts &o, Values &v) { v.push_back(text(o.sweep.seedList())); }},
    {"--cores", CliArity::value, "A,B", sweepModes,
     "restrict the fabric scenarios' core-count sweep (each 1..1024; 1 = "
     "the single-core paper pipeline)",
     [](Opts &o, const Arg &a) { o.sweep.coreCounts = coreList(a); },
     [](const Opts &o, Values &v) { emitSet(v, o.sweep.coreCounts); }},
    {"--topology", CliArity::value, "T", sweepModes,
     "restrict the fabric topology sweep: ring, mesh2d (comma-separated)",
     [](Opts &o, const Arg &a) { o.sweep.topologies = topologyList(a); },
     [](const Opts &o, Values &v) { emitSet(v, o.sweep.topologies); }},
    {"--traffic", CliArity::value, "P", sweepModes,
     "restrict the fabric traffic-matrix sweep: none, permutation, "
     "uniform, incast, hotspot[:K] (comma-separated)",
     [](Opts &o, const Arg &a) { o.sweep.traffics = trafficList(a); },
     [](const Opts &o, Values &v) { emitSet(v, o.sweep.traffics); }},
    {"--interval-ticks", CliArity::value, "K", sweepModes,
     "sample per-interval meters (IPC, per-domain energy, FIFO "
     "occupancy) every K ticks into an \"intervals\" series per record; "
     "K >= the nominal clock period (1000 ticks)",
     [](Opts &o, const Arg &a) { o.sweep.intervalTicks = intervalTicks(a); },
     [](const Opts &o, Values &v) { emitSet(v, o.sweep.intervalTicks); }},
    {"--warmup-insts", CliArity::value, "K", sweepModes,
     "split every single-core run into K warmup and (insts - K) measured "
     "instructions (K < --insts; fabric runs have no warmup split); runs "
     "sharing a warmup stem restore one memoized warm snapshot",
     [](Opts &o, const Arg &a) { o.sweep.warmupInstructions = positive(a); },
     [](const Opts &o, Values &v) { emitSet(v, o.sweep.warmupInstructions); }},
    {"--snapshot-dir", CliArity::value, "PATH", sweepModes,
     "existing directory where separate processes (--shard workers, "
     "dispatch) exchange warm snapshots; never affects the records, "
     "manifests or hashes",
     [](Opts &o, const Arg &a) { o.snapshotDir = directory(a); },
     [](const Opts &o, Values &v) { emitSet(v, o.snapshotDir); }},
    {"--output", CliArity::value, "PATH", sweepModes | cliMerge | cliParse,
     "append every per-run record to a trajectory file whose extension "
     "picks the format: .jsonl/.json (JSON lines), .csv, or .gtrj "
     "(compact binary; a --shard run writes .gtrj only, and --merge "
     "renders its shards in any of the three); parse writes the "
     "converted text here instead of stdout",
     [](Opts &o, const Arg &a) { o.outputPath = a.text; },
     [](const Opts &o, Values &v) { emitSet(v, o.outputPath); }},
    {"--manifest", CliArity::value, "PATH", sweepModes | cliMerge,
     "write a run manifest (version, engine, seeds, shard, per-scenario "
     "config hashes)",
     [](Opts &o, const Arg &a) { o.manifestPath = a.text; },
     [](const Opts &o, Values &v) { emitSet(v, o.manifestPath); }},
    {"--slices", CliArity::value, "M", cliDispatch,
     "grid slices, one --shard I/M worker each (default: --workers)",
     [](Opts &o, const Arg &a) { o.slices = count(a); }},
    {"--workers", CliArity::value, "W", cliDispatch,
     "concurrent worker processes (default: hardware threads)",
     [](Opts &o, const Arg &a) { o.workers = count(a); }},
    {"--worker-jobs", CliArity::value, "N", cliDispatch,
     "--jobs inside each worker (default 1)",
     [](Opts &o, const Arg &a) { o.workerJobs = count(a); }},
    {"--retries", CliArity::value, "N", cliDispatch,
     "re-runs of a failed slice after its first attempt",
     [](Opts &o, const Arg &a) { o.policy.maxAttempts = count(a) + 1; }},
    {"--backoff-ms", CliArity::value, "N", cliDispatch,
     "first retry delay; doubles per failure",
     [](Opts &o, const Arg &a) { o.policy.backoffBaseMs = number(a); }},
    {"--backoff-cap-ms", CliArity::value, "N", cliDispatch,
     "retry delay cap",
     [](Opts &o, const Arg &a) { o.policy.backoffCapMs = number(a); }},
    {"--straggler-factor", CliArity::value, "X", cliDispatch,
     "kill slices running over X times the median finished slice time",
     [](Opts &o, const Arg &a) { o.policy.stragglerFactor = realValue(a); }},
    {"--min-deadline-ms", CliArity::value, "N", cliDispatch,
     "floor of the straggler deadline",
     [](Opts &o, const Arg &a) { o.policy.minDeadlineMs = number(a); }},
    {"--status-interval-ms", CliArity::value, "N", cliDispatch,
     "status.json rewrite period",
     [](Opts &o, const Arg &a) { o.statusIntervalMs = number(a); }},
    {"--fresh", CliArity::none, "", cliDispatch,
     "discard the work directory instead of resuming",
     [](Opts &o, const Arg &) { o.fresh = true; }},
    {"--worker-binary", CliArity::value, "PATH", cliDispatch,
     "the galsbench the workers exec (default: this one)",
     [](Opts &o, const Arg &a) { o.workerBinary = a.text; }},
    {"--worker-arg", CliArity::value, "ARG", cliDispatch,
     "test-only: forwarded verbatim to every worker launch",
     [](Opts &o, const Arg &a) { o.workerArgs.push_back(a.text); },
     nullptr, true},
    {"--fault-first-attempt", CliArity::value, "I:SPEC", cliDispatch,
     "test-only: inject SPEC into slice I's first attempt only",
     firstAttemptFault, nullptr, true},
    {"--resume-skip", CliArity::value, "N", cliRun,
     "dispatch relaunches: the first N slice records are already on "
     "disk, so append to --output and neither re-run nor re-write them",
     [](Opts &o, const Arg &a) { o.resumeSkip = number(a); },
     [](const Opts &o, Values &v) { emitSet(v, o.resumeSkip); }, true},
    {"--fault-exit-after", CliArity::value, "N", cliRun,
     "test-only: die after N flushed records",
     [](Opts &o, const Arg &a) { o.fault.exitAfter = number(a); },
     [](const Opts &o, Values &v) {
         emitSet(v, o.fault.exitAfter, FaultPlan::disabled);
     },
     true},
    {"--fault-hang-after", CliArity::value, "N", cliRun,
     "test-only: hang after N flushed records",
     [](Opts &o, const Arg &a) { o.fault.hangAfter = number(a); },
     [](const Opts &o, Values &v) {
         emitSet(v, o.fault.hangAfter, FaultPlan::disabled);
     },
     true},
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
     " (the inputs alone define the merge)"},
    {cliVerify, "galsbench", "a verify replay",
     " (the manifest alone defines the replay)"},
    {cliParse, "galsbench parse INPUT.gtrj", "parse"},
    {cliDispatch, "galsbench dispatch", "dispatch"},
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
 *  become a JSON-lines file nobody asked for, and a shard writes
 *  gtrj frames, the one format --merge and the dispatch resume scan
 *  read back. */
void
checkOutputPath(const CliOptions &o)
{
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
}

/** The checks shared by a scenario run and a dispatch. */
void
checkSweep(const ScenarioRegistry &registry, CliOptions &o)
{
    const SweepOptions &sweep = o.sweep;
    if (!o.benchmarks.empty())
        o.sweep.benchmarks = o.benchmarks;
    // Every explicit --traffic spec must fit every multi-core --cores
    // point it will be crossed with.
    for (const std::string &spec : sweep.traffics)
        for (unsigned n : sweep.coreCounts) {
            std::vector<TrafficFlow> flows;
            const std::string err =
                n < 2 ? "" : parseTrafficPattern(spec, n, flows);
            if (!err.empty())
                fail("--traffic '" + spec + "' with --cores " +
                     std::to_string(n) + ": " + err);
        }
    if (o.runAll) {
        // --all replaces any --scenario picks (no duplicate runs).
        o.scenarios.clear();
        for (const Scenario &s : registry.all())
            o.scenarios.push_back(s.name);
    }
    for (const std::string &name : o.scenarios)
        if (!registry.find(name))
            fail("unknown scenario '" + name + "' (try --list)");
    if (sweep.warmupInstructions == 0)
        return;
    if (sweep.warmupInstructions >= sweep.instructions)
        fail("--warmup-insts (" + std::to_string(sweep.warmupInstructions) +
             ") must be < the instruction count (" +
             std::to_string(sweep.instructions) + ")");
    // A fabric has no warm snapshots: reject a sweep whose grids hold a
    // fabric run instead of archiving a warmup those runs never did.
    for (const std::string &name : o.scenarios) {
        const Scenario *s = registry.find(name);
        for (const RunConfig &cfg :
             s->makeRuns ? s->makeRuns(sweep) : std::vector<RunConfig>{})
            if (cfg.fabric.active())
                fail("--warmup-insts applies to single-core runs only; "
                     "scenario '" + name + "' runs a " +
                     std::to_string(cfg.fabric.cores) + "-core fabric");
    }
}

void
checkMode(const ScenarioRegistry &registry, CliOptions &o)
{
    checkOutputPath(o);
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
        if (o.resumeSkip > 0 &&
            (!o.sweep.shard.active() || o.outputPath.empty()))
            fail("--resume-skip only applies to a --shard run with a "
                 ".gtrj --output");
        break;
      case cliDispatch:
        checkSweep(registry, o);
        if (o.scenarios.empty())
            fail("dispatch needs --scenario/--all");
        if (o.outputPath.empty())
            fail("dispatch needs --output PATH for the merged trajectory");
        if (o.workerBinary.empty())
            fail("cannot resolve own binary path; pass --worker-binary "
                 "PATH");
        break;
      case cliMerge:
        if (!o.mergeFiles.empty() && o.outputPath.empty())
            fail("--merge needs --output PATH for the merged trajectory");
        for (const std::string &path : o.mergeFiles)
            if (trajectoryFormatForPath(path) != TrajectoryFormat::gtrj)
                fail("--merge expects .gtrj shard files, got '" + path +
                     "' (re-run a text shard written by an older build)");
        if (!o.mergeManifestFiles.empty() && o.manifestPath.empty())
            fail("--merge-manifest needs --manifest PATH for the merged "
                 "manifest");
        // Silently skipping the manifest would archive a merged
        // trajectory a later --verify has nothing to replay against;
        // the converse would record a trajectory never produced.
        if (o.mergeManifestFiles.empty() && !o.manifestPath.empty())
            fail("--manifest in merge mode needs the shard "
                 "manifests via --merge-manifest");
        if (o.mergeFiles.empty() && !o.outputPath.empty())
            fail("--output in merge mode needs the shard trajectories "
                 "via --merge");
        break;
      case cliParse:
        if (o.inputPath.empty())
            fail("parse needs an input .gtrj file");
        if (o.format != OutputFormat::json && o.format != OutputFormat::csv) {
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
    if (!args.empty() && args[0] == "dispatch")
        opts.mode = cliDispatch;
    else if (!args.empty() && args[0] == "parse")
        opts.mode = cliParse;
    try {
        const std::vector<const CliFlag *> seen =
            applyArgs(args, opts.mode == cliRun ? 0 : 1, opts);
        if (opts.help)
            return true;
        if (opts.mode == cliRun && opts.list)
            opts.mode = cliList;
        else if (opts.mode == cliRun && (!opts.mergeFiles.empty() ||
                                         !opts.mergeManifestFiles.empty()))
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

std::vector<std::string>
cliArgv(const CliOptions &opts)
{
    std::vector<std::string> argv;
    for (const CliFlag &f : flagTable) {
        Values values;
        if (f.emit)
            f.emit(opts, values);
        for (std::string &v : values) {
            argv.push_back(f.name);
            argv.push_back(std::move(v));
        }
    }
    return argv;
}

CliOptions
workerOptions(const DispatchOptions &opts, ShardSpec shard)
{
    CliOptions w;
    w.scenarios = opts.scenarios;
    w.sweep = opts.sweep;
    w.sweep.shard = shard;
    w.jobs = opts.workerJobs;
    w.snapshotDir = opts.snapshotDir;
    return w;
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
            if (!f.hidden && (f.modes & m.mode) && f.modes != allModes)
                line += " [" + label(f) + "]";
        wrap(out, line, 0, 16, true);
    }
    out += "\n";
    for (const CliFlag &f : flagTable) {
        if (f.hidden)
            continue;
        const std::string head = "  " + label(f);
        out += head.size() < 18 ? head + std::string(18 - head.size(), ' ')
                                : head + "\n" + std::string(18, ' ');
        wrap(out, f.help, 18, 18);
    }
    out += "\n";
    wrap(out,
         "dispatch runs the sweep as M slices in up to W worker "
         "subprocesses that flush every record: failed workers are "
         "retried with capped exponential backoff, hung ones are killed "
         "past a deadline scaled from the median slice time, and "
         "re-running the same dispatch resumes from the records that "
         "survived. Progress: <output>.dispatch/status.json; see "
         "docs/ORCHESTRATION.md.",
         0, 0);
    return out;
}

} // namespace gals::runner
