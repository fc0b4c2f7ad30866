/**
 * @file
 * galsperf — the timed and traced sweep driver of the galssim
 * benchmark (perfbench/run.py).
 *
 * It accepts the subset of `galsbench` run flags the benchmark's
 * workloads use and executes the sweep through the same library calls
 * galsbench makes (registerAllScenarios, expandReplicatedRuns,
 * ExperimentEngine, runOne, writeJsonLines), so its stdout must equal
 * the galsbench output of the same command. The benchmark checks that
 * it does before it trusts any timing.
 *
 *   galsperf sweep ARGS --timing T
 *       One untraced pass. T receives the monotonic time at which the
 *       first run began (set-up ends there), each run's begin/end time
 *       and worker thread, and its committed instructions and nominal
 *       cycles.
 *
 *   galsperf trace ARGS --timing T
 *       One traced pass: every cell is driven serially through the
 *       Processor's public run primitives (ctor, prepareRun,
 *       startClocks, the serviceOne loop, finishRun,
 *       extractRunResults) — or through fabric::System for fabric
 *       cells — with the phases timed and each component's counters
 *       read afterwards. The records are written as in a sweep pass,
 *       so the benchmark checks that the traced program is the same
 *       program. Then each layer's public functions are replayed on
 *       inputs the cells produced (the generated instruction stream,
 *       the run's exact clock periods and phases, its channel modes)
 *       to price one operation of that layer; T receives the per-layer
 *       metrics.
 *
 *   galsperf --version
 *       Host record: simulator version, compiler, build type.
 *
 * Every replay is sampled proportionally across cells up to a fixed
 * operation cap, so a traced pass costs about as much as one
 * untraced pass whatever the workload.
 */

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/register_all.hh"
#include "bpred/bpred.hh"
#include "cache/hierarchy.hh"
#include "core/channel.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "core/snapshot.hh"
#include "cpu/issue_queue.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "cpu/scoreboard.hh"
#include "fabric/system.hh"
#include "fabric/topology.hh"
#include "power/energy_account.hh"
#include "power/power_model.hh"
#include "runner/engine.hh"
#include "runner/gtrj.hh"
#include "runner/reporter.hh"
#include "runner/scenario.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

#ifndef GALSPERF_BUILD_TYPE
#define GALSPERF_BUILD_TYPE "unknown"
#endif

using namespace gals;
using namespace gals::runner;

namespace
{

/** CLOCK_MONOTONIC in ns: the same clock Python's time.monotonic_ns()
 *  reads, so run.py can measure set-up from the moment it spawned us. */
std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Consumes replay results so timed loops cannot be optimized away. */
volatile std::uint64_t replaySink = 0;

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "g++ " __VERSION__;
#else
    return "unknown";
#endif
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "galsperf: %s\n"
                 "usage: galsperf sweep|trace --scenario NAME "
                 "--format json --timing PATH\n"
                 "                [--jobs N] [--insts N] [--bench NAME] "
                 "[--seed N] [--warmup-insts K]\n"
                 "       galsperf --version\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
number(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '-' || end == text || *end != '\0' || errno == ERANGE)
        usage("bad value '" + std::string(text) + "' for " + flag);
    return v;
}

/** One parsed invocation: the galsbench flags plus --timing. */
struct Invocation
{
    std::string scenario;
    unsigned jobs = 1;
    std::string timing;
    SweepOptions opts = SweepOptions::fromEnvironment();
};

Invocation
parseInvocation(int argc, char **argv)
{
    Invocation inv;
    bool json = false;
    std::vector<std::string> benchmarks;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const char *v = argv[++i];
        if (arg == "--scenario") {
            inv.scenario = v;
        } else if (arg == "--jobs") {
            inv.jobs = static_cast<unsigned>(number(arg, v));
        } else if (arg == "--format") {
            if (std::strcmp(v, "json") != 0)
                usage("only --format json is supported");
            json = true;
        } else if (arg == "--insts") {
            inv.opts.instructions = number(arg, v);
        } else if (arg == "--bench") {
            benchmarks.push_back(v);
        } else if (arg == "--seed") {
            inv.opts.seed = number(arg, v);
        } else if (arg == "--warmup-insts") {
            inv.opts.warmupInstructions = number(arg, v);
        } else if (arg == "--timing") {
            inv.timing = v;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!benchmarks.empty())
        inv.opts.benchmarks = std::move(benchmarks);
    if (inv.scenario.empty() || !json || inv.timing.empty())
        usage("--scenario, --format json and --timing are required");
    if (inv.opts.instructions == 0)
        usage("--insts must be > 0");
    if (inv.opts.warmupInstructions >= inv.opts.instructions &&
        inv.opts.warmupInstructions > 0)
        usage("--warmup-insts must be < --insts");
    return inv;
}

/** The expanded sweep of one invocation. */
struct Sweep
{
    ScenarioRegistry registry;
    const Scenario *scenario = nullptr;
    std::vector<RunConfig> runs;
};

void
expandSweep(const Invocation &inv, Sweep &sweep)
{
    bench::registerAllScenarios(sweep.registry);
    sweep.scenario = sweep.registry.find(inv.scenario);
    if (!sweep.scenario)
        usage("unknown scenario " + inv.scenario);
    sweep.runs =
        expandReplicatedRuns(*sweep.scenario, inv.opts, nullptr);
}

/** Emit the records exactly as `galsbench --scenario S --format json`
 *  does for one scenario. */
int
writeRecords(const Sweep &sweep, const std::vector<RunResults> &results)
{
    writeJsonLines(std::cout, sweep.scenario->name, sweep.runs, results);
    std::cout.flush();
    if (!std::cout) {
        std::fprintf(stderr, "galsperf: error writing records\n");
        return 1;
    }
    return 0;
}

/** Committed instructions a run must reach: the measured region on
 *  every core. */
std::uint64_t
budgetOf(const RunConfig &cfg)
{
    const std::uint64_t cores =
        cfg.fabric.active() ? cfg.fabric.cores : 1;
    return (cfg.instructions - cfg.warmupInstructions) * cores;
}

double
nominalCycles(const RunConfig &cfg, const RunResults &r)
{
    return static_cast<double>(r.ticks) /
           static_cast<double>(cfg.proc.nominalPeriod);
}

/** Minimal JSON object writer for the timing files. */
class JsonOut
{
  public:
    explicit JsonOut(std::ostream &os) : os_(os) { os_.precision(17); }

    void
    key(const std::string &k)
    {
        os_ << (first_ ? "" : ",") << jsonQuote(k) << ":";
        first_ = false;
    }
    template <typename T>
    void
    field(const std::string &k, const T &v)
    {
        key(k);
        os_ << v;
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::out | std::ios::trunc);
    os << text;
    os.flush();
    if (!os) {
        std::fprintf(stderr, "galsperf: cannot write %s\n", path.c_str());
        return false;
    }
    return true;
}

// ------------------------------------------------------------ sweep

struct RunSpan
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::thread::id worker;
};

int
sweepMain(const Invocation &inv)
{
    Sweep sweep;
    expandSweep(inv, sweep);
    const std::size_t n = sweep.runs.size();
    const ExperimentEngine engine(inv.jobs);
    std::vector<RunResults> results(n);
    std::vector<RunSpan> spans(n);

    // Set-up ends here: registry, option checks and grid expansion
    // are done, the first run begins.
    const std::uint64_t setupEnd = nowNs();
    engine.runIndexed(n, [&](std::size_t i) {
        spans[i].begin = nowNs();
        results[i] = runOne(sweep.runs[i]);
        spans[i].end = nowNs();
        spans[i].worker = std::this_thread::get_id();
    });
    const std::uint64_t runsEnd = nowNs();

    if (const int rc = writeRecords(sweep, results))
        return rc;

    std::map<std::thread::id, unsigned> workers;
    std::ostringstream os;
    JsonOut j(os);
    os << "{";
    j.field("setup_end_ns", setupEnd);
    j.field("runs_end_ns", runsEnd);
    j.field("jobs", engine.jobs());
    j.key("runs");
    os << "[";
    for (std::size_t i = 0; i < n; ++i) {
        const auto w = workers.emplace(spans[i].worker, workers.size());
        os << (i ? "," : "") << "[" << spans[i].begin << ","
           << spans[i].end << "," << w.first->second << ","
           << results[i].committed << "," << budgetOf(sweep.runs[i])
           << "," << nominalCycles(sweep.runs[i], results[i]) << "]";
    }
    os << "]}\n";
    return writeFile(inv.timing, os.str()) ? 0 : 1;
}

// ------------------------------------------------------------ trace

/** Counters and phase times of traced cells; one per cell, summed
 *  by add(). */
struct Totals
{
    std::uint64_t cells = 0, committed = 0, fetched = 0, dispatched = 0;
    std::uint64_t events = 0, edges = 0, coreEdges = 0, channelOps = 0;
    std::uint64_t il1Acc = 0, il1Miss = 0, dl1Acc = 0, dl1Miss = 0;
    std::uint64_t l2Acc = 0, l2Miss = 0;
    std::uint64_t bpredLookups = 0, dirCorrect = 0, dirWrong = 0;
    double robOcc = 0.0, iqOcc = 0.0;
    double constructNs = 0.0, loopNs = 0.0, extractNs = 0.0;
    double cellNs = 0.0;

    std::uint64_t warmCells = 0, stems = 0, snapshotBytes = 0;
    std::vector<double> produceMs, memoCellMs;

    std::uint64_t fabricRuns = 0, fabricDomains = 0, msgsSent = 0;
    std::uint64_t remoteStallCycles = 0, fetchCycles = 0;
    double remoteLatencySum = 0.0;
    std::uint64_t remoteLatencyN = 0;

    void
    add(const Totals &o)
    {
        cells += o.cells;
        committed += o.committed;
        fetched += o.fetched;
        dispatched += o.dispatched;
        events += o.events;
        edges += o.edges;
        coreEdges += o.coreEdges;
        channelOps += o.channelOps;
        il1Acc += o.il1Acc;
        il1Miss += o.il1Miss;
        dl1Acc += o.dl1Acc;
        dl1Miss += o.dl1Miss;
        l2Acc += o.l2Acc;
        l2Miss += o.l2Miss;
        bpredLookups += o.bpredLookups;
        dirCorrect += o.dirCorrect;
        dirWrong += o.dirWrong;
        robOcc += o.robOcc;
        iqOcc += o.iqOcc;
        constructNs += o.constructNs;
        loopNs += o.loopNs;
        extractNs += o.extractNs;
        cellNs += o.cellNs;
        warmCells += o.warmCells;
        stems += o.stems;
        snapshotBytes += o.snapshotBytes;
        produceMs.insert(produceMs.end(), o.produceMs.begin(),
                         o.produceMs.end());
        memoCellMs.insert(memoCellMs.end(), o.memoCellMs.begin(),
                          o.memoCellMs.end());
        fabricRuns += o.fabricRuns;
        fabricDomains += o.fabricDomains;
        msgsSent += o.msgsSent;
        remoteStallCycles += o.remoteStallCycles;
        fetchCycles += o.fetchCycles;
        remoteLatencySum += o.remoteLatencySum;
        remoteLatencyN += o.remoteLatencyN;
    }
};

/** One traced cell: what it measured, and what the replays need. */
struct CellTrace
{
    RunConfig cfg;
    ProcessorConfig pc; ///< resolved: gals, dvfs, phase seed applied
    Totals stats;
    Tick ticks = 0;
    /** Period and first-edge phase of every clock domain of the run. */
    std::vector<std::pair<Tick, Tick>> clocks;
    PerDomain<double> vdd{};
};

/** Warmup stems seen so far: the first cell of a stem produces its
 *  snapshot, the others restore the memoized bytes. */
class StemSet
{
  public:
    bool
    firstUse(std::uint64_t key)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        return keys_.insert(key).second;
    }

  private:
    std::mutex mu_;
    std::set<std::uint64_t> keys_;
};

/** Read one finished core's component counters into @p c. */
void
countProcessor(Processor &p, CellTrace &c)
{
    Totals &t = c.stats;
    t.fetched += p.fetch().fetched();
    t.dispatched += p.decodeUnit().dispatched();

    const Cache &il1 = p.caches().il1();
    const Cache &dl1 = p.caches().dl1();
    const Cache &l2 = p.caches().l2();
    t.il1Acc += il1.accesses();
    t.il1Miss += il1.misses();
    t.dl1Acc += dl1.accesses();
    t.dl1Miss += dl1.misses();
    t.l2Acc += l2.accesses();
    t.l2Miss += l2.misses();

    const BranchUnit &bu = p.fetch().branchUnit();
    t.bpredLookups += bu.predictions();
    t.dirCorrect += bu.dirCorrect();
    t.dirWrong += bu.dirWrong();

    for (const ChannelBase *ch : p.channels())
        t.channelOps += ch->pushes() + ch->pops() + ch->squashedItems();

    for (unsigned d = 0; d < numDomains; ++d) {
        ClockDomain &cd = p.domain(static_cast<DomainId>(d));
        t.coreEdges += cd.cycle();
        c.clocks.emplace_back(cd.period(), cd.phase());
        c.vdd[d] = cd.vdd();
    }
    t.fetchCycles += p.domain(DomainId::fetch).cycle();
}

/** One single-core cell through the Processor's run primitives. */
RunResults
traceSingleCore(CellTrace &c, StemSet &stems)
{
    const RunConfig &cfg = c.cfg;
    if (cfg.dynamicDvfs || cfg.intervalTicks > 0) {
        std::fprintf(stderr, "galsperf: trace does not drive dynamic-"
                             "DVFS or metered cells\n");
        std::exit(1);
    }
    const BenchmarkProfile &profile = findBenchmark(cfg.benchmark);
    ProcessorConfig &pc = c.pc;
    pc = cfg.proc;
    pc.gals = cfg.gals;
    pc.dvfs = cfg.gals ? cfg.dvfs : DvfsSetting();
    pc.phaseSeed = effectivePhaseSeed(cfg);

    const bool warm = cfg.warmupInstructions > 0;
    const std::uint64_t t0 = nowNs();
    std::shared_ptr<const std::string> snapshot;
    bool newStem = false;
    if (warm) {
        newStem = stems.firstUse(warmupKeyHash(cfg));
        snapshot = acquireWarmupSnapshot(cfg);
    }
    const std::uint64_t t1 = nowNs();

    EventQueue eq("eq." + cfg.benchmark);
    Processor proc(eq, pc, profile, cfg.seed);
    const std::uint64_t t2 = nowNs();
    if (warm) {
        std::string err;
        if (!restoreWarmMachine(proc, cfg, *snapshot, &err)) {
            std::fprintf(stderr, "galsperf: restore failed: %s\n",
                         err.c_str());
            std::exit(1);
        }
    }

    // Processor::run / runResumed, spelled out in public primitives.
    // A warm machine's generator already produced exactly the warmup
    // prefix, so the fetch limit counts from there.
    const std::uint64_t target =
        cfg.instructions - cfg.warmupInstructions;
    if (warm)
        proc.fetch().setFetchLimit(cfg.warmupInstructions + target);
    else
        proc.prepareRun(target);
    Rng phaseRng(pc.phaseSeed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
    const std::uint64_t t3 = nowNs();
    proc.startClocks(phaseRng);
    while (proc.committed() < target) {
        if (!eq.serviceOne()) {
            std::fprintf(stderr, "galsperf: event queue drained\n");
            std::exit(1);
        }
    }
    proc.finishRun();
    const std::uint64_t t4 = nowNs();
    RunResults r = extractRunResults(proc, cfg);
    const std::uint64_t t5 = nowNs();

    Totals &t = c.stats;
    t.constructNs = static_cast<double>(t2 - t1);
    t.loopNs = static_cast<double>(t4 - t3);
    t.extractNs = static_cast<double>(t5 - t4);
    t.cellNs = static_cast<double>(t5 - t0);
    if (warm) {
        t.warmCells = 1;
        if (newStem) {
            t.stems = 1;
            t.produceMs.push_back(static_cast<double>(t1 - t0) / 1e6);
            t.snapshotBytes = snapshot->size();
        } else {
            t.memoCellMs.push_back(static_cast<double>(t5 - t0) / 1e6);
        }
    }

    t.events = eq.processedCount();
    countProcessor(proc, c);
    t.edges = t.coreEdges;
    c.ticks = r.ticks;
    return r;
}

/** One fabric cell through fabric::System (its run loop is internal,
 *  so the whole run counts as loop time). */
RunResults
traceFabric(CellTrace &c)
{
    const RunConfig &cfg = c.cfg;
    c.pc = cfg.proc;
    c.pc.gals = cfg.gals;
    c.pc.dvfs = cfg.gals ? cfg.dvfs : DvfsSetting();

    const std::uint64_t t0 = nowNs();
    System sys(cfg);
    const std::uint64_t t1 = nowNs();
    RunResults r = sys.run();
    const std::uint64_t t2 = nowNs();
    Totals &t = c.stats;
    t.constructNs = static_cast<double>(t1 - t0);
    t.loopNs = static_cast<double>(t2 - t1);
    t.cellNs = static_cast<double>(t2 - t0);
    t.events = sys.eventQueue().processedCount();

    std::uint64_t coreFifo = 0;
    for (unsigned i = 0; i < sys.cores(); ++i) {
        countProcessor(sys.core(i), c);
        coreFifo += sys.core(i).fifoEvents();
    }
    // Link channel traffic: in the record's FIFO total, not in any
    // core's channel list.
    t.channelOps += r.fifoEvents - coreFifo;

    // Link clocks: nominal period, phases from the fabric's own
    // stream (fabric::System::run).
    const std::vector<LinkSpec> links =
        buildTopologyLinks(cfg.fabric.topology, cfg.fabric.cores);
    Rng linkRng((effectivePhaseSeed(cfg) + 0x0fabULL) *
                    0x9e3779b97f4a7c15ULL +
                0x1234567ULL);
    const Tick period = cfg.proc.nominalPeriod;
    std::uint64_t linkEdges = 0;
    for (std::size_t l = 0; l < links.size(); ++l) {
        const Tick phase = cfg.gals && cfg.proc.randomPhase
                               ? linkRng.range(0, period - 1)
                               : 0;
        c.clocks.emplace_back(period, phase);
        if (r.ticks >= phase)
            linkEdges += (r.ticks - phase) / period + 1;
    }
    t.edges = t.coreEdges + linkEdges;
    c.ticks = r.ticks;

    t.fabricRuns = 1;
    t.fabricDomains = numDomains * sys.cores() + links.size();
    for (const CoreResults &cr : r.cores) {
        t.msgsSent += cr.msgsSent;
        t.remoteStallCycles += cr.remoteStallCycles;
        t.remoteLatencySum += cr.avgRemoteLatencyCycles;
        ++t.remoteLatencyN;
    }
    return r;
}

/** Operations one cell replays: its share of @p cap, in proportion to
 *  its own count @p w of the total @p wsum (all of it under the cap). */
std::uint64_t
quotaOf(std::uint64_t cap, std::uint64_t w, std::uint64_t wsum)
{
    if (wsum <= cap)
        return w;
    const double share = static_cast<double>(w) * static_cast<double>(cap) /
                         static_cast<double>(wsum);
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(share));
}

/** Measured cost of one layer's replay. */
struct Replay
{
    double ns = 0.0;
    std::uint64_t ops = 0;

    double perOp() const { return ops ? ns / static_cast<double>(ops) : 0.0; }
};

class NoopTicker final : public ClockDomain::Ticker
{
  public:
    void tick() override {}
};

/** Clock edges of the run's exact domains (periods and phases), each
 *  with two no-op tickers standing in for the stage and the energy
 *  close-out: the engine and clock-domain cost per edge. */
void
replayEdges(const CellTrace &c, std::uint64_t quota, Replay &out)
{
    if (c.stats.edges == 0 || quota == 0)
        return;
    EventQueue eq("perf.edges");
    std::vector<std::unique_ptr<ClockDomain>> domains;
    std::vector<std::unique_ptr<NoopTicker>> tickers;
    for (const auto &[period, phase] : c.clocks) {
        domains.push_back(std::make_unique<ClockDomain>(
            eq, "perf.domain", period, phase));
        for (int pri : {10, 90}) {
            tickers.push_back(std::make_unique<NoopTicker>());
            domains.back()->addTicker(*tickers.back(), pri);
        }
    }
    const Tick until = static_cast<Tick>(
        static_cast<double>(c.ticks) * static_cast<double>(quota) /
        static_cast<double>(c.stats.edges));
    const std::uint64_t t0 = nowNs();
    for (auto &d : domains)
        d->start();
    // The run loop's own dispatch: one serviceOne() per event.
    while (eq.nextEventTime() <= until)
        eq.serviceOne();
    const std::uint64_t t1 = nowNs();
    for (auto &d : domains) {
        out.ops += d->cycle();
        d->stop();
    }
    out.ns += static_cast<double>(t1 - t0);
}

/** EnergyAccount::domainCycle at the run's domain voltages. */
void
replayEnergy(const CellTrace &c, std::uint64_t quota, Replay &out)
{
    const PowerModel model(c.pc.core, c.pc.tech, c.pc.clocks);
    EnergyAccount energy(model);
    const std::uint64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < quota; ++i) {
        const unsigned d = static_cast<unsigned>(i % numDomains);
        energy.domainCycle(static_cast<DomainId>(d), c.vdd[d]);
    }
    const std::uint64_t t1 = nowNs();
    replaySink = replaySink + static_cast<std::uint64_t>(energy.totalNj());
    out.ns += static_cast<double>(t1 - t0);
    out.ops += quota;
}

/** StreamGenerator::next, timed; then the same stream collected for
 *  the stream-driven replays. */
std::vector<GenInst>
replayWorkload(const CellTrace &c, std::uint64_t quota, Replay &out)
{
    const BenchmarkProfile &profile = findBenchmark(c.cfg.benchmark);
    {
        StreamGenerator gen(profile, c.cfg.seed);
        std::uint64_t acc = 0;
        const std::uint64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < quota; ++i) {
            const GenInst &g = gen.next();
            acc += g.pc ^ g.memAddr;
        }
        const std::uint64_t t1 = nowNs();
        replaySink = replaySink + acc;
        out.ns += static_cast<double>(t1 - t0);
        out.ops += quota;
    }
    StreamGenerator gen(profile, c.cfg.seed);
    std::vector<GenInst> stream;
    stream.reserve(quota);
    for (std::uint64_t i = 0; i < quota; ++i)
        stream.push_back(gen.next());
    return stream;
}

/** CacheHierarchy accesses the stream makes: one I-cache access per
 *  new line, one D-cache access per load or store. */
void
replayCaches(const CellTrace &c, const std::vector<GenInst> &stream,
             Replay &out)
{
    CacheHierarchy hier(c.pc.core.caches);
    std::uint64_t lastLine = ~std::uint64_t(0), ops = 0, acc = 0;
    const std::uint64_t t0 = nowNs();
    for (const GenInst &g : stream) {
        const std::uint64_t line = g.pc / StreamGenerator::lineBytes;
        if (line != lastLine) {
            acc += hier.instFetch(g.pc).level;
            lastLine = line;
            ++ops;
        }
        if (isMemClass(g.cls)) {
            acc += hier.dataAccess(g.memAddr, g.cls == InstClass::store)
                       .level;
            ++ops;
        }
    }
    const std::uint64_t t1 = nowNs();
    replaySink = replaySink + acc;
    out.ns += static_cast<double>(t1 - t0);
    out.ops += ops;
}

/** BranchUnit predict + commit-time update for every branch. */
void
replayBranches(const CellTrace &c, const std::vector<GenInst> &stream,
               Replay &out)
{
    BranchUnit unit(c.pc.core.bpred);
    std::uint64_t ops = 0, acc = 0;
    const std::uint64_t t0 = nowNs();
    for (const GenInst &g : stream) {
        if (!isBranchClass(g.cls))
            continue;
        acc += unit.predict(g.pc, g.cls).target;
        unit.update(g.pc, g.cls, g.taken, g.target);
        ++ops;
    }
    const std::uint64_t t1 = nowNs();
    replaySink = replaySink + acc;
    out.ns += static_cast<double>(t1 - t0);
    out.ops += ops;
}

/** The back-end structures fed with the stream in program order:
 *  DynInst creation, rename with commit-time frees, ROB insert and
 *  retire, and the three issue queues with scoreboard wakeups. */
class PipelineReplay
{
  public:
    explicit PipelineReplay(const CoreConfig &core)
        : core_(core),
          rename_(core.numIntPhysRegs, core.numFpPhysRegs),
          rob_(core.robSize),
          view_(core.numIntPhysRegs + core.numFpPhysRegs),
          intQ_("perf.iq.int", core.intQueueSize, view_),
          fpQ_("perf.iq.fp", core.fpQueueSize, view_),
          memQ_("perf.iq.mem", core.memQueueSize, view_),
          fuAny_([](const DynInst &) { return true; })
    {
        window_.reserve(core.robSize);
    }

    void
    run(const std::vector<GenInst> &stream, Replay &isa, Replay &rename,
        Replay &rob, Replay &iq)
    {
        constexpr std::size_t chunk = 4096;
        std::vector<DynInstPtr> insts;
        insts.reserve(chunk);
        for (std::size_t base = 0; base < stream.size(); base += chunk) {
            const std::size_t end = std::min(stream.size(), base + chunk);
            const std::uint64_t t0 = nowNs();
            for (std::size_t i = base; i < end; ++i)
                insts.push_back(makeInst(stream[i]));
            const std::uint64_t t1 = nowNs();
            renameAll(insts);
            const std::uint64_t t2 = nowNs();
            robAll(insts);
            const std::uint64_t t3 = nowNs();
            issueAll(insts);
            const std::uint64_t t4 = nowNs();
            insts.clear();
            const std::uint64_t t5 = nowNs();

            const std::uint64_t n = end - base;
            isa.ns += static_cast<double>((t1 - t0) + (t5 - t4));
            isa.ops += n;
            rename.ns += static_cast<double>(t2 - t1);
            rename.ops += n;
            rob.ns += static_cast<double>(t3 - t2);
            rob.ops += n;
            iq.ns += static_cast<double>(t4 - t3);
            iq.ops += n;
        }
    }

  private:
    /** FetchStage::makeInst's field copy. */
    DynInstPtr
    makeInst(const GenInst &g)
    {
        auto inst = std::make_shared<DynInst>();
        inst->seq = ++seq_;
        inst->pc = g.pc;
        inst->cls = g.cls;
        inst->numSrcs = g.numSrcs;
        for (unsigned i = 0; i < g.numSrcs; ++i)
            inst->srcs[i] = g.srcs[i];
        inst->dest = g.dest;
        inst->actualTaken = g.taken;
        inst->actualTarget = g.target;
        inst->memAddr = g.memAddr;
        return inst;
    }

    /** Rename in order; the oldest in-flight instruction commits (and
     *  frees its old mapping) whenever the window or a free list runs
     *  out. The chunk's survivors commit at its end. */
    void
    renameAll(const std::vector<DynInstPtr> &insts)
    {
        for (const DynInstPtr &inst : insts) {
            while (window_.size() - head_ >= core_.robSize ||
                   !rename_.canRename(*inst))
                rename_.commitFree(*window_[head_++]);
            rename_.rename(*inst);
            window_.push_back(inst.get());
        }
        while (head_ < window_.size())
            rename_.commitFree(*window_[head_++]);
        window_.clear();
        head_ = 0;
    }

    void
    robAll(const std::vector<DynInstPtr> &insts)
    {
        for (const DynInstPtr &inst : insts) {
            if (rob_.full())
                retireHead();
            rob_.insert(inst);
        }
        while (!rob_.empty())
            retireHead();
    }

    void
    retireHead()
    {
        rob_.markCompleted(rob_.head()->seq);
        rob_.popHead();
    }

    IssueQueue &
    queueFor(const DynInst &inst)
    {
        if (inst.isMem())
            return memQ_;
        return inst.isFp() ? fpQ_ : intQ_;
    }

    /** One select round on every queue; issued results wake their
     *  consumers at once. The globally oldest waiting instruction is
     *  always ready (its producers are older and already issued), so
     *  every round issues at least one instruction. */
    void
    issueCycle()
    {
        const std::pair<IssueQueue *, unsigned> queues[] = {
            {&intQ_, core_.intIssueWidth},
            {&fpQ_, core_.fpIssueWidth},
            {&memQ_, core_.memIssueWidth}};
        for (const auto &[q, width] : queues)
            for (const DynInstPtr &inst : q->selectIssue(width, fuAny_))
                if (inst->physDest != invalidPhysReg)
                    view_.observe(inst->physDest, inst->destEpoch);
    }

    void
    issueAll(const std::vector<DynInstPtr> &insts)
    {
        unsigned sinceCycle = 0;
        for (const DynInstPtr &inst : insts) {
            IssueQueue &q = queueFor(*inst);
            while (q.full())
                issueCycle();
            q.insert(inst);
            if (++sinceCycle == core_.dispatchWidth) {
                issueCycle();
                sinceCycle = 0;
            }
        }
        while (!intQ_.empty() || !fpQ_.empty() || !memQ_.empty())
            issueCycle();
    }

    const CoreConfig &core_;
    RenameUnit rename_;
    Rob rob_;
    Scoreboard view_;
    IssueQueue intQ_, fpQ_, memQ_;
    std::function<bool(const DynInst &)> fuAny_;
    std::vector<DynInst *> window_;
    std::size_t head_ = 0;
    InstSeqNum seq_ = 0;
};

/** Push/pop/squash traffic through one Channel between two clocks of
 *  the cell (fetch producer, decode consumer) in the cell's mode. */
class ChannelHarness
{
  public:
    ChannelHarness(const CellTrace &c, bool active)
        : eq_("perf.channel"),
          producer_(eq_, "perf.producer", c.clocks[0].first,
                    c.clocks[0].second),
          consumer_(eq_, "perf.consumer", c.clocks[1].first,
                    c.clocks[1].second),
          channel_("perf.ch",
                   c.pc.gals ? ChannelMode::asyncFifo
                             : ChannelMode::syncLatch,
                   producer_, consumer_, c.pc.fifoCapacity,
                   c.pc.syncEdges),
          push_(*this, active), pop_(*this, active)
    {
        for (std::size_t i = 0; i < items_.size(); ++i) {
            items_[i] = std::make_shared<DynInst>();
            items_[i]->seq = i;
        }
        producer_.addTicker(push_, 10);
        consumer_.addTicker(pop_, 10);
    }

    /** Run until @p ops channel operations happened (active) or up to
     *  @p until ticks (baseline); returns the simulated end time. */
    Tick
    run(std::uint64_t ops, Tick until)
    {
        producer_.start();
        consumer_.start();
        const Tick step = 64 * producer_.period();
        while (until ? eq_.now() < until : this->ops() < ops)
            eq_.runUntil(until ? std::min(until, eq_.now() + step)
                               : eq_.now() + step);
        producer_.stop();
        consumer_.stop();
        return eq_.now();
    }

    std::uint64_t
    ops() const
    {
        return channel_.pushes() + channel_.pops() +
               channel_.squashedItems();
    }

  private:
    class Pusher final : public ClockDomain::Ticker
    {
      public:
        Pusher(ChannelHarness &h, bool active) : h_(h), active_(active) {}
        void
        tick() override
        {
            if (!active_)
                return;
            if (++edges_ % 64 == 0)
                h_.channel_.squash([](const DynInstPtr &i) {
                    return (i->seq & 1) != 0;
                });
            for (int n = 0; n < 4 && h_.channel_.canPush(); ++n)
                h_.channel_.push(h_.items_[next_++ % h_.items_.size()]);
        }

      private:
        ChannelHarness &h_;
        bool active_;
        std::uint64_t edges_ = 0, next_ = 0;
    };

    class Popper final : public ClockDomain::Ticker
    {
      public:
        Popper(ChannelHarness &h, bool active) : h_(h), active_(active) {}
        void
        tick() override
        {
            if (!active_)
                return;
            for (int n = 0; n < 4 && !h_.channel_.empty(); ++n)
                h_.channel_.pop();
        }

      private:
        ChannelHarness &h_;
        bool active_;
    };

    EventQueue eq_;
    ClockDomain producer_, consumer_;
    Channel<DynInstPtr> channel_;
    /** Payloads pushed round robin; odd sequence numbers get squashed. */
    std::array<DynInstPtr, 64> items_;
    Pusher push_;
    Popper pop_;
};

/** Channel cost per operation: the active harness minus an idle one
 *  over the same simulated time (the clock edges both pay). */
void
replayChannel(const CellTrace &c, std::uint64_t quota, Replay &out)
{
    if (quota == 0 || c.clocks.size() < 2)
        return;
    ChannelHarness active(c, true);
    const std::uint64_t t0 = nowNs();
    const Tick end = active.run(quota, 0);
    const std::uint64_t t1 = nowNs();
    ChannelHarness idle(c, false);
    idle.run(0, end);
    const std::uint64_t t2 = nowNs();
    out.ns += std::max(0.0, static_cast<double>(t1 - t0) -
                                static_cast<double>(t2 - t1));
    out.ops += active.ops();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

int
traceMain(const Invocation &inv)
{
    Sweep sweep;
    expandSweep(inv, sweep);
    const std::size_t n = sweep.runs.size();

    // Traced cells, on the workload's own job count: each phase of
    // every run timed, each component read afterwards.
    clearSnapshotCache();
    std::vector<CellTrace> cells(n);
    std::vector<RunResults> results(n);
    StemSet stems;
    const ExperimentEngine engine(inv.jobs);
    const std::uint64_t traceBegin = nowNs();
    engine.runIndexed(n, [&](std::size_t i) {
        CellTrace &c = cells[i];
        c.cfg = sweep.runs[i];
        const RunResults &r = results[i] =
            c.cfg.fabric.active() ? traceFabric(c)
                                  : traceSingleCore(c, stems);
        c.stats.cells = 1;
        c.stats.committed = r.committed;
        c.stats.robOcc = r.avgRobOcc;
        c.stats.iqOcc = r.intIQOcc + r.fpIQOcc + r.memIQOcc;
    });
    const std::uint64_t traceEnd = nowNs();

    if (const int rc = writeRecords(sweep, results))
        return rc;

    Totals t;
    for (const CellTrace &c : cells)
        t.add(c.stats);

    // Layer replays, serially, each sampled across cells up to its cap.
    constexpr std::uint64_t edgeCap = 3000000, energyCap = 3000000;
    constexpr std::uint64_t instCap = 400000, channelCap = 1000000;
    Replay edges, energy, workload, caches, bpred, isa, rename, rob, iq,
        channel;
    for (const CellTrace &c : cells) {
        const Totals &ct = c.stats;
        replayEdges(c, quotaOf(edgeCap, ct.edges, t.edges), edges);
        replayEnergy(c, quotaOf(energyCap, ct.coreEdges, t.coreEdges),
                     energy);
        const std::vector<GenInst> stream = replayWorkload(
            c, quotaOf(instCap, ct.fetched, t.fetched), workload);
        replayCaches(c, stream, caches);
        replayBranches(c, stream, bpred);
        PipelineReplay(c.pc.core).run(stream, isa, rename, rob, iq);
        replayChannel(c, quotaOf(channelCap, ct.channelOps, t.channelOps),
                      channel);
    }

    // Record encoding: one JSON line and one gtrj frame per record.
    std::ostringstream jsonBuf;
    const std::uint64_t e0 = nowNs();
    writeJsonLines(jsonBuf, sweep.scenario->name, sweep.runs, results);
    std::uint64_t gtrjBytes = 0;
    for (std::size_t i = 0; i < n; ++i)
        gtrjBytes += gtrj::encodeRecord(sweep.scenario->name, i,
                                        sweep.runs[i], results[i])
                         .size();
    const std::uint64_t e2 = nowNs();
    replaySink = replaySink + gtrjBytes + jsonBuf.str().size();

    // Layer shares of the run loop: replayed cost per operation times
    // the operations the traced runs performed.
    const double loop = t.loopNs;
    const double kinst = static_cast<double>(t.committed) / 1000.0;
    const double cells_d = static_cast<double>(t.cells);
    const double fetched = static_cast<double>(t.fetched);
    const double dispatched = static_cast<double>(t.dispatched);
    const double cacheOps = static_cast<double>(t.il1Acc + t.dl1Acc);
    const double bpredOps = static_cast<double>(t.bpredLookups);
    const std::map<std::string, double> shares = {
        {"sim.share", edges.perOp() * static_cast<double>(t.edges)},
        {"power.share",
         energy.perOp() * static_cast<double>(t.coreEdges)},
        {"workload.share", workload.perOp() * fetched},
        {"cache.share", caches.perOp() * cacheOps},
        {"bpred.share", bpred.perOp() * bpredOps},
        {"isa.share", isa.perOp() * fetched},
        {"cpu.rename_share", rename.perOp() * dispatched},
        {"cpu.rob_share", rob.perOp() * dispatched},
        {"cpu.iq_share", iq.perOp() * dispatched},
        {"core.channel_share",
         channel.perOp() * static_cast<double>(t.channelOps)},
    };

    std::map<std::string, double> m;
    double covered = 0.0;
    for (const auto &[name, ns] : shares) {
        m[name] = ratio(ns, loop);
        covered += m[name];
    }
    m["cpu.residual_share"] = 1.0 - covered;

    m["core.construct_us"] = ratio(t.constructNs / 1e3, cells_d);
    m["core.extract_us"] = ratio(t.extractNs / 1e3, cells_d);
    m["core.loop_share"] = ratio(loop, t.cellNs);
    m["core.channel_ops_per_kinst"] =
        ratio(static_cast<double>(t.channelOps), kinst);
    m["core.channel_ns_per_op"] = channel.perOp();
    m["core.snapshot.produce_ms"] = mean(t.produceMs);
    m["core.snapshot.cell_ms"] = mean(t.memoCellMs);
    m["core.snapshot.cells_per_stem"] =
        ratio(static_cast<double>(t.warmCells),
              static_cast<double>(t.stems));
    m["core.snapshot.bytes"] =
        ratio(static_cast<double>(t.snapshotBytes),
              static_cast<double>(t.stems));

    m["sim.events_per_kinst"] =
        ratio(static_cast<double>(t.events), kinst);
    m["sim.edge_ns"] = edges.perOp();

    m["cpu.fetched_per_committed"] =
        ratio(fetched, static_cast<double>(t.committed));
    m["cpu.rob_occ"] = ratio(t.robOcc, cells_d);
    m["cpu.iq_occ"] = ratio(t.iqOcc, cells_d);
    m["cpu.iq_ns_per_inst"] = iq.perOp();
    m["cpu.rename_ns_per_inst"] = rename.perOp();
    m["cpu.rob_ns_per_inst"] = rob.perOp();

    m["power.domain_cycles_per_kinst"] =
        ratio(static_cast<double>(t.coreEdges), kinst);
    m["power.ns_per_domain_cycle"] = energy.perOp();

    m["isa.dyninst_ns"] = isa.perOp();
    m["isa.dyninsts_per_kinst"] = ratio(fetched, kinst);

    m["cache.accesses_per_kinst"] = ratio(cacheOps, kinst);
    m["cache.ns_per_access"] = caches.perOp();
    m["cache.il1_miss"] = ratio(static_cast<double>(t.il1Miss),
                                static_cast<double>(t.il1Acc));
    m["cache.dl1_miss"] = ratio(static_cast<double>(t.dl1Miss),
                                static_cast<double>(t.dl1Acc));
    m["cache.l2_miss"] = ratio(static_cast<double>(t.l2Miss),
                               static_cast<double>(t.l2Acc));

    m["bpred.lookups_per_kinst"] = ratio(bpredOps, kinst);
    m["bpred.ns_per_lookup"] = bpred.perOp();
    m["bpred.dir_accuracy"] =
        ratio(static_cast<double>(t.dirCorrect),
              static_cast<double>(t.dirCorrect + t.dirWrong));

    m["workload.ns_per_inst"] = workload.perOp();

    m["fabric.domains_per_run"] =
        ratio(static_cast<double>(t.fabricDomains),
              static_cast<double>(t.fabricRuns));
    m["fabric.msgs_per_kinst"] =
        t.fabricRuns ? ratio(static_cast<double>(t.msgsSent), kinst) : 0.0;
    m["fabric.remote_latency_cycles"] =
        ratio(t.remoteLatencySum, static_cast<double>(t.remoteLatencyN));
    m["fabric.remote_stall_frac"] =
        t.fabricRuns ? ratio(static_cast<double>(t.remoteStallCycles),
                             static_cast<double>(t.fetchCycles))
                     : 0.0;

    m["runner.encode_us_per_record"] =
        ratio(static_cast<double>(e2 - e0) / 1e3, static_cast<double>(n));

    std::ostringstream os;
    JsonOut j(os);
    os << "{";
    j.field("traced_runs_s",
            static_cast<double>(traceEnd - traceBegin) / 1e9);
    j.field("cells", t.cells);
    j.field("committed", t.committed);
    j.key("replay_ops");
    os << "{";
    JsonOut ops(os);
    ops.field("edges", edges.ops);
    ops.field("domain_cycles", energy.ops);
    ops.field("insts", workload.ops);
    ops.field("cache_accesses", caches.ops);
    ops.field("branches", bpred.ops);
    ops.field("channel_ops", channel.ops);
    os << "}";
    j.key("metrics");
    os << "{";
    JsonOut metrics(os);
    for (const auto &[name, value] : m)
        metrics.field(name, value);
    os << "}}\n";
    return writeFile(inv.timing, os.str()) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && !std::strcmp(argv[1], "--version")) {
        std::printf("{\"galssim\":%s,\"compiler\":%s,\"build_type\":%s}\n",
                    jsonQuote(galssimVersion()).c_str(),
                    jsonQuote(compilerName()).c_str(),
                    jsonQuote(GALSPERF_BUILD_TYPE).c_str());
        return 0;
    }
    if (argc < 2)
        usage("missing mode");
    const std::string mode = argv[1];
    if (mode != "sweep" && mode != "trace")
        usage("unknown mode " + mode);
    const Invocation inv = parseInvocation(argc, argv);
    return mode == "sweep" ? sweepMain(inv) : traceMain(inv);
}
