#include "core/experiment.hh"

#include <cstring>
#include <memory>

#include "core/snapshot.hh"
#include "dvfs/controller.hh"
#include "fabric/system.hh"
#include "sim/logging.hh"
#include "sim/meter.hh"

namespace gals
{

std::uint64_t
effectivePhaseSeed(const RunConfig &cfg)
{
    return cfg.phaseSeed == phaseSeedFollowsWorkload ? cfg.seed
                                                     : cfg.phaseSeed;
}

std::vector<std::size_t>
shardRunIndices(std::size_t total, const ShardSpec &shard)
{
    // An inactive spec (count 0) is the whole grid.
    const unsigned count = std::max(1u, shard.count);
    gals_assert(shard.index >= 1 && shard.index <= count,
                "invalid shard ", shard.index, "/", shard.count);
    std::vector<std::size_t> indices;
    indices.reserve(total / count + 1);
    for (std::size_t i = shard.index - 1; i < total; i += count)
        indices.push_back(i);
    return indices;
}

const char *
galssimVersion()
{
    return "0.5.0";
}

namespace
{

/** FNV-1a over an explicitly little-endian byte stream, so the hash
 *  is independent of host endianness and integer widths. */
struct CanonicalHash
{
    std::uint64_t h = 14695981039346656037ull;

    void
    byte(unsigned char b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void
    flag(bool v)
    {
        byte(v ? 1 : 0);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<unsigned char>(c));
    }
};

/**
 * The `--interval-ticks` sampler: every K ticks, record the
 * interval's committed count / IPC, the per-domain energy delta and
 * the instantaneous inter-domain FIFO occupancy. Read-only over the
 * processor, so the headline metrics of a metered run equal the
 * unmetered ones.
 */
class RunMeter final : public PeriodicMeter
{
  public:
    RunMeter(EventQueue &eq, Processor &proc, Tick intervalTicks)
        : PeriodicMeter(eq, "meter", intervalTicks), proc_(proc)
    {
    }

    std::vector<IntervalSample> takeSamples()
    {
        return std::move(samples_);
    }

  protected:
    void
    sampleInterval(std::uint64_t, Tick now) override
    {
        IntervalSample s;
        s.tick = now;

        const std::uint64_t committed =
            proc_.decodeUnit().commitStats().committed;
        s.committed = committed - lastCommitted_;
        lastCommitted_ = committed;
        const double cycles =
            static_cast<double>(intervalTicks()) /
            static_cast<double>(proc_.config().nominalPeriod);
        s.ipc = cycles > 0.0 ? s.committed / cycles : 0.0;

        // Per-domain energy via the unit -> domain map; deltas
        // against the previous sample.
        std::array<double, numDomains> energy{};
        for (unsigned i = 0; i < numUnits; ++i) {
            const Unit u = static_cast<Unit>(i);
            energy[domainIndex(unitDomain(u))] +=
                proc_.energy().unitEnergyNj(u);
        }
        for (unsigned d = 0; d < numDomains; ++d) {
            s.energyNj[d] = energy[d] - lastEnergyNj_[d];
            lastEnergyNj_[d] = energy[d];
        }

        // Instantaneous occupancy: items pushed but neither popped
        // nor squashed yet, over every inter-region channel.
        std::uint64_t occ = 0;
        for (const ChannelBase *ch : proc_.channels()) {
            const std::uint64_t out =
                ch->pops() + ch->squashedItems();
            occ += ch->pushes() > out ? ch->pushes() - out : 0;
        }
        s.fifoOcc = occ;

        samples_.push_back(s);
    }

  private:
    Processor &proc_;
    std::uint64_t lastCommitted_ = 0;
    std::array<double, numDomains> lastEnergyNj_{};
    std::vector<IntervalSample> samples_;
};

} // namespace

std::uint64_t
runConfigHash(const RunConfig &cfg)
{
    CanonicalHash hash;
    hash.str(cfg.benchmark);
    hash.u64(cfg.instructions);
    hash.flag(cfg.gals);
    for (double s : cfg.dvfs.slowdown)
        hash.f64(s);
    hash.flag(cfg.dvfs.scaleVoltage);
    hash.u64(cfg.seed);
    hash.u64(effectivePhaseSeed(cfg));
    hash.flag(cfg.dynamicDvfs);

    const ProcessorConfig &pc = cfg.proc;
    hash.u64(pc.nominalPeriod);
    hash.u64(pc.fifoCapacity);
    hash.u64(pc.msgFifoCapacity);
    hash.u64(pc.syncEdges);
    hash.flag(pc.randomPhase);
    hash.u64(pc.watchdogCycles);

    const CoreConfig &core = pc.core;
    for (unsigned v :
         {core.fetchWidth, core.decodeWidth, core.dispatchWidth,
          core.commitWidth, core.intIssueWidth, core.fpIssueWidth,
          core.memIssueWidth, core.fetchQueueSize, core.intQueueSize,
          core.fpQueueSize, core.memQueueSize, core.robSize,
          core.lsqSize, core.numIntPhysRegs, core.numFpPhysRegs,
          core.intAlus, core.fpAlus, core.intMuls, core.fpMuls,
          core.memPorts, core.decodePipeDepth})
        hash.u64(v);

    hash.f64(pc.tech.vddNominal);
    hash.f64(pc.tech.vt);
    hash.f64(pc.tech.alpha);

    // Fabric axes hash only when a fabric is actually configured
    // (cores > 1): every pre-fabric RunConfig — including archived
    // PR 3-6 manifests — keeps its exact historical hash.
    const FabricConfig &fab = cfg.fabric;
    if (fab.active()) {
        hash.str("fabric");
        hash.u64(fab.cores);
        hash.str(topologyKindName(fab.topology));
        hash.str(fab.traffic);
        hash.u64(fab.linkFifoCapacity);
        hash.u64(fab.trafficInterval);
        hash.u64(fab.trafficWindow);
    }

    // Interval meter, gated like the fabric axes: a disabled meter
    // (the default) leaves every archived hash untouched.
    if (cfg.intervalTicks > 0) {
        hash.str("meter");
        hash.u64(cfg.intervalTicks);
    }

    // Warmup split, gated the same way: a run without one (the
    // default) keeps its archived hash.
    if (cfg.warmupInstructions > 0) {
        hash.str("warmup");
        hash.u64(cfg.warmupInstructions);
    }
    return hash.h;
}

std::uint64_t
runConfigHash(const std::vector<RunConfig> &cfgs)
{
    CanonicalHash hash;
    hash.u64(cfgs.size());
    for (const RunConfig &cfg : cfgs)
        hash.u64(runConfigHash(cfg));
    return hash.h;
}

RunResults
extractRunResults(Processor &proc, const RunConfig &cfg)
{
    const ProcessorConfig &pc = proc.config();

    RunResults r;
    r.benchmark = cfg.benchmark;
    r.gals = cfg.gals;

    const CommitStats &cs = proc.decodeUnit().commitStats();
    r.committed = cs.committed;
    r.fetched = proc.fetch().fetched();
    r.wrongPathFetched = proc.fetch().wrongPathFetched();
    r.ticks = proc.runTicks();
    r.timeSec = tickToSeconds(r.ticks);
    const double nominal_cycles =
        static_cast<double>(r.ticks) /
        static_cast<double>(pc.nominalPeriod);
    r.ipcNominal = nominal_cycles > 0.0 ? r.committed / nominal_cycles
                                        : 0.0;

    const double energy_nj = proc.finalizeEnergyNj();
    r.energyJ = energy_nj * 1e-9;
    r.avgPowerW = r.timeSec > 0.0 ? r.energyJ / r.timeSec : 0.0;
    for (unsigned i = 0; i < numUnits; ++i) {
        const Unit u = static_cast<Unit>(i);
        r.unitEnergyNj[unitName(u)] = proc.energy().unitEnergyNj(u);
    }
    r.fifoEvents = proc.fifoEvents();

    const double period = static_cast<double>(pc.nominalPeriod);
    if (cs.committed > 0) {
        r.avgSlipCycles =
            cs.slipSumTicks / double(cs.committed) / period;
        r.avgFifoSlipCycles =
            cs.fifoSlipSumTicks / double(cs.committed) / period;
    }

    r.misspecFraction =
        r.fetched ? double(r.wrongPathFetched) / double(r.fetched) : 0.0;
    r.mispredictsPerKCommitted =
        r.committed ? 1000.0 * double(cs.committedMispredicts) /
                          double(r.committed)
                    : 0.0;
    const BranchUnit &bu = proc.fetch().branchUnit();
    const std::uint64_t dir_total = bu.dirCorrect() + bu.dirWrong();
    r.dirAccuracy =
        dir_total ? double(bu.dirCorrect()) / double(dir_total) : 1.0;

    r.avgRobOcc = proc.decodeUnit().avgRobOccupancy();
    r.avgIntRenames = proc.decodeUnit().avgIntRenames();
    r.avgFpRenames = proc.decodeUnit().avgFpRenames();
    r.intIQOcc = proc.intCluster().avgQueueOccupancy();
    r.fpIQOcc = proc.fpCluster().avgQueueOccupancy();
    r.memIQOcc = proc.memCluster().avgQueueOccupancy();

    r.il1MissRate = proc.caches().il1().missRate();
    r.dl1MissRate = proc.caches().dl1().missRate();
    r.l2MissRate = proc.caches().l2().missRate();

    return r;
}

RunResults
runOne(const RunConfig &cfg)
{
    if (cfg.fabric.active()) {
        // Warmup snapshots are stamped onto single-core runs only
        // (runner::expandReplicatedRuns), and planSweep refuses an
        // interval meter on a fabric; a fabric config carrying either
        // is a programming error, never silently ignored.
        gals_assert(cfg.warmupInstructions == 0,
                    "warmup snapshots are single-core only");
        gals_assert(cfg.intervalTicks == 0,
                    "interval meters are single-core only");
        return runSystem(cfg);
    }

    const BenchmarkProfile &profile = findBenchmark(cfg.benchmark);

    ProcessorConfig pc = cfg.proc;
    pc.gals = cfg.gals;
    pc.dvfs = cfg.gals ? cfg.dvfs : DvfsSetting();
    pc.phaseSeed = effectivePhaseSeed(cfg);

    // Warm-state split: acquire the (memoized) warmup snapshot first,
    // then restore it into the fresh machine below. The cold and warm
    // paths are the same code — a "cold" run merely produces the
    // bytes it restores — so memoization cannot change any result
    // (core/snapshot.hh).
    const bool warm = cfg.warmupInstructions > 0;
    std::shared_ptr<const std::string> snapshot;
    if (warm) {
        if (cfg.warmupInstructions >= cfg.instructions)
            gals_fatal("warmup instructions (", cfg.warmupInstructions,
                       ") must be < total instructions (",
                       cfg.instructions, ")");
        snapshot = acquireWarmupSnapshot(cfg);
    }

    EventQueue eq("eq." + cfg.benchmark);
    Processor proc(eq, pc, profile, cfg.seed);

    if (warm) {
        std::string err;
        if (!restoreWarmMachine(proc, cfg, *snapshot, &err))
            gals_panic("warm snapshot restore failed: ", err);
    }

    // The online controller discovers per-domain utilization and
    // retunes clock/voltage while the run progresses; it manages the
    // FP domain (the paper's section 5.2 examples all slow the FP
    // clock) — fetch/memory issue slots are a poor utilization proxy
    // because loads are latency-critical.
    std::unique_ptr<DynamicDvfsController> ctrl;
    if (cfg.dynamicDvfs) {
        ctrl = std::make_unique<DynamicDvfsController>(eq, pc.tech);
        ctrl->manage(proc.domain(DomainId::fpd),
                     proc.fpCluster().issuedCounter(),
                     pc.core.fpIssueWidth);
        ctrl->start();
    }

    // The interval meter samples on its own clock domain and only
    // reads processor state, so its presence never perturbs the run.
    std::unique_ptr<RunMeter> meter;
    if (cfg.intervalTicks > 0) {
        meter = std::make_unique<RunMeter>(eq, proc,
                                           cfg.intervalTicks);
        meter->start();
    }

    if (warm)
        proc.runResumed(cfg.instructions - cfg.warmupInstructions);
    else
        proc.run(cfg.instructions);
    if (ctrl)
        ctrl->stop();
    if (meter)
        meter->stop();

    RunResults r = extractRunResults(proc, cfg);
    if (meter)
        r.intervals = meter->takeSamples();
    return r;
}

std::vector<RunResults>
runMany(const std::vector<RunConfig> &cfgs)
{
    std::vector<RunResults> results;
    results.reserve(cfgs.size());
    for (const RunConfig &cfg : cfgs)
        results.push_back(runOne(cfg));
    return results;
}

PairResults
runPair(const std::string &benchmark, std::uint64_t instructions,
        const DvfsSetting &galsDvfs, std::uint64_t seed,
        const ProcessorConfig &baseProc)
{
    RunConfig base;
    base.benchmark = benchmark;
    base.instructions = instructions;
    base.gals = false;
    base.seed = seed;
    base.proc = baseProc;

    RunConfig galsCfg = base;
    galsCfg.gals = true;
    galsCfg.dvfs = galsDvfs;

    PairResults pr;
    pr.base = runOne(base);
    pr.galsRun = runOne(galsCfg);
    return pr;
}

} // namespace gals
