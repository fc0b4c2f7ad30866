#include "core/snapshot.hh"

#include <future>
#include <mutex>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/snapshot_io.hh"

namespace gals
{

namespace
{

constexpr const char *snapshotMagic = "GSNP";

std::mutex cacheMutex;
std::unordered_map<std::uint64_t,
                   std::shared_future<std::shared_ptr<const std::string>>>
    snapshotCache;

/** A scratch machine built from the canonical warmup config, used to
 *  produce snapshots. */
struct WarmupMachine
{
    explicit WarmupMachine(const RunConfig &warmCfg)
        : eq("eq.warmup." + warmCfg.benchmark),
          proc(eq, procConfigOf(warmCfg),
               findBenchmark(warmCfg.benchmark), warmCfg.seed)
    {
    }

    static ProcessorConfig
    procConfigOf(const RunConfig &warmCfg)
    {
        ProcessorConfig pc = warmCfg.proc;
        pc.gals = warmCfg.gals;
        pc.dvfs = warmCfg.gals ? warmCfg.dvfs : DvfsSetting();
        pc.phaseSeed = effectivePhaseSeed(warmCfg);
        return pc;
    }

    EventQueue eq;
    Processor proc;
};

} // namespace

RunConfig
canonicalWarmupConfig(const RunConfig &cfg)
{
    RunConfig c = cfg;
    c.instructions = cfg.warmupInstructions;
    c.warmupInstructions = 0;
    c.dvfs = DvfsSetting();
    c.phaseSeed = phaseSeedFollowsWorkload;
    c.dynamicDvfs = false;
    c.intervalTicks = 0;
    c.fabric = FabricConfig();
    return c;
}

std::uint64_t
warmupKeyHash(const RunConfig &cfg)
{
    gals_assert(cfg.warmupInstructions > 0,
                "warmup key of a run without a warmup split");
    return runConfigHash(canonicalWarmupConfig(cfg));
}

std::string
produceWarmupSnapshot(const RunConfig &cfg)
{
    const RunConfig wc = canonicalWarmupConfig(cfg);
    gals_assert(wc.instructions > 0, "empty warmup region");

    WarmupMachine m(wc);
    m.proc.runWarmup(wc.instructions);

    SnapshotWriter w;
    w.str(snapshotMagic);
    w.u64(snapshotFormatVersion);
    w.str(galssimVersion());
    w.u64(warmupKeyHash(cfg));
    w.u64(cfg.warmupInstructions);
    w.str(cfg.benchmark);
    w.section("machine");
    m.proc.snapshotSave(w);
    w.section("end");
    return w.take();
}

bool
restoreWarmMachine(Processor &proc, const RunConfig &cfg,
                   std::string_view bytes, std::string *err)
{
    SnapshotReader r(bytes);

    const std::string magic = r.str();
    if (r.ok() && magic != snapshotMagic)
        r.fail("not a warm-snapshot stream (bad magic)");
    r.expectU64(r.u64(), snapshotFormatVersion,
                "snapshot format version");
    const std::string version = r.str();
    if (r.ok() && version != galssimVersion())
        r.fail("snapshot from simulator version '" + version + "'");
    r.expectU64(r.u64(), warmupKeyHash(cfg), "warmup key");
    r.expectU64(r.u64(), cfg.warmupInstructions,
                "warmup instruction count");
    const std::string bench = r.str();
    if (r.ok() && bench != cfg.benchmark)
        r.fail("snapshot for benchmark '" + bench + "'");

    r.section("machine");
    if (r.ok())
        proc.snapshotRestore(r);
    r.section("end");

    if (r.ok() && !r.atEnd())
        r.fail("trailing bytes after snapshot");
    if (!r.ok()) {
        if (err)
            *err = r.error();
        return false;
    }
    return true;
}

std::shared_ptr<const std::string>
acquireWarmupSnapshot(const RunConfig &cfg)
{
    const std::uint64_t key = warmupKeyHash(cfg);

    std::shared_future<std::shared_ptr<const std::string>> fut;
    std::promise<std::shared_ptr<const std::string>> prom;
    bool producer = false;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = snapshotCache.find(key);
        if (it == snapshotCache.end()) {
            producer = true;
            fut = prom.get_future().share();
            snapshotCache.emplace(key, fut);
        } else {
            fut = it->second;
        }
    }

    if (producer)
        prom.set_value(std::make_shared<const std::string>(
            produceWarmupSnapshot(cfg)));
    return fut.get();
}

void
clearSnapshotCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    snapshotCache.clear();
}

} // namespace gals
