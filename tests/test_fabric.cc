/**
 * @file
 * Tests for the multi-core fabric layer: topology generation and
 * routing, traffic-matrix parsing, FabricConfig validation, the
 * single-core identity guarantee (an inert fabric config is
 * bit-for-bit the classic single-Processor run), the determinism
 * contract (repeat runs byte-identical and pinned records unchanged,
 * per-core records included), and the constant per-core costs: idle
 * link clocks park, and the cores share one static program.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "fabric/fabric_config.hh"
#include "fabric/system.hh"
#include "fabric/topology.hh"
#include "runner/reporter.hh"
#include "sim/snapshot_io.hh"
#include "workload/generator.hh"

using namespace gals;

namespace
{

/** Canonical byte serialization of one run, per-core block included —
 *  the same bytes a trajectory would archive. */
std::string
recordBytes(const RunConfig &cfg, const RunResults &r)
{
    std::ostringstream os;
    runner::writeJsonLines(os, "t", {cfg}, {r});
    return os.str();
}

/** FNV-1a over a record line: one 64-bit pin of every byte. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

RunConfig
fabricCfg(unsigned cores, TopologyKind topo,
          const std::string &traffic, bool gals = true)
{
    RunConfig cfg;
    cfg.benchmark = "gcc";
    cfg.instructions = 1200;
    cfg.gals = gals;
    cfg.fabric.cores = cores;
    cfg.fabric.topology = topo;
    cfg.fabric.traffic = traffic;
    return cfg;
}

} // namespace

TEST(Topology, RingLinks)
{
    const auto links = buildTopologyLinks(TopologyKind::ring, 4);
    // Bidirectional ring: 2 directed links per node, sorted by
    // (src, dst), deduped.
    ASSERT_EQ(links.size(), 8u);
    for (const LinkSpec &l : links) {
        const unsigned fwd = (l.src + 1) % 4;
        const unsigned back = (l.src + 3) % 4;
        EXPECT_TRUE(l.dst == fwd || l.dst == back)
            << l.src << "->" << l.dst;
    }
    // Two cores: one link each way, not a duplicated pair.
    EXPECT_EQ(buildTopologyLinks(TopologyKind::ring, 2).size(), 2u);
}

TEST(Topology, MeshLinksAndShape)
{
    EXPECT_EQ(meshRows(6), 2u);  // 2x3
    EXPECT_EQ(meshRows(9), 3u);  // 3x3
    EXPECT_EQ(meshRows(7), 1u);  // prime: degenerates to a chain
    // 2x3 mesh: 7 undirected edges? No: rows*(cols-1) + cols*(rows-1)
    // = 2*2 + 3*1 = 7 undirected, 14 directed.
    EXPECT_EQ(buildTopologyLinks(TopologyKind::mesh2d, 6).size(),
              14u);
}

TEST(Topology, RingRoutingShortestDirection)
{
    // 6-node ring: 0 -> 2 goes forward (distance 2 vs 4).
    EXPECT_EQ(nextHop(TopologyKind::ring, 6, 0, 2), 1u);
    // 0 -> 5 goes backward (distance 1).
    EXPECT_EQ(nextHop(TopologyKind::ring, 6, 0, 5), 5u);
    // Tie (0 -> 3) resolves forward, deterministically.
    EXPECT_EQ(nextHop(TopologyKind::ring, 6, 0, 3), 1u);
}

TEST(Topology, MeshRoutingColumnFirst)
{
    // 2x3 mesh (rows x cols): node = row*3 + col.
    //   0 1 2
    //   3 4 5
    // 0 -> 5: column first (XY with cols varying fastest): 0 -> 1 ->
    // 2 -> 5.
    unsigned at = 0;
    std::vector<unsigned> path;
    while (at != 5) {
        at = nextHop(TopologyKind::mesh2d, 6, at, 5);
        path.push_back(at);
        ASSERT_LT(path.size(), 6u);
    }
    EXPECT_EQ(path, (std::vector<unsigned>{1, 2, 5}));
}

TEST(Traffic, PatternsExpand)
{
    std::vector<TrafficFlow> flows;
    EXPECT_EQ(parseTrafficPattern("permutation", 4, flows), "");
    ASSERT_EQ(flows.size(), 4u);
    EXPECT_EQ(flows[3].dst, 0u);

    EXPECT_EQ(parseTrafficPattern("uniform", 3, flows), "");
    EXPECT_EQ(flows.size(), 6u); // all-to-all minus self

    EXPECT_EQ(parseTrafficPattern("incast", 4, flows), "");
    for (const TrafficFlow &f : flows)
        EXPECT_EQ(f.dst, 0u);

    EXPECT_EQ(parseTrafficPattern("hotspot:2", 4, flows), "");
    for (const TrafficFlow &f : flows)
        EXPECT_EQ(f.dst, 2u);

    EXPECT_EQ(parseTrafficPattern("none", 4, flows), "");
    EXPECT_TRUE(flows.empty());
}

TEST(Traffic, RejectsBadSpecs)
{
    std::vector<TrafficFlow> flows;
    EXPECT_NE(parseTrafficPattern("bogus", 4, flows), "");
    // hotspot target out of range for this core count.
    EXPECT_NE(parseTrafficPattern("hotspot:7", 4, flows), "");
    // Syntax-only check passes hotspot:7 (core count unknown)...
    EXPECT_EQ(checkTrafficSpec("hotspot:7"), "");
    // ...but still rejects garbage.
    EXPECT_NE(checkTrafficSpec("hotspot:x"), "");
    EXPECT_NE(checkTrafficSpec(""), "");
}

TEST(FabricConfig, Validate)
{
    FabricConfig fab;
    EXPECT_EQ(fab.validate(), ""); // inert default
    fab.cores = 4;
    EXPECT_EQ(fab.validate(), "");
    fab.traffic = "hotspot:9";
    EXPECT_NE(fab.validate(), "");
    fab.traffic = "uniform";
    fab.linkFifoCapacity = 1;
    EXPECT_NE(fab.validate(), "");
    fab.linkFifoCapacity = 16;
    fab.traffic = "permutation";
    fab.cores = FabricConfig::maxCores;
    EXPECT_EQ(fab.validate(), "");
    // Above the cap even uniform traffic is refused before its
    // cores^2 flows are built.
    fab.traffic = "uniform";
    fab.cores = 1000000;
    EXPECT_NE(fab.validate(), "");
}

TEST(System, SingleCoreIdentity)
{
    // cores == 1 must take the classic path: identical record bytes,
    // fabric fields absent.
    RunConfig plain;
    plain.benchmark = "gcc";
    plain.instructions = 1500;
    plain.gals = true;

    RunConfig inert = plain;
    inert.fabric.cores = 1;
    inert.fabric.traffic = "incast"; // inert: must not matter

    const std::string a = recordBytes(plain, runOne(plain));
    const std::string b = recordBytes(inert, runOne(inert));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.find("\"cores\""), std::string::npos);
    EXPECT_EQ(a.find("per_core"), std::string::npos);
}

TEST(System, DeterministicRepeatRuns)
{
    const RunConfig cfg =
        fabricCfg(4, TopologyKind::ring, "uniform");
    const std::string a = recordBytes(cfg, runOne(cfg));
    const std::string b = recordBytes(cfg, runOne(cfg));
    EXPECT_EQ(a, b);
    // The record carries the fabric axes and the per-core block.
    EXPECT_NE(a.find("\"cores\":4"), std::string::npos);
    EXPECT_NE(a.find("\"topology\":\"ring\""), std::string::npos);
    EXPECT_NE(a.find("\"per_core\":[{\"core\":0,"),
              std::string::npos);
}

/** A six-core GALS mesh with every request sent to core 1: its
 *  record is pinned to the bytes a std::set event queue and the
 *  calendar queue both produced before the std::set one was retired. */
TEST(System, HotspotMeshRecordPinned)
{
    const RunConfig cfg =
        fabricCfg(6, TopologyKind::mesh2d, "hotspot:1");
    const RunResults r = runOne(cfg);
    EXPECT_EQ(r.ticks, 3790523u);
    EXPECT_EQ(fnv1a(recordBytes(cfg, r)), 0x32af994c92092c0aULL);
}

TEST(System, EveryCoreReachesItsCommitTarget)
{
    const RunConfig cfg =
        fabricCfg(4, TopologyKind::ring, "permutation");
    System sys(cfg);
    const RunResults r = sys.run();
    ASSERT_EQ(r.cores.size(), 4u);
    for (const CoreResults &c : r.cores) {
        EXPECT_EQ(c.committed, cfg.instructions);
        EXPECT_GT(c.msgsSent, 0u);
        EXPECT_GT(c.msgsReceived, 0u);
    }
    EXPECT_EQ(r.committed, 4 * cfg.instructions);
}

TEST(System, BaseModeRunsSynchronously)
{
    // Fabric in base (non-GALS) mode: sync latch links, no random
    // phases — still deterministic and completing.
    const RunConfig cfg =
        fabricCfg(4, TopologyKind::ring, "uniform", false);
    const std::string a = recordBytes(cfg, runOne(cfg));
    const std::string b = recordBytes(cfg, runOne(cfg));
    EXPECT_EQ(a, b);
}

/** A 64-core fabric's channels cost storage in proportion to their
 *  traffic: the cores' 1024 channels stay within a bound far below
 *  their combined modelled depth (about 2.9 M slots). */
TEST(System, ChannelStorageBoundedAtSixtyFourCores)
{
    RunConfig cfg = fabricCfg(64, TopologyKind::mesh2d, "uniform");
    cfg.instructions = 200;
    System sys(cfg);
    sys.run();
    std::size_t channels = 0, slots = 0;
    for (unsigned i = 0; i < sys.cores(); ++i) {
        for (const ChannelBase *ch : sys.core(i).channels()) {
            ++channels;
            slots += ch->storageSlots();
        }
    }
    EXPECT_EQ(channels, 64u * 16u);
    EXPECT_LE(slots, 64u * 1024u);
}

namespace
{

/** One pinned fabric record: its end tick and the FNV-1a digest of
 *  its bytes, per-core block included. */
struct RecordPin
{
    TopologyKind topo;
    const char *traffic;
    bool gals;
    Tick ticks;
    std::uint64_t digest;
};

/** Run @p p's fabric (six cores, two-deep link FIFOs, one request per
 *  6 commits) and check its record against the pin. */
void
expectPinnedRecord(const RecordPin &p)
{
    RunConfig cfg = fabricCfg(6, p.topo, p.traffic, p.gals);
    cfg.fabric.linkFifoCapacity = 2;
    cfg.fabric.trafficInterval = 6;
    const RunResults r = runOne(cfg);
    const std::uint64_t digest = fnv1a(recordBytes(cfg, r));
    const std::string tag = std::string(topologyKindName(p.topo)) + "/" +
                            p.traffic + (p.gals ? "/gals" : "/base");
    EXPECT_EQ(r.ticks, p.ticks) << tag;
    EXPECT_EQ(digest, p.digest) << tag << " 0x" << std::hex << digest;
    for (const CoreResults &c : r.cores)
        EXPECT_EQ(c.committed, cfg.instructions) << tag;
}

} // namespace

/**
 * Pinned records of congested fabrics: ring and 2x3 mesh, base and
 * GALS, so links both backpressure and fall idle. The pins were
 * captured while every link clock ticked on every edge, link edges
 * shared the core edges' priority and each core built its own static
 * program; the records must not change.
 */
TEST(System, RecordPinsTightLinkFifo)
{
    const RecordPin pins[] = {
        {TopologyKind::ring, "uniform", false, 3074000,
         0x5ef699be7acc6559ULL},
        {TopologyKind::ring, "uniform", true, 3808523,
         0x5ac45195eb429dd2ULL},
        {TopologyKind::mesh2d, "uniform", false, 3074000,
         0xf51ea5707684d57bULL},
        {TopologyKind::mesh2d, "uniform", true, 3800523,
         0x3779be97e62bbd60ULL},
    };
    for (const RecordPin &p : pins)
        expectPinnedRecord(p);
}

/** Every request to one hotspot core: the links into it stay
 *  backpressured, so they must keep ticking with a full egress FIFO
 *  rather than park on it. Pinned like RecordPinsTightLinkFifo. */
TEST(System, BackpressuredLinkKeepsTicking)
{
    const RecordPin pins[] = {
        {TopologyKind::mesh2d, "hotspot:1", false, 3074000,
         0x7c62be6dfe95b162ULL},
        {TopologyKind::mesh2d, "hotspot:1", true, 3855523,
         0xf3a6683724f2f9fdULL},
    };
    for (const RecordPin &p : pins)
        expectPinnedRecord(p);
}

/** Without traffic no link is ever woken: each link clock runs its
 *  first edge, finds its ingress FIFO empty and parks, so the run
 *  processes at most its core edges plus one edge per link. */
TEST(System, IdleLinksParkAfterOneEdge)
{
    for (const bool gals : {false, true}) {
        const RunConfig cfg =
            fabricCfg(6, TopologyKind::mesh2d, "none", gals);
        System sys(cfg);
        sys.run();
        std::uint64_t coreEdges = 0;
        for (unsigned i = 0; i < sys.cores(); ++i)
            for (unsigned d = 0; d < numDomains; ++d)
                coreEdges +=
                    sys.core(i).domain(static_cast<DomainId>(d)).cycle();
        const std::uint64_t links =
            buildTopologyLinks(cfg.fabric.topology, cfg.fabric.cores)
                .size();
        EXPECT_GT(coreEdges, 0u);
        EXPECT_LE(sys.eventQueue().processedCount(), coreEdges + links)
            << (gals ? "gals" : "base");
    }
}

TEST(System, CoresShareOneStaticProgram)
{
    const RunConfig cfg = fabricCfg(4, TopologyKind::ring, "uniform");
    System sys(cfg);
    const StaticProgram *program = sys.core(0).workload().program().get();
    ASSERT_NE(program, nullptr);
    for (unsigned i = 1; i < sys.cores(); ++i)
        EXPECT_EQ(sys.core(i).workload().program().get(), program);
}

/** A generator walking a shared program emits the stream and the
 *  snapshot bytes of one that built its own, including when two
 *  generators with different run seeds walk the same program
 *  interleaved (their loop trip counters stay their own). */
TEST(System, SharedProgramGeneratorMatchesPrivateOne)
{
    const BenchmarkProfile &profile = findBenchmark("gcc");
    const auto program = std::make_shared<const StaticProgram>(profile);
    StreamGenerator own[2] = {StreamGenerator(profile, 3),
                              StreamGenerator(profile, 4)};
    StreamGenerator shared[2] = {StreamGenerator(profile, 3, program),
                                 StreamGenerator(profile, 4, program)};
    EXPECT_NE(own[0].program(), shared[0].program());
    EXPECT_EQ(shared[0].program(), shared[1].program());

    for (int i = 0; i < 20000; ++i) {
        for (int g = 0; g < 2; ++g) {
            const GenInst a = own[g].next();
            const GenInst b = shared[g].next();
            ASSERT_EQ(a.pc, b.pc) << g << " @" << i;
            ASSERT_EQ(a.cls, b.cls) << g << " @" << i;
            ASSERT_EQ(a.dest, b.dest) << g << " @" << i;
            ASSERT_EQ(a.taken, b.taken) << g << " @" << i;
            ASSERT_EQ(a.target, b.target) << g << " @" << i;
            ASSERT_EQ(a.memAddr, b.memAddr) << g << " @" << i;
            if (i % 97 == 0) {
                const GenInst wa = own[g].wrongPath(a.pc + 4 * i);
                const GenInst wb = shared[g].wrongPath(a.pc + 4 * i);
                ASSERT_EQ(wa.pc, wb.pc) << g << " @" << i;
                ASSERT_EQ(wa.cls, wb.cls) << g << " @" << i;
                ASSERT_EQ(wa.target, wb.target) << g << " @" << i;
                ASSERT_EQ(wa.memAddr, wb.memAddr) << g << " @" << i;
            }
        }
    }
    for (int g = 0; g < 2; ++g) {
        SnapshotWriter wa, wb;
        own[g].snapshotSave(wa);
        shared[g].snapshotSave(wb);
        EXPECT_EQ(wa.bytes(), wb.bytes()) << g;
    }
}
