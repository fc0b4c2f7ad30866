/**
 * @file
 * Tests for the multi-core fabric layer: topology generation and
 * routing, traffic-matrix parsing, FabricConfig validation, the
 * single-core identity guarantee (an inert fabric config is
 * bit-for-bit the classic single-Processor run), and the determinism
 * contract (repeat runs and calendar-vs-heap engines byte-identical,
 * per-core records included).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "fabric/fabric_config.hh"
#include "fabric/system.hh"
#include "fabric/topology.hh"
#include "runner/reporter.hh"
#include "sim/event_queue.hh"

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

TEST(System, EnginesAgreeByteForByte)
{
    const RunConfig cfg =
        fabricCfg(6, TopologyKind::mesh2d, "hotspot:1");
    const QueueEngine prev = EventQueue::defaultEngine();
    EventQueue::setDefaultEngine(QueueEngine::calendar);
    const std::string cal = recordBytes(cfg, runOne(cfg));
    EventQueue::setDefaultEngine(QueueEngine::heap);
    const std::string heap = recordBytes(cfg, runOne(cfg));
    EventQueue::setDefaultEngine(prev);
    EXPECT_EQ(cal, heap);
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
