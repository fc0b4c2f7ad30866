/**
 * @file
 * Fabric (multi-core) configuration: how many cores, how they are
 * wired (Topology) and who talks to whom (TrafficMatrix).
 *
 * A default-constructed FabricConfig means "no fabric": one core, the
 * single-processor paper pipeline, and — critically — zero effect on
 * runConfigHash(), trajectory records or manifests, so every
 * pre-fabric archive keeps verifying byte-for-byte.
 */

#ifndef FABRIC_FABRIC_CONFIG_HH
#define FABRIC_FABRIC_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core_config.hh"

namespace gals
{

/** Generated link graphs connecting the cores. */
enum class TopologyKind : std::uint8_t
{
    ring,   ///< bidirectional ring, shortest-direction routing
    mesh2d, ///< 2D mesh (rows x cols), XY dimension-order routing
};

/** Stable lowercase name (CLI value, trajectory field). */
const char *topologyKindName(TopologyKind k);

/** Parse a CLI topology name; false on unknown. */
bool parseTopologyKind(const std::string &s, TopologyKind &out);

/** One src -> dst request stream of a traffic matrix. */
struct TrafficFlow
{
    unsigned src = 0;
    unsigned dst = 0;
};

/**
 * Expand a declarative traffic-matrix spec into flows for @p cores
 * cores. Specs:
 *
 *   none        no inter-core traffic (cores run independently)
 *   permutation core i -> core (i+1) mod N
 *   uniform     all-to-all: every core -> every other core
 *   incast      every core -> core 0
 *   hotspot     alias for hotspot:0
 *   hotspot:K   every core -> core K
 *
 * @return "" on success, else a diagnostic (unknown pattern, or a
 *     referenced core >= @p cores).
 */
std::string parseTrafficPattern(const std::string &spec, unsigned cores,
                                std::vector<TrafficFlow> &flows);

/** Syntax-only spec check (core count not yet known). "" == ok. */
std::string checkTrafficSpec(const std::string &spec);

/**
 * The fabric axes of one run. Inert at cores == 1 (active() false):
 * the run takes the classic single-Processor path and none of these
 * fields is hashed or reported.
 */
struct FabricConfig
{
    /** Largest supported fabric: uniform traffic alone builds
     *  cores * (cores - 1) flows, and every core is a Processor. */
    static constexpr unsigned maxCores = 1024;

    /** Number of cores (1..maxCores); > 1 engages fabric::runSystem(). */
    unsigned cores = 1;

    TopologyKind topology = TopologyKind::ring;

    /** Traffic-matrix spec (see parseTrafficPattern()). */
    std::string traffic = "uniform";

    /** Capacity of each inter-core link FIFO (both segments). */
    unsigned linkFifoCapacity = defaults::fetchQueueSize * 2;

    /** A core injects one remote request per this many commits. */
    std::uint64_t trafficInterval = 200;

    /** Max requests in flight per core before fetch stalls on the
     *  remote completions (the "remote dependency" window). */
    unsigned trafficWindow = 8;

    bool active() const { return cores > 1; }

    /** "" when runnable, else a diagnostic. */
    std::string validate() const;
};

} // namespace gals

#endif // FABRIC_FABRIC_CONFIG_HH
