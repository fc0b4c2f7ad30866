#include "fabric/fabric_config.hh"

namespace gals
{

const char *
topologyKindName(TopologyKind k)
{
    switch (k) {
      case TopologyKind::ring:
        return "ring";
      case TopologyKind::mesh2d:
        return "mesh2d";
    }
    return "?";
}

bool
parseTopologyKind(const std::string &s, TopologyKind &out)
{
    if (s == "ring") {
        out = TopologyKind::ring;
        return true;
    }
    if (s == "mesh2d") {
        out = TopologyKind::mesh2d;
        return true;
    }
    return false;
}

namespace
{

/** Parse the ":K" suffix of hotspot:K. Returns false on malformed. */
bool
parseHotspotTarget(const std::string &spec, unsigned long &target)
{
    const std::string digits = spec.substr(std::string("hotspot:").size());
    if (digits.empty())
        return false;
    target = 0;
    for (const char c : digits) {
        if (c < '0' || c > '9')
            return false;
        target = target * 10 + static_cast<unsigned long>(c - '0');
        if (target > 1000000)
            return false;
    }
    return true;
}

bool
isHotspotSpec(const std::string &spec)
{
    return spec.rfind("hotspot:", 0) == 0;
}

} // namespace

std::string
checkTrafficSpec(const std::string &spec)
{
    if (spec == "none" || spec == "permutation" || spec == "uniform" ||
        spec == "incast" || spec == "hotspot")
        return "";
    if (isHotspotSpec(spec)) {
        unsigned long target = 0;
        if (!parseHotspotTarget(spec, target))
            return "malformed hotspot target in '" + spec +
                   "' (want hotspot:<core>)";
        return "";
    }
    return "unknown traffic pattern '" + spec +
           "' (valid: none, permutation, uniform, incast, "
           "hotspot[:<core>])";
}

std::string
parseTrafficPattern(const std::string &spec, unsigned cores,
                    std::vector<TrafficFlow> &flows)
{
    flows.clear();
    const std::string syntax = checkTrafficSpec(spec);
    if (!syntax.empty())
        return syntax;

    if (spec == "none")
        return "";

    if (spec == "permutation") {
        for (unsigned i = 0; i < cores; ++i)
            flows.push_back({i, (i + 1) % cores});
        return "";
    }

    if (spec == "uniform") {
        for (unsigned i = 0; i < cores; ++i)
            for (unsigned j = 0; j < cores; ++j)
                if (i != j)
                    flows.push_back({i, j});
        return "";
    }

    unsigned long target = 0; // incast and hotspot default to core 0
    if (isHotspotSpec(spec) && !parseHotspotTarget(spec, target))
        return "malformed hotspot target in '" + spec + "'";
    if (target >= cores)
        return "traffic '" + spec + "' references core " +
               std::to_string(target) + " but the fabric has only " +
               std::to_string(cores) + " cores";
    for (unsigned i = 0; i < cores; ++i)
        if (i != target)
            flows.push_back({i, static_cast<unsigned>(target)});
    return "";
}

std::string
FabricConfig::validate() const
{
    if (cores == 0)
        return "fabric: cores must be >= 1";
    if (cores > maxCores)
        return "fabric: cores must be <= " + std::to_string(maxCores);
    if (!active())
        return "";
    if (linkFifoCapacity < 2)
        return "fabric: link FIFO capacity must be >= 2";
    if (trafficInterval == 0)
        return "fabric: traffic interval must be >= 1";
    if (trafficWindow == 0)
        return "fabric: traffic window must be >= 1";
    std::vector<TrafficFlow> flows;
    return parseTrafficPattern(traffic, cores, flows);
}

} // namespace gals
