#include "runner/gtrj.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "power/power_model.hh"
#include "runner/reporter.hh"
#include "runner/stats.hh"
#include "sim/bytecodec.hh"
#include "sim/logging.hh"

namespace gals::runner::gtrj
{

namespace
{

/** Optional-block bits of the per-record flags byte. A reader that
 *  predates a bit rejects records carrying it (see flagKnownMask in
 *  decodePayload), so adding a bit extends the format without
 *  touching the bytes of any record not using it. */
enum : unsigned char
{
    flagGals = 1u << 0,
    flagDynamicDvfs = 1u << 1,
    flagFabric = 1u << 2,
    flagPerCore = 1u << 3,
    flagIntervals = 1u << 4,
    flagWarmup = 1u << 5,
    flagKnownMask = (1u << 6) - 1,
};

/** A frame longer than this is a torn length prefix, not a record:
 *  real records are a few hundred bytes. */
constexpr std::uint64_t maxPayloadLen = 1ull << 30;

/** The fewest payload bytes a per-core entry (6 varints, 3 doubles)
 *  and an interval sample (3 varints, 1 + numDomains doubles) take: a
 *  block count the remaining bytes cannot hold is rejected before it
 *  sizes an allocation. */
constexpr std::size_t minCoreBytes = 6 + 3 * 8;
constexpr std::size_t minIntervalBytes = 3 + (1 + numDomains) * 8;

/**
 * The power-model unit names in std::map iteration (sorted) order:
 * the implicit column order of the positional unit-energy block.
 * Changing the Unit enum therefore changes the format — bump
 * formatVersion.
 */
const std::vector<std::string> &
canonicalUnitNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        v.reserve(numUnits);
        for (unsigned i = 0; i < numUnits; ++i)
            v.push_back(unitName(static_cast<Unit>(i)));
        std::sort(v.begin(), v.end());
        return v;
    }();
    return names;
}

// The codec primitives moved to sim/bytecodec.hh when the snapshot
// format (core/snapshot.hh) started sharing them.
using codec::appendF64;
using codec::appendString;
using codec::readF64;
using codec::readString;

} // namespace

const std::string &
fileHeader()
{
    static const std::string header = [] {
        std::string h(magic, sizeof(magic));
        appendVarint(h, formatVersion);
        return h;
    }();
    return header;
}

void
appendVarint(std::string &out, std::uint64_t v)
{
    codec::appendVarint(out, v);
}

bool
readVarint(std::string_view buf, std::size_t &pos, std::uint64_t &v)
{
    return codec::readVarint(buf, pos, v);
}

std::string
encodeRecord(const std::string &scenario, std::uint64_t index,
             const RunConfig &cfg, const RunResults &r)
{
    std::string p;
    p.reserve(512);

    appendString(p, scenario);
    appendVarint(p, index);
    appendString(p, r.benchmark);

    unsigned char flags = 0;
    if (r.gals)
        flags |= flagGals;
    if (cfg.dynamicDvfs)
        flags |= flagDynamicDvfs;
    if (cfg.fabric.active())
        flags |= flagFabric;
    if (!r.cores.empty())
        flags |= flagPerCore;
    if (cfg.intervalTicks > 0)
        flags |= flagIntervals;
    if (cfg.warmupInstructions > 0)
        flags |= flagWarmup;
    p.push_back(static_cast<char>(flags));

    appendVarint(p, cfg.instructions);
    appendVarint(p, cfg.seed);
    // The raw phase seed, not the resolved one: the follows-workload
    // sentinel must survive the round trip so a decoded record
    // resolves (and prints) exactly like the native run's config.
    appendVarint(p, cfg.phaseSeed);

    if (flags & flagWarmup)
        appendVarint(p, cfg.warmupInstructions);

    if (flags & flagFabric) {
        appendVarint(p, cfg.fabric.cores);
        appendString(p, topologyKindName(cfg.fabric.topology));
        appendString(p, cfg.fabric.traffic);
    }

    const auto &accessors = metricAccessors();
    appendVarint(p, accessors.size());
    for (const MetricAccessor &acc : accessors) {
        if (acc.integral)
            appendVarint(p, acc.getU(r));
        else
            appendF64(p, acc.get(r));
    }

    // Positional unit energies: every run reports the full power-model
    // unit set, so the sorted names are implied, not repeated.
    const auto &unitNames = canonicalUnitNames();
    gals_assert(r.unitEnergyNj.size() == unitNames.size(),
                "gtrj: run reports ", r.unitEnergyNj.size(),
                " unit energies, expected ", unitNames.size());
    appendVarint(p, r.unitEnergyNj.size());
    std::size_t u = 0;
    for (const auto &[unit, nj] : r.unitEnergyNj) {
        gals_assert(unit == unitNames[u], "gtrj: unit '", unit,
                    "' out of canonical order (expected '",
                    unitNames[u], "')");
        ++u;
        appendF64(p, nj);
    }

    if (flags & flagPerCore) {
        appendVarint(p, r.cores.size());
        for (const CoreResults &cr : r.cores) {
            appendVarint(p, cr.core);
            appendVarint(p, cr.committed);
            appendF64(p, cr.ipcNominal);
            appendF64(p, cr.energyJ);
            appendVarint(p, cr.fifoEvents);
            appendVarint(p, cr.msgsSent);
            appendVarint(p, cr.msgsReceived);
            appendVarint(p, cr.remoteStallCycles);
            appendF64(p, cr.avgRemoteLatencyCycles);
        }
    }

    if (flags & flagIntervals) {
        appendVarint(p, cfg.intervalTicks);
        appendVarint(p, r.intervals.size());
        for (const IntervalSample &s : r.intervals) {
            appendVarint(p, s.tick);
            appendVarint(p, s.committed);
            appendF64(p, s.ipc);
            for (double nj : s.energyNj)
                appendF64(p, nj);
            appendVarint(p, s.fifoOcc);
        }
    }

    std::string frame;
    frame.reserve(p.size() + 4);
    appendVarint(frame, p.size());
    frame += p;
    return frame;
}

bool
readHeader(std::string_view buf, std::size_t &pos, std::string &err)
{
    if (buf.size() - pos < sizeof(magic) ||
        std::memcmp(buf.data() + pos, magic, sizeof(magic)) != 0) {
        err = "not a gtrj file (bad magic)";
        return false;
    }
    pos += sizeof(magic);
    std::uint64_t version = 0;
    if (!readVarint(buf, pos, version)) {
        err = "gtrj header truncated";
        return false;
    }
    if (version != formatVersion) {
        err = "unsupported gtrj format version " +
              std::to_string(version) + " (this build reads " +
              std::to_string(formatVersion) + ")";
        return false;
    }
    return true;
}

FrameStatus
nextFrame(std::string_view buf, std::size_t &pos,
          std::string_view &payload, std::string &err)
{
    if (pos >= buf.size())
        return FrameStatus::eof;
    std::size_t p = pos;
    std::uint64_t len = 0;
    if (!readVarint(buf, p, len)) {
        err = "torn frame length at offset " + std::to_string(pos);
        return FrameStatus::torn;
    }
    if (len > maxPayloadLen || len > buf.size() - p) {
        err = "torn frame at offset " + std::to_string(pos) +
              " (payload of " + std::to_string(len) + " bytes, " +
              std::to_string(buf.size() - p) + " available)";
        return FrameStatus::torn;
    }
    payload = buf.substr(p, static_cast<std::size_t>(len));
    pos = p + static_cast<std::size_t>(len);
    return FrameStatus::ok;
}

bool
decodePayload(std::string_view payload, DecodedRecord &out,
              std::string &err)
{
    out = DecodedRecord();
    std::size_t pos = 0;
    err = "truncated gtrj record payload";

    if (!readString(payload, pos, out.scenario))
        return false;
    if (!readVarint(payload, pos, out.index))
        return false;
    if (!readString(payload, pos, out.cfg.benchmark))
        return false;
    out.results.benchmark = out.cfg.benchmark;

    if (pos >= payload.size())
        return false;
    const unsigned char flags =
        static_cast<unsigned char>(payload[pos++]);
    if (flags & ~flagKnownMask) {
        err = "gtrj record with unknown flag bits";
        return false;
    }
    out.cfg.gals = flags & flagGals;
    out.results.gals = out.cfg.gals;
    out.cfg.dynamicDvfs = flags & flagDynamicDvfs;

    if (!readVarint(payload, pos, out.cfg.instructions))
        return false;
    if (!readVarint(payload, pos, out.cfg.seed))
        return false;
    if (!readVarint(payload, pos, out.cfg.phaseSeed))
        return false;

    if (flags & flagWarmup) {
        if (!readVarint(payload, pos, out.cfg.warmupInstructions) ||
            out.cfg.warmupInstructions == 0) {
            err = "gtrj record with invalid warmup instruction count";
            return false;
        }
    }

    if (flags & flagFabric) {
        std::uint64_t cores = 0;
        std::string topology;
        if (!readVarint(payload, pos, cores) ||
            !readString(payload, pos, topology) ||
            !readString(payload, pos, out.cfg.fabric.traffic))
            return false;
        out.cfg.fabric.cores = static_cast<unsigned>(cores);
        if (!parseTopologyKind(topology, out.cfg.fabric.topology)) {
            err = "gtrj record with unknown topology '" + topology +
                  "'";
            return false;
        }
    }

    const auto &accessors = metricAccessors();
    std::uint64_t metricCount = 0;
    if (!readVarint(payload, pos, metricCount))
        return false;
    if (metricCount != accessors.size()) {
        err = "gtrj record with " + std::to_string(metricCount) +
              " metric columns, expected " +
              std::to_string(accessors.size());
        return false;
    }
    for (const MetricAccessor &acc : accessors) {
        if (acc.integral) {
            std::uint64_t v = 0;
            if (!readVarint(payload, pos, v))
                return false;
            acc.setU(out.results, v);
        } else {
            double v = 0.0;
            if (!readF64(payload, pos, v))
                return false;
            acc.set(out.results, v);
        }
    }

    const auto &unitNames = canonicalUnitNames();
    std::uint64_t unitCount = 0;
    if (!readVarint(payload, pos, unitCount))
        return false;
    if (unitCount != unitNames.size()) {
        err = "gtrj record with " + std::to_string(unitCount) +
              " unit energies, expected " +
              std::to_string(unitNames.size());
        return false;
    }
    for (const std::string &unit : unitNames) {
        double nj = 0.0;
        if (!readF64(payload, pos, nj))
            return false;
        out.results.unitEnergyNj[unit] = nj;
    }

    if (flags & flagPerCore) {
        std::uint64_t n = 0;
        if (!readVarint(payload, pos, n) ||
            n > (payload.size() - pos) / minCoreBytes)
            return false;
        out.results.cores.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            CoreResults cr;
            std::uint64_t core = 0;
            if (!readVarint(payload, pos, core) ||
                !readVarint(payload, pos, cr.committed) ||
                !readF64(payload, pos, cr.ipcNominal) ||
                !readF64(payload, pos, cr.energyJ) ||
                !readVarint(payload, pos, cr.fifoEvents) ||
                !readVarint(payload, pos, cr.msgsSent) ||
                !readVarint(payload, pos, cr.msgsReceived) ||
                !readVarint(payload, pos, cr.remoteStallCycles) ||
                !readF64(payload, pos, cr.avgRemoteLatencyCycles))
                return false;
            cr.core = static_cast<unsigned>(core);
            out.results.cores.push_back(cr);
        }
    }

    if (flags & flagIntervals) {
        std::uint64_t n = 0;
        if (!readVarint(payload, pos, out.cfg.intervalTicks) ||
            out.cfg.intervalTicks == 0 ||
            !readVarint(payload, pos, n) ||
            n > (payload.size() - pos) / minIntervalBytes)
            return false;
        out.results.intervals.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            IntervalSample s;
            if (!readVarint(payload, pos, s.tick) ||
                !readVarint(payload, pos, s.committed) ||
                !readF64(payload, pos, s.ipc))
                return false;
            for (double &nj : s.energyNj)
                if (!readF64(payload, pos, nj))
                    return false;
            if (!readVarint(payload, pos, s.fifoOcc))
                return false;
            out.results.intervals.push_back(s);
        }
    }

    if (pos != payload.size()) {
        err = "gtrj record with " +
              std::to_string(payload.size() - pos) +
              " trailing payload bytes";
        return false;
    }
    err.clear();
    return true;
}

std::size_t
countFrames(std::string_view buf)
{
    std::size_t pos = 0;
    std::string err;
    if (!readHeader(buf, pos, err))
        return 0;
    std::size_t n = 0;
    std::string_view payload;
    while (nextFrame(buf, pos, payload, err) == FrameStatus::ok)
        ++n;
    return n;
}

namespace
{

/** Shared frame walk of the two converters: calls @p emit per
 *  decoded record, in file order. */
template <typename Emit>
bool
convert(std::string_view buf, std::string &err, Emit &&emit)
{
    std::size_t pos = 0;
    if (!readHeader(buf, pos, err))
        return false;
    std::string_view payload;
    std::size_t n = 0;
    for (;;) {
        const FrameStatus st = nextFrame(buf, pos, payload, err);
        if (st == FrameStatus::eof)
            return true;
        if (st == FrameStatus::torn)
            return false;
        DecodedRecord rec;
        if (!decodePayload(payload, rec, err)) {
            err = "record " + std::to_string(n) + ": " + err;
            return false;
        }
        emit(rec);
        ++n;
    }
}

} // namespace

bool
toJsonLines(std::string_view buf, std::string &out, std::string &err)
{
    std::ostringstream os;
    if (!convert(buf, err, [&os](const DecodedRecord &rec) {
            const std::vector<RunConfig> cfgs{rec.cfg};
            const std::vector<RunResults> results{rec.results};
            const std::vector<std::size_t> indices{
                static_cast<std::size_t>(rec.index)};
            writeJsonLines(os, rec.scenario, cfgs, results, &indices);
        }))
        return false;
    out = os.str();
    return true;
}

bool
toCsv(std::string_view buf, std::string &out, std::string &err)
{
    std::ostringstream os;
    bool wroteHeader = false;
    if (!convert(buf, err, [&os, &wroteHeader](
                               const DecodedRecord &rec) {
            // Header from the first record: an empty grid has no
            // record to take the energy_nj.* column set from.
            if (!wroteHeader) {
                writeCsvHeader(os, rec.results);
                wroteHeader = true;
            }
            const std::vector<RunConfig> cfgs{rec.cfg};
            const std::vector<RunResults> results{rec.results};
            const std::vector<std::size_t> indices{
                static_cast<std::size_t>(rec.index)};
            writeCsvRows(os, rec.scenario, cfgs, results, &indices);
        }))
        return false;
    out = os.str();
    return true;
}

} // namespace gals::runner::gtrj
