#include "runner/gtrj.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "power/power_model.hh"
#include "runner/record.hh"
#include "runner/reporter.hh"
#include "sim/bytecodec.hh"
#include "sim/logging.hh"

namespace gals::runner::gtrj
{

namespace
{

/** A frame longer than this is a torn length prefix, not a record:
 *  real records are a few hundred bytes. */
constexpr std::uint64_t maxPayloadLen = 1ull << 30;

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

/** The gtrj writer of a record (runner/record.hh): varints for
 *  integers and counts, raw bits for doubles, the gated blocks and
 *  the two booleans in the flags byte. */
class FrameWriter
{
  public:
    explicit FrameWriter(std::string &out) : out_(out) {}

    unsigned
    blocks(unsigned present)
    {
        flagsAt_ = out_.size();
        out_.push_back(static_cast<char>(present));
        return present;
    }

    void
    flag(const char *, unsigned bit, bool b)
    {
        if (b)
            out_[flagsAt_] = static_cast<char>(out_[flagsAt_] | bit);
    }

    template <std::integral T>
    void field(const char *, T v) { appendVarint(out_, v); }
    void field(const char *, double v) { appendF64(out_, v); }
    void field(const char *, const std::string &s) { appendString(out_, s); }
    void field(const char *, TopologyKind k)
    {
        appendString(out_, topologyKindName(k));
    }
    void field(const char *, std::uint64_t stored, std::uint64_t)
    {
        appendVarint(out_, stored);
    }

    bool replicas(const char *) { return false; }
    void columns(const char *, std::size_t n) { appendVarint(out_, n); }

    void
    metric(const MetricAccessor &acc, std::size_t, const RunResults &r)
    {
        if (acc.integral)
            appendVarint(out_, acc.getU(r));
        else
            appendF64(out_, acc.get(r));
    }

    /** Positional unit energies: every run reports the full
     *  power-model unit set, so the sorted names are implied, not
     *  repeated. */
    void
    energies(const char *, const std::map<std::string, double> &nj)
    {
        const auto &names = canonicalUnitNames();
        gals_assert(nj.size() == names.size(), "gtrj: run reports ",
                    nj.size(), " unit energies, expected ", names.size());
        appendVarint(out_, nj.size());
        auto name = names.begin();
        for (const auto &[unit, v] : nj) {
            gals_assert(unit == *name, "gtrj: unit '", unit,
                        "' out of canonical order (expected '", *name,
                        "')");
            ++name;
            appendF64(out_, v);
        }
    }

    void
    energies(const char *, const PerDomain<double> &nj)
    {
        for (const double v : nj)
            appendF64(out_, v);
    }

    template <class E>
    void
    list(const char *, const std::vector<E> &entries)
    {
        appendVarint(out_, entries.size());
        for (const E &e : entries)
            walkEntry(*this, e);
    }

  private:
    std::string &out_;
    std::size_t flagsAt_ = 0;
};

/** The fewest payload bytes an entry of a block takes: a blank entry
 *  encodes every varint in one byte and every double in eight. */
template <class E>
std::size_t
minEntryBytes()
{
    static const std::size_t bytes = [] {
        std::string out;
        FrameWriter writer(out);
        const E blank{};
        walkEntry(writer, blank);
        return out.size();
    }();
    return bytes;
}

/** The gtrj reader of a record. Errors are sticky: the first
 *  truncated or invalid field sets @ref err, and the reader keeps
 *  walking bounded by the payload, sizing nothing by what it reads. */
class FrameReader
{
  public:
    explicit FrameReader(std::string_view payload) : in_(payload) {}

    std::string err;
    unsigned flags = 0;

    bool ok() const { return err.empty(); }
    std::size_t left() const { return in_.size() - pos_; }

    void
    fail(std::string why)
    {
        if (ok())
            err = std::move(why);
    }

    unsigned
    blocks(unsigned)
    {
        check(pos_ < in_.size());
        flags = ok() ? static_cast<unsigned char>(in_[pos_++]) : 0;
        if (flags & ~flagKnownMask)
            fail("gtrj record with unknown flag bits");
        return flags;
    }

    void flag(const char *, unsigned bit, bool &b) { b = flags & bit; }

    template <std::integral T>
    void
    field(const char *, T &v)
    {
        std::uint64_t x = 0;
        check(readVarint(in_, pos_, x));
        v = static_cast<T>(x);
    }

    void field(const char *, double &v) { check(readF64(in_, pos_, v)); }
    void field(const char *, std::string &s)
    {
        check(readString(in_, pos_, s));
    }

    void
    field(const char *name, TopologyKind &k)
    {
        std::string s;
        field(name, s);
        if (ok() && !parseTopologyKind(s, k))
            fail("gtrj record with unknown topology '" + s + "'");
    }

    void field(const char *name, std::uint64_t &stored, std::uint64_t)
    {
        field(name, stored);
    }

    bool replicas(const char *) { return false; }

    void
    columns(const char *what, std::size_t n)
    {
        std::uint64_t count = 0;
        field(what, count);
        if (ok() && count != n)
            fail("gtrj record with " + std::to_string(count) + " " + what +
                 ", expected " + std::to_string(n));
    }

    void
    metric(const MetricAccessor &acc, std::size_t, RunResults &r)
    {
        std::uint64_t u = 0;
        double d = 0.0;
        if (acc.integral) {
            field(acc.name, u);
            acc.setU(r, u);
        } else {
            field(acc.name, d);
            acc.set(r, d);
        }
    }

    void
    energies(const char *, std::map<std::string, double> &nj)
    {
        const auto &names = canonicalUnitNames();
        columns("unit energies", names.size());
        if (ok())
            for (const std::string &unit : names)
                field(unit.c_str(), nj[unit]);
    }

    void
    energies(const char *name, PerDomain<double> &nj)
    {
        for (double &v : nj)
            field(name, v);
    }

    /** A count the remaining bytes cannot hold is refused before it
     *  sizes an allocation. */
    template <class E>
    void
    list(const char *name, std::vector<E> &entries)
    {
        std::uint64_t n = 0;
        field(name, n);
        check(n <= left() / minEntryBytes<E>());
        if (!ok())
            return;
        entries.resize(static_cast<std::size_t>(n));
        for (E &e : entries)
            walkEntry(*this, e);
    }

  private:
    /** A read past the payload's end, or a count it cannot hold. */
    void
    check(bool fits)
    {
        if (!fits)
            fail("truncated gtrj record payload");
    }

    std::string_view in_;
    std::size_t pos_ = 0;
};

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

std::string
encodeRecord(const std::string &scenario, std::uint64_t index,
             const RunConfig &cfg, const RunResults &r)
{
    std::string p;
    p.reserve(512);
    FrameWriter writer(p);
    walkRecord(writer, scenario, index, cfg, r);

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
    FrameReader in(payload);
    walkRecord(in, out.scenario, out.index, out.cfg, out.results);
    // A record keeps its benchmark and base/GALS bit once, in the
    // results.
    out.cfg.benchmark = out.results.benchmark;
    out.cfg.gals = out.results.gals;
    // The writer sets a gate bit exactly when its block is present: a
    // bit over a zero warmup or interval length, one core or an empty
    // per-core block is no record it wrote.
    if (recordBlocks(out.cfg, out.results) !=
        (in.flags & ~(flagGals | flagDynamicDvfs)))
        in.fail("gtrj record whose flags disagree with its blocks");
    if (in.left() != 0)
        in.fail("gtrj record with " + std::to_string(in.left()) +
                " trailing payload bytes");
    err = in.err;
    return in.ok();
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

/** Render every record of @p buf as JSON lines, or as CSV with the
 *  header taken from the first record (an empty file has no record to
 *  take the energy_nj.* column set from). */
bool
render(std::string_view buf, std::string &out, std::string &err, bool csv)
{
    std::size_t pos = 0;
    if (!readHeader(buf, pos, err))
        return false;
    std::ostringstream os;
    std::string_view payload;
    for (std::size_t n = 0;; ++n) {
        const FrameStatus st = nextFrame(buf, pos, payload, err);
        if (st == FrameStatus::torn)
            return false;
        if (st == FrameStatus::eof)
            break;
        DecodedRecord rec;
        if (!decodePayload(payload, rec, err)) {
            err = "record " + std::to_string(n) + ": " + err;
            return false;
        }
        if (csv && n == 0)
            writeCsvHeader(os, rec.results);
        const std::vector<std::size_t> index{
            static_cast<std::size_t>(rec.index)};
        (csv ? writeCsvRows : writeJsonLines)(os, rec.scenario, {rec.cfg},
                                              {rec.results}, &index);
    }
    out = os.str();
    return true;
}

} // namespace

bool
toJsonLines(std::string_view buf, std::string &out, std::string &err)
{
    return render(buf, out, err, false);
}

bool
toCsv(std::string_view buf, std::string &out, std::string &err)
{
    return render(buf, out, err, true);
}

} // namespace gals::runner::gtrj
