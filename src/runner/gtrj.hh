/**
 * @file
 * The `.gtrj` binary trajectory format.
 *
 * A gtrj file is the hot-path twin of the JSON-lines trajectory: the
 * same canonical per-run records (scenario, canonical grid index,
 * config identity, every metric column, unit energies, per-core and
 * interval blocks), varint-packed into length-prefixed binary frames
 * behind a fixed magic/version header. `galsbench parse` converts a
 * gtrj file back to the strict JSON-lines/CSV reporters byte-for-byte,
 * so the binary file carries exactly the information of its text twin
 * at a fraction of the size.
 *
 * Layout (all integers LEB128 varints, all doubles raw IEEE-754 bits
 * little-endian — non-finite values round-trip exactly):
 *
 *   file   := "GTRJ" varint(formatVersion) frame*
 *   frame  := varint(payloadLen) payload
 *
 * The payload is the walk of the record schema (walkRecord() in
 * runner/record.hh), so its field order is the text records' order.
 * Integral metric columns and block counts are varints, doubles are
 * 8-byte bit patterns, and the unit-energy block stores values
 * positionally against the sorted power-model unit-name list rather
 * than repeating the names per record. A flags byte holds the gals
 * and dynamic_dvfs booleans and gates the optional blocks (warmup,
 * fabric axes, per-core results, interval samples).
 *
 * Versioning rules: a field is added, moved or removed in one place,
 * the record schema (runner/record.hh). Any change to the payload
 * field order, the meaning of an existing flags-byte bit, the metric
 * column list, or the power-model unit set bumps @ref formatVersion
 * (readers reject unknown versions), and ships with a
 * galssimVersion() bump since the records describe simulator output.
 * The one additive path that does NOT bump the version is claiming a
 * previously-unused flag bit for a new gated block (the
 * fabric/interval/warmup pattern): every record not using the bit
 * keeps its exact bytes, and older readers reject records that do
 * carry it via the known-bits mask — a clean refusal, never a
 * misparse. There is no in-band skipping; the format optimizes for
 * exactness, not forward compatibility.
 *
 * Frames are self-delimiting and encoded statelessly (no
 * inter-record compression), so a shard's frames are byte-identical
 * to the same records in an unsharded file — `--merge` interleaves
 * the raw frames of complete shards without re-encoding — and a
 * SIGKILL mid-write leaves a detectable torn tail: `--resume` keeps
 * the valid frame prefix and truncates the rest (scanResume() in
 * runner/trajectory.hh). That is why gtrj is the record stream of
 * every run: a `.jsonl`/`.json`/`.csv` file — a run's, `parse`'s or
 * `--merge`'s — is rendered from frames through toJsonLines() /
 * toCsv(), and shard files and resumable runs are gtrj only.
 */

#ifndef RUNNER_GTRJ_HH
#define RUNNER_GTRJ_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "core/experiment.hh"
#include "sim/bytecodec.hh"

namespace gals::runner::gtrj
{

/** Bumped on any payload-layout change; readers reject others. */
constexpr std::uint64_t formatVersion = 1;

/** The 4-byte file magic. */
inline constexpr char magic[4] = {'G', 'T', 'R', 'J'};

/** The file header bytes: magic + varint(formatVersion). */
const std::string &fileHeader();

/** The LEB128 varints of every integer in a frame. */
using codec::appendVarint;
using codec::readVarint;

/** One record decoded from a frame: enough config + results to
 *  regenerate the exact JSON-lines/CSV record bytes. */
struct DecodedRecord
{
    std::string scenario;
    std::uint64_t index = 0;
    RunConfig cfg;
    RunResults results;
};

/**
 * Encode one run as a complete frame (length prefix + payload).
 * Encoding is stateless: the bytes depend only on the arguments, so
 * shard-written frames equal their unsharded twins.
 */
std::string encodeRecord(const std::string &scenario,
                         std::uint64_t index, const RunConfig &cfg,
                         const RunResults &r);

/** Validate the header at the start of @p buf, advancing @p pos past
 *  it; false (with @p err set) on short/foreign/unknown-version
 *  bytes. */
bool readHeader(std::string_view buf, std::size_t &pos,
                std::string &err);

/** Outcome of reading one frame. */
enum class FrameStatus
{
    ok,  ///< payload extracted, @p pos advanced past the frame
    eof, ///< clean end of file exactly at @p pos
    torn ///< trailing bytes that are not a complete frame
};

/** Read the frame at @p pos: on ok, @p payload views the payload
 *  bytes inside @p buf and @p pos moves past the frame. The length
 *  prefix alone is checked here; decodePayload() validates content. */
FrameStatus nextFrame(std::string_view buf, std::size_t &pos,
                      std::string_view &payload, std::string &err);

/** Decode one frame payload; false (with @p err) on any layout
 *  violation, including trailing unconsumed bytes. */
bool decodePayload(std::string_view payload, DecodedRecord &out,
                   std::string &err);

/** Complete frames at the start of @p buf (header included), walking
 *  length prefixes only; a torn tail or bad header just ends the
 *  count. Used for cheap progress reporting. */
std::size_t countFrames(std::string_view buf);

/**
 * Convert a whole gtrj buffer to JSON-lines text, byte-identical to
 * the writeJsonLines() output of a native run of the same records;
 * false (with @p err) on a bad header or any torn/undecodable frame.
 */
bool toJsonLines(std::string_view buf, std::string &out,
                 std::string &err);

/** Same conversion to CSV (header row from the first record); false
 *  on bad input. */
bool toCsv(std::string_view buf, std::string &out, std::string &err);

} // namespace gals::runner::gtrj

#endif // RUNNER_GTRJ_HH
