/**
 * @file
 * Seeded mutation harnesses for the `--resume` scanner and for the
 * shard manifests `--merge` reads.
 *
 * Two real trajectories — fig05 over two seeds and a fabric_smoke
 * sweep, simulated in-process at a small budget — are cut, bit-flipped
 * and spliced into a few hundred inputs from a fixed seed. Each input
 * is resumed the way galsbench resumes a file (resumeTrajectory(),
 * then the missing records appended through an append-mode sink) and
 * must either complete into a full trajectory of the sweep or be
 * refused with a message and left untouched. Every pure truncation
 * must reproduce the complete file. The largest single allocation
 * made while scanning is bounded by the input's size, so no length
 * read from the input sizes an allocation.
 *
 * The second harness mutates a real set of three shard manifests —
 * truncations, byte flips, splices and inflated seed lists, grid
 * sizes and shard counts — and merges each set: it must merge
 * byte-identically to the unmutated set or be refused with a message,
 * leaving no output behind, and no allocation may exceed what the
 * planned-run cap (maxPlannedRuns) allows. Both harnesses run under
 * the sanitizer CI leg, where a crash or an out-of-bounds read fails
 * them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/register_all.hh"
#include "runner/atomic_file.hh"
#include "runner/engine.hh"
#include "runner/gtrj.hh"
#include "runner/merge.hh"
#include "runner/scenario.hh"
#include "runner/trajectory.hh"

namespace
{

std::atomic<bool> trackAllocations{false};
std::atomic<std::size_t> largestAllocation{0};

void *
allocate(std::size_t n)
{
    if (trackAllocations.load(std::memory_order_relaxed)) {
        std::size_t seen = largestAllocation.load();
        while (n > seen && !largestAllocation.compare_exchange_weak(seen, n))
            ;
    }
    return std::malloc(n ? n : 1);
}

/** Out of line, so that the compiler does not pair an inlined
 *  operator new with this free() and warn about the mismatch. */
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

// Every non-aligned form of the global allocation functions, so that
// the allocator sees one malloc/free pair whichever form is used.
void *
operator new(std::size_t n)
{
    if (void *p = allocate(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { release(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept { release(p); }

using namespace gals;
using namespace gals::runner;

namespace
{

/** A complete one-scenario sweep: its trajectory bytes, its plan
 *  and the results that complete a cut copy. */
struct Reference
{
    std::string bytes;
    SweepPlan plan;
    std::vector<RunResults> results;
};

Reference
makeReference(const std::string &scenario, SweepOptions sweep)
{
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);
    Reference ref;
    std::string err;
    EXPECT_TRUE(planSweep(registry, {scenario}, sweep, ref.plan, err)) << err;
    TrajectorySink sink;
    ref.results = runSliceStreamed(ExperimentEngine(2), ref.plan[0], &sink);
    ref.bytes = sink.frames();
    return ref;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "galssim_resume_fuzz_" + name;
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
    ASSERT_TRUE(os.good()) << path;
}

std::string
slurp(const std::string &path)
{
    std::string text, err;
    EXPECT_TRUE(readFile(path, text, err)) << err;
    return text;
}

/** Frame boundaries of @p bytes, header end first. */
std::vector<std::size_t>
boundaries(const std::string &bytes)
{
    std::size_t pos = 0;
    std::string err;
    EXPECT_TRUE(gtrj::readHeader(bytes, pos, err)) << err;
    std::vector<std::size_t> out{pos};
    std::string_view payload;
    while (gtrj::nextFrame(bytes, pos, payload, err) ==
           gtrj::FrameStatus::ok)
        out.push_back(pos);
    return out;
}

/** @p frame, a fabric record with a per-core block, with that
 *  block's count replaced by @p count and the length prefix fixed
 *  up. */
std::string
withCoreCount(std::string_view frame, std::uint64_t count)
{
    std::size_t pos = 0;
    std::uint64_t len = 0;
    EXPECT_TRUE(gtrj::readVarint(frame, pos, len));
    const std::string_view payload = frame.substr(pos);
    gtrj::DecodedRecord dec;
    std::string err;
    EXPECT_TRUE(gtrj::decodePayload(payload, dec, err)) << err;
    EXPECT_FALSE(dec.results.cores.empty());
    // The same record without the block encodes the payload up to the
    // count (its flags byte aside), so its length is where the count
    // starts.
    RunResults bare = dec.results;
    bare.cores.clear();
    const std::string bareFrame =
        gtrj::encodeRecord(dec.scenario, dec.index, dec.cfg, bare);
    std::size_t at = 0;
    std::uint64_t bareLen = 0;
    EXPECT_TRUE(gtrj::readVarint(bareFrame, at, bareLen));
    std::size_t after = static_cast<std::size_t>(bareLen);
    std::uint64_t old = 0;
    EXPECT_TRUE(gtrj::readVarint(payload, after, old));
    EXPECT_EQ(old, dec.results.cores.size());
    std::string inflated(payload.substr(0, bareLen));
    gtrj::appendVarint(inflated, count);
    inflated += payload.substr(after);
    std::string out;
    gtrj::appendVarint(out, inflated.size());
    return out + inflated;
}

struct Outcome
{
    unsigned completed = 0;
    unsigned refused = 0;
};

/**
 * Resume @p input against @p ref as galsbench does and check the
 * contract; @p truncation marks a pure prefix of the reference, which
 * must complete to exactly the reference.
 */
void
resumeOne(const Reference &ref, const std::string &input, bool truncation,
          const std::string &what, Outcome &outcome)
{
    const std::string path = tempPath("case.gtrj");
    spit(path, input);

    std::size_t kept = 0;
    std::string err;
    largestAllocation = 0;
    trackAllocations = true;
    const bool ok = resumeTrajectory(path, ref.plan, kept, err);
    trackAllocations = false;
    EXPECT_LE(largestAllocation.load(), 4 * input.size() + 65536) << what;

    if (!ok) {
        // Exit 1 with a message, the file as it was.
        ++outcome.refused;
        EXPECT_FALSE(truncation) << what << ": " << err;
        EXPECT_FALSE(err.empty()) << what;
        EXPECT_EQ(slurp(path), input) << what;
        return;
    }
    ++outcome.completed;
    const PlannedScenario &p = ref.plan[0];
    ASSERT_LE(kept, p.runs.size()) << what;
    {
        TrajectorySink sink(path, true);
        for (std::size_t k = kept; k < p.runs.size(); ++k)
            sink.appendOne(p.manifest.name, p.runs[k], ref.results[k],
                           p.indices[k]);
        sink.close();
    }
    const std::string done = slurp(path);
    if (truncation) {
        EXPECT_EQ(done, ref.bytes) << what;
        return;
    }
    // A bit flip inside a result value survives the scan (the frame
    // still decodes and re-encodes to itself), so the completed file
    // need not equal the reference; it must still be a whole
    // trajectory of this sweep.
    ResumeScan scan;
    ASSERT_TRUE(scanResume(done, ref.plan, scan, err))
        << what << ": " << err;
    EXPECT_EQ(scan.records, p.runs.size()) << what;
    EXPECT_EQ(scan.bytes, done.size()) << what;
}

TEST(ResumeFuzz, CutsFlipsAndSplicesCompleteOrAreRefused)
{
    SweepOptions fig05;
    fig05.instructions = 1000;
    fig05.seedReplicas = 2;
    SweepOptions fabric;
    fabric.instructions = 1000;
    fabric.seedReplicas = 2;
    const std::vector<Reference> refs = {makeReference("fig05", fig05),
                                         makeReference("fabric_smoke",
                                                       fabric)};
    ASSERT_EQ(refs[0].plan[0].runs.size(), 64u);
    ASSERT_GE(refs[1].plan[0].runs.size(), 2u);

    std::mt19937_64 rng(20020525);
    const auto below = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    Outcome outcome;
    unsigned cases = 0;
    for (std::size_t r = 0; r < refs.size(); ++r) {
        const Reference &ref = refs[r];
        const Reference &other = refs[1 - r];
        const std::string &full = ref.bytes;

        // Every cut a kill can leave: in the header, at, one byte
        // after and one byte before each frame boundary, plus random
        // offsets.
        std::set<std::size_t> cuts{0, 1, 2, 3, 4};
        for (std::size_t b : boundaries(full))
            cuts.insert({b - 1, b, std::min(b + 1, full.size())});
        for (int i = 0; i < 30; ++i)
            cuts.insert(below(full.size() + 1));
        for (std::size_t cut : cuts) {
            resumeOne(ref, full.substr(0, cut), true,
                      "cut at " + std::to_string(cut), outcome);
            ++cases;
        }

        // Byte flips, anywhere in the file, one to four at a time.
        for (int i = 0; i < 60; ++i) {
            std::string input = full;
            std::string what = "flip";
            for (std::size_t n = 1 + below(4); n > 0; --n) {
                const std::size_t at = below(input.size());
                input[at] = static_cast<char>(
                    input[at] ^ static_cast<char>(1 + below(255)));
                what += " " + std::to_string(at);
            }
            // A flip may also cut the file short.
            if (i % 3 == 0)
                input.resize(below(input.size() + 1));
            resumeOne(ref, input, false, what, outcome);
            ++cases;
        }

        // Splices: a prefix of this file joined to a suffix of this or
        // the other sweep's file, at random offsets or at frame
        // boundaries (frames repeated, skipped or foreign).
        const std::vector<std::size_t> mine = boundaries(full);
        for (int i = 0; i < 40; ++i) {
            const std::string &donor = i % 2 ? other.bytes : full;
            const std::vector<std::size_t> theirs = boundaries(donor);
            const bool framed = i % 4 < 2;
            const std::size_t cut =
                framed ? mine[below(mine.size())] : below(full.size() + 1);
            const std::size_t from = framed ? theirs[below(theirs.size())]
                                            : below(donor.size() + 1);
            resumeOne(ref, full.substr(0, cut) + donor.substr(from), false,
                      "splice " + std::to_string(cut) + "+" +
                          std::to_string(from),
                      outcome);
            ++cases;
        }
    }
    // Inflated block counts: the per-core count of a fabric record
    // swapped for huge values, with the frame length fixed up, so the
    // count itself is the only lie. The record must be cut as
    // undecodable without an allocation sized by the count.
    const Reference &fab = refs[1];
    const std::vector<std::size_t> frames = boundaries(fab.bytes);
    for (std::size_t k : {std::size_t(0), frames.size() - 2})
        for (std::uint64_t count : {std::uint64_t(1) << 62,
                                    std::uint64_t(1) << 32,
                                    std::uint64_t(100000)}) {
            const std::string_view frame(fab.bytes.data() + frames[k],
                                         frames[k + 1] - frames[k]);
            resumeOne(fab,
                      fab.bytes.substr(0, frames[k]) +
                          withCoreCount(frame, count) +
                          fab.bytes.substr(frames[k + 1]),
                      false,
                      "core count " + std::to_string(count) +
                          " in record " + std::to_string(k),
                      outcome);
            ++cases;
        }

    // The mutations reach both outcomes.
    EXPECT_GT(outcome.completed, 0u);
    EXPECT_GT(outcome.refused, 0u);
    EXPECT_GE(cases, 300u);
    std::printf("resume fuzz: %u cases, %u completed, %u refused\n",
                cases, outcome.completed, outcome.refused);
}

/** @p text with its first @p field value (the text after `"field": `
 *  up to the next ',' or '}') replaced by @p value. */
std::string
withField(std::string text, const std::string &field,
          const std::string &value)
{
    const std::string key = "\"" + field + "\": ";
    const std::size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << field;
    const std::size_t from = at + key.size();
    std::size_t to = from;
    for (int depth = 0; to < text.size(); ++to) {
        const char c = text[to];
        depth += c == '[' ? 1 : c == ']' ? -1 : 0;
        if (depth == 0 && (c == ',' || c == '}' || c == '\n'))
            break;
        if (depth == 0 && c == ']') {
            ++to;
            break;
        }
    }
    return text.replace(from, to - from, value);
}

/** "[0, 1, ..., n-1]". */
std::string
seedList(std::size_t n)
{
    std::string out = "[";
    for (std::size_t i = 0; i < n; ++i)
        out += (i ? ", " : "") + std::to_string(i);
    return out + "]";
}

TEST(MergeFuzz, ManifestMutationsMergeExactlyOrAreRefused)
{
    namespace fs = std::filesystem;
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);
    SweepOptions sweep;
    sweep.instructions = 1000;
    sweep.benchmarks = {"gcc", "go"};
    sweep.seedReplicas = 2;
    const std::string dir = tempPath("merge/");
    fs::remove_all(dir);
    fs::create_directories(dir);

    // A real three-shard sweep, and the unsharded run a merge of it
    // must equal.
    const auto writeRun = [&](const SweepOptions &opts,
                              const std::string &output,
                              const std::string &manifest) {
        SweepPlan plan;
        std::string err;
        ASSERT_TRUE(planSweep(registry, {"fig05"}, opts, plan, err)) << err;
        TrajectorySink sink(output);
        runSliceStreamed(ExperimentEngine(2), plan[0], &sink);
        sink.close();
        writeManifestFile(manifest, opts, output, {plan[0].manifest});
    };
    std::vector<std::string> paths, originals;
    for (unsigned i = 1; i <= 3; ++i) {
        SweepOptions opts = sweep;
        opts.shard = ShardSpec{i, 3};
        const std::string stem = dir + "s" + std::to_string(i);
        writeRun(opts, stem + ".gtrj", stem + ".json");
        paths.push_back(stem + ".json");
        originals.push_back(slurp(stem + ".json"));
    }
    const std::string merged = dir + "merged.jsonl";
    const std::string mergedManifest = dir + "merged.json";
    writeRun(sweep, merged, mergedManifest);
    const std::string refOut = slurp(merged);
    const std::string refManifest = slurp(mergedManifest);

    // Past the cap a plan is refused after one replica, so the largest
    // planned vector holds maxPlannedRuns configs, at most doubled by
    // its growth.
    const std::size_t bound = 2 * maxPlannedRuns * sizeof(RunConfig);
    Outcome outcome;
    unsigned cases = 0;
    std::size_t largest = 0;
    const auto mergeOne = [&](const std::vector<std::string> &texts,
                              const std::string &what) {
        for (std::size_t i = 0; i < paths.size(); ++i)
            spit(paths[i], texts[i]);
        fs::remove(merged);
        fs::remove(mergedManifest);
        std::ostringstream diag;
        largestAllocation = 0;
        trackAllocations = true;
        const bool ok =
            mergeShards(registry, paths, merged, mergedManifest, diag);
        trackAllocations = false;
        largest = std::max(largest, largestAllocation.load());
        EXPECT_LE(largestAllocation.load(), bound) << what;
        ++cases;
        if (ok) {
            ++outcome.completed;
            EXPECT_EQ(slurp(merged), refOut) << what;
            EXPECT_EQ(slurp(mergedManifest), refManifest) << what;
            return;
        }
        ++outcome.refused;
        EXPECT_NE(diag.str().find("merge: "), std::string::npos) << what;
        EXPECT_FALSE(fs::exists(merged)) << what;
        EXPECT_FALSE(fs::exists(mergedManifest)) << what;
    };
    mergeOne(originals, "unmutated");
    ASSERT_EQ(outcome.completed, 1u);

    std::mt19937_64 rng(20020526);
    const auto below = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    for (int i = 0; i < 80; ++i) {
        std::vector<std::string> texts = originals;
        std::string &t = texts[below(3)];
        t.resize(below(t.size()));
        mergeOne(texts, "truncation " + std::to_string(t.size()));
    }
    for (int i = 0; i < 120; ++i) {
        std::vector<std::string> texts = originals;
        std::string &t = texts[below(3)];
        std::string what = "flip";
        for (std::size_t n = 1 + below(4); n > 0; --n) {
            const std::size_t at = below(t.size());
            t[at] = static_cast<char>(t[at] ^ static_cast<char>(1 + below(255)));
            what += " " + std::to_string(at);
        }
        mergeOne(texts, what);
    }
    for (int i = 0; i < 80; ++i) {
        std::vector<std::string> texts = originals;
        const std::size_t into = below(3);
        const std::string &donor = originals[below(3)];
        const std::size_t cut = below(texts[into].size() + 1);
        const std::size_t from = below(donor.size() + 1);
        texts[into] = texts[into].substr(0, cut) + donor.substr(from);
        mergeOne(texts, "splice " + std::to_string(cut) + "+" +
                            std::to_string(from));
    }

    // Inflated values, in one manifest or in all three (only the
    // latter gets past the agreement checks to the plan).
    const std::string huge = "18446744073709551615";
    const std::vector<std::pair<std::string, std::string>> inflations = {
        {"seeds", seedList(200000)},
        {"seeds", seedList(65537)},
        {"seeds", seedList(65536)},
        {"seeds", seedList(32768)},
        {"seeds", "[0, " + huge + "]"},
        {"grid", "4294967296000"},
        {"grid", huge},
        {"replicas", huge},
        {"count", "4294967299"},
        {"count", huge},
        {"count", "1000000"},
        {"index", "4000000000"},
        {"instructions", huge},
    };
    for (const auto &[field, value] : inflations)
        for (bool all : {false, true}) {
            std::vector<std::string> texts = originals;
            for (std::size_t i = 0; i < texts.size(); ++i)
                if (all || i == 1)
                    texts[i] = withField(texts[i], field, value);
            mergeOne(texts, field + " = " + value.substr(0, 24) +
                                (all ? " in all" : " in one"));
        }

    EXPECT_GT(outcome.completed, 1u);
    EXPECT_GT(outcome.refused, 0u);
    EXPECT_GE(cases, 300u);
    std::printf("merge fuzz: %u cases, %u merged, %u refused, largest "
                "allocation %zu bytes\n",
                cases, outcome.completed, outcome.refused, largest);
}

} // namespace
