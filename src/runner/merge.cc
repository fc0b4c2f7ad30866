#include "runner/merge.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "runner/atomic_file.hh"
#include "runner/engine.hh"
#include "runner/gtrj.hh"
#include "runner/json.hh"
#include "runner/scenario.hh"
#include "runner/trajectory.hh"

namespace gals::runner
{

namespace
{

/** Split on '\n', dropping the trailing empty piece of a final
 *  newline (every line of our formats is newline-terminated). */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

/**
 * Print the first lines where @p archived and @p expected differ,
 * each as its archived and its expected text, then how many lines
 * differ in total. @p name(i) names line i.
 */
template <typename Name>
void
reportLineDiff(std::ostream &diag, const char *tag,
               const std::string &archived, const std::string &expected,
               Name name)
{
    const std::vector<std::string> a = splitLines(archived);
    const std::vector<std::string> e = splitLines(expected);
    std::size_t differing = 0;
    for (std::size_t i = 0; i < std::max(a.size(), e.size()); ++i) {
        const std::string *x = i < a.size() ? &a[i] : nullptr;
        const std::string *y = i < e.size() ? &e[i] : nullptr;
        if (x && y && *x == *y)
            continue;
        if (++differing <= 4)
            diag << tag << "   " << name(i) << ":\n"
                 << tag << "     archived: " << (x ? *x : "<missing>")
                 << "\n"
                 << tag << "     expected: " << (y ? *y : "<missing>")
                 << "\n";
    }
    diag << tag << "   " << differing << " differing line"
         << (differing == 1 ? "" : "s") << " in total\n";
}

/**
 * A manifest read back from disk: its bytes, and the inputs
 * writeManifest() cannot work out from a plan. Everything else the
 * file holds is checked by re-rendering it (replanManifest()).
 */
struct ParsedManifest
{
    std::string path;
    std::string text;       ///< the file's bytes
    std::string engine;     ///< manifestEngineName or "heap"
    SweepOptions opts;      ///< instructions, seeds, benchmarks, shard...
    std::string output;     ///< trajectory path; empty when null
    std::vector<std::string> names; ///< scenarios, in sweep order
};

/** Append the JSON array of strings @p v to @p out; false for any
 *  other value. */
bool
readStrings(const json::Value &v, std::vector<std::string> &out)
{
    if (v.kind != json::Value::Kind::array)
        return false;
    for (const json::Value &s : v.items) {
        if (s.kind != json::Value::Kind::string)
            return false;
        out.push_back(s.str);
    }
    return true;
}

bool
readManifest(const std::string &path, ParsedManifest &out,
             std::string &err)
{
    out.path = path;
    if (!readFile(path, out.text, err))
        return false;
    json::Value v;
    if (!json::parse(out.text, v, err)) {
        err = path + ": " + err;
        return false;
    }

    const auto fail = [&](const std::string &what) {
        err = path + ": " + what;
        return false;
    };

    std::uint64_t manifestVersion = 0;
    const json::Value *mv = v.find("manifest_version");
    if (!mv || !mv->asU64(manifestVersion) || manifestVersion != 1)
        return fail("unsupported manifest_version");

    const json::Value *ver = v.find("galssim_version");
    const json::Value *eng = v.find("engine");
    const json::Value *insts = v.find("instructions");
    const json::Value *seeds = v.find("seeds");
    if (!ver || ver->kind != json::Value::Kind::string || !eng ||
        eng->kind != json::Value::Kind::string || !insts ||
        !insts->asU64(out.opts.instructions) || !seeds ||
        seeds->kind != json::Value::Kind::array)
        return fail("missing/malformed version, engine, "
                    "instructions or seeds");
    if (ver->str != galssimVersion())
        return fail("written by galssim " + ver->str +
                    ", this binary is " + galssimVersion() +
                    " — results are not comparable");
    // "heap" archives predate the backend's retirement and popped in
    // the same order, so they still verify and merge.
    if (eng->str != manifestEngineName && eng->str != "heap")
        return fail("unknown engine '" + eng->str + "'");
    out.engine = eng->str;

    for (const json::Value &s : seeds->items) {
        std::uint64_t seed = 0;
        if (!s.asU64(seed))
            return fail("non-integral seed");
        out.opts.explicitSeeds.push_back(seed);
    }
    if (out.opts.explicitSeeds.empty())
        return fail("empty seeds list");
    out.opts.seed = out.opts.explicitSeeds.front();

    if (const json::Value *bench = v.find("benchmarks"))
        if (!readStrings(*bench, out.opts.benchmarks))
            return fail("malformed benchmarks");

    if (const json::Value *fab = v.find("fabric")) {
        const json::Value *cores = fab->find("cores");
        const json::Value *topos = fab->find("topologies");
        const json::Value *traffics = fab->find("traffics");
        if (!cores || cores->kind != json::Value::Kind::array ||
            !topos || !readStrings(*topos, out.opts.topologies) ||
            !traffics || !readStrings(*traffics, out.opts.traffics))
            return fail("malformed fabric object");
        for (const json::Value &c : cores->items) {
            std::uint64_t n = 0;
            if (!c.asU64(n) || n < 1 || n > FabricConfig::maxCores)
                return fail("fabric core count not in 1.." +
                            std::to_string(FabricConfig::maxCores));
            out.opts.coreCounts.push_back(static_cast<unsigned>(n));
        }
    }

    if (const json::Value *ivl = v.find("interval_ticks")) {
        if (!ivl->asU64(out.opts.intervalTicks) ||
            out.opts.intervalTicks == 0)
            return fail("malformed interval_ticks");
    }

    if (const json::Value *wu = v.find("warmup_insts")) {
        if (!wu->asU64(out.opts.warmupInstructions) ||
            out.opts.warmupInstructions == 0)
            return fail("malformed warmup_insts");
    }

    if (const json::Value *shard = v.find("shard")) {
        const json::Value *idx = shard->find("index");
        const json::Value *cnt = shard->find("count");
        std::uint64_t i = 0, n = 0;
        if (!idx || !idx->asU64(i) || !cnt || !cnt->asU64(n) ||
            i < 1 || n < 1 || i > n ||
            n > std::numeric_limits<unsigned>::max())
            return fail("malformed shard object");
        out.opts.shard.index = static_cast<unsigned>(i);
        out.opts.shard.count = static_cast<unsigned>(n);
    }

    if (const json::Value *outPath = v.find("output"))
        if (outPath->kind == json::Value::Kind::string)
            out.output = outPath->str;

    const json::Value *scens = v.find("scenarios");
    if (!scens || scens->kind != json::Value::Kind::array)
        return fail("missing scenarios");
    for (const json::Value &s : scens->items) {
        const json::Value *name = s.find("name");
        if (!name || name->kind != json::Value::Kind::string)
            return fail("malformed scenario entry");
        out.names.push_back(name->str);
    }
    return true;
}

/** The manifest writeManifest() writes for @p plan under @p opts,
 *  recording @p output. */
std::string
renderManifest(const SweepOptions &opts, const std::string &output,
               const SweepPlan &plan)
{
    std::vector<ManifestScenario> entries;
    for (const PlannedScenario &p : plan)
        entries.push_back(p.manifest);
    std::ostringstream os;
    writeManifest(os, opts, output, entries);
    return os.str();
}

/**
 * Plan @p m's sweep (planSweep()) and require @p m's bytes to be the
 * manifest that plan writes, before any record is read or simulated:
 * one comparison checks every field the writer works out (grids,
 * replicas, runs, config hashes, output format) and the layout. A
 * heap-era manifest must be the calendar one with its engine renamed.
 * On a mismatch the first differing lines are printed after @p tag.
 */
bool
replanManifest(const ScenarioRegistry &registry, const ParsedManifest &m,
               SweepPlan &plan, const char *tag, std::ostream &diag)
{
    std::string err;
    if (!planSweep(registry, m.names, m.opts, plan, err)) {
        diag << tag << " " << m.path << ": " << err << "\n";
        return false;
    }
    std::string expected = renderManifest(m.opts, m.output, plan);
    const std::string engine = "\"engine\": \"";
    expected.replace(expected.find(engine) + engine.size(),
                     std::strlen(manifestEngineName), m.engine);
    if (m.text == expected)
        return true;
    diag << tag << " '" << m.path
         << "' is not the manifest this binary writes for its sweep "
            "(edited, or the simulator or a scenario changed since it "
            "was archived)\n";
    reportLineDiff(diag, tag, m.text, expected, [](std::size_t i) {
        return "line " + std::to_string(i + 1);
    });
    return false;
}

/**
 * The trajectory a manifest at @p manifestPath names as @p output.
 * The manifest records --output as the archiving invocation spelled
 * it, so for a relative path the trajectory may sit (a) next to the
 * manifest (archives travel as a pair — the CI artifact case), (b)
 * next to the manifest under its basename (a pair moved together
 * after archiving into a subdirectory), or (c) at the recorded path
 * from the current directory (verifying where the archive was
 * written). Manifest-adjacent candidates come first: the pair travels
 * together, and a fresher unrelated file at the cwd-relative path
 * must not shadow the archive's true companion.
 */
std::string
trajectoryPathOf(const std::string &manifestPath, const std::string &output)
{
    if (output.front() == '/')
        return output;
    const std::size_t mslash = manifestPath.find_last_of('/');
    const std::string dir = mslash == std::string::npos
                                ? std::string()
                                : manifestPath.substr(0, mslash + 1);
    const std::size_t slash = output.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? output : output.substr(slash + 1);
    for (const std::string &candidate : {dir + output, dir + base})
        if (std::ifstream(candidate).good())
            return candidate;
    return output;
}

/** The frames of a gtrj buffer scanResume() accepted whole. */
std::vector<std::string_view>
framesOf(std::string_view text)
{
    std::vector<std::string_view> frames;
    std::size_t pos = gtrj::fileHeader().size();
    std::string_view payload;
    std::string err;
    for (std::size_t at = pos; gtrj::nextFrame(text, pos, payload, err) ==
                               gtrj::FrameStatus::ok;
         at = pos)
        frames.push_back(text.substr(at, pos - at));
    return frames;
}

} // namespace

bool
mergeShards(const ScenarioRegistry &registry,
            const std::vector<std::string> &manifests,
            const std::string &outputPath, const std::string &manifestPath,
            std::ostream &diag)
{
    const auto fail = [&](const std::string &what) {
        diag << "merge: " << what << "\n";
        return false;
    };
    if (manifests.empty())
        return fail("no shard manifests given");
    std::string err;
    std::vector<ParsedManifest> parsed(manifests.size());
    for (std::size_t i = 0; i < manifests.size(); ++i) {
        if (!readManifest(manifests[i], parsed[i], err))
            return fail(err);
        if (!parsed[i].opts.shard.active())
            return fail("'" + manifests[i] +
                        "' is not a shard manifest (no shard object)");
    }

    const unsigned count = parsed.front().opts.shard.count;
    if (manifests.size() != count)
        return fail("manifests declare " + std::to_string(count) +
                    " shards but " + std::to_string(manifests.size()) +
                    " were given");
    // Each shard's manifest must re-render from its own plan, and all
    // of them describe one sweep: without the shard object and the
    // output, they render the same.
    std::vector<SweepPlan> plans(count);
    std::vector<bool> seen(count + 1, false);
    SweepOptions whole;
    std::string sweep;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        const ParsedManifest &m = parsed[i];
        if (!replanManifest(registry, m, plans[i], "merge:", diag))
            return false;
        whole = m.opts;
        whole.shard = ShardSpec();
        const std::string unsharded = renderManifest(whole, "", plans[i]);
        if (i == 0)
            sweep = unsharded;
        if (unsharded != sweep || m.opts.shard.count != count)
            return fail("'" + manifests[i] + "' disagrees with '" +
                        manifests.front() + "' (different sweep?)");
        if (seen[m.opts.shard.index])
            return fail("shard " + std::to_string(m.opts.shard.index) +
                        "/" + std::to_string(count) + " appears twice");
        seen[m.opts.shard.index] = true;
    }

    // Each shard must be a complete resume of its own plan: every
    // planned record present, and nothing else in the file.
    std::vector<std::string> texts(count);
    for (std::size_t i = 0; i < parsed.size() && !outputPath.empty(); ++i) {
        const ParsedManifest &m = parsed[i];
        const std::string shard = "shard " +
                                  std::to_string(m.opts.shard.index) +
                                  "/" + std::to_string(count);
        if (m.output.empty())
            return fail("'" + manifests[i] + "' names no trajectory (" +
                        shard + " ran with --manifest only)");
        const std::string path = trajectoryPathOf(manifests[i], m.output);
        ResumeScan scan;
        if (!readFile(path, texts[i], err))
            return fail(err);
        if (!scanResume(texts[i], plans[i], scan, err))
            return fail("'" + path + "' (" + shard + ") " + err);
        const std::size_t want = plannedRecords(plans[i]);
        if (scan.records != want)
            return fail("'" + path + "' (" + shard + ") holds " +
                        std::to_string(scan.records) + " of its " +
                        std::to_string(want) +
                        " records; complete it with --resume first");
    }

    if (!outputPath.empty()) {
        // Interleave the shards' frames back into canonical order:
        // every scenario's grid is the union of the shards' slices.
        std::vector<std::vector<std::string_view>> frames;
        std::vector<std::size_t> next(count, 0);
        for (const std::string &text : texts)
            frames.push_back(framesOf(text));
        std::string merged = gtrj::fileHeader();
        std::size_t records = 0;
        for (std::size_t s = 0; s < plans[0].size(); ++s) {
            const ManifestScenario &ms = plans[0][s].manifest;
            std::vector<std::string_view> slots(ms.gridSize * ms.replicas);
            for (std::size_t i = 0; i < count; ++i)
                for (std::size_t index : plans[i][s].indices)
                    slots[index] = frames[i][next[i]++];
            for (std::string_view frame : slots)
                merged += frame;
            records += slots.size();
        }
        std::string text;
        if (!renderTrajectory(merged, trajectoryFormatForPath(outputPath),
                              text, err) ||
            !atomicWriteFile(outputPath, text, err))
            return fail(err);
        diag << "merge: " << records << " records from " << count
             << " shards -> '" << outputPath << "'\n";
    }
    if (!manifestPath.empty()) {
        // Not writeManifestFile(): an unwritable path must report back,
        // not gals_fatal the process.
        if (!atomicWriteFile(manifestPath,
                             renderManifest(whole, outputPath, plans[0]),
                             err))
            return fail(err);
        diag << "merge: " << count << " shard manifests -> '"
             << manifestPath << "'\n";
    }
    return true;
}

bool
verifyManifest(const ScenarioRegistry &registry,
               const ExperimentEngine &engine,
               const std::string &manifestPath, std::ostream &diag)
{
    const auto fail = [&](const std::string &what) {
        diag << "verify: " << what << "\n";
        return false;
    };
    std::string err;
    ParsedManifest m;
    SweepPlan plan;
    if (!readManifest(manifestPath, m, err))
        return fail(err);
    if (m.output.empty())
        return fail("manifest records no trajectory (the archived run "
                    "had no --output)");
    if (!replanManifest(registry, m, plan, "verify:", diag))
        return false;
    const std::string archivePath = trajectoryPathOf(manifestPath, m.output);
    std::string archived;
    if (!readFile(archivePath, archived, err))
        return fail(err);

    TrajectorySink sink;
    for (const PlannedScenario &p : plan) {
        runSliceStreamed(engine, p, &sink);
        diag << "verify: " << p.manifest.name << ": " << p.runs.size()
             << " runs re-executed\n";
    }
    const TrajectoryFormat format = trajectoryFormatForPath(m.output);
    std::string replay;
    if (!renderTrajectory(sink.frames(), format, replay, err))
        return fail(err);

    // The CSV header row is not a record; keep the diagnostics'
    // record counts and indices honest about it.
    const std::size_t headerLines =
        format == TrajectoryFormat::csv ? 1 : 0;
    const auto recordCount = [&](std::size_t lines) {
        return lines > headerLines ? lines - headerLines : 0;
    };

    if (archived == replay) {
        diag << "verify: OK — '" << archivePath << "' ("
             << (format == TrajectoryFormat::gtrj
                     ? gtrj::countFrames(replay)
                     : recordCount(splitLines(replay).size()))
             << " records, " << replay.size()
             << " bytes) is byte-identical to the replay\n";
        return true;
    }

    diag << "verify: FAILED — regenerated trajectory differs from '"
         << archivePath << "'\n";

    // Line diffs over binary frames locate nothing a human can read;
    // render both sides as JSON lines first. If either side does not
    // even decode, fall back to the first differing byte.
    if (format == TrajectoryFormat::gtrj) {
        std::string a2, r2, derr;
        if (!gtrj::toJsonLines(archived, a2, derr) ||
            !gtrj::toJsonLines(replay, r2, derr)) {
            std::size_t off = 0;
            const std::size_t lim = std::min(archived.size(), replay.size());
            while (off < lim && archived[off] == replay[off])
                ++off;
            diag << "verify:   archived "
                 << gtrj::countFrames(archived) << " frames / "
                 << archived.size() << " bytes, replay "
                 << gtrj::countFrames(replay) << " frames / "
                 << replay.size()
                 << " bytes; first differing byte at offset " << off
                 << " (" << derr << ")\n";
            return false;
        }
        archived.swap(a2);
        replay.swap(r2);
    }

    const std::size_t archivedLines = splitLines(archived).size();
    const std::size_t replayLines = splitLines(replay).size();
    if (archivedLines != replayLines)
        diag << "verify:   archived has " << recordCount(archivedLines)
             << " records, replay has " << recordCount(replayLines)
             << "\n";
    reportLineDiff(diag, "verify:", archived, replay, [&](std::size_t i) {
        return i < headerLines ? std::string("header")
                               : "record " + std::to_string(i - headerLines);
    });
    return false;
}

} // namespace gals::runner
