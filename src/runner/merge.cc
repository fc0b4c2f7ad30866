#include "runner/merge.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
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

/** A manifest read back from disk. */
struct ParsedManifest
{
    std::string version;    ///< galssim_version
    SweepOptions opts;      ///< instructions, seeds, benchmarks, shard
    std::string output;     ///< trajectory path; empty when null
    std::vector<ManifestScenario> scenarios;
};

bool
readManifest(const std::string &path, ParsedManifest &out,
             std::string &err)
{
    std::string text;
    if (!readFile(path, text, err))
        return false;
    json::Value v;
    if (!json::parse(text, v, err)) {
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
    // "heap" archives predate the backend's retirement and popped in
    // the same order, so they still verify and merge.
    if (eng->str != manifestEngineName && eng->str != "heap")
        return fail("unknown engine '" + eng->str + "'");
    out.version = ver->str;

    for (const json::Value &s : seeds->items) {
        std::uint64_t seed = 0;
        if (!s.asU64(seed))
            return fail("non-integral seed");
        out.opts.explicitSeeds.push_back(seed);
    }
    if (out.opts.explicitSeeds.empty())
        return fail("empty seeds list");
    out.opts.seed = out.opts.explicitSeeds.front();

    if (const json::Value *bench = v.find("benchmarks")) {
        if (bench->kind != json::Value::Kind::array)
            return fail("malformed benchmarks");
        for (const json::Value &b : bench->items) {
            if (b.kind != json::Value::Kind::string)
                return fail("non-string benchmark");
            out.opts.benchmarks.push_back(b.str);
        }
    }

    if (const json::Value *fab = v.find("fabric")) {
        const json::Value *cores = fab->find("cores");
        const json::Value *topos = fab->find("topologies");
        const json::Value *traffics = fab->find("traffics");
        if (!cores || cores->kind != json::Value::Kind::array ||
            !topos || topos->kind != json::Value::Kind::array ||
            !traffics ||
            traffics->kind != json::Value::Kind::array)
            return fail("malformed fabric object");
        for (const json::Value &c : cores->items) {
            std::uint64_t n = 0;
            if (!c.asU64(n) || n < 1 || n > FabricConfig::maxCores)
                return fail("fabric core count not in 1.." +
                            std::to_string(FabricConfig::maxCores));
            out.opts.coreCounts.push_back(static_cast<unsigned>(n));
        }
        for (const json::Value &t : topos->items) {
            if (t.kind != json::Value::Kind::string)
                return fail("non-string fabric topology");
            out.opts.topologies.push_back(t.str);
        }
        for (const json::Value &t : traffics->items) {
            if (t.kind != json::Value::Kind::string)
                return fail("non-string fabric traffic");
            out.opts.traffics.push_back(t.str);
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
        ManifestScenario ms;
        const json::Value *name = s.find("name");
        const json::Value *grid = s.find("grid");
        const json::Value *replicas = s.find("replicas");
        const json::Value *hash = s.find("config_hash");
        std::uint64_t g = 0, r = 0;
        if (!name || name->kind != json::Value::Kind::string ||
            !grid || !grid->asU64(g) || !replicas ||
            !replicas->asU64(r) || !hash ||
            hash->kind != json::Value::Kind::string)
            return fail("malformed scenario entry");
        ms.name = name->str;
        ms.gridSize = g;
        ms.replicas = r;
        errno = 0;
        char *end = nullptr;
        ms.configHash =
            std::strtoull(hash->str.c_str(), &end, 16);
        if (hash->str.size() != 16 || errno == ERANGE ||
            *end != '\0')
            return fail("malformed config_hash");
        out.scenarios.push_back(std::move(ms));
    }
    return true;
}

bool
sameScenarios(const std::vector<ManifestScenario> &a,
              const std::vector<ManifestScenario> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].name != b[i].name ||
            a[i].gridSize != b[i].gridSize ||
            a[i].replicas != b[i].replicas ||
            a[i].configHash != b[i].configHash)
            return false;
    return true;
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

/**
 * Plan @p m's sweep (planSweep()) and check it against the archive
 * before any simulation or record scan: each scenario's regenerated
 * grid must match the manifest's grid size, replica count and
 * full-grid config hash.
 */
bool
planManifest(const ScenarioRegistry &registry, const ParsedManifest &m,
             SweepPlan &plan, std::string &err)
{
    std::vector<std::string> names;
    for (const ManifestScenario &ms : m.scenarios)
        names.push_back(ms.name);
    if (!planSweep(registry, names, m.opts, plan, err))
        return false;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const ManifestScenario &want = m.scenarios[i];
        const ManifestScenario &got = plan[i].manifest;
        if (got.gridSize != want.gridSize || got.replicas != want.replicas) {
            err = "scenario '" + want.name + "': grid " +
                  std::to_string(got.gridSize) + "x" +
                  std::to_string(got.replicas) + " != archived " +
                  std::to_string(want.gridSize) + "x" +
                  std::to_string(want.replicas);
            return false;
        }
        if (got.configHash != want.configHash) {
            err = "scenario '" + want.name +
                  "': config hash mismatch — the simulator or scenario "
                  "definition changed since the archive was written";
            return false;
        }
    }
    return true;
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

    const ParsedManifest &first = parsed.front();
    if (first.version != galssimVersion())
        return fail("manifests were written by galssim " + first.version +
                    ", this binary is " + galssimVersion());
    const unsigned count = first.opts.shard.count;
    if (manifests.size() != count)
        return fail("manifests declare " + std::to_string(count) +
                    " shards but " + std::to_string(manifests.size()) +
                    " were given");
    std::vector<bool> seen(count + 1, false);
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        const ParsedManifest &m = parsed[i];
        if (m.version != first.version ||
            m.opts.instructions != first.opts.instructions ||
            m.opts.explicitSeeds != first.opts.explicitSeeds ||
            m.opts.benchmarks != first.opts.benchmarks ||
            m.opts.coreCounts != first.opts.coreCounts ||
            m.opts.topologies != first.opts.topologies ||
            m.opts.traffics != first.opts.traffics ||
            m.opts.intervalTicks != first.opts.intervalTicks ||
            m.opts.warmupInstructions != first.opts.warmupInstructions ||
            m.opts.shard.count != count ||
            !sameScenarios(m.scenarios, first.scenarios))
            return fail("'" + manifests[i] + "' disagrees with '" +
                        manifests.front() + "' (different sweep?)");
        if (seen[m.opts.shard.index])
            return fail("shard " + std::to_string(m.opts.shard.index) +
                        "/" + std::to_string(count) + " appears twice");
        seen[m.opts.shard.index] = true;
    }

    // Each shard must be a complete resume of its own plan: every
    // planned record present, and nothing else in the file.
    std::vector<SweepPlan> plans(count);
    std::vector<std::string> texts(count);
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        const ParsedManifest &m = parsed[i];
        const std::string shard = "shard " +
                                  std::to_string(m.opts.shard.index) +
                                  "/" + std::to_string(count);
        if (!planManifest(registry, m, plans[i], err))
            return fail(manifests[i] + ": " + err);
        if (outputPath.empty())
            continue;
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
        for (std::size_t s = 0; s < first.scenarios.size(); ++s) {
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
        SweepOptions opts = first.opts;
        opts.shard = ShardSpec(); // the merged manifest is unsharded
        // Not writeManifestFile(): an unwritable path must report back,
        // not gals_fatal the process.
        std::ostringstream os;
        writeManifest(os, opts, outputPath, first.scenarios);
        if (!atomicWriteFile(manifestPath, os.str(), err))
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
    if (m.version != galssimVersion())
        return fail("manifest was written by galssim " + m.version +
                    ", this binary is " + galssimVersion() +
                    " — results are not comparable");
    if (m.output.empty())
        return fail("manifest records no trajectory (the archived run "
                    "had no --output)");
    if (!planManifest(registry, m, plan, err))
        return fail(manifestPath + ": " + err);
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
    std::string actual;
    if (!renderTrajectory(sink.frames(), format, actual, err))
        return fail(err);

    // The CSV header row is not a record; keep the diagnostics'
    // record counts and indices honest about it.
    const std::size_t headerLines =
        format == TrajectoryFormat::csv ? 1 : 0;
    const auto recordCount = [&](std::size_t lines) {
        return lines > headerLines ? lines - headerLines : 0;
    };

    const std::string &expected = archived;
    if (expected == actual) {
        diag << "verify: OK — '" << archivePath << "' ("
             << (format == TrajectoryFormat::gtrj
                     ? gtrj::countFrames(actual)
                     : recordCount(splitLines(actual).size()))
             << " records, " << actual.size()
             << " bytes) is byte-identical to the replay\n";
        return true;
    }

    diag << "verify: FAILED — regenerated trajectory differs from '"
         << archivePath << "'\n";

    // Line diffs over binary frames locate nothing a human can read;
    // render both sides as JSON lines first. If either side does not
    // even decode, fall back to the first differing byte.
    std::string expText = expected, actText = actual;
    if (format == TrajectoryFormat::gtrj) {
        std::string e2, a2, derr;
        if (!gtrj::toJsonLines(expected, e2, derr) ||
            !gtrj::toJsonLines(actual, a2, derr)) {
            std::size_t off = 0;
            const std::size_t lim =
                std::min(expected.size(), actual.size());
            while (off < lim && expected[off] == actual[off])
                ++off;
            diag << "verify:   archived "
                 << gtrj::countFrames(expected) << " frames / "
                 << expected.size() << " bytes, replay "
                 << gtrj::countFrames(actual) << " frames / "
                 << actual.size()
                 << " bytes; first differing byte at offset " << off
                 << " (" << derr << ")\n";
            return false;
        }
        expText.swap(e2);
        actText.swap(a2);
    }

    const std::vector<std::string> expLines = splitLines(expText);
    const std::vector<std::string> actLines = splitLines(actText);
    if (expLines.size() != actLines.size())
        diag << "verify:   archived has "
             << recordCount(expLines.size()) << " records, replay has "
             << recordCount(actLines.size()) << "\n";
    const std::size_t n =
        std::max(expLines.size(), actLines.size());
    std::size_t shown = 0, differing = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string *e =
            i < expLines.size() ? &expLines[i] : nullptr;
        const std::string *a =
            i < actLines.size() ? &actLines[i] : nullptr;
        if (e && a && *e == *a)
            continue;
        ++differing;
        if (shown < 4) {
            ++shown;
            if (i < headerLines)
                diag << "verify:   header:\n";
            else
                diag << "verify:   record " << i - headerLines
                     << ":\n";
            diag << "verify:     archived: "
                 << (e ? *e : "<missing>") << "\n"
                 << "verify:     replay:   "
                 << (a ? *a : "<missing>") << "\n";
        }
    }
    diag << "verify:   " << differing << " differing line"
         << (differing == 1 ? "" : "s") << " in total\n";
    return false;
}

} // namespace gals::runner
