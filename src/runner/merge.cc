#include "runner/merge.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
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

/** One shard record with its sort key. */
struct Record
{
    std::string scenario;
    std::size_t scenarioRank = 0; ///< resolved after the global order
    std::uint64_t index = 0;
    std::string frame; ///< the raw frame bytes (length prefix + payload)
};

/**
 * Merge the per-file scenario orders into one canonical order. Each
 * file lists its scenarios in execution order, i.e. as a subsequence
 * of the canonical order; the greedy merge emits, at every step, the
 * earliest file's head that no other file still holds at a non-head
 * position. File order breaks genuine ties (a scenario present in
 * only one file).
 */
bool
mergeScenarioOrders(const std::vector<std::vector<std::string>> &seqs,
                    std::vector<std::string> &order, std::string &err)
{
    std::vector<std::size_t> head(seqs.size(), 0);
    for (;;) {
        bool anyLeft = false;
        std::string picked;
        for (std::size_t f = 0; f < seqs.size() && picked.empty();
             ++f) {
            if (head[f] >= seqs[f].size())
                continue;
            anyLeft = true;
            const std::string &cand = seqs[f][head[f]];
            bool blocked = false;
            for (std::size_t g = 0; g < seqs.size() && !blocked;
                 ++g) {
                for (std::size_t k = head[g] + 1;
                     k < seqs[g].size() && !blocked; ++k)
                    blocked = seqs[g][k] == cand;
            }
            if (!blocked)
                picked = cand;
        }
        if (!anyLeft)
            return true;
        if (picked.empty()) {
            err = "shard files disagree on scenario order";
            return false;
        }
        order.push_back(picked);
        for (std::size_t f = 0; f < seqs.size(); ++f)
            if (head[f] < seqs[f].size() &&
                seqs[f][head[f]] == picked)
                ++head[f];
    }
}

std::size_t
rankOf(const std::vector<std::string> &order, const std::string &name)
{
    return static_cast<std::size_t>(
        std::find(order.begin(), order.end(), name) - order.begin());
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
            if (!c.asU64(n) || n < 1)
                return fail("non-integral fabric core count");
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
            i < 1 || n < 1 || i > n)
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

/** Directory part of @p path including the trailing '/', or empty. */
std::string
dirName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

} // namespace

bool
mergeTrajectories(const std::vector<std::string> &shardFiles,
                  const std::string &outputPath, std::ostream &diag,
                  const MergePlan *expected)
{
    if (shardFiles.empty()) {
        diag << "merge: no shard files given\n";
        return false;
    }
    std::string err;
    std::vector<Record> records;
    std::vector<std::vector<std::string>> scenarioSeqs;
    // Per file, per scenario (parallel to scenarioSeqs): the record
    // indices in file order, for the shard-stride completeness
    // checks below.
    std::vector<std::vector<std::vector<std::uint64_t>>> indexSeqs;
    // Instruction budget per scenario, for cross-file sweep
    // consistency.
    std::map<std::string, std::uint64_t> instsByScenario;

    for (const std::string &path : shardFiles) {
        std::string text;
        if (!readFile(path, text, err)) {
            diag << "merge: " << err << "\n";
            return false;
        }
        std::size_t pos = 0;
        if (!gtrj::readHeader(text, pos, err)) {
            diag << "merge: " << path << ": " << err
                 << " (shard files are .gtrj; re-run a text shard "
                    "written by an older build)\n";
            return false;
        }
        scenarioSeqs.emplace_back();
        indexSeqs.emplace_back();
        std::vector<std::string> &seq = scenarioSeqs.back();
        std::vector<std::vector<std::uint64_t>> &idx =
            indexSeqs.back();

        // Walk the frames, keeping each record's raw bytes (length
        // prefix + payload) so the merge re-emits them untouched —
        // frames are stateless, so the merged file equals the
        // unsharded run's byte for byte.
        for (std::size_t recNo = 1;; ++recNo) {
            const std::size_t frameStart = pos;
            std::string_view payload;
            const gtrj::FrameStatus st =
                gtrj::nextFrame(text, pos, payload, err);
            if (st == gtrj::FrameStatus::eof)
                break;
            // Torn tails are the orchestrator's business (resume
            // salvage); merge inputs are finished slices and must be
            // intact.
            gtrj::DecodedRecord dec;
            if (st == gtrj::FrameStatus::torn ||
                !gtrj::decodePayload(payload, dec, err)) {
                diag << "merge: " << path << " record " << recNo
                     << ": " << err << "\n";
                return false;
            }
            const std::string where =
                path + " record " + std::to_string(recNo);
            // Shards of one sweep share one instruction budget per
            // scenario; a disagreement means the inputs come from
            // different sweeps and must not fuse.
            const std::uint64_t instructions = dec.cfg.instructions;
            const auto [it, inserted] =
                instsByScenario.emplace(dec.scenario, instructions);
            if (!inserted && it->second != instructions) {
                diag << "merge: " << where << ": scenario '"
                     << dec.scenario
                     << "' records disagree on instructions ("
                     << it->second << " vs " << instructions
                     << ") — shard files from different sweeps?\n";
                return false;
            }
            if (seq.empty() || seq.back() != dec.scenario) {
                // A scenario's records are contiguous per file; a
                // reappearance means the file is not a shard
                // trajectory.
                if (std::find(seq.begin(), seq.end(),
                              dec.scenario) != seq.end()) {
                    diag << "merge: " << where << ": scenario '"
                         << dec.scenario
                         << "' records are not contiguous\n";
                    return false;
                }
                seq.push_back(dec.scenario);
                idx.emplace_back();
            }
            if (!idx.back().empty() &&
                idx.back().back() >= dec.index) {
                diag << "merge: " << where
                     << ": indices not strictly ascending (not a "
                        "shard trajectory?)\n";
                return false;
            }
            idx.back().push_back(dec.index);
            records.push_back(
                {std::move(dec.scenario), 0, dec.index,
                 text.substr(frameStart, pos - frameStart)});
        }
    }

    // Completeness evidence from the records themselves: within one
    // file a scenario's indices step by the shard count, so any
    // scenario with two records in some file reveals how many shard
    // files a complete merge needs.
    std::uint64_t stride = 0;
    for (std::size_t f = 0; f < indexSeqs.size(); ++f) {
        for (const std::vector<std::uint64_t> &xs : indexSeqs[f]) {
            for (std::size_t k = 1; k < xs.size(); ++k) {
                const std::uint64_t d = xs[k] - xs[k - 1];
                if (stride == 0)
                    stride = d;
                if (d != stride) {
                    diag << "merge: '" << shardFiles[f]
                         << "': shard stride " << d
                         << " disagrees with " << stride
                         << " (files from different sweeps?)\n";
                    return false;
                }
            }
        }
    }
    if (expected) {
        if (shardFiles.size() != expected->shardCount) {
            diag << "merge: manifests declare "
                 << expected->shardCount << " shards but "
                 << shardFiles.size()
                 << " trajectory files were given\n";
            return false;
        }
    } else if (stride != 0) {
        if (shardFiles.size() != stride) {
            diag << "merge: records step by " << stride
                 << " (a " << stride << "-way sharded sweep) but "
                 << shardFiles.size() << " file"
                 << (shardFiles.size() == 1 ? " was" : "s were")
                 << " given (missing shard?)\n";
            return false;
        }
        // One file = one shard: every scenario in a file must share
        // the shard's residue.
        for (std::size_t f = 0; f < indexSeqs.size(); ++f) {
            std::uint64_t residue = stride;
            for (const auto &xs : indexSeqs[f]) {
                if (xs.empty())
                    continue;
                if (residue == stride)
                    residue = xs.front() % stride;
                else if (xs.front() % stride != residue) {
                    diag << "merge: '" << shardFiles[f]
                         << "' mixes records of different shards\n";
                    return false;
                }
            }
        }
    } else {
        // No stride evidence at all (no scenario has two records in
        // any one file — e.g. grid size <= shard count): the record
        // set of a complete merge is indistinguishable from that of
        // a truncated one, so refuse rather than silently archive a
        // plausible-looking partial trajectory. The shard manifests
        // prove completeness where the records cannot.
        diag << "merge: completeness cannot be proven from the "
                "records alone (no scenario has two records in any "
                "input file); pass the shard manifests via "
                "--merge-manifest\n";
        return false;
    }

    std::vector<std::string> order;
    if (!mergeScenarioOrders(scenarioSeqs, order, err)) {
        diag << "merge: " << err << "\n";
        return false;
    }
    for (Record &rec : records)
        rec.scenarioRank = rankOf(order, rec.scenario);

    std::stable_sort(records.begin(), records.end(),
                     [](const Record &a, const Record &b) {
                         return a.scenarioRank != b.scenarioRank
                                    ? a.scenarioRank < b.scenarioRank
                                    : a.index < b.index;
                     });

    // The merged sequence must be exactly 0..k-1 per scenario:
    // duplicates mean overlapping shards, gaps mean a missing one.
    std::uint64_t expect = 0;
    std::size_t rank = static_cast<std::size_t>(-1);
    std::vector<std::uint64_t> counts(order.size(), 0);
    for (const Record &rec : records) {
        if (rec.scenarioRank != rank) {
            rank = rec.scenarioRank;
            expect = 0;
        }
        if (rec.index != expect) {
            diag << "merge: scenario '" << order[rank] << "': "
                 << (rec.index < expect
                         ? "duplicate record (overlapping shards?)"
                         : "missing records (missing shard?)")
                 << " at index " << (rec.index < expect ? rec.index
                                                        : expect)
                 << "\n";
            return false;
        }
        ++expect;
        counts[rank] = expect;
    }

    if (expected) {
        // The manifests are authoritative: the merged records must
        // be exactly the manifest's scenarios at their full run
        // counts (scenarios with empty grids never emit records).
        std::vector<std::string> wantNames;
        std::vector<std::uint64_t> wantCounts;
        for (const ManifestScenario &ms : expected->scenarios) {
            if (ms.gridSize * ms.replicas == 0)
                continue;
            wantNames.push_back(ms.name);
            wantCounts.push_back(ms.gridSize * ms.replicas);
        }
        if (order != wantNames) {
            diag << "merge: trajectory scenarios do not match the "
                    "shard manifests\n";
            return false;
        }
        for (std::size_t r = 0; r < counts.size(); ++r)
            if (counts[r] != wantCounts[r]) {
                diag << "merge: scenario '" << order[r] << "': "
                     << counts[r] << " records but the manifests "
                     << "declare " << wantCounts[r]
                     << " (missing shard?)\n";
                return false;
            }
    }

    // The merged frames are the unsharded run's gtrj bytes; a text
    // output is rendered from them through the parse path, which
    // writes exactly what a native text run writes.
    std::string merged = gtrj::fileHeader();
    for (const Record &rec : records)
        merged += rec.frame;
    const TrajectoryFormat format =
        trajectoryFormatForPath(outputPath);
    if (format != TrajectoryFormat::gtrj) {
        std::string text;
        const bool rendered =
            format == TrajectoryFormat::csv
                ? gtrj::toCsv(merged, text, err)
                : gtrj::toJsonLines(merged, text, err);
        if (!rendered) {
            diag << "merge: " << err << "\n";
            return false;
        }
        merged.swap(text);
    }
    std::ofstream os(outputPath, std::ios::out | std::ios::trunc |
                                     std::ios::binary);
    if (!os) {
        diag << "merge: cannot open '" << outputPath
             << "' for writing\n";
        return false;
    }
    os.write(merged.data(), static_cast<std::streamsize>(merged.size()));
    os.flush();
    if (!os) {
        // A truncated file would pass for a canonical trajectory in
        // a later collection step; remove it like the CLI removes
        // the companion manifest.
        os.close();
        std::remove(outputPath.c_str());
        diag << "merge: error writing '" << outputPath
             << "' (partial file removed)\n";
        return false;
    }
    diag << "merge: " << records.size() << " records from "
         << shardFiles.size() << " shard file"
         << (shardFiles.size() == 1 ? "" : "s") << " -> '"
         << outputPath << "'\n";
    if (!expected)
        // Records cannot prove every run is present: a sweep whose
        // tail records were lost can be indistinguishable from a
        // complete smaller sweep (e.g. shards {0,3},{1,4},{2,5} are
        // a complete 6-run grid *and* a 7-run grid missing run 6).
        diag << "merge: note — completeness inferred from the "
                "records alone; pass the shard manifests via "
                "--merge-manifest for the authoritative check\n";
    return true;
}

bool
mergeManifests(const std::vector<std::string> &shardFiles,
               const std::string &manifestPath,
               const std::string &outputPath, std::ostream &diag,
               MergePlan *plan)
{
    if (shardFiles.empty()) {
        diag << "merge-manifest: no shard manifests given\n";
        return false;
    }
    std::string err;
    std::vector<ParsedManifest> parsed(shardFiles.size());
    for (std::size_t i = 0; i < shardFiles.size(); ++i) {
        if (!readManifest(shardFiles[i], parsed[i], err)) {
            diag << "merge-manifest: " << err << "\n";
            return false;
        }
        if (!parsed[i].opts.shard.active()) {
            diag << "merge-manifest: '" << shardFiles[i]
                 << "' is not a shard manifest (no shard object)\n";
            return false;
        }
    }

    const ParsedManifest &first = parsed.front();
    if (first.version != galssimVersion()) {
        diag << "merge-manifest: manifests were written by galssim "
             << first.version << ", this binary is "
             << galssimVersion() << "\n";
        return false;
    }
    const unsigned count = first.opts.shard.count;
    if (shardFiles.size() != count) {
        diag << "merge-manifest: manifests declare " << count
             << " shards but " << shardFiles.size()
             << " files were given\n";
        return false;
    }
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
            m.opts.warmupInstructions !=
                first.opts.warmupInstructions ||
            m.opts.shard.count != count ||
            !sameScenarios(m.scenarios, first.scenarios)) {
            diag << "merge-manifest: '" << shardFiles[i]
                 << "' disagrees with '" << shardFiles.front()
                 << "' (different sweep?)\n";
            return false;
        }
        if (seen[m.opts.shard.index]) {
            diag << "merge-manifest: shard " << m.opts.shard.index
                 << "/" << count << " appears twice\n";
            return false;
        }
        seen[m.opts.shard.index] = true;
    }
    for (unsigned i = 1; i <= count; ++i)
        if (!seen[i]) {
            diag << "merge-manifest: shard " << i << "/" << count
                 << " is missing\n";
            return false;
        }

    SweepOptions opts = first.opts;
    opts.shard = ShardSpec(); // the merged manifest is unsharded
    // Not writeManifestFile(): an unwritable path must report back,
    // not gals_fatal the process (the no-die contract above). The
    // temp-file + rename keeps the same guarantee that policy used
    // to hand-roll: no canonical-looking partial artifact is ever
    // left behind, and a previously merged manifest survives a
    // failed re-merge intact.
    std::ostringstream os;
    writeManifest(os, opts, outputPath, first.scenarios);
    std::string werr;
    if (!atomicWriteFile(manifestPath, os.str(), werr)) {
        diag << "merge-manifest: " << werr << "\n";
        return false;
    }
    diag << "merge-manifest: " << count << " shard manifests -> '"
         << manifestPath << "'\n";
    if (plan) {
        plan->shardCount = count;
        plan->scenarios = first.scenarios;
    }
    return true;
}

bool
verifyManifest(const ScenarioRegistry &registry,
               const ExperimentEngine &engine,
               const std::string &manifestPath, std::ostream &diag)
{
    std::string err;
    ParsedManifest m;
    if (!readManifest(manifestPath, m, err)) {
        diag << "verify: " << err << "\n";
        return false;
    }
    if (m.version != galssimVersion()) {
        diag << "verify: manifest was written by galssim "
             << m.version << ", this binary is " << galssimVersion()
             << " — results are not comparable\n";
        return false;
    }
    if (m.output.empty()) {
        diag << "verify: manifest records no trajectory "
                "(the archived run had no --output)\n";
        return false;
    }

    // The manifest records --output as the archiving invocation
    // spelled it, so for a relative path the trajectory may sit (a)
    // next to the manifest (archives travel as a pair — the CI
    // artifact case), (b) next to the manifest under its basename
    // (a pair moved together after archiving into a subdirectory),
    // or (c) at the recorded path from the current directory
    // (verifying where the archive was written). Manifest-adjacent
    // candidates come first: the pair travels together, and a
    // fresher unrelated file at the cwd-relative path must not
    // shadow the archive's true companion.
    std::string archivePath = m.output;
    if (m.output.front() != '/') {
        const std::size_t slash = m.output.find_last_of('/');
        const std::string base = slash == std::string::npos
                                     ? m.output
                                     : m.output.substr(slash + 1);
        for (const std::string &candidate :
             {dirName(manifestPath) + m.output,
              dirName(manifestPath) + base, m.output}) {
            if (std::ifstream(candidate).good()) {
                archivePath = candidate;
                break;
            }
        }
    }
    std::string archived;
    if (!readFile(archivePath, archived, err)) {
        diag << "verify: " << err << "\n";
        return false;
    }

    const TrajectoryFormat format =
        trajectoryFormatForPath(m.output);
    std::ostringstream regen;
    TrajectorySink sink(regen, format, archivePath);

    for (const ManifestScenario &ms : m.scenarios) {
        const Scenario *scenario = registry.find(ms.name);
        if (!scenario) {
            diag << "verify: unknown scenario '" << ms.name
                 << "' (registry drift?)\n";
            return false;
        }
        std::size_t gridSize = 0;
        const std::vector<RunConfig> runs =
            expandReplicatedRuns(*scenario, m.opts, &gridSize);
        if (gridSize != ms.gridSize ||
            m.opts.seedList().size() != ms.replicas) {
            diag << "verify: scenario '" << ms.name
                 << "': grid " << gridSize << "x"
                 << m.opts.seedList().size()
                 << " != archived " << ms.gridSize << "x"
                 << ms.replicas << "\n";
            return false;
        }
        if (runConfigHash(runs) != ms.configHash) {
            diag << "verify: scenario '" << ms.name
                 << "': config hash mismatch — the simulator or "
                    "scenario definition changed since the archive "
                    "was written\n";
            return false;
        }
        const std::vector<std::size_t> indices =
            shardRunIndices(runs.size(), m.opts.shard);
        const std::vector<RunConfig> shardRuns =
            selectRuns(runs, indices);
        const std::vector<RunResults> results =
            engine.run(shardRuns);
        sink.append(ms.name, shardRuns, results,
                    m.opts.shard.active() ? &indices : nullptr);
        diag << "verify: " << ms.name << ": " << results.size()
             << " runs re-executed\n";
    }
    sink.close();

    // The CSV header row is not a record; keep the diagnostics'
    // record counts and indices honest about it.
    const std::size_t headerLines =
        format == TrajectoryFormat::csv ? 1 : 0;
    const auto recordCount = [&](std::size_t lines) {
        return lines > headerLines ? lines - headerLines : 0;
    };

    const std::string &expected = archived;
    const std::string actual = regen.str();
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
