/**
 * @file
 * galsbench — the one CLI for every experiment in this repo.
 *
 * Each paper figure, ablation and sweep is a registered Scenario;
 * galsbench expands the chosen scenarios into their run grids, runs
 * them on the parallel ExperimentEngine and renders paper-style
 * tables or raw JSON-lines / CSV records. It also archives sweeps
 * (trajectory + manifest), shards, merges and verifies them, converts
 * binary trajectories (`parse`) and orchestrates whole sweeps as
 * crash-safe worker subprocesses (`dispatch`, docs/ORCHESTRATION.md).
 *
 * `galsbench --help` prints every mode and flag; both are declared
 * once, in the flag table of runner/cli.cc.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/register_all.hh"
#include "core/snapshot.hh"
#include "runner/atomic_file.hh"
#include "runner/cli.hh"
#include "runner/engine.hh"
#include "runner/fault.hh"
#include "runner/gtrj.hh"
#include "runner/merge.hh"
#include "runner/orchestrator.hh"
#include "runner/reporter.hh"
#include "runner/scenario.hh"
#include "runner/stats.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

/** Flush std::cout and turn a write failure into exit 1: reports
 *  and listings must not masquerade as success on a full disk or
 *  dead pipe. */
int
stdoutExitCode()
{
    std::cout.flush();
    if (!std::cout) {
        std::fprintf(stderr, "galsbench: error writing to stdout\n");
        return 1;
    }
    return 0;
}

/** This binary's own path, for dispatch workers to exec. */
std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

/**
 * `galsbench parse INPUT.gtrj ...`: offline conversion of a binary
 * trajectory back to the exact text a native text-format run of the
 * same sweep writes — JSON lines byte-identical to `--output
 * foo.jsonl` (CSV likewise) — so binary archives stay greppable and
 * diffable without re-simulating anything.
 */
int
parseMain(const CliOptions &opts)
{
    std::string in, out, err;
    if (!readFile(opts.inputPath, in, err)) {
        std::fprintf(stderr, "galsbench: %s\n", err.c_str());
        return 1;
    }
    const bool ok = opts.format == OutputFormat::csv
                        ? gtrj::toCsv(in, out, err)
                        : gtrj::toJsonLines(in, out, err);
    if (!ok) {
        std::fprintf(stderr, "galsbench: parse: %s: %s\n",
                     opts.inputPath.c_str(), err.c_str());
        return 1;
    }

    if (opts.outputPath.empty()) {
        std::cout << out;
        return stdoutExitCode();
    }
    std::ofstream os(opts.outputPath, std::ios::out | std::ios::trunc |
                                          std::ios::binary);
    if (os)
        os.write(out.data(),
                 static_cast<std::streamsize>(out.size()));
    os.flush();
    if (!os) {
        // A truncated conversion must not pass for the real thing in
        // a later byte-compare.
        std::fprintf(stderr, "galsbench: error writing '%s'\n",
                     opts.outputPath.c_str());
        std::remove(opts.outputPath.c_str());
        return 1;
    }
    return 0;
}

/** `--merge` / `--merge-manifest`: fuse shard outputs back into the
 *  canonical unsharded files. */
int
mergeMain(const CliOptions &opts)
{
    // Manifests first: when both are given, the recovered sweep
    // shape is the authoritative completeness check for the
    // trajectory merge.
    bool ok = true;
    MergePlan plan;
    const MergePlan *planPtr = nullptr;
    if (!opts.mergeManifestFiles.empty()) {
        ok = mergeManifests(opts.mergeManifestFiles, opts.manifestPath,
                            opts.outputPath, std::cerr, &plan);
        planPtr = &plan;
    }
    if (ok && !opts.mergeFiles.empty()) {
        ok = mergeTrajectories(opts.mergeFiles, opts.outputPath,
                               std::cerr, planPtr);
        if (!ok && !opts.mergeManifestFiles.empty()) {
            // Don't leave a canonical-looking manifest behind whose
            // recorded trajectory was never written.
            std::remove(opts.manifestPath.c_str());
            std::fprintf(stderr,
                         "galsbench: removed '%s' (trajectory merge "
                         "failed)\n",
                         opts.manifestPath.c_str());
        }
    }
    return ok ? 0 : 1;
}

/** `--list`: the scenario catalog. */
int
listMain(const ScenarioRegistry &registry, const CliOptions &opts)
{
    if (opts.format == OutputFormat::markdown) {
        // The checked-in catalog documents the registry at stock
        // sweep defaults, deliberately ignoring GALSSIM_INSTS so the
        // CI drift check is stable in any environment.
        writeScenarioCatalogMarkdown(std::cout, registry,
                                     SweepOptions{});
        return stdoutExitCode();
    }
    std::printf("%-16s %-14s %s\n", "name", "figure", "description");
    for (const Scenario &s : registry.all())
        std::printf("%-16s %-14s %s\n", s.name.c_str(),
                    s.figure.c_str(), s.description.c_str());
    return stdoutExitCode();
}

/**
 * Run one scenario's shard slice with per-record streaming: every
 * finished run is appended and flushed in canonical slice order the
 * moment it and all its predecessors are done, so a crash at any
 * instant loses at most the record being written. @p skip positions
 * (already on disk from a previous attempt) are neither re-simulated
 * nor re-written. faultTick() after each flush is where the injected
 * test faults fire.
 */
void
runSliceStreamed(const ExperimentEngine &engine, TrajectorySink &sink,
                 const std::string &scenario,
                 const std::vector<RunConfig> &shardRuns,
                 const std::vector<std::size_t> &indices,
                 std::size_t skip)
{
    const std::size_t n = shardRuns.size();
    if (skip >= n)
        return;
    std::vector<RunResults> results(n);
    std::vector<char> ready(n, 0);
    std::mutex mu;
    std::size_t next = skip;
    engine.runIndexed(n - skip, [&](std::size_t t) {
        const std::size_t j = skip + t;
        RunResults r = runOne(shardRuns[j]);
        const std::lock_guard<std::mutex> lock(mu);
        results[j] = std::move(r);
        ready[j] = 1;
        // Ordered flush window: drain the contiguous ready prefix.
        while (next < n && ready[next]) {
            sink.appendOne(scenario, shardRuns[next], results[next],
                           indices[next]);
            faultTick();
            ++next;
        }
    });
}

/** Run the selected scenarios: reports on stdout, records to
 *  --output, the manifest to --manifest. */
int
runMain(const ScenarioRegistry &registry, const CliOptions &cli)
{
    const SweepOptions &opts = cli.sweep;
    const std::string &outputPath = cli.outputPath;
    const std::string &manifestPath = cli.manifestPath;
    const OutputFormat format = cli.format.value_or(OutputFormat::table);
    if (!cli.snapshotDir.empty())
        setSnapshotDir(cli.snapshotDir);
    if (cli.fault.active())
        setFaultPlan(cli.fault);

    // Every scenario was resolved by parseCli() before the sink
    // truncates --output on open: a typo'd scenario name must not
    // destroy a previously archived trajectory.
    std::unique_ptr<TrajectorySink> sink;
    if (!outputPath.empty())
        sink = std::make_unique<TrajectorySink>(outputPath,
                                                cli.resumeSkip > 0);
    std::vector<ManifestScenario> manifestScenarios;

    // Covers exit-after=0 / hang-after=0: the fault fires before the
    // first record of the sweep.
    faultPoint();

    const std::size_t replicas = opts.seedList().size();
    std::uint64_t skipLeft = cli.resumeSkip;
    const ExperimentEngine engine(cli.jobs);
    for (const std::string &name : cli.scenarios) {
        const Scenario *scenario = registry.find(name);
        std::size_t gridSize = 0;
        const std::vector<RunConfig> runs =
            expandReplicatedRuns(*scenario, opts, &gridSize);
        // The manifest always describes the canonical full grid —
        // shard manifests differ from the unsharded one only by the
        // shard object and output path, which is what --merge-manifest
        // strips when fusing them back.
        manifestScenarios.push_back({scenario->name, gridSize,
                                     replicas, runConfigHash(runs)});

        if (opts.shard.active()) {
            // Run only this shard's slice; records carry their
            // canonical grid indices so --merge can reassemble the
            // single-machine trajectory byte for byte. The paper
            // tables need the whole grid, so no report is printed
            // here.
            const std::vector<std::size_t> indices =
                shardRunIndices(runs.size(), opts.shard);
            const std::vector<RunConfig> shardRuns =
                selectRuns(runs, indices);
            if (sink) {
                // Stream + flush frame by frame (parseCli() admits
                // only a .gtrj shard output): this is what lets
                // `galsbench dispatch` lose at most one record to a
                // killed worker.
                const std::size_t skip =
                    std::min<std::uint64_t>(skipLeft, shardRuns.size());
                skipLeft -= skip;
                runSliceStreamed(engine, *sink, scenario->name,
                                 shardRuns, indices, skip);
                std::fprintf(stderr,
                             "galsbench: %s: shard %u/%u ran %zu of "
                             "%zu runs\n",
                             scenario->name.c_str(), opts.shard.index,
                             opts.shard.count, shardRuns.size(),
                             runs.size());
            } else {
                // Manifest-only shard invocation: the manifest is a
                // function of the configs alone, so don't burn the
                // slice's simulation time to discard its results.
                std::fprintf(stderr,
                             "galsbench: %s: shard %u/%u manifest "
                             "only (%zu of %zu runs not executed)\n",
                             scenario->name.c_str(), opts.shard.index,
                             opts.shard.count, shardRuns.size(),
                             runs.size());
            }
            continue;
        }

        const std::vector<RunResults> results = engine.run(runs);

        if (sink)
            sink->append(scenario->name, runs, results);

        if (replicas <= 1) {
            switch (format) {
              case OutputFormat::table:
                scenario->reduce(opts, SweepView{results});
                break;
              case OutputFormat::json:
                writeJsonLines(std::cout, scenario->name, runs,
                               results);
                break;
              case OutputFormat::csv:
                writeCsv(std::cout, scenario->name, runs, results);
                break;
              case OutputFormat::markdown:
                break; // rejected by parseCli(); --list handles md
            }
            continue;
        }

        if (gridSize == 0) {
            // Literature-only scenario (empty grid): nothing to
            // aggregate, but its table report is still valid.
            if (format == OutputFormat::table)
                scenario->reduce(opts, SweepView{results});
            continue;
        }

        // The first replica block is the grid the aggregated
        // reports describe.
        const std::vector<RunConfig> gridCfgs(
            runs.begin(),
            runs.begin() + static_cast<std::ptrdiff_t>(gridSize));
        const ReplicaSummary summary =
            summarizeReplicas(gridSize, results);
        switch (format) {
          case OutputFormat::table:
            scenario->reduce(opts, SweepView{summary.mean, &summary});
            writeReplicationTable(std::cout, scenario->name, gridCfgs,
                                  summary);
            break;
          case OutputFormat::json:
            writeJsonLinesSummary(std::cout, scenario->name, gridCfgs,
                                  summary);
            break;
          case OutputFormat::csv:
            writeCsvSummary(std::cout, scenario->name, gridCfgs,
                            summary);
            break;
          case OutputFormat::markdown:
            break;
        }
    }

    if (sink)
        sink->close();
    if (!manifestPath.empty())
        writeManifestFile(manifestPath, opts, outputPath,
                          manifestScenarios);

    return stdoutExitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);

    // TEST-ONLY (docs/ORCHESTRATION.md): deterministic worker fault
    // injection for the orchestrator's crash-safety tests.
    if (const char *env = std::getenv("GALSSIM_FAULT")) {
        FaultPlan plan;
        std::string ferr;
        if (!parseFaultSpec(env, plan, ferr)) {
            std::fprintf(stderr, "galsbench: GALSSIM_FAULT: %s\n",
                         ferr.c_str());
            return 2;
        }
        setFaultPlan(plan);
    }

    CliOptions opts;
    opts.workerBinary = selfExePath();
    std::string err;
    if (!parseCli(std::vector<std::string>(argv + 1, argv + argc),
                  registry, opts, err)) {
        std::fprintf(stderr, "galsbench: %s\n%s", err.c_str(),
                     cliUsage().c_str());
        return 2;
    }
    if (opts.help) {
        std::cout << cliUsage();
        return stdoutExitCode();
    }

    switch (opts.mode) {
      case cliDispatch:
        return runDispatch(registry, opts, std::cerr) ? 0 : 1;
      case cliParse:
        return parseMain(opts);
      case cliMerge:
        return mergeMain(opts);
      case cliVerify:
        return verifyManifest(registry, ExperimentEngine(opts.jobs),
                              opts.verifyPath, std::cerr)
                   ? 0
                   : 1;
      case cliList:
        return listMain(registry, opts);
      case cliRun:
        break;
    }
    return runMain(registry, opts);
}
