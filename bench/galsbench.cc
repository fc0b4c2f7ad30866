/**
 * @file
 * galsbench — the one CLI for every experiment in this repo.
 *
 * Each paper figure, ablation and sweep is a registered Scenario;
 * galsbench expands the chosen scenarios into their run grids, runs
 * them on the parallel ExperimentEngine and renders paper-style
 * tables or raw JSON-lines / CSV records. It also archives sweeps
 * (trajectory + manifest), resumes a killed `.gtrj` run where it
 * stopped (`--resume`), shards, merges and verifies sweeps, and
 * converts binary trajectories (`parse`).
 *
 * `galsbench --help` prints every mode and flag; both are declared
 * once, in the flag table of runner/cli.cc.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/register_all.hh"
#include "runner/atomic_file.hh"
#include "runner/cli.hh"
#include "runner/engine.hh"
#include "runner/merge.hh"
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
    if (!renderTrajectory(in,
                          opts.format == OutputFormat::csv
                              ? TrajectoryFormat::csv
                              : TrajectoryFormat::jsonLines,
                          out, err)) {
        std::fprintf(stderr, "galsbench: parse: %s: %s\n",
                     opts.inputPath.c_str(), err.c_str());
        return 1;
    }
    if (opts.outputPath.empty()) {
        std::cout << out;
        return stdoutExitCode();
    }
    if (!atomicWriteFile(opts.outputPath, out, err)) {
        std::fprintf(stderr, "galsbench: %s\n", err.c_str());
        return 1;
    }
    return 0;
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

/** Print @p scenario's stdout report in @p format. */
void
report(const Scenario &scenario, const SweepOptions &opts,
       OutputFormat format, std::size_t gridSize,
       const std::vector<RunConfig> &runs,
       const std::vector<RunResults> &results)
{
    if (!opts.replicated()) {
        switch (format) {
          case OutputFormat::table:
            scenario.reduce(opts, SweepView{results});
            break;
          case OutputFormat::json:
            writeJsonLines(std::cout, scenario.name, runs, results);
            break;
          case OutputFormat::csv:
            writeCsv(std::cout, scenario.name, runs, results);
            break;
          case OutputFormat::markdown:
            break; // rejected by parseCli(); --list handles md
        }
        return;
    }

    if (gridSize == 0) {
        // Literature-only scenario (empty grid): nothing to
        // aggregate, but its table report is still valid.
        if (format == OutputFormat::table)
            scenario.reduce(opts, SweepView{results});
        return;
    }

    // The first replica block is the grid the aggregated reports
    // describe.
    const std::vector<RunConfig> gridCfgs(
        runs.begin(), runs.begin() + static_cast<std::ptrdiff_t>(gridSize));
    const ReplicaSummary summary = summarizeReplicas(gridSize, results);
    switch (format) {
      case OutputFormat::table:
        scenario.reduce(opts, SweepView{summary.mean, &summary});
        writeReplicationTable(std::cout, scenario.name, gridCfgs, summary);
        break;
      case OutputFormat::json:
        writeJsonLinesSummary(std::cout, scenario.name, gridCfgs, summary);
        break;
      case OutputFormat::csv:
        writeCsvSummary(std::cout, scenario.name, gridCfgs, summary);
        break;
      case OutputFormat::markdown:
        break;
    }
}

/** Run the selected scenarios: reports on stdout, records to
 *  --output, the manifest to --manifest. */
int
runMain(const ScenarioRegistry &registry, const CliOptions &cli)
{
    const SweepOptions &opts = cli.sweep;
    const OutputFormat format = cli.format.value_or(OutputFormat::table);

    // Plan every grid first: the manifest always describes the
    // canonical full grids (shard manifests differ from the unsharded
    // one only by the shard object and output path, which is what
    // --merge strips), and --resume checks the file against the
    // invocation's whole record sequence before anything runs.
    SweepPlan plan;
    std::string err;
    if (!planSweep(registry, cli.scenarios, opts, plan, err)) {
        std::fprintf(stderr, "galsbench: %s\n%s", err.c_str(),
                     cliUsage().c_str());
        return 2;
    }

    // Every scenario was resolved by parseCli() before the sink
    // truncates --output on open: a typo'd scenario name must not
    // destroy a previously archived trajectory.
    std::size_t kept = 0;
    if (cli.resume) {
        if (!resumeTrajectory(cli.outputPath, plan, kept, err)) {
            std::fprintf(stderr, "galsbench: --resume: %s\n",
                         err.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "galsbench: --resume: %zu of %zu records already "
                     "in '%s'\n",
                     kept, plannedRecords(plan), cli.outputPath.c_str());
    }
    std::unique_ptr<TrajectorySink> sink;
    if (!cli.outputPath.empty())
        sink = std::make_unique<TrajectorySink>(cli.outputPath,
                                                cli.resume);

    const ExperimentEngine engine(cli.jobs);
    std::vector<ManifestScenario> manifestScenarios;
    for (const PlannedScenario &p : plan) {
        const Scenario &scenario = *p.scenario;
        manifestScenarios.push_back(p.manifest);
        if (opts.shard.active() && !sink) {
            // Manifest-only shard invocation: the manifest is a
            // function of the configs alone, so don't burn the
            // slice's simulation time to discard its results.
            std::fprintf(stderr,
                         "galsbench: %s: shard %u/%u manifest only (%zu "
                         "of %zu runs not executed)\n",
                         scenario.name.c_str(), opts.shard.index,
                         opts.shard.count, p.runs.size(),
                         p.manifest.gridSize * p.manifest.replicas);
            continue;
        }

        const std::size_t skip = std::min(kept, p.runs.size());
        kept -= skip;
        const std::vector<RunResults> results =
            runSliceStreamed(engine, p, sink.get(), skip);

        if (opts.shard.active()) {
            // The paper tables need the whole grid, so no report is
            // printed here.
            std::fprintf(stderr,
                         "galsbench: %s: shard %u/%u ran %zu of %zu "
                         "runs\n",
                         scenario.name.c_str(), opts.shard.index,
                         opts.shard.count, p.runs.size(),
                         p.manifest.gridSize * p.manifest.replicas);
            continue;
        }
        // A resumed run has no results for the records it kept.
        if (!cli.resume)
            report(scenario, opts, format, p.manifest.gridSize, p.runs,
                   results);
    }

    if (sink)
        sink->close();
    if (!cli.manifestPath.empty())
        writeManifestFile(cli.manifestPath, opts, cli.outputPath,
                          manifestScenarios);

    return stdoutExitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);

    CliOptions opts;
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
      case cliParse:
        return parseMain(opts);
      case cliMerge:
        return mergeShards(registry, opts.mergeFiles, opts.outputPath,
                           opts.manifestPath, std::cerr)
                   ? 0
                   : 1;
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
