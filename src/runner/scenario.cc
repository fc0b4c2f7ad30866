#include "runner/scenario.hh"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "sim/logging.hh"

namespace gals::runner
{

std::vector<std::string>
SweepOptions::benchmarkSet() const
{
    return benchmarks.empty() ? benchmarkNames() : benchmarks;
}

std::vector<std::uint64_t>
SweepOptions::seedList() const
{
    if (!explicitSeeds.empty())
        return explicitSeeds;
    std::vector<std::uint64_t> seeds;
    seeds.reserve(replicaCount());
    for (std::size_t r = 0; r < replicaCount(); ++r)
        seeds.push_back(seed + r);
    return seeds;
}

SweepOptions
SweepOptions::fromEnvironment()
{
    SweepOptions opts;
    if (const char *env = std::getenv("GALSSIM_INSTS"))
        opts.instructions = std::strtoull(env, nullptr, 10);
    if (const char *env = std::getenv("GALSSIM_BENCH"))
        opts.benchmarks = {std::string(env)};
    return opts;
}

void
ScenarioRegistry::add(Scenario s)
{
    if (s.name.empty())
        gals_fatal("scenario registered without a name");
    if (find(s.name))
        gals_fatal("scenario '", s.name, "' registered twice");
    scenarios_.push_back(std::move(s));
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    for (const Scenario &s : scenarios_)
        if (s.name == name)
            return &s;
    return nullptr;
}

void
appendPair(std::vector<RunConfig> &runs, const std::string &benchmark,
           std::uint64_t instructions, const DvfsSetting &galsDvfs,
           std::uint64_t seed, const ProcessorConfig &proc)
{
    RunConfig base;
    base.benchmark = benchmark;
    base.instructions = instructions;
    base.gals = false;
    base.seed = seed;
    base.proc = proc;

    RunConfig galsCfg = base;
    galsCfg.gals = true;
    galsCfg.dvfs = galsDvfs;

    runs.push_back(std::move(base));
    runs.push_back(std::move(galsCfg));
}

std::vector<RunConfig>
expandReplicatedRuns(const Scenario &s, const SweepOptions &opts,
                     std::size_t *gridSize, std::size_t maxRuns)
{
    std::vector<RunConfig> all;
    std::size_t grid = 0;
    bool first = true;
    for (std::uint64_t seed : opts.seedList()) {
        SweepOptions replica = opts;
        replica.seed = seed;
        std::vector<RunConfig> runs =
            s.makeRuns ? s.makeRuns(replica)
                       : std::vector<RunConfig>();
        if (first) {
            grid = runs.size();
            first = false;
            if (grid > maxRuns / opts.replicaCount()) {
                all = std::move(runs);
                break;
            }
        } else {
            gals_assert(runs.size() == grid, "scenario '", s.name,
                        "': replica grid size ", runs.size(),
                        " != ", grid,
                        " (grid shape may not depend on the seed)");
        }
        all.insert(all.end(),
                   std::make_move_iterator(runs.begin()),
                   std::make_move_iterator(runs.end()));
    }
    // The interval meter applies sweep-wide; stamping here (the one
    // place every scenario's grid passes through) keeps the option
    // out of each scenario's makeRuns(). The warmup split is stamped
    // the same way, but only onto single-core runs: fabric runs do
    // not support warm snapshots, and leaving their field at 0 keeps
    // their hashes unchanged instead of silently ignoring the option
    // mid-run (runOne asserts the combination never reaches it).
    for (RunConfig &cfg : all) {
        cfg.intervalTicks = opts.intervalTicks;
        if (!cfg.fabric.active())
            cfg.warmupInstructions = opts.warmupInstructions;
    }
    if (gridSize)
        *gridSize = grid;
    return all;
}

std::vector<RunConfig>
selectRuns(const std::vector<RunConfig> &runs,
           const std::vector<std::size_t> &indices)
{
    std::vector<RunConfig> out;
    out.reserve(indices.size());
    for (std::size_t i : indices) {
        gals_assert(i < runs.size(), "selectRuns: index ", i,
                    " out of range (", runs.size(), " runs)");
        out.push_back(runs[i]);
    }
    return out;
}

PairResults
pairAt(const std::vector<RunResults> &results, std::size_t i)
{
    gals_assert(2 * i + 1 < results.size(),
                "pairAt(", i, ") out of range (", results.size(),
                " results)");
    PairResults pr;
    pr.base = results[2 * i];
    pr.galsRun = results[2 * i + 1];
    return pr;
}

} // namespace gals::runner
