/**
 * @file
 * DVFS design-space explorer: sweeps per-domain clock slowdowns for
 * one benchmark on the GALS processor and prints the performance /
 * energy / power frontier, with the ideal uniform-voltage-scaling
 * bound for reference — the methodology behind the paper's section 5.2
 * ("we tried to determine which parts of the processor could be slowed
 * down in an application-dependent manner"):
 * `galsbench --scenario dvfs-explorer`.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/register_all.hh"
#include "dvfs/dvfs_policy.hh"

namespace gals::bench
{

using namespace gals::runner;

namespace
{

/** The explored design points, in run order (after the base run). */
std::vector<std::pair<std::string, DvfsSetting>>
explorerPoints()
{
    std::vector<std::pair<std::string, DvfsSetting>> points;
    points.emplace_back("gals nominal", DvfsSetting());

    // Single-domain sweeps.
    for (const DomainId d : {DomainId::fetch, DomainId::fpd,
                             DomainId::memd, DomainId::intd}) {
        for (const double pct : {20.0, 50.0}) {
            DvfsSetting s;
            s.slowdown[domainIndex(d)] = slowdownFromPercent(pct);
            points.emplace_back(
                std::string(domainName(d)) + " -" +
                    std::to_string(static_cast<int>(pct)) + "%",
                s);
        }
    }

    // The paper's named policies.
    points.emplace_back("paper generic (fig11)",
                        genericSlowdownPolicy().setting);
    points.emplace_back("paper gals-1 (fig13)",
                        gccFpPolicy(1).setting);
    points.emplace_back("paper gals-2 (fig13)",
                        gccFpPolicy(2).setting);
    return points;
}

} // namespace

Scenario
dvfsExplorerScenario()
{
    Scenario s;
    s.name = "dvfs-explorer";
    s.figure = "DVFS explorer";
    s.description =
        "per-domain slowdown frontier for one benchmark";

    s.makeRuns = [](const SweepOptions &opts) {
        std::vector<RunConfig> runs;

        RunConfig base;
        base.benchmark = primaryBenchmark(opts, "gcc");
        base.instructions = opts.instructions;
        base.seed = opts.seed;
        runs.push_back(base);

        for (const auto &[label, setting] : explorerPoints()) {
            RunConfig rc = base;
            rc.gals = true;
            rc.dvfs = setting;
            runs.push_back(std::move(rc));
        }
        return runs;
    };

    s.reduce = [](const SweepOptions &opts, const SweepView &sweep) {
        const std::vector<RunResults> &results = sweep.runs;
        const std::string bench = primaryBenchmark(opts, "gcc");
        std::printf("DVFS explorer: %s, %llu instructions (base = "
                    "fully synchronous at nominal clock/voltage)\n\n",
                    bench.c_str(),
                    static_cast<unsigned long long>(
                        opts.instructions));

        const RunResults &base = results.front();
        std::printf("base: ipc %.3f, %.2f W\n\n", base.ipcNominal,
                    base.avgPowerW);

        std::printf("%-22s %8s %8s %8s %8s\n", "configuration",
                    "perf", "energy", "power", "ideal");

        const auto points = explorerPoints();
        for (std::size_t i = 0; i < points.size(); ++i) {
            const RunResults &g = results[i + 1];
            const double perf = g.ipcNominal / base.ipcNominal;
            const double energy = g.energyJ / base.energyJ;
            const double power = g.avgPowerW / base.avgPowerW;
            const IdealScaling ideal =
                idealScalingForPerf(perf, defaultTech());
            std::printf("%-22s %8.3f %8.3f %8.3f %8.3f %s\n",
                        points[i].first.c_str(), perf, energy, power,
                        ideal.energyFactor,
                        energy < ideal.energyFactor + 0.03
                            ? "(near-ideal)"
                            : "");
        }

        std::printf("\n'ideal' = synchronous core slowed uniformly to "
                    "the same performance with voltage per eq. 1 "
                    "(alpha = %.1f)\n",
                    defaultTech().alpha);
    };

    return s;
}

} // namespace gals::bench
