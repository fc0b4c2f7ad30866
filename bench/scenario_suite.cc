/**
 * @file
 * Full-suite comparison: every requested benchmark on the base and
 * GALS processors, a compact table of everything the paper measures,
 * plus the base processor's energy breakdown:
 * `galsbench --scenario suite`.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "bench/register_all.hh"

namespace gals::bench
{

using namespace gals::runner;

Scenario
suiteScenario()
{
    Scenario s;
    s.name = "suite";
    s.figure = "Suite";
    s.description =
        "full base/GALS comparison table over the benchmark suite";

    s.makeRuns = [](const SweepOptions &opts) {
        std::vector<RunConfig> runs;
        for (const auto &name : opts.benchmarkSet())
            appendPair(runs, name, opts.instructions, DvfsSetting(),
                       opts.seed);
        return runs;
    };

    s.reduce = [](const SweepOptions &opts, const SweepView &sweep) {
        const std::vector<RunResults> &results = sweep.runs;
        const auto names = opts.benchmarkSet();
        std::printf("%-10s %6s %6s | %5s %5s %5s | %5s %5s | %5s %5s "
                    "| %5s %5s\n",
                    "bench", "ipcB", "ipcG", "perf", "enrgy", "power",
                    "slipB", "slipG", "wpB%", "wpG%", "accB", "dl1B%");

        MeanTracker perf, energy, power, slip;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const PairResults pr = pairAt(results, i);
            const auto &b = pr.base;
            const auto &g = pr.galsRun;
            std::printf("%-10s %6.3f %6.3f | %5.3f %5.3f %5.3f | "
                        "%5.1f %5.1f | %5.2f %5.2f | %5.3f %5.2f\n",
                        names[i].c_str(), b.ipcNominal, g.ipcNominal,
                        g.ipcNominal / b.ipcNominal, pr.energyRatio(),
                        pr.powerRatio(), b.avgSlipCycles,
                        g.avgSlipCycles, 100 * b.misspecFraction,
                        100 * g.misspecFraction, b.dirAccuracy,
                        100 * b.dl1MissRate);
            perf.add(g.ipcNominal / b.ipcNominal);
            energy.add(pr.energyRatio());
            power.add(pr.powerRatio());
            slip.add(pr.slipRatio());
        }
        std::printf("%-10s %6s %6s | %5.3f %5.3f %5.3f | geomean "
                    "slip ratio %.2f\n",
                    "GEOMEAN", "", "", perf.mean(), energy.mean(),
                    power.mean(), slip.mean());

        // Base-processor energy breakdown for the first benchmark
        // (pair 0's base run).
        const RunResults &r = results.front();
        double total = 0;
        for (const auto &[unit, nj] : r.unitEnergyNj)
            total += nj;
        std::printf("\nenergy breakdown, base, %s (total %.3f mJ, "
                    "%.1f W):\n",
                    names.front().c_str(), total * 1e-6, r.avgPowerW);
        for (const auto &[unit, nj] : r.unitEnergyNj)
            if (nj > 0)
                std::printf("  %-14s %8.3f mJ  %5.1f%%\n",
                            unit.c_str(), nj * 1e-6,
                            100.0 * nj / total);
    };

    return s;
}

} // namespace gals::bench
