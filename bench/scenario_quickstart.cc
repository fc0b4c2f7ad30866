/**
 * @file
 * Quickstart: run the base (fully synchronous) and GALS processors on
 * one benchmark and print the paper's headline metrics side by side:
 * `galsbench --scenario quickstart`.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "bench/register_all.hh"

namespace gals::bench
{

using namespace gals::runner;

Scenario
quickstartScenario()
{
    Scenario s;
    s.name = "quickstart";
    s.figure = "Quickstart";
    s.description =
        "base vs GALS headline metrics on one benchmark";

    s.makeRuns = [](const SweepOptions &opts) {
        std::vector<RunConfig> runs;
        appendPair(runs, primaryBenchmark(opts, "gcc"),
                   opts.instructions, DvfsSetting(), opts.seed);
        return runs;
    };

    s.reduce = [](const SweepOptions &opts, const SweepView &sweep) {
        const std::vector<RunResults> &results = sweep.runs;
        const std::string bench = primaryBenchmark(opts, "gcc");
        std::printf("galssim quickstart: %s, %llu instructions\n",
                    bench.c_str(),
                    static_cast<unsigned long long>(
                        opts.instructions));

        const PairResults pr = pairAt(results, 0);

        auto row = [](const char *name, double b, double g,
                      const char *unit) {
            std::printf("  %-22s %12.4f %12.4f %-8s (gals/base "
                        "%.3f)\n",
                        name, b, g, unit, b != 0.0 ? g / b : 0.0);
        };

        std::printf("\n%-24s %12s %12s\n", "metric", "base", "gals");
        row("IPC (nominal clock)", pr.base.ipcNominal,
            pr.galsRun.ipcNominal, "");
        row("run time", pr.base.timeSec * 1e6,
            pr.galsRun.timeSec * 1e6, "us");
        row("energy", pr.base.energyJ * 1e3, pr.galsRun.energyJ * 1e3,
            "mJ");
        row("avg power", pr.base.avgPowerW, pr.galsRun.avgPowerW, "W");
        row("avg slip", pr.base.avgSlipCycles,
            pr.galsRun.avgSlipCycles, "cycles");
        row("slip in FIFOs", pr.base.avgFifoSlipCycles,
            pr.galsRun.avgFifoSlipCycles, "cycles");
        row("mis-speculated frac", pr.base.misspecFraction,
            pr.galsRun.misspecFraction, "");
        row("ROB occupancy", pr.base.avgRobOcc, pr.galsRun.avgRobOcc,
            "");
        row("int renames in flight", pr.base.avgIntRenames,
            pr.galsRun.avgIntRenames, "");

        std::printf("\nrelative performance (Fig 5): %.3f\n",
                    pr.galsRun.ipcNominal / pr.base.ipcNominal);
        std::printf("normalized energy (Fig 9): %.3f\n",
                    pr.energyRatio());
        std::printf("normalized power  (Fig 9): %.3f\n",
                    pr.powerRatio());
        std::printf("branch dir accuracy: base %.3f gals %.3f\n",
                    pr.base.dirAccuracy, pr.galsRun.dirAccuracy);
        std::printf("L1D miss rate: %.4f  L1I: %.4f  L2: %.4f\n",
                    pr.base.dl1MissRate, pr.base.il1MissRate,
                    pr.base.l2MissRate);
    };

    return s;
}

} // namespace gals::bench
