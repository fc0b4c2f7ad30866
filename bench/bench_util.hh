/**
 * @file
 * Shared helpers for the scenario registrations: figure-header
 * formatting and the geometric-mean tracker for normalized-ratio
 * "average" rows. Run parameters live in runner::SweepOptions;
 * galsbench fills them from its flags and GALSSIM_INSTS /
 * GALSSIM_BENCH through runner::parseCli().
 */

#ifndef BENCH_BENCH_UTIL_HH
#define BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "runner/scenario.hh"

namespace gals::bench
{

/** Print the standard figure header. */
inline void
figureHeader(const char *fig, const char *what,
             const runner::SweepOptions &opts)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s: %s\n", fig, what);
    std::printf("instructions per run: %llu\n",
                static_cast<unsigned long long>(opts.instructions));
    if (opts.replicated())
        std::printf("seeds per point: %zu (metrics are replica "
                    "means; see replication summary)\n",
                    opts.seedList().size());
    std::printf("==============================================="
                "=====================\n");
}

/**
 * Geometric-mean helper for "average" rows over normalized ratios.
 * The geometric mean is the right average for ratios (the paper's
 * relative performance / energy / power rows): it is symmetric under
 * inversion, where the arithmetic mean systematically overstates.
 * Tracked as a running sum of logs; values must be positive.
 */
class MeanTracker
{
  public:
    void
    add(double v)
    {
        logSum_ += std::log(v);
        ++n_;
    }
    double
    mean() const
    {
        return n_ ? std::exp(logSum_ / n_) : 0.0;
    }

  private:
    double logSum_ = 0.0;
    unsigned n_ = 0;
};

/** Arithmetic-mean helper for absolute quantities (fractions,
 *  occupancies) where the geometric mean is not appropriate. */
class ArithmeticMeanTracker
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        ++n_;
    }
    double
    mean() const
    {
        return n_ ? sum_ / n_ : 0.0;
    }

  private:
    double sum_ = 0.0;
    unsigned n_ = 0;
};

/** The single benchmark a one-benchmark scenario targets: the first
 *  requested benchmark, or @p fallback when the sweep is unrestricted. */
inline std::string
primaryBenchmark(const runner::SweepOptions &opts, const char *fallback)
{
    return opts.benchmarks.empty() ? fallback : opts.benchmarks.front();
}

} // namespace gals::bench

#endif // BENCH_BENCH_UTIL_HH
