/**
 * @file
 * Dynamic, application-driven per-domain DVFS controller.
 *
 * The paper's conclusion points past its static experiments:
 * "Eventually, fine adaptation can be extended to support
 * application-driven, multiple-domain dynamic clock/voltage scaling."
 * This controller implements that extension on top of the runtime
 * retiming the simulation substrate already supports.
 *
 * Every sampling interval it computes each registered domain's
 * utilization (work performed / peak work possible at the current
 * frequency) and walks the domain through a table of slowdown steps:
 * below the low-water mark the domain is slowed one step (and its
 * supply dropped per equation 1); above the high-water mark it is sped
 * back up one step. An idle floating-point unit therefore glides to a
 * deep slowdown on integer code — the perl/gcc experiments of section
 * 5.2, but decided online instead of offline profiling (the paper
 * contrasts itself with Semeraro et al.'s offline approach).
 */

#ifndef DVFS_CONTROLLER_HH
#define DVFS_CONTROLLER_HH

#include <string>
#include <vector>

#include "dvfs/vscale.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"

namespace gals
{

/** Tuning knobs of the dynamic controller. */
struct DynamicDvfsConfig
{
    /** Sampling interval in ticks (simulated time). */
    Tick samplePeriod = 2000 * 1000; // 2000 nominal cycles at 1 GHz

    /** Slow a domain one step below this utilization. */
    double loUtil = 0.08;
    /** Speed a domain one step above this utilization. */
    double hiUtil = 0.35;

    /** Samples ignored at startup (cache/predictor warm-up). */
    unsigned warmupSamples = 2;

    /** Allowed slowdown factors, ascending from nominal. */
    std::vector<double> steps = {1.0, 4.0 / 3.0, 2.0, 3.0};

    /** Scale supply voltage along with frequency (equation 1). */
    bool scaleVoltage = true;
};

/**
 * Samples utilization and retunes clock domains at run time.
 *
 * The sampler is a clock like any other: a ClockDomain of period =
 * phase = samplePeriod whose edges run at statsPri, after every
 * clockEdgePri edge of the same tick, with this controller as its
 * only ticker.
 */
class DynamicDvfsController : public ClockDomain::Ticker
{
  public:
    DynamicDvfsController(EventQueue &eq, const TechParams &tech,
                          const DynamicDvfsConfig &cfg =
                              DynamicDvfsConfig());

    DynamicDvfsController(const DynamicDvfsController &) = delete;
    DynamicDvfsController &
    operator=(const DynamicDvfsController &) = delete;

    /**
     * Put @p domain under control.
     *
     * @param workCounter monotonically increasing count of useful work
     *        units (e.g. instructions issued in the domain), read
     *        directly each sample — no callback indirection. Must stay
     *        valid while the controller runs.
     * @param peakPerCycle the most work the domain can do per cycle
     *        (its issue width)
     */
    void manage(ClockDomain &domain, const std::uint64_t *workCounter,
                double peakPerCycle);

    /** Begin sampling. */
    void start();

    /** Stop sampling (domains keep their current settings). */
    void stop();

    /** Total step changes applied so far. */
    std::uint64_t adjustments() const { return adjustments_; }

    /** Current step index of a managed domain (0 = nominal). */
    unsigned stepOf(const ClockDomain &domain) const;

    /** Most recent measured utilization of a managed domain. */
    double utilizationOf(const ClockDomain &domain) const;

  private:
    struct Managed
    {
        ClockDomain *domain;
        const std::uint64_t *workCounter;
        double peakPerCycle;
        Tick nominalPeriod;
        unsigned step = 0;
        std::uint64_t lastWork = 0;
        Cycle lastCycle = 0;
        double lastUtil = 0.0;
    };

    void tick() final { sample(); }
    void sample();
    void applyStep(Managed &m, unsigned step);
    const Managed *find(const ClockDomain &domain) const;

    TechParams tech_;
    DynamicDvfsConfig cfg_;
    std::vector<Managed> managed_;
    ClockDomain sampler_;
    std::uint64_t adjustments_ = 0;
    std::uint64_t samples_ = 0;
};

} // namespace gals

#endif // DVFS_CONTROLLER_HH
