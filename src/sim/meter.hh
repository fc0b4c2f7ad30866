/**
 * @file
 * Periodic in-run sampling.
 *
 * A PeriodicMeter owns a dedicated ClockDomain whose first edge fires
 * one full interval after start() and registers itself as the
 * domain's (typed) Ticker, so sampling rides the same deterministic
 * edge machinery as the pipeline stages: meter edges land in the
 * event queue with the same tick/priority ordering guarantees at
 * every job count, which is what makes interval series
 * byte-identical across `--jobs`.
 *
 * The meter is strictly read-only with respect to the simulated
 * machine: its edges execute no model code, so enabling it never
 * changes the headline metrics of a run. Subclasses implement
 * sampleInterval() and harvest whatever counters they need.
 */

#ifndef SIM_METER_HH
#define SIM_METER_HH

#include <cstdint>
#include <string>

#include "sim/clock_domain.hh"
#include "sim/ticks.hh"

namespace gals
{

/**
 * Fixed-period sampler: sampleInterval() runs at K, 2K, ... ticks
 * after start().
 */
class PeriodicMeter : public ClockDomain::Ticker
{
  public:
    /** @param intervalTicks sampling period K in ticks (> 0). */
    PeriodicMeter(EventQueue &eq, std::string name,
                  Tick intervalTicks);
    ~PeriodicMeter() override = default;

    /** Schedule the first sample one interval from now. */
    void start() { domain_.start(); }

    /** Stop sampling; pending edges are descheduled. */
    void stop() { domain_.stop(); }

    /** The sampling period K. */
    Tick intervalTicks() const { return domain_.period(); }

    /** Samples taken so far. */
    std::uint64_t samples() const { return samples_; }

  protected:
    /**
     * Take sample @p index (0-based) at simulated time @p now.
     * Implementations read model state; they must not mutate it.
     */
    virtual void sampleInterval(std::uint64_t index, Tick now) = 0;

  private:
    void tick() final;

    ClockDomain domain_;
    std::uint64_t samples_ = 0;
};

} // namespace gals

#endif // SIM_METER_HH
