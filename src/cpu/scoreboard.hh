/**
 * @file
 * Per-domain register readiness scoreboard.
 *
 * Each clock domain keeps its own view of which physical register
 * values are available, because in a GALS machine readiness
 * information arrives through asynchronous FIFOs and therefore at
 * different times in different domains. Readiness is tracked as an
 * epoch per physical register: every allocation of a register bumps
 * its epoch, and a wakeup for (reg, epoch e) makes every operand
 * waiting on epoch <= e ready. Epochs make stale wakeups (from
 * squashed producers whose register was since recycled) harmless.
 */

#ifndef CPU_SCOREBOARD_HH
#define CPU_SCOREBOARD_HH

#include <cstdint>
#include <vector>

#include "isa/inst.hh"
#include "sim/logging.hh"

namespace gals
{

/** One domain's view of physical-register readiness. */
class Scoreboard
{
  public:
    explicit Scoreboard(unsigned numPhysRegs)
        : seenEpoch_(numPhysRegs, 0)
    {
    }

    /** Observe a wakeup: the value of (reg, epoch) is available. */
    void
    observe(PhysRegId reg, std::uint32_t epoch)
    {
        gals_assert(reg >= 0 &&
                        static_cast<std::size_t>(reg) < seenEpoch_.size(),
                    "bad phys reg ", reg);
        if (epoch > seenEpoch_[reg])
            seenEpoch_[reg] = epoch;
    }

    /** Is the operand (reg, epoch) ready in this domain's view? */
    bool
    ready(PhysRegId reg, std::uint32_t epoch) const
    {
        gals_assert(reg >= 0 &&
                        static_cast<std::size_t>(reg) < seenEpoch_.size(),
                    "bad phys reg ", reg);
        return seenEpoch_[reg] >= epoch;
    }

  private:
    std::vector<std::uint32_t> seenEpoch_;
};

} // namespace gals

#endif // CPU_SCOREBOARD_HH
