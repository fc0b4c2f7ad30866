/**
 * @file
 * Small helpers shared by pipeline stages.
 */

#ifndef CPU_STAGE_UTIL_HH
#define CPU_STAGE_UTIL_HH

#include <utility>

#include "core/channel.hh"
#include "isa/dyn_inst.hh"

namespace gals
{

/**
 * Pop an instruction from a channel, accounting its FIFO residency
 * (asynchronous channels only — latch residency is ordinary pipeline
 * time) for the paper's Figure 7 slip breakdown.
 */
inline DynInstPtr
popInst(Channel<DynInstPtr> &ch, Tick now)
{
    const Tick push_tick = ch.frontPushTick();
    DynInstPtr inst = std::move(ch.front());
    ch.pop();
    if (ch.isAsync()) {
        inst->fifoResidency += now - push_tick;
        ++inst->domainCrossings;
    }
    return inst;
}

} // namespace gals

#endif // CPU_STAGE_UTIL_HH
