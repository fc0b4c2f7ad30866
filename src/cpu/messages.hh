/**
 * @file
 * Message types exchanged between clock domains (besides instructions
 * themselves): result wakeups, completion notices for the ROB, branch
 * redirects to the front end, committed-store releases to the memory
 * domain, and predictor training updates.
 */

#ifndef CPU_MESSAGES_HH
#define CPU_MESSAGES_HH

#include <cstdint>

#include "isa/dyn_inst.hh"
#include "isa/inst.hh"

namespace gals
{

/** A register value became available (result tag broadcast). */
struct WakeupMsg
{
    PhysRegId reg = invalidPhysReg;
    std::uint32_t epoch = 0;
    InstSeqNum producer = 0;
};

/** An instruction finished executing (to the ROB / commit logic). */
struct CompleteMsg
{
    InstSeqNum seq = 0;
};

/** A mispredicted branch resolved: redirect the front end. */
struct RedirectMsg
{
    InstSeqNum branchSeq = 0;
};

/** A store committed: perform its D-cache write. */
struct StoreCommitMsg
{
    InstSeqNum seq = 0;
    std::uint64_t memAddr = 0;
};

/** Commit-time branch predictor training. */
struct BpredUpdateMsg
{
    std::uint64_t pc = 0;
    InstClass cls = InstClass::condBranch;
    bool taken = false;
    std::uint64_t target = 0;
};

} // namespace gals

#endif // CPU_MESSAGES_HH
