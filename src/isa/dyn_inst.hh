/**
 * @file
 * Dynamic instruction: one fetched micro-op in flight, carrying its
 * renamed operands, control-flow resolution and the timestamps the
 * paper's evaluation metrics are computed from (slip, FIFO residency).
 */

#ifndef ISA_DYN_INST_HH
#define ISA_DYN_INST_HH

#include <cstdint>
#include <memory>
#include <string>

#include "isa/inst.hh"
#include "sim/ticks.hh"

namespace gals
{

/** Monotonically increasing dynamic instruction sequence number. */
using InstSeqNum = std::uint64_t;

/**
 * A dynamic instruction in flight.
 *
 * Shared through DynInstPtr. The pointer moves from stage to stage
 * (fetch, the fetch and dispatch channels, the decode pipe, the issue
 * queue, the completion heap); the ROB and, for memory operations, the
 * LSQ hold a second reference from dispatch until commit or squash. A
 * Processor allocates every instruction from its own DynInstPool
 * (isa/dyn_inst_pool.hh), so the storage is recycled when the last
 * reference drops.
 */
class DynInst
{
  public:
    static constexpr unsigned maxSrcs = 3;

    DynInst() = default;

    /** @name Static content (filled by fetch from the workload) */
    /// @{
    InstSeqNum seq = 0;
    std::uint64_t pc = 0;
    std::uint64_t index = 0;       ///< correct-path stream index
    InstClass cls = InstClass::intAlu;
    unsigned numSrcs = 0;
    RegId srcs[maxSrcs] = {invalidReg, invalidReg, invalidReg};
    RegId dest = invalidReg;
    bool wrongPath = false;        ///< fetched down a mispredicted path
    /// @}

    /** @name Control flow */
    /// @{
    bool predTaken = false;
    bool actualTaken = false;
    std::uint64_t predTarget = 0;
    std::uint64_t actualTarget = 0;
    bool mispredicted = false;     ///< known at resolve time
    bool btbMiss = false;
    /// @}

    /** @name Memory */
    /// @{
    std::uint64_t memAddr = 0;
    /// @}

    /** @name Renamed operands (filled at rename) */
    /// @{
    PhysRegId physSrcs[maxSrcs] = {invalidPhysReg, invalidPhysReg,
                                   invalidPhysReg};
    std::uint32_t srcEpochs[maxSrcs] = {0, 0, 0};
    PhysRegId physDest = invalidPhysReg;
    PhysRegId oldPhysDest = invalidPhysReg;
    std::uint32_t destEpoch = 0;
    /// @}

    /** @name Machine state */
    /// @{
    bool squashed = false;
    bool completed = false;
    /// @}

    /** @name Timestamps (ticks) for slip / FIFO accounting */
    /// @{
    Tick fetchTick = 0;
    Tick decodeTick = 0;
    Tick dispatchTick = 0;
    Tick issueTick = 0;
    Tick completeTick = 0;
    Tick commitTick = 0;
    Tick fifoResidency = 0;  ///< total time spent inside channels
    unsigned domainCrossings = 0;
    /// @}

    bool isBranch() const { return isBranchClass(cls); }
    bool isLoad() const { return cls == InstClass::load; }
    bool isStore() const { return cls == InstClass::store; }
    bool isMem() const { return isMemClass(cls); }
    bool isFp() const { return isFpClass(cls); }
    bool hasDest() const { return dest != invalidReg; }

    /** Slip: fetch-to-commit latency (paper Figure 6). */
    Tick slip() const { return commitTick - fetchTick; }

    /** One-line debug rendering. */
    std::string toString() const;
};

using DynInstPtr = std::shared_ptr<DynInst>;

} // namespace gals

#endif // ISA_DYN_INST_HH
