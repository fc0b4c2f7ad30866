/**
 * @file
 * Synthetic workload: static program construction and dynamic
 * instruction stream generation.
 *
 * A BenchmarkProfile *compiles* into a StaticProgram: basic blocks
 * laid out contiguously in instruction memory, each ending in exactly
 * one branch with a fixed kind (strongly biased, weakly biased, loop
 * back-edge, unconditional, call, return) and fixed targets. Register
 * operands are fixed per static instruction, with producer-consumer
 * distances drawn from the profile's geometric distributions. The
 * program is a pure function of the profile and immutable once built,
 * so it is held as shared_ptr<const StaticProgram>: a generator
 * builds its own unless given one, and a multi-core fabric builds one
 * for all its cores.
 *
 * A StreamGenerator holds only the walk state over that program. At
 * run time, next() walks the control-flow graph: branch outcomes
 * are drawn per site (biased coins, loop trip counters, a call/return
 * stack) and memory addresses are drawn from hot / warm / cold working
 * sets. Because branch PCs and code layout recur, the processor's real
 * branch predictor and real caches learn the program exactly as they
 * would a SPEC95 binary.
 *
 * The correct-path stream is a pure function of (profile, run seed)
 * and the number of next() calls, so base and GALS processor runs see
 * bit-identical instruction streams — the property every comparison in
 * the paper's Figures 5-13 relies on.
 */

#ifndef WORKLOAD_GENERATOR_HH
#define WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/inst.hh"
#include "sim/random.hh"
#include "workload/profile.hh"

namespace gals
{

/** One generated (fetched-from-oracle) instruction record. */
struct GenInst
{
    InstClass cls = InstClass::intAlu;
    std::uint64_t pc = 0;
    unsigned numSrcs = 0;
    RegId srcs[3] = {invalidReg, invalidReg, invalidReg};
    RegId dest = invalidReg;
    /** @name Branch resolution (oracle outcome) */
    /// @{
    bool taken = false;
    std::uint64_t target = 0;
    /// @}
    /** Effective address for loads/stores. */
    std::uint64_t memAddr = 0;
};

/**
 * A profile compiled into its static program: the block table, the
 * sorted block start pcs and the code size. Immutable; shared by
 * every generator running the same profile.
 */
class StaticProgram
{
  public:
    /** First instruction address (bytes). */
    static constexpr std::uint64_t codeBase = 0x00400000ULL;
    /** Longest basic block; a block reaching it ends in a jump. */
    static constexpr unsigned maxBlockOps = 256;

    /** Branch kinds of a block-terminating branch site. */
    enum class SiteKind : std::uint8_t
    {
        easy,   ///< strongly biased conditional
        hard,   ///< weakly biased conditional
        loop,   ///< loop back-edge (taken tripCount times, then exits)
        jump,   ///< unconditional
        call,
        ret,
    };

    /** One static instruction. */
    struct StaticOp
    {
        InstClass cls = InstClass::intAlu;
        std::uint8_t numSrcs = 0;
        RegId srcs[3] = {invalidReg, invalidReg, invalidReg};
        RegId dest = invalidReg;
    };

    /** One basic block: ops (last one is the branch) + site behaviour. */
    struct Block
    {
        std::uint64_t startPc = 0;
        std::vector<StaticOp> ops;
        SiteKind kind = SiteKind::jump;
        double takenProb = 1.0;   ///< easy / hard sites
        unsigned tripCount = 0;   ///< loop sites
        std::uint32_t targetBlock = 0; ///< taken target (not ret)
    };

    /** Validate @p profile and compile it; a pure function of the
     *  profile (its seed, not any run seed). */
    explicit StaticProgram(const BenchmarkProfile &profile);

    const std::vector<Block> &blocks() const { return blocks_; }
    /** Start pc of every block, ascending (for pc lookup). */
    const std::vector<std::uint64_t> &blockStarts() const
    {
        return blockStarts_;
    }
    /** Code size in bytes. */
    std::uint64_t bytes() const { return programBytes_; }

  private:
    std::vector<Block> blocks_;
    std::vector<std::uint64_t> blockStarts_;
    std::uint64_t programBytes_ = 0;
};

/**
 * Generates the dynamic instruction stream of a profile's static
 * program.
 */
class StreamGenerator
{
  public:
    /** Address-space constants (bytes). */
    static constexpr std::uint64_t codeBase = StaticProgram::codeBase;
    static constexpr std::uint64_t dataBase = 0x40000000ULL;
    static constexpr unsigned lineBytes = 32;

    /**
     * @param program  the compiled @p profile to walk, shared with
     *     other generators; null builds a private one. Passing a
     *     program changes nothing in the stream or the snapshot.
     */
    StreamGenerator(const BenchmarkProfile &profile,
                    std::uint64_t run_seed = 0,
                    std::shared_ptr<const StaticProgram> program = nullptr);

    /** Generate and return the next correct-path instruction. */
    const GenInst &next();

    /**
     * Fetch the static instruction at @p pc for wrong-path execution:
     * the mispredicted path runs through *real program code* (as it
     * does on real hardware), so it warms and pollutes the caches and
     * consumes fetch bandwidth realistically. Memory operands draw
     * junk addresses; branch outcomes are not resolved (the elder
     * mispredict always redirects first).
     */
    GenInst wrongPath(std::uint64_t pc);

    /** Map an arbitrary pc into the program (wraps past the end). */
    std::uint64_t wrapPc(std::uint64_t pc) const;

    /** Number of correct-path instructions generated so far. */
    std::uint64_t generated() const { return generated_; }

    const BenchmarkProfile &profile() const { return profile_; }

    /** First instruction address of the program. */
    std::uint64_t entryPc() const { return codeBase; }

    /** @name Static program introspection (tests, tools) */
    /// @{
    const std::shared_ptr<const StaticProgram> &program() const
    {
        return program_;
    }
    unsigned numBlocks() const { return numBlocks_; }
    std::uint64_t blockStartPc(unsigned block) const;
    unsigned blockLength(unsigned block) const;
    std::uint64_t staticProgramBytes() const { return programBytes_; }
    /// @}

    /** @name Warm-state snapshot (core/snapshot.hh)
     *
     * The *dynamic* walk state only: RNG streams, position in the
     * CFG, the call stack, loop trip counters (in block order) and
     * the working-set rings. The static program is a pure function of
     * the profile, so a restored generator rebuilds (or is given) it
     * at construction and the snapshot never stores it. Restore
     * checks block/ring counts against this generator and fails the
     * reader on a mismatch.
     */
    /// @{
    void snapshotSave(SnapshotWriter &w) const;
    void snapshotRestore(SnapshotReader &r);
    /// @}

  private:
    using Block = StaticProgram::Block;
    using SiteKind = StaticProgram::SiteKind;

    std::uint64_t drawMemAddr();
    std::uint64_t wrongPathMemAddr();

    const BenchmarkProfile profile_;
    Rng dynRng_; ///< dynamic outcomes (branches, addresses)
    Rng wpRng_;  ///< wrong-path junk

    /** @name Static program
     * Owned through program_; next() and wrongPath() read it through
     * the plain pointers, as they would a member table. */
    /// @{
    std::shared_ptr<const StaticProgram> program_;
    const Block *blocks_;
    const std::uint64_t *blockStarts_;
    std::uint32_t numBlocks_;
    std::uint64_t programBytes_;
    /// @}

    /** @name Dynamic walk state */
    /// @{
    std::uint64_t generated_ = 0;
    GenInst current_;
    std::uint32_t curBlock_ = 0;
    unsigned opIdx_ = 0;
    /** Loop trip counters, one per block (loop sites only move). */
    std::vector<unsigned> tripsLeft_;

    /**
     * Call stack modelled as a circular stack of the same depth as the
     * front end's return address stack. Because correct-path fetch
     * performs exactly the same push/pop sequence on the RAS, the two
     * stay in lock-step (even across wrap-around overflow), which is
     * how real code behaves: returns go where calls came from.
     */
    static constexpr unsigned callStackDepth = 16;
    std::uint32_t callStack_[callStackDepth] = {};
    unsigned callTop_ = 0;
    unsigned callDepth_ = 0;
    /// @}

    /** @name Dynamic memory state */
    /// @{
    std::vector<std::uint64_t> hotLineRing_;
    std::size_t hotLineHead_ = 0;
    std::vector<std::uint64_t> warmLineRing_;
    std::size_t warmLineHead_ = 0;
    std::uint64_t freshLine_ = 0;
    std::uint64_t wpLine_ = 0;
    /// @}
};

} // namespace gals

#endif // WORKLOAD_GENERATOR_HH
