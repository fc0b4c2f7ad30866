#include "workload/generator.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot_io.hh"

namespace gals
{

namespace
{

using SiteKind = StaticProgram::SiteKind;
using StaticOp = StaticProgram::StaticOp;
using Block = StaticProgram::Block;

/**
 * Compiles one profile into its block table: the program RNG plus the
 * register dataflow state that exists only while the program is
 * built.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(const BenchmarkProfile &profile)
        : profile_(profile), prog_(profile.seed ^ 0x5e7f1ULL)
    {
        recentIntDests_.assign(destRingSize, 1);
        recentFpDests_.assign(destRingSize,
                              static_cast<RegId>(numArchIntRegs) + 1);
    }

    /** Fill @p blocks; @return the code size in bytes. */
    std::uint64_t build(std::vector<Block> &blocks);

  private:
    InstClass drawClass();
    void fillStaticSources(StaticOp &op);
    RegId drawIntSource();
    RegId drawFpSource();
    void recordStaticDest(const StaticOp &op);
    std::uint32_t drawTargetBlock(std::uint32_t from, std::uint32_t n);

    static constexpr std::size_t destRingSize = 64;

    const BenchmarkProfile &profile_;
    /** The static program is a pure function of the profile seed (not
     *  the run seed): the same "binary" is executed for every run. */
    Rng prog_;
    std::vector<std::uint32_t> funcEntries_;

    std::vector<RegId> recentIntDests_;
    std::size_t intDestHead_ = 0;
    std::size_t intDestCount_ = 0;
    std::vector<RegId> recentFpDests_;
    std::size_t fpDestHead_ = 0;
    std::size_t fpDestCount_ = 0;
    RegId nextIntDest_ = 4;
    RegId nextFpDest_ = static_cast<RegId>(numArchIntRegs) + 4;
};

InstClass
ProgramBuilder::drawClass()
{
    const auto &p = profile_;
    double u = prog_.uniform();

    auto take = [&u](double frac) {
        if (u < frac)
            return true;
        u -= frac;
        return false;
    };

    if (take(p.fracCondBranch))
        return InstClass::condBranch;
    if (take(p.fracUncondBranch))
        return InstClass::uncondBranch;
    if (take(p.fracCall))
        return InstClass::call;
    if (take(p.fracCall))
        return InstClass::ret;
    if (take(p.fracLoad))
        return InstClass::load;
    if (take(p.fracStore))
        return InstClass::store;
    if (take(p.fracFpAlu))
        return InstClass::fpAlu;
    if (take(p.fracFpMult))
        return InstClass::fpMult;
    if (take(p.fracFpDiv))
        return InstClass::fpDiv;
    if (take(p.fracIntMult))
        return InstClass::intMult;
    if (take(p.fracIntDiv))
        return InstClass::intDiv;
    return InstClass::intAlu;
}

RegId
ProgramBuilder::drawIntSource()
{
    unsigned d = prog_.geometric(profile_.intDepDistMean);
    d = std::min<unsigned>(
        d, static_cast<unsigned>(std::min(intDestCount_ + 1,
                                          destRingSize)));
    const std::size_t idx =
        (intDestHead_ + destRingSize - d) % destRingSize;
    return recentIntDests_[idx];
}

RegId
ProgramBuilder::drawFpSource()
{
    unsigned d = prog_.geometric(profile_.fpDepDistMean);
    d = std::min<unsigned>(
        d, static_cast<unsigned>(std::min(fpDestCount_ + 1,
                                          destRingSize)));
    const std::size_t idx =
        (fpDestHead_ + destRingSize - d) % destRingSize;
    return recentFpDests_[idx];
}

void
ProgramBuilder::fillStaticSources(StaticOp &op)
{
    switch (op.cls) {
      case InstClass::intAlu:
      case InstClass::intMult:
      case InstClass::intDiv:
        op.numSrcs = 2;
        op.srcs[0] = drawIntSource();
        op.srcs[1] = drawIntSource();
        break;
      case InstClass::fpAlu:
      case InstClass::fpMult:
      case InstClass::fpDiv:
        op.numSrcs = 2;
        op.srcs[0] = drawFpSource();
        op.srcs[1] = drawFpSource();
        break;
      case InstClass::load:
        op.numSrcs = 1;
        op.srcs[0] = drawIntSource(); // address register
        break;
      case InstClass::store:
        op.numSrcs = 2;
        op.srcs[0] = drawIntSource(); // address register
        op.srcs[1] = (profile_.fracFpAlu + profile_.fracFpMult > 0.05 &&
                      prog_.chance(0.6))
                         ? drawFpSource()
                         : drawIntSource();
        break;
      case InstClass::condBranch:
        op.numSrcs = 1;
        op.srcs[0] = drawIntSource(); // condition register
        break;
      case InstClass::uncondBranch:
      case InstClass::call:
      case InstClass::ret:
        op.numSrcs = 0;
        break;
      default:
        gals_panic("unhandled class in fillStaticSources");
    }
}

void
ProgramBuilder::recordStaticDest(const StaticOp &op)
{
    if (op.dest == invalidReg)
        return;
    if (isFpReg(op.dest)) {
        recentFpDests_[fpDestHead_] = op.dest;
        fpDestHead_ = (fpDestHead_ + 1) % destRingSize;
        ++fpDestCount_;
    } else {
        recentIntDests_[intDestHead_] = op.dest;
        intDestHead_ = (intDestHead_ + 1) % destRingSize;
        ++intDestCount_;
    }
}

std::uint32_t
ProgramBuilder::drawTargetBlock(std::uint32_t from, std::uint32_t n)
{
    // Targets are strictly forward (classic if/else and break edges);
    // the only cycles in the CFG are loop back-edges, call/return
    // pairs, and the wrap from the last block to the first — the
    // program is one big outer loop, so the walk can never be trapped
    // in a branchless cycle.
    if (from + 1 >= n)
        return 0; // wrap: restart the outer loop
    if (prog_.chance(profile_.jumpLocality)) {
        const std::uint64_t lo = from + 1;
        const std::uint64_t hi =
            std::min<std::uint64_t>(n - 1, from + profile_.jumpRadius);
        return static_cast<std::uint32_t>(prog_.range(lo, hi));
    }
    return static_cast<std::uint32_t>(prog_.range(from + 1, n - 1));
}

std::uint64_t
ProgramBuilder::build(std::vector<Block> &blocks)
{
    const std::uint32_t n = profile_.codeBlocks;
    blocks.resize(n);

    for (std::uint32_t b = 0; b < n; ++b)
        if (b % profile_.funcEntryStride == 0)
            funcEntries_.push_back(b);

    std::uint64_t pc = StaticProgram::codeBase;
    for (std::uint32_t b = 0; b < n; ++b) {
        Block &blk = blocks[b];
        blk.startPc = pc;

        // Body: draw until the mix yields a branch (or the cap).
        RegId last_int_dest = invalidReg;
        for (unsigned i = 0; i + 1 < StaticProgram::maxBlockOps; ++i) {
            StaticOp op;
            op.cls = drawClass();
            if (isBranchClass(op.cls)) {
                fillStaticSources(op);
                // Conditional branches usually test a freshly computed
                // value (loop counter, compare result): bind the
                // condition to the last integer write in this block so
                // branches resolve quickly, as in real code.
                if (op.cls == InstClass::condBranch &&
                    last_int_dest != invalidReg)
                    op.srcs[0] = last_int_dest;
                blk.ops.push_back(op);
                break;
            }
            fillStaticSources(op);
            if (writesDest(op.cls)) {
                if (isFpClass(op.cls)) {
                    op.dest = nextFpDest_;
                    if (++nextFpDest_ >=
                        static_cast<RegId>(numArchRegs))
                        nextFpDest_ =
                            static_cast<RegId>(numArchIntRegs) + 4;
                } else {
                    op.dest = nextIntDest_;
                    if (++nextIntDest_ >=
                        static_cast<RegId>(numArchIntRegs))
                        nextIntDest_ = 4;
                    if (!isMemClass(op.cls))
                        last_int_dest = op.dest;
                }
            }
            blk.ops.push_back(op);
            recordStaticDest(op);
        }
        // Cap hit without a branch: force a jump terminator.
        if (!isBranchClass(blk.ops.back().cls)) {
            StaticOp op;
            op.cls = InstClass::uncondBranch;
            blk.ops.push_back(op);
        }

        // Classify the branch site.
        StaticOp &br = blk.ops.back();
        switch (br.cls) {
          case InstClass::condBranch: {
            const double u = prog_.uniform();
            if (u < profile_.loopBranchFrac) {
                blk.kind = SiteKind::loop;
                blk.tripCount = std::max(
                    2u, prog_.geometric(profile_.loopMeanTrip));
                blk.targetBlock = b; // back-edge to itself
            } else if (u < profile_.loopBranchFrac +
                               profile_.easyBranchFrac) {
                blk.kind = SiteKind::easy;
                blk.takenProb = prog_.chance(0.5)
                                    ? profile_.easyBias
                                    : 1.0 - profile_.easyBias;
                blk.targetBlock = drawTargetBlock(b, n);
            } else {
                blk.kind = SiteKind::hard;
                blk.takenProb = prog_.chance(0.5)
                                    ? profile_.hardBias
                                    : 1.0 - profile_.hardBias;
                blk.targetBlock = drawTargetBlock(b, n);
            }
            break;
          }
          case InstClass::uncondBranch:
            blk.kind = SiteKind::jump;
            blk.targetBlock = drawTargetBlock(b, n);
            break;
          case InstClass::call: {
            blk.kind = SiteKind::call;
            blk.targetBlock = funcEntries_[prog_.range(
                0, funcEntries_.size() - 1)];
            break;
          }
          case InstClass::ret:
            blk.kind = SiteKind::ret;
            blk.targetBlock = 0; // dynamic (call stack)
            break;
          default:
            gals_panic("non-branch terminator");
        }

        pc += blk.ops.size() * 4;
    }
    return pc - StaticProgram::codeBase;
}

} // namespace

StaticProgram::StaticProgram(const BenchmarkProfile &profile)
{
    profile.validate();
    programBytes_ = ProgramBuilder(profile).build(blocks_);
    blockStarts_.reserve(blocks_.size());
    for (const Block &blk : blocks_)
        blockStarts_.push_back(blk.startPc);
}

StreamGenerator::StreamGenerator(
    const BenchmarkProfile &profile, std::uint64_t run_seed,
    std::shared_ptr<const StaticProgram> program)
    : profile_(profile), dynRng_(profile.seed ^ run_seed),
      wpRng_(profile.seed ^ run_seed ^ 0xBADC0DEULL),
      program_(program ? std::move(program)
                       : std::make_shared<const StaticProgram>(profile)),
      blocks_(program_->blocks().data()),
      blockStarts_(program_->blockStarts().data()),
      numBlocks_(static_cast<std::uint32_t>(program_->blocks().size())),
      programBytes_(program_->bytes())
{
    gals_assert(numBlocks_ == profile_.codeBlocks,
                "static program of ", numBlocks_,
                " blocks given for a profile of ", profile_.codeBlocks);

    tripsLeft_.resize(numBlocks_);
    for (std::uint32_t b = 0; b < numBlocks_; ++b)
        tripsLeft_[b] = blocks_[b].tripCount;

    hotLineRing_.assign(profile_.hotLines, 0);
    warmLineRing_.assign(profile_.warmLines, 0);
    for (std::size_t i = 0; i < hotLineRing_.size(); ++i)
        hotLineRing_[i] = i;
    for (std::size_t i = 0; i < warmLineRing_.size(); ++i)
        warmLineRing_[i] = profile_.hotLines + i;
    freshLine_ = profile_.hotLines + profile_.warmLines;
}

std::uint64_t
StreamGenerator::blockStartPc(unsigned block) const
{
    gals_assert(block < numBlocks_, "bad block ", block);
    return blocks_[block].startPc;
}

unsigned
StreamGenerator::blockLength(unsigned block) const
{
    gals_assert(block < numBlocks_, "bad block ", block);
    return static_cast<unsigned>(blocks_[block].ops.size());
}

std::uint64_t
StreamGenerator::wrapPc(std::uint64_t pc) const
{
    std::uint64_t off = pc >= codeBase ? pc - codeBase : 0;
    off = (off & ~std::uint64_t(3)) % programBytes_;
    return codeBase + off;
}

std::uint64_t
StreamGenerator::drawMemAddr()
{
    const double u = dynRng_.uniform();
    std::uint64_t line;
    if (u < profile_.l1Reuse) {
        line = hotLineRing_[dynRng_.range(0, hotLineRing_.size() - 1)];
    } else if (u < profile_.l1Reuse + profile_.l2Reuse) {
        line = warmLineRing_[dynRng_.range(0, warmLineRing_.size() - 1)];
        // Promote into the hot set (temporal locality).
        hotLineRing_[hotLineHead_] = line;
        hotLineHead_ = (hotLineHead_ + 1) % hotLineRing_.size();
    } else {
        line = freshLine_++;
        warmLineRing_[warmLineHead_] = line;
        warmLineHead_ = (warmLineHead_ + 1) % warmLineRing_.size();
        hotLineRing_[hotLineHead_] = line;
        hotLineHead_ = (hotLineHead_ + 1) % hotLineRing_.size();
    }
    const std::uint64_t offset = dynRng_.range(0, lineBytes / 4 - 1) * 4;
    return dataBase + line * lineBytes + offset;
}

std::uint64_t
StreamGenerator::wrongPathMemAddr()
{
    // Wrong-path references mostly touch the same working sets (they
    // are nearby program code after all), with a modest junk fraction
    // that pollutes the cache. Read-only draws: wrong-path execution
    // must not perturb the correct-path locality state.
    const double u = wpRng_.uniform();
    std::uint64_t line;
    if (u < profile_.l1Reuse) {
        line = hotLineRing_[wpRng_.range(0, hotLineRing_.size() - 1)];
    } else if (u < profile_.l1Reuse + profile_.l2Reuse) {
        line = warmLineRing_[wpRng_.range(0, warmLineRing_.size() - 1)];
    } else {
        line = freshLine_ + 1000000 + (wpLine_++ % 8192);
    }
    const std::uint64_t offset = wpRng_.range(0, lineBytes / 4 - 1) * 4;
    return dataBase + line * lineBytes + offset;
}

const GenInst &
StreamGenerator::next()
{
    const Block &blk = blocks_[curBlock_];
    gals_assert(opIdx_ < blk.ops.size(), "walk ran past block end");
    const StaticOp &op = blk.ops[opIdx_];

    GenInst gi;
    gi.cls = op.cls;
    gi.pc = blk.startPc + opIdx_ * 4;
    gi.numSrcs = op.numSrcs;
    for (unsigned i = 0; i < op.numSrcs; ++i)
        gi.srcs[i] = op.srcs[i];
    gi.dest = op.dest;

    if (isMemClass(op.cls))
        gi.memAddr = drawMemAddr();

    if (isBranchClass(op.cls)) {
        const std::uint32_t next_block = (curBlock_ + 1) % numBlocks_;
        std::uint32_t taken_block = blk.targetBlock;

        switch (blk.kind) {
          case SiteKind::easy:
          case SiteKind::hard:
            gi.taken = dynRng_.chance(blk.takenProb);
            break;
          case SiteKind::loop: {
            unsigned &trips = tripsLeft_[curBlock_];
            if (trips > 0) {
                --trips;
                gi.taken = true;
                taken_block = curBlock_; // back-edge
            } else {
                trips = blk.tripCount;
                gi.taken = false;
            }
            break;
          }
          case SiteKind::jump:
            gi.taken = true;
            break;
          case SiteKind::call:
            gi.taken = true;
            callTop_ = (callTop_ + 1) % callStackDepth;
            callStack_[callTop_] = next_block;
            if (callDepth_ < callStackDepth)
                ++callDepth_;
            break;
          case SiteKind::ret:
            if (callDepth_ > 0) {
                gi.taken = true;
                taken_block = callStack_[callTop_];
                callTop_ = (callTop_ + callStackDepth - 1) %
                           callStackDepth;
                --callDepth_;
            } else {
                // Underflow: behaves as a not-taken branch (matches
                // the front end's empty-RAS prediction).
                gi.taken = false;
            }
            break;
        }

        gi.target = blocks_[taken_block].startPc;
        curBlock_ = gi.taken ? taken_block : next_block;
        opIdx_ = 0;
    } else {
        ++opIdx_;
    }

    ++generated_;
    current_ = gi;
    return current_;
}

GenInst
StreamGenerator::wrongPath(std::uint64_t pc)
{
    // The wrong path runs through real program code at the predicted
    // address.
    const std::uint64_t wpc = wrapPc(pc);
    const std::uint64_t *it =
        std::upper_bound(blockStarts_, blockStarts_ + numBlocks_, wpc);
    gals_assert(it != blockStarts_, "pc below program base");
    const std::size_t bidx = static_cast<std::size_t>(it - blockStarts_) - 1;
    const Block &blk = blocks_[bidx];
    std::size_t opi = static_cast<std::size_t>((wpc - blk.startPc) / 4);
    if (opi >= blk.ops.size())
        opi = blk.ops.size() - 1;
    const StaticOp &op = blk.ops[opi];

    GenInst gi;
    gi.pc = wpc;
    gi.cls = op.cls;
    gi.numSrcs = op.numSrcs;
    for (unsigned i = 0; i < op.numSrcs; ++i)
        gi.srcs[i] = op.srcs[i];
    gi.dest = op.dest;
    if (isMemClass(op.cls))
        gi.memAddr = wrongPathMemAddr();
    if (isBranchClass(op.cls)) {
        // Outcome irrelevant: a wrong-path branch never resolves (the
        // elder mispredict redirects first). Give it its static taken
        // target so the front end can follow its own prediction.
        gi.taken = false;
        gi.target = blocks_[blk.kind == SiteKind::loop
                                ? static_cast<std::uint32_t>(bidx)
                                : blk.targetBlock]
                        .startPc;
    }
    return gi;
}

namespace
{

/** RegIds are small signed ints; round them through two's-complement
 *  u64 so invalidReg (-1) survives the varint. */
std::uint64_t
packReg(RegId r)
{
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(r));
}

RegId
unpackReg(std::uint64_t v)
{
    return static_cast<RegId>(static_cast<std::int64_t>(v));
}

} // namespace

void
StreamGenerator::snapshotSave(SnapshotWriter &w) const
{
    dynRng_.snapshotSave(w);
    wpRng_.snapshotSave(w);

    w.u64(generated_);
    w.u64(static_cast<std::uint64_t>(current_.cls));
    w.u64(current_.pc);
    w.u64(current_.numSrcs);
    for (RegId s : current_.srcs)
        w.u64(packReg(s));
    w.u64(packReg(current_.dest));
    w.flag(current_.taken);
    w.u64(current_.target);
    w.u64(current_.memAddr);

    w.u64(curBlock_);
    w.u64(opIdx_);

    for (std::uint32_t c : callStack_)
        w.u64(c);
    w.u64(callTop_);
    w.u64(callDepth_);

    // Loop trip counters, one per block in block order.
    w.u64(tripsLeft_.size());
    for (const unsigned trips : tripsLeft_)
        w.u64(trips);

    w.u64(hotLineRing_.size());
    for (std::uint64_t line : hotLineRing_)
        w.u64(line);
    w.u64(hotLineHead_);
    w.u64(warmLineRing_.size());
    for (std::uint64_t line : warmLineRing_)
        w.u64(line);
    w.u64(warmLineHead_);
    w.u64(freshLine_);
    w.u64(wpLine_);
}

void
StreamGenerator::snapshotRestore(SnapshotReader &r)
{
    dynRng_.snapshotRestore(r);
    wpRng_.snapshotRestore(r);

    generated_ = r.u64();
    current_.cls = static_cast<InstClass>(r.u64());
    current_.pc = r.u64();
    current_.numSrcs = static_cast<unsigned>(r.u64());
    if (current_.numSrcs > 3)
        r.fail("generator current numSrcs out of range");
    for (RegId &s : current_.srcs)
        s = unpackReg(r.u64());
    current_.dest = unpackReg(r.u64());
    current_.taken = r.flag();
    current_.target = r.u64();
    current_.memAddr = r.u64();

    curBlock_ = static_cast<std::uint32_t>(r.u64());
    if (curBlock_ >= numBlocks_)
        r.fail("generator block index out of range");
    opIdx_ = static_cast<unsigned>(r.u64());
    if (r.ok() && opIdx_ >= blocks_[curBlock_].ops.size())
        r.fail("generator op index out of range");

    // Return addresses become curBlock_ on a return.
    for (std::uint32_t &c : callStack_) {
        const std::uint64_t block = r.u64();
        if (block >= numBlocks_)
            r.fail("generator call stack entry out of range");
        c = static_cast<std::uint32_t>(block);
    }
    callTop_ = static_cast<unsigned>(r.u64());
    callDepth_ = static_cast<unsigned>(r.u64());
    if (callTop_ >= callStackDepth || callDepth_ > callStackDepth)
        r.fail("generator call stack out of range");

    r.expectU64(r.u64(), tripsLeft_.size(), "generator block count");
    for (unsigned &trips : tripsLeft_)
        trips = static_cast<unsigned>(r.u64());

    r.expectU64(r.u64(), hotLineRing_.size(), "hot ring size");
    for (std::uint64_t &line : hotLineRing_)
        line = r.u64();
    hotLineHead_ = static_cast<std::size_t>(r.u64());
    if (hotLineHead_ >= hotLineRing_.size())
        r.fail("generator hot ring head out of range");
    r.expectU64(r.u64(), warmLineRing_.size(), "warm ring size");
    for (std::uint64_t &line : warmLineRing_)
        line = r.u64();
    warmLineHead_ = static_cast<std::size_t>(r.u64());
    if (warmLineHead_ >= warmLineRing_.size())
        r.fail("generator warm ring head out of range");
    freshLine_ = r.u64();
    wpLine_ = r.u64();
}

} // namespace gals
