/**
 * @file
 * Tests for the backend structures: ROB ordering, ring wrap and
 * squash, issue queue readiness/selection, LSQ forwarding, the
 * functional unit pool, and the recycled DynInst storage those
 * structures hold.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/channel.hh"
#include "cpu/fu_pool.hh"
#include "cpu/issue_queue.hh"
#include "cpu/lsq.hh"
#include "cpu/rob.hh"
#include "cpu/scoreboard.hh"
#include "isa/dyn_inst_pool.hh"

using namespace gals;

namespace
{

DynInstPtr
makeInst(InstSeqNum seq, InstClass cls = InstClass::intAlu)
{
    auto di = std::make_shared<DynInst>();
    di->seq = seq;
    di->cls = cls;
    return di;
}

DynInstPtr
makeDep(InstSeqNum seq, PhysRegId src, std::uint32_t epoch)
{
    auto di = makeInst(seq);
    di->numSrcs = 1;
    di->physSrcs[0] = src;
    di->srcEpochs[0] = epoch;
    return di;
}

} // namespace

// ------------------------------------------------------------------ ROB

TEST(Rob, InsertAndCommitInOrder)
{
    Rob rob(8);
    rob.insert(makeInst(1));
    rob.insert(makeInst(2));
    EXPECT_EQ(rob.head()->seq, 1u);
    rob.popHead();
    EXPECT_EQ(rob.head()->seq, 2u);
}

TEST(Rob, FullDetection)
{
    Rob rob(2);
    rob.insert(makeInst(1));
    EXPECT_FALSE(rob.full());
    rob.insert(makeInst(2));
    EXPECT_TRUE(rob.full());
}

TEST(Rob, MarkCompleted)
{
    Rob rob(4);
    rob.insert(makeInst(1));
    rob.insert(makeInst(2));
    EXPECT_TRUE(rob.markCompleted(2));
    EXPECT_FALSE(rob.head()->completed);
    EXPECT_FALSE(rob.markCompleted(99)); // unknown seq: benign
}

TEST(Rob, SquashAfterRemovesYoungestFirst)
{
    Rob rob(8);
    for (InstSeqNum s = 1; s <= 5; ++s)
        rob.insert(makeInst(s));
    std::vector<InstSeqNum> squashed;
    const unsigned n = rob.squashAfter(
        2, [&squashed](DynInst &d) { squashed.push_back(d.seq); });
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(squashed, (std::vector<InstSeqNum>{5, 4, 3}));
    EXPECT_EQ(rob.size(), 2u);
}

TEST(Rob, SquashSetsFlag)
{
    Rob rob(4);
    auto di = makeInst(3);
    rob.insert(makeInst(1));
    rob.insert(di);
    rob.squashAfter(1, [](DynInst &) {});
    EXPECT_TRUE(di->squashed);
}

TEST(Rob, InsertAndPopAcrossRingWrap)
{
    // Capacity 4, 3 resident: every round trip wraps the ring.
    Rob rob(4);
    InstSeqNum next = 1, oldest = 1;
    for (int i = 0; i < 3; ++i)
        rob.insert(makeInst(next++));
    for (int round = 0; round < 10; ++round) {
        rob.insert(makeInst(next++));
        EXPECT_TRUE(rob.full());
        EXPECT_EQ(rob.head()->seq, oldest);
        rob.popHead();
        ++oldest;
        EXPECT_EQ(rob.size(), 3u);
    }
    while (!rob.empty()) {
        EXPECT_EQ(rob.head()->seq, oldest++);
        rob.popHead();
    }
    EXPECT_EQ(oldest, next);
}

TEST(Rob, MarkCompletedWithGapsAndUnknownSeqs)
{
    // Squashed instructions leave gaps in the resident sequence
    // numbers; the window also starts mid-ring.
    Rob rob(8);
    for (InstSeqNum s = 1; s <= 5; ++s)
        rob.insert(makeInst(s));
    for (int i = 0; i < 5; ++i)
        rob.popHead();
    const InstSeqNum seqs[] = {10, 12, 13, 20, 31, 32, 40};
    std::vector<DynInstPtr> insts;
    for (const InstSeqNum s : seqs) {
        insts.push_back(makeInst(s));
        rob.insert(insts.back());
    }
    for (const InstSeqNum s : {9u, 11u, 14u, 30u, 41u, 0u})
        EXPECT_FALSE(rob.markCompleted(s)) << s;
    for (const DynInstPtr &d : insts)
        EXPECT_FALSE(d->completed);
    for (std::size_t i = insts.size(); i-- > 0;) {
        EXPECT_TRUE(rob.markCompleted(seqs[i]));
        for (std::size_t j = 0; j < insts.size(); ++j)
            EXPECT_EQ(insts[j]->completed, j >= i) << i << "/" << j;
    }
}

TEST(Rob, MarkCompletedAfterSquashAcrossWrap)
{
    Rob rob(4);
    for (InstSeqNum s = 1; s <= 3; ++s)
        rob.insert(makeInst(s));
    rob.popHead();
    rob.popHead();
    // Head at slot 2: seqs 3..6 occupy slots 2, 3, 0, 1.
    auto d4 = makeInst(4), d5 = makeInst(5), d6 = makeInst(6);
    rob.insert(d4);
    rob.insert(d5);
    rob.insert(d6);
    std::vector<InstSeqNum> squashed;
    EXPECT_EQ(rob.squashAfter(3, [&squashed](DynInst &d) {
        squashed.push_back(d.seq);
    }),
              3u);
    EXPECT_EQ(squashed, (std::vector<InstSeqNum>{6, 5, 4}));
    EXPECT_TRUE(d5->squashed);
    EXPECT_FALSE(rob.markCompleted(5)); // squashed: gone
    EXPECT_EQ(rob.size(), 1u);
    // Refill past the wrap after the squash.
    auto d7 = makeInst(7), d9 = makeInst(9);
    rob.insert(d7);
    rob.insert(d9);
    EXPECT_FALSE(rob.markCompleted(8));
    EXPECT_TRUE(rob.markCompleted(9));
    EXPECT_TRUE(d9->completed);
    EXPECT_FALSE(d7->completed);
    EXPECT_TRUE(rob.markCompleted(3));
    EXPECT_TRUE(rob.head()->completed);
}

// --------------------------------------------------------- Issue queue

TEST(IssueQueue, ReadyAtInsertIssuesImmediately)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 4, sb);
    auto di = makeDep(1, 3, 0); // epoch 0 always ready
    iq.insert(di);
    const auto sel =
        iq.selectIssue(4, [](const DynInst &) { return true; });
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(sel[0]->seq, 1u);
    EXPECT_TRUE(iq.empty());
}

TEST(IssueQueue, WaitsForWakeup)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 4, sb);
    iq.insert(makeDep(1, 3, 5)); // needs epoch 5 of reg 3
    EXPECT_TRUE(iq.selectIssue(4, [](const DynInst &) {
                      return true;
                  }).empty());
    sb.observe(3, 4); // older epoch: still waiting
    EXPECT_TRUE(iq.selectIssue(4, [](const DynInst &) {
                      return true;
                  }).empty());
    sb.observe(3, 5);
    EXPECT_EQ(iq.selectIssue(4, [](const DynInst &) {
                    return true;
                }).size(),
              1u);
}

TEST(IssueQueue, StaleWakeupIgnored)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 4, sb);
    iq.insert(makeDep(1, 3, 5));
    sb.observe(3, 4); // older epoch: not enough
    sb.observe(4, 5); // right epoch, other register
    EXPECT_TRUE(iq.selectIssue(4, [](const DynInst &) {
                      return true;
                  }).empty());
}

TEST(IssueQueue, EveryOperandMustBeReady)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 4, sb);
    auto di = makeInst(1);
    di->numSrcs = 3;
    for (unsigned i = 0; i < 3; ++i) {
        di->physSrcs[i] = static_cast<PhysRegId>(i + 1);
        di->srcEpochs[i] = 2;
    }
    iq.insert(di);
    const auto any = [](const DynInst &) { return true; };
    sb.observe(3, 2);
    sb.observe(1, 2);
    EXPECT_TRUE(iq.selectIssue(4, any).empty());
    sb.observe(2, 1); // stale epoch of the last operand
    EXPECT_TRUE(iq.selectIssue(4, any).empty());
    sb.observe(2, 7); // a later epoch covers the awaited one
    ASSERT_EQ(iq.selectIssue(4, any).size(), 1u);
    EXPECT_TRUE(iq.empty());
}

TEST(IssueQueue, SelectAcceptsStdFunction)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 4, sb);
    iq.insert(makeInst(1));
    iq.insert(makeInst(2));
    const std::function<bool(const DynInst &)> fu =
        [](const DynInst &) { return true; };
    std::vector<InstSeqNum> seqs;
    for (const DynInstPtr &d : iq.selectIssue(1, fu))
        seqs.push_back(d->seq);
    for (const DynInstPtr &d : iq.selectIssue(1, fu))
        seqs.push_back(d->seq);
    EXPECT_EQ(seqs, (std::vector<InstSeqNum>{1, 2}));
    EXPECT_TRUE(iq.selectIssue(1, fu).empty());
}

TEST(IssueQueue, OldestFirstSelection)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 8, sb);
    for (InstSeqNum s = 1; s <= 4; ++s)
        iq.insert(makeDep(s, 0, 0));
    const auto sel =
        iq.selectIssue(2, [](const DynInst &) { return true; });
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_EQ(sel[0]->seq, 1u);
    EXPECT_EQ(sel[1]->seq, 2u);
}

TEST(IssueQueue, FuRejectionSkipsButKeeps)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 8, sb);
    auto mul = makeInst(1, InstClass::intMult);
    auto alu = makeInst(2, InstClass::intAlu);
    iq.insert(mul);
    iq.insert(alu);
    // Reject multiplies: the younger ALU op issues around it.
    const auto sel = iq.selectIssue(4, [](const DynInst &d) {
        return d.cls != InstClass::intMult;
    });
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(sel[0]->seq, 2u);
    EXPECT_EQ(iq.size(), 1u);
}

TEST(IssueQueue, SquashAfter)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 8, sb);
    for (InstSeqNum s = 1; s <= 5; ++s)
        iq.insert(makeDep(s, 0, 0));
    EXPECT_EQ(iq.squashAfter(3), 2u);
    EXPECT_EQ(iq.size(), 3u);
}

TEST(IssueQueue, CapacityEnforced)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 2, sb);
    iq.insert(makeInst(1));
    iq.insert(makeInst(2));
    EXPECT_TRUE(iq.full());
}

// ---------------------------------------------------------------- LSQ

TEST(Lsq, ForwardFromCompletedOlderStore)
{
    Lsq lsq(8);
    auto st = makeInst(1, InstClass::store);
    st->memAddr = 0x1000;
    st->completed = true;
    auto ld = makeInst(2, InstClass::load);
    ld->memAddr = 0x1008; // same 32B line
    lsq.insert(st);
    lsq.insert(ld);
    EXPECT_TRUE(lsq.loadForwards(ld));
}

TEST(Lsq, NoForwardFromIncompleteStore)
{
    Lsq lsq(8);
    auto st = makeInst(1, InstClass::store);
    st->memAddr = 0x1000;
    auto ld = makeInst(2, InstClass::load);
    ld->memAddr = 0x1000;
    lsq.insert(st);
    lsq.insert(ld);
    EXPECT_FALSE(lsq.loadForwards(ld));
}

TEST(Lsq, NoForwardFromYoungerStore)
{
    Lsq lsq(8);
    auto ld = makeInst(1, InstClass::load);
    ld->memAddr = 0x1000;
    auto st = makeInst(2, InstClass::store);
    st->memAddr = 0x1000;
    st->completed = true;
    lsq.insert(ld);
    lsq.insert(st);
    EXPECT_FALSE(lsq.loadForwards(ld));
}

TEST(Lsq, DifferentLineNoForward)
{
    Lsq lsq(8);
    auto st = makeInst(1, InstClass::store);
    st->memAddr = 0x1000;
    st->completed = true;
    auto ld = makeInst(2, InstClass::load);
    ld->memAddr = 0x1040;
    lsq.insert(st);
    lsq.insert(ld);
    EXPECT_FALSE(lsq.loadForwards(ld));
}

TEST(Lsq, RemoveAndSquash)
{
    Lsq lsq(8);
    auto st = makeInst(1, InstClass::store);
    auto ld = makeInst(2, InstClass::load);
    auto ld2 = makeInst(3, InstClass::load);
    lsq.insert(st);
    lsq.insert(ld);
    lsq.insert(ld2);
    lsq.removeLoad(2);
    EXPECT_EQ(lsq.size(), 2u);
    EXPECT_EQ(lsq.squashAfter(1), 1u);
    lsq.removeStore(1);
    EXPECT_EQ(lsq.size(), 0u);
}

// ------------------------------------------------------------ FU pool

TEST(FuPool, SimpleUnitsPerCycle)
{
    FuPool fu(2, 1, 0);
    fu.newCycle(0);
    EXPECT_TRUE(fu.available(InstClass::intAlu));
    fu.allocate(InstClass::intAlu, 1);
    fu.allocate(InstClass::intAlu, 1);
    EXPECT_FALSE(fu.available(InstClass::intAlu));
    fu.newCycle(1);
    EXPECT_TRUE(fu.available(InstClass::intAlu));
}

TEST(FuPool, BranchesShareSimpleAlus)
{
    FuPool fu(1, 1, 0);
    fu.newCycle(0);
    fu.allocate(InstClass::condBranch, 1);
    EXPECT_FALSE(fu.available(InstClass::intAlu));
}

TEST(FuPool, UnpipelinedDivideBlocksMulGroup)
{
    FuPool fu(4, 1, 0);
    fu.newCycle(0);
    fu.allocate(InstClass::intDiv, 20);
    fu.newCycle(1);
    EXPECT_FALSE(fu.available(InstClass::intMult));
    fu.newCycle(20);
    EXPECT_TRUE(fu.available(InstClass::intMult));
}

TEST(FuPool, PipelinedMultiplyIssuesEveryCycle)
{
    FuPool fu(4, 1, 0);
    fu.newCycle(0);
    fu.allocate(InstClass::intMult, 3);
    fu.newCycle(1);
    EXPECT_TRUE(fu.available(InstClass::intMult));
}

TEST(FuPool, MemPortsIndependent)
{
    FuPool fu(0, 0, 2);
    fu.newCycle(0);
    fu.allocate(InstClass::load, 1);
    fu.allocate(InstClass::store, 1);
    EXPECT_FALSE(fu.available(InstClass::load));
    fu.newCycle(1);
    EXPECT_TRUE(fu.available(InstClass::store));
}

// -------------------------------------------------------- Scoreboard

TEST(Scoreboard, EpochSemantics)
{
    Scoreboard sb(8);
    EXPECT_TRUE(sb.ready(3, 0));  // initial values ready
    EXPECT_FALSE(sb.ready(3, 1)); // allocated epoch pending
    sb.observe(3, 1);
    EXPECT_TRUE(sb.ready(3, 1));
    sb.observe(3, 0); // stale observe cannot regress
    EXPECT_TRUE(sb.ready(3, 1));
}

// ------------------------------------------------------ DynInst storage

TEST(DynInstPool, FreedBlocksAreReused)
{
    DynInstPool pool;
    DynInstPtr a = pool.make();
    DynInstPtr b = pool.make();
    EXPECT_EQ(pool.outstanding(), 2u);
    const DynInst *freed = b.get();
    b.reset();
    EXPECT_EQ(pool.outstanding(), 1u);
    // LIFO: the block just released is the next one handed out, and
    // it comes back as a freshly constructed instruction.
    a->seq = 7;
    DynInstPtr c = pool.make();
    EXPECT_EQ(c.get(), freed);
    EXPECT_EQ(c->seq, 0u);
    EXPECT_EQ(c.use_count(), 1);
    EXPECT_EQ(pool.outstanding(), 2u);
}

TEST(DynInstPool, GrowsOnlyToThePeakInFlightCount)
{
    DynInstPool pool;
    std::vector<DynInstPtr> live;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 100; ++i)
            live.push_back(pool.make());
        live.clear();
    }
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_GE(pool.blocks(), 100u);
    EXPECT_LT(pool.blocks(), 200u); // one chunk of slack at most
}

/** galsperf and the tests feed std::make_shared instructions to the
 *  same holders the pipeline feeds pooled ones; the two must mix, and
 *  each must go back to its own allocator. */
TEST(DynInstPool, PooledAndMakeSharedShareChannelAndRob)
{
    DynInstPool pool;
    EventQueue eq;
    ClockDomain prod(eq, "p", 1000);
    ClockDomain cons(eq, "c", 1300, 211);
    Channel<DynInstPtr> ch("ch", ChannelMode::asyncFifo, prod, cons, 8);
    Rob rob(8);
    prod.start();
    cons.start();
    eq.runUntil(0);

    for (InstSeqNum s = 1; s <= 6; ++s) {
        DynInstPtr inst = s % 2 ? pool.make() : std::make_shared<DynInst>();
        inst->seq = s;
        rob.insert(inst);
        ch.push(std::move(inst));
    }
    EXPECT_EQ(pool.outstanding(), 3u);

    eq.runUntil(20000);
    for (InstSeqNum s = 1; s <= 4; ++s) {
        ASSERT_FALSE(ch.empty());
        EXPECT_EQ(ch.front()->seq, s);
        ch.pop();
    }
    ch.squash([](const DynInstPtr &) { return true; });
    EXPECT_EQ(pool.outstanding(), 3u); // the ROB still holds all six

    for (InstSeqNum s = 1; s <= 6; ++s) {
        EXPECT_EQ(rob.head()->seq, s);
        rob.popHead();
    }
    EXPECT_EQ(pool.outstanding(), 0u);
    prod.stop();
    cons.stop();
}

#ifdef GALS_POOL_ASAN
/** A released block is poisoned until it is handed out again, so an
 *  access through a stale raw pointer is a sanitizer report. */
TEST(DynInstPool, ReleasedBlocksArePoisoned)
{
    DynInstPool pool;
    const DynInst *raw = nullptr;
    {
        DynInstPtr inst = pool.make();
        raw = inst.get();
        EXPECT_FALSE(__asan_address_is_poisoned(&raw->seq));
    }
    EXPECT_TRUE(__asan_address_is_poisoned(&raw->seq));
    DynInstPtr again = pool.make();
    EXPECT_FALSE(__asan_address_is_poisoned(&raw->seq));
}
#endif

TEST(DynInstPool, TeardownWithAnInstructionAliveIsCaught)
{
    EXPECT_DEATH(
        {
            auto *kept = new DynInstPtr;
            DynInstPool pool;
            *kept = pool.make();
        },
        "still referenced");
}
