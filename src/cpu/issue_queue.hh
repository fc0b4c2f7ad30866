/**
 * @file
 * Out-of-order issue queue (one of three: int / fp / mem, paper Table
 * 3). Entries wait for their source operands to become ready in the
 * owning domain's scoreboard view and issue oldest-first.
 */

#ifndef CPU_ISSUE_QUEUE_HH
#define CPU_ISSUE_QUEUE_HH

#include <string>
#include <utility>
#include <vector>

#include "cpu/scoreboard.hh"
#include "isa/dyn_inst.hh"

namespace gals
{

/**
 * Age-ordered issue queue. Readiness has one source: the domain's
 * scoreboard view, polled at selection. Scoreboard epochs only grow,
 * so an operand once seen ready stays ready and is dropped from the
 * entry's pending list.
 */
class IssueQueue
{
  public:
    IssueQueue(std::string name, unsigned capacity,
               const Scoreboard &view);

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    unsigned size() const
    {
        return static_cast<unsigned>(entries_.size());
    }
    unsigned capacity() const { return capacity_; }

    /** Insert at dispatch (program order). */
    void insert(DynInstPtr inst);

    /**
     * Select up to @p width ready instructions, oldest first, subject
     * to @p fuAvailable (checked and consumed per ready candidate).
     * Selected entries are removed from the queue and returned in a
     * buffer the queue reuses: it stays valid until the next call, and
     * the caller may move the pointers out of it.
     */
    template <typename FuAvailable>
    std::vector<DynInstPtr> &
    selectIssue(unsigned width, FuAvailable &&fuAvailable)
    {
        issued_.clear();
        std::size_t keep = 0;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (issued_.size() < width && poll(e) &&
                fuAvailable(*insts_[e.slot])) {
                issued_.push_back(std::move(insts_[e.slot]));
                freeSlots_.push_back(e.slot);
                continue;
            }
            if (keep != i)
                entries_[keep] = e;
            ++keep;
        }
        entries_.resize(keep);
        return issued_;
    }

    /** Remove all entries younger than @p afterSeq. @return count. */
    unsigned squashAfter(InstSeqNum afterSeq);

    const std::string &name() const { return name_; }

  private:
    /** What the poll reads, copied from the instruction, which waits
     *  in insts_[slot]: waiting entries are checked without touching
     *  the DynInst, and the age-order compaction moves plain data. */
    struct Entry
    {
        unsigned slot;
        InstSeqNum seq;
        unsigned pending; ///< srcs [0, pending) not yet seen ready
        PhysRegId physSrcs[DynInst::maxSrcs];
        std::uint32_t srcEpochs[DynInst::maxSrcs];
    };

    /** Drop operands the view now shows ready, last first, stopping
     *  at one still waiting; true when none remain. */
    bool
    poll(Entry &e) const
    {
        while (e.pending > 0 && view_.ready(e.physSrcs[e.pending - 1],
                                            e.srcEpochs[e.pending - 1]))
            --e.pending;
        return e.pending == 0;
    }

    std::string name_;
    unsigned capacity_;
    const Scoreboard &view_;
    std::vector<Entry> entries_;     ///< kept in age order
    std::vector<DynInstPtr> insts_;  ///< capacity_ stable slots
    std::vector<unsigned> freeSlots_;
    std::vector<DynInstPtr> issued_; ///< selectIssue's result buffer
};

} // namespace gals

#endif // CPU_ISSUE_QUEUE_HH
