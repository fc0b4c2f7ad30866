/**
 * @file
 * Reorder buffer: in-order window of in-flight instructions; supports
 * in-order commit from the head and squash-from-tail on misprediction
 * recovery.
 */

#ifndef CPU_ROB_HH
#define CPU_ROB_HH

#include <memory>
#include <utility>

#include "isa/dyn_inst.hh"

namespace gals
{

/**
 * The reorder buffer (domain 2 in the GALS machine): a fixed ring of
 * capacity() slots. Sequence numbers ascend from head to tail, and a
 * parallel ring of them lets markCompleted() find an instruction
 * without touching the others.
 */
class Rob
{
  public:
    explicit Rob(unsigned capacity);

    bool full() const { return size_ >= capacity_; }
    bool empty() const { return size_ == 0; }
    unsigned size() const { return size_; }
    unsigned capacity() const { return capacity_; }

    /** Insert at the tail (program order). */
    void insert(const DynInstPtr &inst);

    /** Oldest instruction; @pre !empty(). */
    const DynInstPtr &head() const;

    /** Remove the head (commit); @pre !empty(). */
    void popHead();

    /** Mark an in-flight instruction completed; false if not found. */
    bool markCompleted(InstSeqNum seq);

    /**
     * Remove every instruction younger than @p afterSeq, youngest
     * first, invoking @p onSquash(DynInst &) for each (used to release
     * rename registers). @return number squashed.
     */
    template <typename OnSquash>
    unsigned
    squashAfter(InstSeqNum afterSeq, OnSquash &&onSquash)
    {
        unsigned n = 0;
        while (size_ > 0) {
            const unsigned tail = slot(size_ - 1);
            if (seqs_[tail] <= afterSeq)
                break;
            const DynInstPtr inst = std::move(insts_[tail]);
            --size_;
            inst->squashed = true;
            onSquash(*inst);
            ++n;
        }
        return n;
    }

  private:
    /** Ring index of the @p k-th oldest instruction, k < capacity_. */
    unsigned
    slot(unsigned k) const
    {
        const unsigned i = head_ + k;
        return i < capacity_ ? i : i - capacity_;
    }

    unsigned capacity_;
    std::unique_ptr<DynInstPtr[]> insts_;
    std::unique_ptr<InstSeqNum[]> seqs_;
    unsigned head_ = 0;
    unsigned size_ = 0;
};

} // namespace gals

#endif // CPU_ROB_HH
