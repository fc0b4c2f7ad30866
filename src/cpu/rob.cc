#include "cpu/rob.hh"

#include "sim/logging.hh"

namespace gals
{

Rob::Rob(unsigned capacity)
    : capacity_(capacity),
      insts_(std::make_unique<DynInstPtr[]>(capacity)),
      seqs_(std::make_unique<InstSeqNum[]>(capacity))
{
    gals_assert(capacity_ > 0, "ROB needs capacity");
}

void
Rob::insert(const DynInstPtr &inst)
{
    gals_assert(!full(), "insert into full ROB");
    gals_assert(empty() || seqs_[slot(size_ - 1)] < inst->seq,
                "ROB insert out of program order");
    const unsigned i = slot(size_);
    insts_[i] = inst;
    seqs_[i] = inst->seq;
    ++size_;
}

const DynInstPtr &
Rob::head() const
{
    gals_assert(!empty(), "head() on empty ROB");
    return insts_[head_];
}

void
Rob::popHead()
{
    gals_assert(!empty(), "popHead() on empty ROB");
    insts_[head_].reset();
    head_ = slot(1);
    --size_;
}

bool
Rob::markCompleted(InstSeqNum seq)
{
    if (size_ == 0 || seq < seqs_[head_])
        return false;
    // Sequence numbers ascend from the head, so seq sits at most
    // seq - head slots in, and exactly there unless squashed
    // instructions left gaps before it. Try that slot first, then
    // binary-search the window below it.
    const InstSeqNum dist = seq - seqs_[head_];
    unsigned lo = 0;
    unsigned hi = dist < size_ ? static_cast<unsigned>(dist) + 1 : size_;
    if (seqs_[slot(hi - 1)] == seq) {
        lo = hi - 1;
    } else {
        while (lo < hi) {
            const unsigned mid = lo + (hi - lo) / 2;
            if (seqs_[slot(mid)] < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
    }
    if (lo == size_ || seqs_[slot(lo)] != seq)
        return false;
    insts_[slot(lo)]->completed = true;
    return true;
}

} // namespace gals
