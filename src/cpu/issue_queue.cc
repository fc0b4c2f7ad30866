#include "cpu/issue_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gals
{

IssueQueue::IssueQueue(std::string name, unsigned capacity,
                       const Scoreboard &view)
    : name_(std::move(name)), capacity_(capacity), view_(view)
{
    gals_assert(capacity_ > 0, "issue queue '", name_, "': no capacity");
    entries_.reserve(capacity_);
    insts_.resize(capacity_);
    freeSlots_.reserve(capacity_);
    for (unsigned i = capacity_; i-- > 0;)
        freeSlots_.push_back(i);
}

void
IssueQueue::insert(DynInstPtr inst)
{
    gals_assert(!full(), "insert into full issue queue '", name_, "'");
    Entry e;
    e.slot = freeSlots_.back();
    freeSlots_.pop_back();
    e.seq = inst->seq;
    e.pending = inst->numSrcs;
    for (unsigned i = 0; i < inst->numSrcs; ++i) {
        e.physSrcs[i] = inst->physSrcs[i];
        e.srcEpochs[i] = inst->srcEpochs[i];
    }
    insts_[e.slot] = std::move(inst);
    poll(e);
    entries_.push_back(e);
}

unsigned
IssueQueue::squashAfter(InstSeqNum afterSeq)
{
    const auto old_size = entries_.size();
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [this, afterSeq](const Entry &e) {
                                      if (e.seq <= afterSeq)
                                          return false;
                                      insts_[e.slot].reset();
                                      freeSlots_.push_back(e.slot);
                                      return true;
                                  }),
                   entries_.end());
    return static_cast<unsigned>(old_size - entries_.size());
}

} // namespace gals
