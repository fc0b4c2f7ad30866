#include "cpu/lsq.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gals
{

namespace
{
constexpr std::uint64_t lineMask = ~std::uint64_t(31); // 32B lines
}

Lsq::Lsq(unsigned capacity) : capacity_(capacity)
{
    gals_assert(capacity_ > 0, "LSQ needs capacity");
    q_.reserve(capacity_);
}

void
Lsq::insert(const DynInstPtr &inst)
{
    gals_assert(!full(), "insert into full LSQ");
    gals_assert(inst->isMem(), "non-memory instruction in LSQ");
    q_.push_back({inst->seq, inst->memAddr & lineMask, inst->isStore(),
                  inst});
}

bool
Lsq::loadForwards(const DynInstPtr &load) const
{
    const std::uint64_t line = load->memAddr & lineMask;
    // Any older, executed store to the same line forwards.
    for (const Entry &e : q_) {
        if (e.store && e.seq < load->seq && e.line == line &&
            e.inst->completed) {
            ++forwarded_;
            return true;
        }
    }
    return false;
}

void
Lsq::remove(InstSeqNum seq, bool store)
{
    const auto it = std::find_if(q_.begin(), q_.end(),
                                 [seq](const Entry &e) {
                                     return e.seq == seq;
                                 });
    if (it == q_.end())
        gals_panic(store ? "removeStore" : "removeLoad", ": seq ", seq,
                   " not in LSQ");
    gals_assert(it->store == store,
                store ? "removeStore on a load" : "removeLoad on a store");
    q_.erase(it);
}

void
Lsq::removeLoad(InstSeqNum seq)
{
    remove(seq, false);
}

void
Lsq::removeStore(InstSeqNum seq)
{
    remove(seq, true);
}

unsigned
Lsq::squashAfter(InstSeqNum afterSeq)
{
    const auto old_size = q_.size();
    q_.erase(std::remove_if(q_.begin(), q_.end(),
                            [afterSeq](const Entry &e) {
                                return e.seq > afterSeq;
                            }),
             q_.end());
    return static_cast<unsigned>(old_size - q_.size());
}

} // namespace gals
