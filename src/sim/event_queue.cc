#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/clock_domain.hh"
#include "sim/logging.hh"

namespace gals
{

bool
EventQueue::before(const ClockDomain *a, const ClockDomain *b)
{
    if (a->when_ != b->when_)
        return a->when_ < b->when_;
    if (a->priority_ != b->priority_)
        return a->priority_ < b->priority_;
    return a->seq_ < b->seq_;
}

EventQueue::EventQueue(std::string name)
    : name_(std::move(name)), buckets_(calInitialBuckets)
{
}

EventQueue::~EventQueue()
{
    // Orphan any still-scheduled domains so their destructors do not
    // touch a dead queue.
    for (Bucket &b : buckets_)
        for (ClockDomain *cd = b.head(); cd != nullptr;
             cd = Bucket::next(cd))
            cd->queue_ = nullptr;
}

void
EventQueue::schedule(ClockDomain *cd, Tick when)
{
    gals_assert(cd != nullptr, "null clock domain");
    gals_assert(!cd->scheduled(), "clock domain '", cd->name(),
                "' is already scheduled");
    gals_assert(when >= now_, "clock domain '", cd->name(),
                "' scheduled in the past (", when, " < ", now_, ")");
    cd->when_ = when;
    cd->seq_ = nextSeq_++;
    cd->queue_ = this;
    ++size_;
    calInsert(cd);
    if (size_ > calGrowPerBucket * buckets_.size())
        calResize(buckets_.size() * 2);
}

void
EventQueue::requeue(ClockDomain *cd)
{
    // The pop that just delivered this edge vacated its slot, so
    // size_ returns to a level the previous grow check admitted —
    // skip the asserts (trivially true here) and the grow check.
    cd->when_ = now_ + cd->period();
    cd->seq_ = nextSeq_++;
    cd->queue_ = this;
    ++size_;
    calInsert(cd);
}

void
EventQueue::deschedule(ClockDomain *cd)
{
    gals_assert(cd != nullptr, "null clock domain");
    gals_assert(cd->queue_ == this, "clock domain '", cd->name(),
                "' is not scheduled on this queue");
    calRemove(cd);
    --size_;
    calMaybeShrink();
    cd->queue_ = nullptr;
}

void
EventQueue::calInsert(ClockDomain *cd)
{
    const std::size_t idx = bucketIndex(cd->when_);
    Bucket &b = buckets_[idx];
    cd->bucket_ = idx;

    // Keep the bucket sorted by (when, priority, seq). Scan from the
    // tail: clock-edge traffic inserts mostly at or near the end (new
    // edges carry the largest seq, and times move forward).
    ClockDomain *pos = b.tail();
    while (pos != nullptr && before(cd, pos))
        pos = Bucket::prev(pos);
    b.insertAfter(pos, cd);

    // A known minimum stays valid; it only changes if the new edge is
    // cheaper. An unknown (nullptr) cache stays unknown — except for
    // a sole occupant, which is trivially the minimum (the case a
    // lone clock hits on every reinsert).
    if (minCache_ != nullptr) {
        if (before(cd, minCache_))
            minCache_ = cd;
    } else if (size_ == 1) {
        minCache_ = cd;
    }
}

void
EventQueue::calRemove(ClockDomain *cd)
{
    // Repair the min cache before the links go away: edges with equal
    // when() always share a bucket and buckets are sorted, so when
    // the minimum is removed and its successor carries the same time,
    // that successor is the new global minimum — the case that makes
    // same-tick batches O(1) per pop. A successor at a later time
    // proves nothing (another bucket may hold an earlier year), so
    // the cache falls back to "unknown".
    if (minCache_ == cd) {
        ClockDomain *succ = Bucket::next(cd);
        minCache_ =
            (succ != nullptr && succ->when_ == cd->when_) ? succ
                                                          : nullptr;
    }
    buckets_[cd->bucket_].unlink(cd);
}

ClockDomain *
EventQueue::calFindMin() const
{
    // Classic calendar-queue search: walk one wheel revolution
    // starting at the bucket covering now(), accepting the first
    // bucket head that falls inside its current-year window. Bucket
    // heads are bucket minima, and edges with equal when() always
    // share a bucket, so the first hit is the global minimum.
    const std::size_t n = buckets_.size();
    const std::uint64_t vstart = now_ >> widthLog2_;
    for (std::size_t k = 0; k < n; ++k) {
        ClockDomain *h = buckets_[(vstart + k) & (n - 1)].head();
        if (h != nullptr && (h->when_ >> widthLog2_) == vstart + k) {
            minCache_ = h;
            return h;
        }
    }

    // Every pending edge is more than a full revolution away: direct
    // search over the bucket minima. Distinct buckets never tie on
    // when(), so comparing times alone is deterministic.
    ClockDomain *best = nullptr;
    for (const Bucket &b : buckets_)
        if (b.head() != nullptr &&
            (best == nullptr || b.head()->when_ < best->when_))
            best = b.head();
    minCache_ = best;
    return best;
}

void
EventQueue::calResize(std::size_t newBuckets)
{
    // Unlink every edge into one chain, then re-insert under the new
    // geometry. Pointers stay valid, so the min cache survives.
    Bucket all;
    Tick minWhen = maxTick;
    Tick maxWhen = 0;
    for (Bucket &b : buckets_) {
        for (ClockDomain *cd = b.head(); cd != nullptr;
             cd = Bucket::next(cd)) {
            minWhen = std::min(minWhen, cd->when_);
            maxWhen = std::max(maxWhen, cd->when_);
        }
        all.splice(b);
    }

    buckets_ = std::vector<Bucket>(newBuckets);

    // New width: the average inter-edge gap (span / population)
    // rounded down to a power of two >= 1 tick, targeting ~1 edge per
    // bucket-year while keeping the bucket index a shift+mask.
    if (size_ > 1 && maxWhen > minWhen) {
        const Tick gap =
            std::max<Tick>(1, (maxWhen - minWhen) / size_);
        widthLog2_ = std::bit_width(gap) - 1;
    }

    ClockDomain *saveMin = minCache_;
    while (ClockDomain *cd = all.popFront())
        calInsert(cd);
    minCache_ = saveMin;
}

void
EventQueue::calMaybeShrink()
{
    const std::size_t n = buckets_.size();
    if (n > calInitialBuckets && size_ < n / calShrinkDivisor)
        calResize(n / 2);
}

void
EventQueue::removeMin(ClockDomain *cd)
{
    calRemove(cd);
    --size_;
    calMaybeShrink();
}

ClockDomain *
EventQueue::popMin()
{
    ClockDomain *cd = peekMin();
    if (cd != nullptr)
        removeMin(cd);
    return cd;
}

Tick
EventQueue::nextEventTime() const
{
    const ClockDomain *cd = peekMin();
    return cd != nullptr ? cd->when_ : maxTick;
}

void
EventQueue::serviceEvent(ClockDomain *cd)
{
    gals_assert(cd->when_ >= now_, "event queue went backwards");
    now_ = cd->when_;
    cd->queue_ = nullptr;
    ++processed_;

    // The domain repeats after its edge unless a ticker stopped it
    // or rescheduled it (restartAt) during the edge.
    cd->edge();
    if (cd->running_ && !cd->scheduled())
        requeue(cd);
}

bool
EventQueue::serviceOne()
{
    ClockDomain *cd = popMin();
    if (cd == nullptr)
        return false;
    serviceEvent(cd);
    return true;
}

std::uint64_t
EventQueue::serviceBatch(ClockDomain *first)
{
    // Drain the whole (when, priority) tie in one pop run: the min
    // cache is repaired in O(1) while same-tick successors remain
    // (see calRemove), so only the final pop of a batch pays a wheel
    // scan. Edges scheduled by a ticker at the same (when, priority)
    // carry larger seqs, sort behind the pending tie, and are picked
    // up by this same loop — element-wise identical to servicing one
    // edge at a time.
    const Tick when = first->when_;
    const int pri = first->priority_;
    ClockDomain *cd = first;
    std::uint64_t n = 0;
    do {
        removeMin(cd);
        serviceEvent(cd);
        ++n;
        cd = peekMin();
    } while (cd != nullptr && cd->when_ == when &&
             cd->priority_ == pri);
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    for (ClockDomain *cd = peekMin();
         cd != nullptr && cd->when_ <= until; cd = peekMin())
        n += serviceBatch(cd);
    if (now_ < until)
        now_ = until;
    return n;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    for (ClockDomain *cd = peekMin(); cd != nullptr; cd = peekMin())
        n += serviceBatch(cd);
    return n;
}

} // namespace gals
