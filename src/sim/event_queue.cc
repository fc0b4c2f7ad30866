#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace gals
{

Event::Event(std::string name, int priority)
    : name_(std::move(name)), priority_(priority)
{
}

Event::Event(std::string name, int priority, bool periodic)
    : name_(std::move(name)), priority_(priority), periodic_(periodic)
{
}

Event::~Event()
{
    if (scheduled())
        queue_->deschedule(this);
}

CallbackEvent::CallbackEvent(std::function<void()> fn, std::string name,
                             int priority)
    : Event(std::move(name), priority), fn_(std::move(fn))
{
}

void
CallbackEvent::process()
{
    fn_();
}

PeriodicEvent::PeriodicEvent(std::function<void()> fn, Tick period,
                             std::string name, int priority)
    : Event(std::move(name), priority, true), fn_(std::move(fn)),
      period_(period)
{
    gals_assert(period > 0, "periodic event '", this->name(),
                "' needs a positive period");
}

PeriodicEvent::PeriodicEvent(Tick period, std::string name, int priority)
    : Event(std::move(name), priority, true), period_(period)
{
    gals_assert(period > 0, "periodic event '", this->name(),
                "' needs a positive period");
}

void
PeriodicEvent::period(Tick p)
{
    gals_assert(p > 0, "periodic event '", name(),
                "' needs a positive period");
    period_ = p;
}

void
PeriodicEvent::process()
{
    // Rescheduling of the next occurrence is handled by the queue
    // after this returns, so the callback may freely change the
    // period or cancel the repeat. Typed subclasses override
    // process() and never touch fn_.
    fn_();
}

EventQueue::EventQueue(std::string name)
    : name_(std::move(name)), buckets_(calInitialBuckets)
{
}

EventQueue::~EventQueue()
{
    // Orphan any still-scheduled events so their destructors do not
    // touch a dead queue.
    for (Bucket &b : buckets_)
        for (Event *ev = b.head(); ev != nullptr; ev = Bucket::next(ev))
            ev->queue_ = nullptr;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    gals_assert(ev != nullptr, "null event");
    gals_assert(!ev->scheduled(), "event '", ev->name(),
                "' is already scheduled");
    gals_assert(when >= now_, "event '", ev->name(),
                "' scheduled in the past (", when, " < ", now_, ")");
    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    ev->queue_ = this;
    ++size_;
    calInsert(ev);
    if (size_ > calGrowPerBucket * buckets_.size())
        calResize(buckets_.size() * 2);
}

void
EventQueue::schedulePeriodicRepeat(PeriodicEvent *ev)
{
    // The pop that just delivered this event vacated its slot, so
    // size_ returns to a level the previous grow check admitted —
    // skip the asserts (trivially true here) and the grow check.
    ev->when_ = now_ + ev->period();
    ev->seq_ = nextSeq_++;
    ev->queue_ = this;
    ++size_;
    calInsert(ev);
}

void
EventQueue::deschedule(Event *ev)
{
    gals_assert(ev != nullptr, "null event");
    gals_assert(ev->queue_ == this, "event '", ev->name(),
                "' is not scheduled on this queue");
    calRemove(ev);
    --size_;
    calMaybeShrink();
    ev->queue_ = nullptr;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled())
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::calInsert(Event *ev)
{
    const std::size_t idx = bucketIndex(ev->when_);
    Bucket &b = buckets_[idx];
    ev->bucket_ = idx;

    // Keep the bucket sorted by (when, priority, seq). Scan from the
    // tail: clock-edge traffic inserts mostly at or near the end (new
    // events carry the largest seq, and times move forward).
    Event *pos = b.tail();
    const Less less;
    while (pos != nullptr && less(ev, pos))
        pos = Bucket::prev(pos);
    b.insertAfter(pos, ev);

    // A known minimum stays valid; it only changes if the new event
    // is cheaper. An unknown (nullptr) cache stays unknown — except
    // for a sole occupant, which is trivially the minimum (the case a
    // lone periodic clock hits on every reinsert).
    if (minCache_ != nullptr) {
        if (less(ev, minCache_))
            minCache_ = ev;
    } else if (size_ == 1) {
        minCache_ = ev;
    }
}

void
EventQueue::calRemove(Event *ev)
{
    // Repair the min cache before the links go away: events with
    // equal when() always share a bucket and buckets are sorted, so
    // when the minimum is removed and its successor carries the same
    // time, that successor is the new global minimum — the case that
    // makes same-tick batches O(1) per pop. A successor at a later
    // time proves nothing (another bucket may hold an earlier year),
    // so the cache falls back to "unknown".
    if (minCache_ == ev) {
        Event *succ = Bucket::next(ev);
        minCache_ =
            (succ != nullptr && succ->when_ == ev->when_) ? succ
                                                          : nullptr;
    }
    buckets_[ev->bucket_].unlink(ev);
}

Event *
EventQueue::calFindMin() const
{
    // Classic calendar-queue search: walk one wheel revolution
    // starting at the bucket covering now(), accepting the first
    // bucket head that falls inside its current-year window. Bucket
    // heads are bucket minima, and events with equal when() always
    // share a bucket, so the first hit is the global minimum.
    const std::size_t n = buckets_.size();
    const std::uint64_t vstart = now_ >> widthLog2_;
    for (std::size_t k = 0; k < n; ++k) {
        Event *h = buckets_[(vstart + k) & (n - 1)].head();
        if (h != nullptr && (h->when_ >> widthLog2_) == vstart + k) {
            minCache_ = h;
            return h;
        }
    }

    // Every pending event is more than a full revolution away:
    // direct search over the bucket minima. Distinct buckets never
    // tie on when(), so comparing times alone is deterministic.
    Event *best = nullptr;
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
    // Unlink every event into one chain, then re-insert under the new
    // geometry. Pointers stay valid, so the min cache survives.
    Bucket all;
    Tick minWhen = maxTick;
    Tick maxWhen = 0;
    for (Bucket &b : buckets_) {
        for (Event *ev = b.head(); ev != nullptr; ev = Bucket::next(ev)) {
            minWhen = std::min(minWhen, ev->when_);
            maxWhen = std::max(maxWhen, ev->when_);
        }
        all.splice(b);
    }

    buckets_ = std::vector<Bucket>(newBuckets);

    // New width: the average inter-event gap (span / population)
    // rounded down to a power of two >= 1 tick, targeting ~1 event
    // per bucket-year while keeping the bucket index a shift+mask.
    if (size_ > 1 && maxWhen > minWhen) {
        const Tick gap =
            std::max<Tick>(1, (maxWhen - minWhen) / size_);
        widthLog2_ = std::bit_width(gap) - 1;
    }

    Event *saveMin = minCache_;
    while (Event *ev = all.popFront())
        calInsert(ev);
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
EventQueue::removeMin(Event *ev)
{
    calRemove(ev);
    --size_;
    calMaybeShrink();
}

Event *
EventQueue::popMin()
{
    Event *ev = peekMin();
    if (ev != nullptr)
        removeMin(ev);
    return ev;
}

Tick
EventQueue::nextEventTime() const
{
    const Event *ev = peekMin();
    return ev != nullptr ? ev->when_ : maxTick;
}

void
EventQueue::serviceEvent(Event *ev)
{
    gals_assert(ev->when_ >= now_, "event queue went backwards");
    now_ = ev->when_;
    ev->queue_ = nullptr;
    ++processed_;

    // Periodic events reschedule themselves after their callback,
    // unless the callback rescheduled them explicitly or cancelled
    // the repeat. The flag was latched at construction, so no RTTI
    // probe sits on the dispatch path.
    const bool periodic = ev->periodic_;
    ev->process();
    if (periodic && !ev->scheduled()) {
        auto *per = static_cast<PeriodicEvent *>(ev);
        if (per->repeatingNow())
            schedulePeriodicRepeat(per);
    }
}

bool
EventQueue::serviceOne()
{
    Event *ev = popMin();
    if (ev == nullptr)
        return false;
    serviceEvent(ev);
    return true;
}

std::uint64_t
EventQueue::serviceBatch(Event *first)
{
    // Drain the whole (when, priority) tie in one pop run: the min
    // cache is repaired in O(1) while same-tick successors remain
    // (see calRemove), so only the final pop of a batch pays a wheel
    // scan. Events scheduled by a callback at the same (when,
    // priority) carry larger seqs, sort behind the pending tie, and
    // are picked up by this same loop — element-wise identical to
    // servicing one event at a time.
    const Tick when = first->when_;
    const int pri = first->priority_;
    Event *ev = first;
    std::uint64_t n = 0;
    do {
        removeMin(ev);
        serviceEvent(ev);
        ++n;
        ev = peekMin();
    } while (ev != nullptr && ev->when_ == when &&
             ev->priority_ == pri);
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    for (Event *ev = peekMin();
         ev != nullptr && ev->when_ <= until; ev = peekMin())
        n += serviceBatch(ev);
    if (now_ < until)
        now_ = until;
    return n;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    for (Event *ev = peekMin(); ev != nullptr; ev = peekMin())
        n += serviceBatch(ev);
    return n;
}

} // namespace gals
