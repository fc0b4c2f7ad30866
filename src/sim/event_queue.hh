/**
 * @file
 * The event queue and global timer: a calendar of clock edges.
 *
 * This is the C++ analogue of the engine described in section 4.2 of
 * the paper: an event queue ordered by (time, priority) plus a global
 * timer. The paper's engine is general, mixing periodic and aperiodic
 * events, but everything this model schedules is periodic: the
 * pipeline domains, the fabric's link clocks, the interval meter and
 * the dynamic-DVFS sampler are all ClockDomains. So the queue holds
 * ClockDomains directly. Servicing one runs its edge (a direct call,
 * no virtual dispatch) and, if the domain is still running and did
 * not reschedule itself, re-queues it one period later; a domain
 * stopped during its edge fires that edge and is not re-queued.
 *
 * runUntil()/runAll() service whole ties in one batch: when the
 * cheapest edge is popped, every edge sharing its (time, priority) is
 * drained from the same position before the scan for the next minimum
 * restarts. Repeats re-enter the calendar through a fast reinsert
 * that skips the scheduling asserts and the grow check (the pop that
 * delivered the edge just vacated the slot).
 *
 * The scheduling backend is a calendar queue / bucketed timing wheel
 * (Brown, CACM 1988) with dynamic resize. Domains carry embedded
 * bucket links, so schedule/deschedule never allocate, and all
 * operations are O(1) amortized when the bucket width tracks the
 * inter-edge gap. Edges pop in (time, priority, insertion-seq)
 * order; tests/test_calendar_queue.cc checks that order against a
 * std::set reference oracle and pins the pop logs of clock-domain
 * and channel traffic (including the batched drain paths).
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/intrusive_list.hh"
#include "sim/ticks.hh"

namespace gals
{

class ClockDomain;

/** Tag for the calendar-bucket list a ClockDomain's next edge is
 *  linked into. */
struct EdgeBucketTag
{
};

/**
 * The event queue and global timer.
 *
 * Edges at equal (time, priority) execute in insertion order, which
 * keeps simulations deterministic. The queue never owns a domain; a
 * domain can be scheduled at most once at a time.
 */
class EventQueue
{
  public:
    /** @name Calendar-queue tuning parameters
     *
     * The wheel starts with calInitialBuckets buckets of
     * calInitialWidth ticks each (sized for the ~1000-tick clock
     * periods that dominate this simulator) and resizes itself: with
     * N buckets, it doubles N when the population exceeds
     * calGrowPerBucket * N edges and halves N when the population
     * falls below N / calShrinkDivisor edges (never below
     * calInitialBuckets); the factor-4 gap between the two thresholds
     * is the hysteresis that prevents resize thrash. On every resize
     * the bucket width is re-derived as the pending edges' time span
     * divided by their count (the average inter-edge gap), rounded to
     * the nearest power of two >= 1 tick, which keeps roughly one
     * edge per bucket-year. Bucket counts and widths stay powers of
     * two so both the bucket index and the year number are shifts and
     * masks, not divisions.
     */
    /// @{
    static constexpr std::size_t calInitialBuckets = 8;
    static constexpr unsigned calInitialWidthLog2 = 10; ///< 1024 ticks
    /** Grow when size() > calGrowPerBucket * bucket count. */
    static constexpr std::size_t calGrowPerBucket = 2;
    /** Shrink when size() < bucket count / calShrinkDivisor. */
    static constexpr std::size_t calShrinkDivisor = 2;
    /// @}

    explicit EventQueue(std::string name = "eventq");
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (the global timer). */
    Tick now() const { return now_; }

    /** Schedule the next edge of @p cd at absolute time @p when
     *  (>= now()). A domain that is not running() fires that one
     *  edge and is not re-queued. */
    void schedule(ClockDomain *cd, Tick when);

    /** Remove a scheduled edge. */
    void deschedule(ClockDomain *cd);

    /** True if no edges are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending edges. */
    std::size_t size() const { return size_; }

    /** Time of the next pending edge; maxTick if none. */
    Tick nextEventTime() const;

    /**
     * Execute the single next edge; returns false if the queue was
     * empty.
     */
    bool serviceOne();

    /**
     * Run until simulated time would exceed @p until or the queue
     * drains. Edges scheduled exactly at @p until are executed.
     * Ties are drained batch-wise: one pop services every edge at
     * the same (time, priority), in insertion order.
     * @return number of edges processed.
     */
    std::uint64_t runUntil(Tick until);

    /** Run until the queue drains; @return edges processed. */
    std::uint64_t runAll();

    /** Total edges processed since construction. */
    std::uint64_t processedCount() const { return processed_; }

    /** Current calendar bucket count. */
    std::size_t calendarBuckets() const { return buckets_.size(); }

    /** Current calendar bucket width in ticks. */
    Tick calendarBucketWidth() const { return Tick(1) << widthLog2_; }

    const std::string &name() const { return name_; }

  private:
    /** Pop order: (when, priority, insertion seq). */
    static bool before(const ClockDomain *a, const ClockDomain *b);

    /** One wheel slot: a (when, priority, seq)-sorted intrusive list. */
    using Bucket = IntrusiveList<ClockDomain, EdgeBucketTag>;

    std::size_t bucketIndex(Tick when) const
    {
        return static_cast<std::size_t>(when >> widthLog2_) &
               (buckets_.size() - 1);
    }

    void calInsert(ClockDomain *cd);
    void calRemove(ClockDomain *cd);
    /** Wheel scan for the cheapest edge of a non-empty queue whose
     *  min cache is unknown; caches the result. */
    ClockDomain *calFindMin() const;
    void calResize(std::size_t newBuckets);
    void calMaybeShrink();

    /** Cheapest pending edge without detaching it; nullptr if none.
     *  Inline: with a warm min cache this is three loads, and it runs
     *  once per pop plus once per batch continuation. */
    ClockDomain *
    peekMin() const
    {
        if (size_ == 0)
            return nullptr;
        if (minCache_ != nullptr)
            return minCache_;
        return calFindMin();
    }
    /** Detach the cheapest pending edge, nullptr when empty. */
    ClockDomain *popMin();
    /** Detach @p cd, already known to be the cheapest pending edge. */
    void removeMin(ClockDomain *cd);
    /** Advance the timer to @p cd's edge, run it, and re-queue the
     *  domain one period on if it is still running. */
    void serviceEvent(ClockDomain *cd);
    /** Service @p first plus every edge tied with it at
     *  (when, priority); @return number serviced. */
    std::uint64_t serviceBatch(ClockDomain *first);
    /** Re-queue a just-fired domain at now() + period(): same effect
     *  as schedule(), minus the scheduling asserts and the grow check
     *  (the preceding pop vacated the slot). */
    void requeue(ClockDomain *cd);

    std::string name_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t size_ = 0;

    /** @name Calendar state */
    /// @{
    std::vector<Bucket> buckets_;
    unsigned widthLog2_ = calInitialWidthLog2;
    /** Cached minimum; nullptr means "unknown", recomputed lazily.
     *  When non-null it always points at the true minimum. */
    mutable ClockDomain *minCache_ = nullptr;
    /// @}
};

} // namespace gals

#endif // SIM_EVENT_QUEUE_HH
