/**
 * @file
 * Mixed-clock communication channels between pipeline regions.
 *
 * This is the heart of the GALS model. Successive logic blocks
 * communicate only through Channel objects:
 *
 *  - In the base (fully synchronous) processor a channel behaves like
 *    an ordinary pipeline latch/queue: an item written on one rising
 *    edge is visible at the next edge, and a freed slot is reusable
 *    immediately.
 *
 *  - In the GALS processor a channel models the Chelcea-Nowick style
 *    mixed-clock FIFO of paper section 3.2 / Figure 2: the producer
 *    writes on its own clock, the consumer reads on its own clock, and
 *    the full / empty flags each pass through a two-flop synchronizer
 *    in the opposite domain. An item pushed at time t therefore
 *    becomes visible at the syncEdges-th consumer edge strictly after
 *    t, and a freed slot becomes reusable at the syncEdges-th producer
 *    edge strictly after the pop. Steady-state throughput is one item
 *    per cycle (token-ring FIFO); only the latency and the flag
 *    conservatism differ from the synchronous latch, exactly the
 *    behaviour the paper attributes to the design of [4, 5].
 *
 * Channels also account the residency time of every item so the
 * paper's Figure 7 (slip split into FIFO time vs pipeline time) can be
 * reproduced, and count pushes/pops for the FIFO power model.
 *
 * Storage is an intrusive doubly-linked list over a pool of
 * capacity() entry nodes preallocated at construction — a channel can
 * never hold more than capacity() items — so the push/pop/squash hot
 * path in the domain-crossing traffic performs no allocations:
 * push takes a node from the embedded free list, pop returns it, and
 * squash unlinks mid-list nodes in O(1) each.
 */

#ifndef CORE_CHANNEL_HH
#define CORE_CHANNEL_HH

#include <algorithm>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/intrusive_list.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace gals
{

/** Latch (synchronous) vs asynchronous FIFO behaviour. */
enum class ChannelMode : std::uint8_t
{
    syncLatch,
    asyncFifo,
};

/**
 * Untyped channel bookkeeping: identity, mode and activity counters.
 */
class ChannelBase
{
  public:
    /**
     * @param streaming  true for instruction-flow FIFOs (Chelcea-
     *     Nowick token ring: the empty-flag synchronization penalty is
     *     paid only on empty-to-non-empty transitions, giving one item
     *     per cycle in steady state); false for event-style channels
     *     (result wakeups, completion notices, redirects) where every
     *     transfer synchronizes independently.
     */
    ChannelBase(std::string name, ChannelMode mode, ClockDomain &producer,
                ClockDomain &consumer, std::size_t capacity,
                unsigned syncEdges, bool streaming = true);
    virtual ~ChannelBase() = default;

    ChannelBase(const ChannelBase &) = delete;
    ChannelBase &operator=(const ChannelBase &) = delete;

    const std::string &name() const { return name_; }
    ChannelMode mode() const { return mode_; }
    bool isAsync() const { return mode_ == ChannelMode::asyncFifo; }
    std::size_t capacity() const { return capacity_; }
    unsigned syncEdges() const { return syncEdges_; }

    ClockDomain &producer() const { return producer_; }
    ClockDomain &consumer() const { return consumer_; }
    bool streaming() const { return streaming_; }

    /** @name Activity counters (power model + Figure 7 accounting) */
    /// @{
    std::uint64_t pushes() const { return pushes_; }
    std::uint64_t pops() const { return pops_; }
    std::uint64_t squashedItems() const { return squashedItems_; }
    Tick totalResidency() const { return totalResidency_; }
    /// @}

    /** Items pushed but neither popped nor squashed yet — the
     *  instantaneous occupancy, derived from the activity counters
     *  (interval meter samples, warm-snapshot quiescence). */
    std::size_t
    occupancy() const
    {
        const std::uint64_t out = pops_ + squashedItems_;
        return pushes_ > out
                   ? static_cast<std::size_t>(pushes_ - out)
                   : 0;
    }

  protected:
    /** Visibility time of an item pushed at @p t. */
    Tick
    visibleAt(Tick t) const
    {
        if (mode_ == ChannelMode::syncLatch) {
            // Plain pipeline latch: readable at the next consumer edge.
            return consumer_.nextEdgeAfter(t);
        }
        // Empty-flag two-flop synchronizer: the consumer can use the
        // item at the syncEdges-th consumer edge strictly after the
        // push.
        const Tick first = consumer_.nextEdgeAfter(t);
        return first +
               static_cast<Tick>(syncEdges_ - 1) * consumer_.period();
    }

    /** Time the producer observes a slot freed by a pop at @p t. */
    Tick
    freeVisibleAt(Tick t) const
    {
        if (mode_ == ChannelMode::syncLatch) {
            // Synchronous queue: the slot is reusable immediately
            // (stages are ticked consumer-first within a cycle).
            return t;
        }
        const Tick first = producer_.nextEdgeAfter(t);
        return first +
               static_cast<Tick>(syncEdges_ - 1) * producer_.period();
    }

    std::string name_;
    ChannelMode mode_;
    ClockDomain &producer_;
    ClockDomain &consumer_;
    std::size_t capacity_;
    unsigned syncEdges_;
    bool streaming_;

    std::uint64_t pushes_ = 0;
    std::uint64_t pops_ = 0;
    std::uint64_t squashedItems_ = 0;
    Tick totalResidency_ = 0;
};

/**
 * Typed channel carrying items of type T.
 */
template <typename T>
class Channel : public ChannelBase
{
  public:
    Channel(std::string name, ChannelMode mode, ClockDomain &producer,
            ClockDomain &consumer, std::size_t capacity,
            unsigned syncEdges = 2, bool streaming = true)
        : ChannelBase(std::move(name), mode, producer, consumer, capacity,
                      syncEdges, streaming),
          pool_(std::make_unique<Node[]>(capacity))
    {
        // Thread every pool node onto the free list. full() bounds
        // the occupancy at capacity_, so the pool can never run dry.
        for (std::size_t i = 0; i < capacity; ++i)
            free_.pushFront(&pool_[i]);
    }

    ~Channel() override
    {
        for (Node *n = queue_.head(); n != nullptr;
             n = NodeList::next(n))
            n->destroyItem();
    }

    /**
     * Producer-side full test at the current time: counts occupants
     * plus freed slots whose release has not yet synchronized back.
     * Time only moves forward, so releases the producer has observed
     * stay observed: each call advances freeHead_ past them, and the
     * whole run pays O(1) amortised per release.
     */
    bool
    full() const
    {
        const Tick now = producer_.eventQueue().now();
        while (freeHead_ < freeVisible_.size() &&
               freeVisible_[freeHead_] <= now)
            ++freeHead_;
        return size_ + pendingFrees() >= capacity_;
    }

    bool canPush() const { return !full(); }

    /** Push an item; caller must have checked canPush(). */
    void
    push(T item)
    {
        gals_assert(!full(), "push to full channel '", name_, "'");
        const Tick now = producer_.eventQueue().now();
        ++pushes_;
        // Steady-state streaming property of the token-ring FIFO
        // (paper section 3.2): the empty-flag synchronizer penalty is
        // paid only when the FIFO transitions from empty to non-empty.
        // An item entering a non-empty FIFO is readable one consumer
        // edge after the item ahead of it (one item per cycle
        // throughput), never earlier than the edge after its own push.
        Tick ready;
        if (queue_.empty() || !streaming_) {
            ready = visibleAt(now);
            if (queue_.tail() != nullptr)
                ready = std::max(ready, queue_.tail()->readyTick);
        } else {
            ready = std::max(queue_.tail()->readyTick,
                             consumer_.nextEdgeAfter(now));
        }

        Node *n = takeFree();
        new (n->storage) T(std::move(item));
        n->pushTick = now;
        n->readyTick = ready;
        queue_.pushBack(n);
        ++size_;
        compactFrees();
    }

    /** Consumer-side empty test at the current time. */
    bool
    empty() const
    {
        const Node *h = queue_.head();
        if (h == nullptr)
            return true;
        const Tick now = consumer_.eventQueue().now();
        return h->readyTick > now;
    }

    /** First visible item; caller must have checked !empty(). */
    T &
    front()
    {
        gals_assert(!empty(), "front() on empty channel '", name_, "'");
        return *queue_.head()->item();
    }

    /** Push time of the first visible item (for residency metrics). */
    Tick
    frontPushTick() const
    {
        gals_assert(!empty(), "frontPushTick() on empty channel '", name_,
                    "'");
        return queue_.head()->pushTick;
    }

    /** Remove the first visible item. */
    void
    pop()
    {
        gals_assert(!empty(), "pop() on empty channel '", name_, "'");
        const Tick now = consumer_.eventQueue().now();
        ++pops_;
        Node *n = queue_.popFront();
        --size_;
        totalResidency_ += now - n->pushTick;
        n->destroyItem();
        free_.pushFront(n);
        recordFree(freeVisibleAt(now));
    }

    /** Number of items physically inside (visible or not). */
    std::size_t rawSize() const { return size_; }

    /**
     * Remove every item satisfying @p pred (pipeline squash). Removed
     * items free their slots like pops but do not count residency.
     * Each removal is an O(1) mid-list unlink.
     * @return number of items removed.
     */
    template <typename Pred>
    unsigned
    squash(Pred pred)
    {
        const Tick now = consumer_.eventQueue().now();
        unsigned removed = 0;
        for (Node *n = queue_.head(); n != nullptr;) {
            Node *next = NodeList::next(n);
            if (pred(*n->item())) {
                queue_.unlink(n);
                --size_;
                n->destroyItem();
                free_.pushFront(n);
                recordFree(freeVisibleAt(now));
                ++removed;
            }
            n = next;
        }
        squashedItems_ += removed;
        return removed;
    }

    /** Drop everything (reset). */
    void
    clear()
    {
        squashedItems_ += size_;
        while (Node *n = queue_.popFront()) {
            n->destroyItem();
            free_.pushFront(n);
        }
        size_ = 0;
        freeVisible_.clear();
        freeHead_ = 0;
    }

    /** Entries stored in the pending-free list, including observed
     *  ones not yet compacted away (bounded; exposed for tests). */
    std::size_t pendingFreeFootprint() const { return freeVisible_.size(); }

  private:
    /**
     * One pooled FIFO entry with embedded list links. The item lives
     * in raw aligned storage so pool nodes need no default-
     * constructible T; it is placement-constructed on push and
     * destroyed on pop/squash/clear.
     */
    struct Node
    {
        IntrusiveLink<Node> link;
        Tick pushTick = 0;
        Tick readyTick = 0;
        alignas(T) unsigned char storage[sizeof(T)];

        IntrusiveLink<Node> &intrusiveLink(DefaultListTag)
        {
            return link;
        }

        T *item() { return std::launder(reinterpret_cast<T *>(storage)); }
        void destroyItem() { item()->~T(); }
    };

    using NodeList = IntrusiveList<Node>;

    Node *
    takeFree()
    {
        Node *n = free_.popFront();
        gals_assert(n != nullptr, "channel '", name_,
                    "' entry pool exhausted");
        return n;
    }

    /** Recorded releases not yet known to be observed. */
    std::size_t
    pendingFrees() const
    {
        return freeVisible_.size() - freeHead_;
    }

    /**
     * Insert a slot release at its sorted position: almost always the
     * back, but a producer whose period shrank (DVFS) can see a later
     * pop release earlier. A release is always later than now, so it
     * lands after every observed one and freeHead_ stays valid. A
     * latch frees its slot at once (t == now) and records nothing.
     */
    void
    recordFree(Tick t)
    {
        if (mode_ == ChannelMode::syncLatch)
            return;
        if (pendingFrees() == 0 || freeVisible_.back() <= t)
            freeVisible_.push_back(t);
        else
            freeVisible_.insert(
                std::upper_bound(freeVisible_.begin() +
                                     static_cast<std::ptrdiff_t>(freeHead_),
                                 freeVisible_.end(), t),
                t);
    }

    /** Drop the observed prefix of the release list (push has just
     *  advanced it through full()) once it outweighs the rest. */
    void
    compactFrees()
    {
        if (pendingFrees() == 0) {
            freeVisible_.clear();
            freeHead_ = 0;
        } else if (freeHead_ >= 16 && 2 * freeHead_ >= freeVisible_.size()) {
            freeVisible_.erase(freeVisible_.begin(),
                               freeVisible_.begin() +
                                   static_cast<std::ptrdiff_t>(freeHead_));
            freeHead_ = 0;
        }
    }

    std::unique_ptr<Node[]> pool_; ///< capacity() nodes, fixed for life
    NodeList free_;                ///< recycled nodes
    NodeList queue_;               ///< FIFO order, oldest at head
    std::size_t size_ = 0;

    /** Pop-time slot releases, sorted; those before freeHead_ are
     *  observed by the producer (advanced by full(), compacted on
     *  push), the rest may not be yet. */
    std::vector<Tick> freeVisible_;
    mutable std::size_t freeHead_ = 0;
};

} // namespace gals

#endif // CORE_CHANNEL_HH
