/**
 * @file
 * Clock domains for locally synchronous blocks.
 *
 * A ClockDomain is a periodic event source with a period, a phase
 * offset, and an ordered list of per-edge tickers. Every processor has
 * five domains, one per pipeline region. In the base (fully
 * synchronous) processor they share one period and phase, so they act
 * as a single clock; the GALS processor gives each its own period and a
 * random phase, exactly as in section 4.2 of the paper.
 *
 * The period may be changed at run time (the change takes effect after
 * the current edge), which is the mechanism used for dynamic frequency
 * scaling. Each domain also carries a supply voltage so the power model
 * can charge energy at the right Vdd.
 *
 * A domain may also stop between edges and later restart on its own
 * phase/period grid (restartAt): nextEdgeAt() extrapolates from the
 * last edge while stopped, so a FIFO whose consumer or producer is a
 * parked clock sees exactly the visibility and release times of one
 * that never stopped. The fabric's idle links park this way. The edge
 * priority is fixed at construction: clockEdgePri for the core
 * domains, one above it for link clocks, so at equal ticks every link
 * edge runs after every core edge however recently it was restarted.
 *
 * Tickers are intrusive list nodes with a virtual tick(): pipeline
 * stages derive from ClockDomain::Ticker and register themselves, so
 * the per-edge hot path is a plain list walk with one indirect call per
 * stage — no std::function hop, no allocation, no deferred sorting.
 * Lists stay sorted at insertion (ascending priority, then
 * registration order). A std::function adapter node remains for tests
 * and examples via the callback addTicker() overload.
 */

#ifndef SIM_CLOCK_DOMAIN_HH
#define SIM_CLOCK_DOMAIN_HH

#include <functional>
#include <string>
#include <type_traits>

#include "sim/event_queue.hh"
#include "sim/intrusive_list.hh"
#include "sim/ticks.hh"

namespace gals
{

/**
 * One locally synchronous clock region.
 */
class ClockDomain
{
  public:
    /**
     * One per-edge registration, linked into the domain's sorted
     * intrusive ticker list. Pipeline stages derive from this and
     * override tick(); registration wires the object straight into
     * the edge walk. A still-registered ticker unregisters itself on
     * destruction.
     */
    class Ticker
    {
      public:
        /** Called once per rising edge of the registered domain. */
        virtual void tick() = 0;

        Ticker(const Ticker &) = delete;
        Ticker &operator=(const Ticker &) = delete;

      protected:
        Ticker() = default;
        virtual ~Ticker();

      private:
        friend class ClockDomain;
        friend class IntrusiveList<Ticker, DefaultListTag>;

        IntrusiveLink<Ticker> &intrusiveLink(DefaultListTag)
        {
            return link_;
        }

        IntrusiveLink<Ticker> link_;
        ClockDomain *tickerDomain_ = nullptr;
        int tickerPriority_ = 0;
        /** Heap-allocated adapter owned (and deleted) by the domain. */
        bool tickerOwned_ = false;
    };

    /** Owned adapter wrapping a callback in a Ticker node; kept for
     *  tests and examples — stages should derive from Ticker. */
    class FunctionTicker final : public Ticker
    {
      public:
        explicit FunctionTicker(std::function<void()> fn)
            : fn_(std::move(fn))
        {
        }

        void tick() override { fn_(); }

      private:
        std::function<void()> fn_;
    };

    /**
     * @param eq       owning event queue
     * @param name     diagnostic name
     * @param period   clock period in ticks (> 0)
     * @param phase    first-edge offset in ticks (< period typically)
     * @param edgePriority  event priority of every edge; at equal
     *     ticks lower values run first
     */
    ClockDomain(EventQueue &eq, std::string name, Tick period,
                Tick phase = 0, int edgePriority = Event::clockEdgePri);
    ~ClockDomain();

    ClockDomain(const ClockDomain &) = delete;
    ClockDomain &operator=(const ClockDomain &) = delete;

    /**
     * Register a Ticker subclass object, run on every rising edge in
     * ascending @p priority then registration order. The domain does
     * not take ownership; the object must outlive its registration
     * (or rely on the Ticker destructor's self-unregistration).
     * @return the registration handle (== &ticker).
     */
    template <typename T>
    std::enable_if_t<std::is_base_of_v<Ticker, T>, Ticker *>
    addTicker(T &ticker, int priority = 50)
    {
        registerTicker(&ticker, priority, false);
        return &ticker;
    }

    /**
     * Register a callback through an owned FunctionTicker adapter.
     * @return a handle for removeTicker(); may be ignored.
     */
    Ticker *addTicker(std::function<void()> fn, int priority = 50);

    /**
     * Unregister a ticker; O(1). Owned adapter nodes are destroyed.
     * Safe to call from within the running ticker's own tick(): the
     * unlink is deferred until that tick() returns (removing a
     * *different* ticker mid-edge takes effect immediately).
     */
    void removeTicker(Ticker *ticker);

    /** Begin ticking: schedules the first edge at the phase offset. */
    void start();

    /** Stop ticking after the current edge. */
    void stop();

    /**
     * Resume a stopped clock at its first grid edge at or after
     * @p t: the grid is the one nextEdgeAt() extrapolates (the last
     * edge plus whole periods, or the phase before any edge), so a
     * restarted clock keeps its phase and the edges it skipped are
     * simply not run (cycle() counts only edges that ran).
     */
    void restartAt(Tick t);

    bool running() const { return running_; }

    /** Current period in ticks. */
    Tick period() const { return period_; }

    /**
     * Change the period; takes effect when scheduling the edge after
     * the next one already committed to the queue (or immediately if
     * called between edges on a stopped clock).
     */
    void setPeriod(Tick period);

    /** Frequency in MHz implied by the current period. */
    double frequencyMHz() const { return mhzFromPeriod(period_); }

    /** Phase offset of the first edge. */
    Tick phase() const { return phase_; }

    /** Change the phase offset; only valid before start(). */
    void setPhase(Tick phase);

    /** Completed edge count (cycle counter). */
    Cycle cycle() const { return cycle_; }

    /** Time of the most recent edge; 0 before the first edge. */
    Tick lastEdge() const { return lastEdge_; }

    /**
     * First edge occurring at or after time @p t, assuming the period
     * stays at its current value. Used to model when a consumer clocked
     * by this domain can first observe an asynchronous input. Exact on
     * a stopped clock too: the edge restartAt(t) would schedule.
     */
    Tick nextEdgeAt(Tick t) const;

    /** First edge strictly after time @p t. */
    Tick nextEdgeAfter(Tick t) const { return nextEdgeAt(t + 1); }

    /** Supply voltage of this domain (volts). */
    double vdd() const { return vdd_; }
    void setVdd(double v) { vdd_ = v; }

    const std::string &name() const { return name_; }
    EventQueue &eventQueue() { return eq_; }

  private:
    /** The domain edge as a typed periodic event: one virtual
     *  process() straight into edge(), no std::function hop. */
    class EdgeEvent final : public PeriodicEvent
    {
      public:
        EdgeEvent(ClockDomain &domain, Tick period, std::string name,
                  int priority)
            : PeriodicEvent(period, std::move(name), priority),
              domain_(domain)
        {
        }

        void process() override { domain_.edge(); }

      private:
        ClockDomain &domain_;
    };

    using TickerList = IntrusiveList<Ticker>;

    void registerTicker(Ticker *t, int priority, bool owned);
    void unregisterTicker(Ticker *t);
    void edge();

    EventQueue &eq_;
    std::string name_;
    Tick period_;
    Tick phase_;
    Tick lastEdge_ = 0;
    bool seenEdge_ = false;
    Cycle cycle_ = 0;
    bool running_ = false;
    double vdd_ = 1.5;

    /** Sorted intrusive ticker list (ascending priority, then
     *  registration order). */
    TickerList tickers_;

    /** Ticker whose tick() is currently executing, if any. */
    Ticker *current_ = nullptr;
    /** The current ticker asked to remove itself; honoured by the
     *  edge walk once its tick() returns. */
    bool pendingSelfRemove_ = false;

    EdgeEvent edgeEvent_;
};

inline Tick
ClockDomain::nextEdgeAt(Tick t) const
{
    // Reference edge: the next one committed to the queue if running,
    // otherwise extrapolate from the phase.
    Tick ref;
    if (edgeEvent_.scheduled())
        ref = edgeEvent_.when();
    else if (seenEdge_)
        ref = lastEdge_ + period_;
    else
        ref = phase_;

    if (t <= ref)
        return ref;
    const Tick delta = t - ref;
    const Tick steps = (delta + period_ - 1) / period_;
    return ref + steps * period_;
}

} // namespace gals

#endif // SIM_CLOCK_DOMAIN_HH
