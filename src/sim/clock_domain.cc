#include "sim/clock_domain.hh"

#include <utility>

#include "sim/logging.hh"

namespace gals
{

ClockDomain::Ticker::~Ticker()
{
    if (tickerDomain_ != nullptr)
        tickerDomain_->unregisterTicker(this);
}

ClockDomain::ClockDomain(EventQueue &eq, std::string name, Tick period,
                         Tick phase, int edgePriority)
    : eq_(eq), name_(std::move(name)), period_(period), phase_(phase),
      edgeEvent_(*this, period, name_ + ".edge", edgePriority)
{
    gals_assert(period > 0, "clock domain '", name_,
                "' needs a positive period");
}

ClockDomain::~ClockDomain()
{
    while (Ticker *t = tickers_.popFront()) {
        t->tickerDomain_ = nullptr;
        if (t->tickerOwned_)
            delete t;
    }
}

void
ClockDomain::registerTicker(Ticker *t, int priority, bool owned)
{
    gals_assert(t->tickerDomain_ == nullptr, "clock domain '", name_,
                "': ticker is already registered");
    t->tickerDomain_ = this;
    t->tickerPriority_ = priority;
    t->tickerOwned_ = owned;

    // Insert before the first node with a strictly greater priority,
    // scanning from the tail: equal priorities keep registration
    // order, and typical registration (ascending or uniform priority)
    // appends in O(1).
    Ticker *pos = tickers_.tail();
    while (pos != nullptr && pos->tickerPriority_ > priority)
        pos = TickerList::prev(pos);
    tickers_.insertAfter(pos, t);
}

ClockDomain::Ticker *
ClockDomain::addTicker(std::function<void()> fn, int priority)
{
    Ticker *t = new FunctionTicker(std::move(fn));
    registerTicker(t, priority, true);
    return t;
}

void
ClockDomain::unregisterTicker(Ticker *t)
{
    tickers_.unlink(t);
    t->tickerDomain_ = nullptr;
}

void
ClockDomain::removeTicker(Ticker *ticker)
{
    gals_assert(ticker != nullptr, "clock domain '", name_,
                "': removeTicker(nullptr)");
    gals_assert(ticker->tickerDomain_ == this, "clock domain '", name_,
                "': ticker is not registered here");
    if (ticker == current_) {
        // Called from within the ticker's own tick(): the edge walk
        // still holds this node, so defer the unlink (and delete, for
        // owned adapters) until its callback returns.
        pendingSelfRemove_ = true;
        return;
    }
    const bool owned = ticker->tickerOwned_;
    unregisterTicker(ticker);
    if (owned)
        delete ticker;
}

void
ClockDomain::start()
{
    gals_assert(!running_, "clock domain '", name_, "' already running");
    running_ = true;
    edgeEvent_.resumeRepeat();
    Tick first = eq_.now() + phase_;
    eq_.schedule(&edgeEvent_, first);
}

void
ClockDomain::stop()
{
    if (!running_)
        return;
    running_ = false;
    if (edgeEvent_.scheduled())
        eq_.deschedule(&edgeEvent_);
    edgeEvent_.cancelRepeat();
}

void
ClockDomain::restartAt(Tick t)
{
    gals_assert(!running_, "clock domain '", name_, "' already running");
    gals_assert(t >= eq_.now(), "clock domain '", name_,
                "' restarted in the past");
    running_ = true;
    edgeEvent_.resumeRepeat();
    eq_.schedule(&edgeEvent_, nextEdgeAt(t));
}

void
ClockDomain::setPeriod(Tick period)
{
    gals_assert(period > 0, "clock domain '", name_,
                "' needs a positive period");
    period_ = period;
    edgeEvent_.period(period);
}

void
ClockDomain::setPhase(Tick phase)
{
    gals_assert(!running_ && !seenEdge_, "clock domain '", name_,
                "': cannot change phase after starting");
    phase_ = phase;
}

void
ClockDomain::edge()
{
    lastEdge_ = eq_.now();
    seenEdge_ = true;
    ++cycle_;

    // The successor is read *after* tick() so the walk observes
    // mid-tick insertions after the current node and mid-tick
    // removals of later nodes; only removal of the node whose tick()
    // is running is deferred (see removeTicker).
    Ticker *t = tickers_.head();
    while (t != nullptr) {
        current_ = t;
        pendingSelfRemove_ = false;
        t->tick();
        Ticker *next = TickerList::next(t);
        current_ = nullptr;
        if (pendingSelfRemove_) {
            pendingSelfRemove_ = false;
            const bool owned = t->tickerOwned_;
            unregisterTicker(t);
            if (owned)
                delete t;
        }
        t = next;
    }
}

} // namespace gals
