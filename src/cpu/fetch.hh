/**
 * @file
 * Fetch stage: clock domain 1 of the GALS processor (paper Figure 3b)
 * — the L1 instruction cache and the branch prediction unit.
 *
 * Fetches up to fetchWidth instructions per cycle from the synthetic
 * stream, predicting every branch with the real branch unit. When the
 * oracle outcome disagrees with the prediction, fetch switches onto a
 * wrong-path junk stream until the resolved branch's redirect message
 * arrives back through the (possibly asynchronous) redirect channel —
 * so the GALS machine's longer recovery pipeline directly produces the
 * higher mis-speculation rates of paper Figure 8.
 */

#ifndef CPU_FETCH_HH
#define CPU_FETCH_HH

#include <functional>

#include "bpred/bpred.hh"
#include "cache/hierarchy.hh"
#include "core/channel.hh"
#include "cpu/core_config.hh"
#include "cpu/messages.hh"
#include "isa/dyn_inst_pool.hh"
#include "power/energy_account.hh"
#include "sim/clock_domain.hh"
#include "workload/generator.hh"

namespace gals
{

/**
 * The front end (clock domain 1). A ClockDomain::Ticker: construction
 * registers the stage on its domain's edge walk.
 */
class FetchStage : public ClockDomain::Ticker
{
  public:
    FetchStage(const CoreConfig &cfg, ClockDomain &domain,
               ClockDomain &memDomain, StreamGenerator &gen,
               CacheHierarchy &hier, EnergyAccount &energy,
               DynInstPool &pool, Channel<DynInstPtr> &out,
               Channel<RedirectMsg> &redirectIn,
               Channel<BpredUpdateMsg> &bpredUpdateIn, bool galsMode,
               unsigned syncEdges);

    /** One fetch-domain cycle. */
    void tick() override;

    /** Stop fetching new correct-path work (drain mode). */
    void setFetchLimit(std::uint64_t maxCorrectPath)
    {
        fetchLimit_ = maxCorrectPath;
    }

    /** Hook invoked when a redirect is observed: global squash. */
    void
    onSquash(std::function<void(InstSeqNum)> fn)
    {
        squashFn_ = std::move(fn);
    }

    /**
     * External stall predicate, polled once per fetch cycle after the
     * incoming-message drains: while it returns true the front end
     * fetches nothing. Used by the fabric NIC to model a core blocked
     * on a remote completion; unset (the default) costs nothing and
     * changes nothing.
     */
    void
    setExternalStall(std::function<bool()> fn)
    {
        externalStall_ = std::move(fn);
    }

    /** @name Statistics */
    /// @{
    std::uint64_t fetched() const { return fetched_; }
    std::uint64_t wrongPathFetched() const { return wrongPathFetched_; }
    std::uint64_t icacheStallCycles() const { return stallCycles_; }
    std::uint64_t redirects() const { return redirects_; }
    /// @}

    BranchUnit &branchUnit() { return bpred_; }

    /** @name Warm-state snapshot (core/snapshot.hh)
     *
     * Only the sequence counter is serialized: at the quiescent
     * snapshot point there is no pending instruction, no wrong-path
     * mode and no stall in flight (see quiescentForSnapshot()), so
     * everything else is the fresh-construction state.
     */
    /// @{
    bool quiescentForSnapshot() const
    {
        return pending_ == nullptr && !wrongPathMode_;
    }
    std::uint64_t nextSeq() const { return nextSeq_; }
    void setNextSeq(std::uint64_t seq) { nextSeq_ = seq; }
    /// @}

  private:
    DynInstPtr makeInst(const GenInst &gi, bool wrong_path);
    Tick missStallTicks(const MemAccessOutcome &out) const;

    const CoreConfig &cfg_;
    ClockDomain &domain_;
    ClockDomain &memDomain_;
    StreamGenerator &gen_;
    CacheHierarchy &hier_;
    EnergyAccount &energy_;
    DynInstPool &pool_;
    BranchUnit bpred_;

    Channel<DynInstPtr> &out_;
    Channel<RedirectMsg> &redirectIn_;
    Channel<BpredUpdateMsg> &bpredUpdateIn_;

    bool galsMode_;
    unsigned syncEdges_;

    std::function<void(InstSeqNum)> squashFn_;
    std::function<bool()> externalStall_;

    InstSeqNum nextSeq_ = 1;
    bool wrongPathMode_ = false;
    std::uint64_t wpPc_ = 0;
    DynInstPtr pending_; ///< generated but not yet pushed (stall/full)
    Tick stallUntil_ = 0;
    std::uint64_t fetchLimit_ = ~std::uint64_t(0);

    std::uint64_t fetched_ = 0;
    std::uint64_t wrongPathFetched_ = 0;
    std::uint64_t stallCycles_ = 0;
    std::uint64_t redirects_ = 0;
};

} // namespace gals

#endif // CPU_FETCH_HH
