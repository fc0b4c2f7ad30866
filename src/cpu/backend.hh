/**
 * @file
 * Execution domains: clock domains 3 (integer issue queue + ALUs),
 * 4 (floating-point issue queue + FPUs) and 5 (memory issue queue +
 * D-cache + L2) of the GALS processor.
 *
 * Each domain owns a scoreboard view of register readiness fed by
 * wakeup messages from the other domains (through channels) and by its
 * own completions (observed immediately, so dependent instructions in
 * the same queue issue back-to-back — the property the paper's domain
 * partitioning is designed to preserve).
 */

#ifndef CPU_BACKEND_HH
#define CPU_BACKEND_HH

#include <vector>

#include "cache/hierarchy.hh"
#include "core/channel.hh"
#include "core/domain.hh"
#include "cpu/core_config.hh"
#include "cpu/fu_pool.hh"
#include "cpu/issue_queue.hh"
#include "cpu/lsq.hh"
#include "cpu/messages.hh"
#include "cpu/scoreboard.hh"
#include "power/energy_account.hh"
#include "sim/clock_domain.hh"

namespace gals
{

/** Which execution cluster this is. */
enum class ExecKind : std::uint8_t { intCluster, fpCluster, memCluster };

/**
 * One execution clock domain. A ClockDomain::Ticker: construction
 * registers the cluster on its domain's edge walk.
 */
class ExecDomain : public ClockDomain::Ticker
{
  public:
    ExecDomain(ExecKind kind, const CoreConfig &cfg, ClockDomain &domain,
               EnergyAccount &energy, Channel<DynInstPtr> &dispatchIn,
               std::vector<Channel<WakeupMsg> *> wakeupIns,
               std::vector<Channel<WakeupMsg> *> wakeupOuts,
               Channel<CompleteMsg> &completeOut,
               Channel<RedirectMsg> *redirectOut,
               Channel<StoreCommitMsg> *storeCommitIn,
               CacheHierarchy *hier);

    /** One cycle of this domain. */
    void tick() override;

    /** Mispredict recovery: flush younger instructions. */
    void squashAfter(InstSeqNum afterSeq);

    /** @name Statistics */
    /// @{
    double avgQueueOccupancy() const;
    std::uint64_t issued() const { return issued_; }
    /** Stable address of the issue counter, for samplers (DVFS)
     *  that read it without a callback indirection. */
    const std::uint64_t *issuedCounter() const { return &issued_; }
    std::uint64_t completed() const { return completed_; }
    const IssueQueue &queue() const { return iq_; }
    const Lsq *lsq() const
    {
        return kind_ == ExecKind::memCluster ? &lsq_ : nullptr;
    }
    /// @}

    ExecKind kind() const { return kind_; }

    /** No in-flight work in this cluster: empty issue queue, LSQ and
     *  completion list. Part of the processor's warm-snapshot
     *  quiescence predicate (core/snapshot.hh). */
    bool quiescentForSnapshot() const
    {
        return iq_.size() == 0 && lsq_.size() == 0 &&
               completions_.empty();
    }

    /** Register-readiness view, exposed so a warm-state restore can
     *  re-seed the epochs this domain has observed. */
    Scoreboard &scoreboard() { return scoreboard_; }

  private:
    void drainWakeups();
    void processCompletions(Tick now);
    void insertDispatched(Tick now);
    void issue(Tick now);
    void handleStoreCommits();
    unsigned execLatencyCycles(const DynInstPtr &inst);
    void broadcastWakeup(const DynInstPtr &inst);
    void localWakeup(PhysRegId reg, std::uint32_t epoch);
    unsigned issueWidth() const;
    Unit queueUnit() const;

    ExecKind kind_;
    const CoreConfig &cfg_;
    ClockDomain &domain_;
    EnergyAccount &energy_;

    Channel<DynInstPtr> &dispatchIn_;
    std::vector<Channel<WakeupMsg> *> wakeupIns_;
    std::vector<Channel<WakeupMsg> *> wakeupOuts_;
    Channel<CompleteMsg> &completeOut_;
    Channel<RedirectMsg> *redirectOut_;     ///< int cluster only
    Channel<StoreCommitMsg> *storeCommitIn_; ///< mem cluster only
    CacheHierarchy *hier_;                   ///< mem cluster only

    Scoreboard scoreboard_;
    IssueQueue iq_;
    FuPool fu_;
    Lsq lsq_;

    /** In-flight executions: a min-heap on completion time, kept with
     *  std::push_heap/pop_heap (what std::priority_queue does) so the
     *  instruction can be moved out of the top. */
    struct Completion
    {
        Tick when;
        DynInstPtr inst;
        bool
        operator>(const Completion &o) const
        {
            return when > o.when;
        }
    };
    std::vector<Completion> completions_;

    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t occSamples_ = 0;
    std::uint64_t occSum_ = 0;
};

} // namespace gals

#endif // CPU_BACKEND_HH
