/**
 * @file
 * The complete processor model (paper section 4, Figure 3).
 *
 * One Processor instantiates the five pipeline regions — fetch,
 * decode/rename/commit, integer, floating point, memory — each bound
 * to a ClockDomain, and couples them with Channel objects.
 *
 *  - Base (synchronous) configuration: all five domains share the same
 *    period and phase, and every channel is a synchronous latch; this
 *    is exactly a conventional single-clock superscalar (Figure 3a).
 *  - GALS configuration: the domains get independent periods (for the
 *    multiple-clock experiments of section 5.2) and random initial
 *    phases, and every channel is an asynchronous FIFO with
 *    synchronizer latency (Figure 3b).
 *
 * Both configurations run the same pipeline code, so performance and
 * power comparisons are apples-to-apples, as in the paper.
 */

#ifndef CORE_PROCESSOR_HH
#define CORE_PROCESSOR_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/channel.hh"
#include "core/domain.hh"
#include "cpu/backend.hh"
#include "cpu/core_config.hh"
#include "cpu/decode.hh"
#include "cpu/fetch.hh"
#include "dvfs/vscale.hh"
#include "isa/dyn_inst_pool.hh"
#include "power/clock_grid.hh"
#include "power/energy_account.hh"
#include "power/power_model.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/generator.hh"

namespace gals
{

class SnapshotWriter;
class SnapshotReader;

/** Everything configurable about one Processor instance. */
struct ProcessorConfig
{
    CoreConfig core;

    /** GALS mode: async FIFOs + independent clocks. */
    bool gals = false;

    /** Nominal clock period in ticks (1000 ps = 1 GHz). */
    Tick nominalPeriod = defaults::nominalPeriod;

    /** Per-domain frequency/voltage scaling (section 5.2). */
    DvfsSetting dvfs;

    /** Capacity of instruction-carrying FIFOs. */
    unsigned fifoCapacity = defaults::instFifoCapacity;
    /** Capacity of message FIFOs (wakeups, completions, ...). */
    unsigned msgFifoCapacity = defaults::msgFifoCapacity;
    /** Synchronizer depth of the asynchronous FIFOs (edges). */
    unsigned syncEdges = defaults::syncEdges;

    /** Randomize initial clock phases (GALS mode; section 4.3). */
    bool randomPhase = true;
    std::uint64_t phaseSeed = 0;

    TechParams tech;
    ClockHierarchySpec clocks = defaultClockHierarchy();

    /** Abort if no instruction commits for this many nominal cycles. */
    std::uint64_t watchdogCycles = defaults::watchdogCycles;

    void validate() const;
};

/**
 * A runnable processor bound to one synthetic workload.
 */
class Processor
{
  public:
    /**
     * @param namePrefix  prepended to every domain/channel name; ""
     *     for a standalone core, "core<i>." inside a fabric::System
     *     so diagnostics distinguish the cores.
     * @param program  @p profile's static program, shared with other
     *     cores; null builds this core's own (see StreamGenerator).
     */
    Processor(EventQueue &eq, const ProcessorConfig &cfg,
              const BenchmarkProfile &profile, std::uint64_t runSeed = 0,
              const std::string &namePrefix = "",
              std::shared_ptr<const StaticProgram> program = nullptr);
    ~Processor();

    /** Run until @p targetCommitted instructions have committed. */
    void run(std::uint64_t targetCommitted);

    /** @name Warm-state snapshot (core/snapshot.hh)
     *
     * runWarmup() runs like run() but, after the target commits, keeps
     * servicing events until the machine is totally quiescent — no
     * in-flight instruction anywhere, every channel empty — so a
     * snapshot never has to serialize pipeline payloads or pending
     * events. snapshotSave()/snapshotRestore() then move only the
     * long-lived microarchitectural state (caches, branch predictor,
     * rename map, workload walk, RNG streams). runResumed() continues
     * a restored machine for the measured region on a fresh event
     * queue: statistics, energy and clocks all start from zero, so
     * results cover exactly the measured instructions.
     */
    /// @{
    /** Run @p warmupCommitted instructions, then drain to quiescence. */
    void runWarmup(std::uint64_t warmupCommitted);
    /** No in-flight work in any stage and every channel empty. */
    bool quiescentForSnapshot() const;
    /** Serialize warm state. Requires quiescentForSnapshot(). */
    void snapshotSave(SnapshotWriter &w);
    /** Restore warm state into this freshly constructed processor;
     *  on reader failure the processor is unusable — discard it. */
    void snapshotRestore(SnapshotReader &r);
    /** Run @p measuredCommitted further instructions after a restore. */
    void runResumed(std::uint64_t measuredCommitted);
    /// @}

    /** @name Run primitives
     * run() is prepareRun + startClocks + the event-service loop +
     * finishRun. fabric::System drives N processors through the same
     * primitives on one shared EventQueue instead of calling run().
     */
    /// @{
    /** Arm the fetch unit to stop generating past the target. */
    void prepareRun(std::uint64_t targetCommitted);
    /** Start the five clocks in canonical reverse pipeline order; in
     *  GALS mode each draws a random initial phase from @p phaseRng
     *  (section 4.3). */
    void startClocks(Rng &phaseRng);
    /** Instructions committed so far. */
    std::uint64_t committed() const;
    /** Record the end-of-run time and stop the clocks. */
    void finishRun();
    /// @}

    /** @name Component access (post-run statistics) */
    /// @{
    FetchStage &fetch() { return *fetch_; }
    DecodeCommitUnit &decodeUnit() { return *decode_; }
    ExecDomain &intCluster() { return *execInt_; }
    ExecDomain &fpCluster() { return *execFp_; }
    ExecDomain &memCluster() { return *execMem_; }
    CacheHierarchy &caches() { return hier_; }
    const StreamGenerator &workload() const { return gen_; }
    EnergyAccount &energy() { return energy_; }
    const PowerModel &powerModel() const { return powerModel_; }
    ClockDomain &domain(DomainId d)
    {
        return *domains_[domainIndex(d)];
    }
    const ProcessorConfig &config() const { return cfg_; }
    const DynInstPool &instPool() const { return instPool_; }
    /// @}

    /** Total simulated time of the run, in ticks. */
    Tick runTicks() const { return endTick_; }

    /** All inter-region channels (for FIFO statistics). */
    const std::vector<ChannelBase *> &channels() const
    {
        return allChannels_;
    }

    /** Sum of pushes+pops over all channels. */
    std::uint64_t fifoEvents() const;

    /**
     * Total energy including the post-run FIFO charges, in nJ. Call
     * after run(); idempotent.
     */
    double finalizeEnergyNj();

  private:
    void buildDomains(std::uint64_t runSeed);
    void buildChannels();
    void buildStages();
    void squashFrom(InstSeqNum afterSeq);
    void runLoop(std::uint64_t targetCommitted);
    void drainToQuiescence();

    EventQueue &eq_;
    ProcessorConfig cfg_;
    std::string prefix_;
    BenchmarkProfile profile_;
    StreamGenerator gen_;
    CacheHierarchy hier_;
    PowerModel powerModel_;
    EnergyAccount energy_;

    PerDomain<std::unique_ptr<ClockDomain>> domains_;

    /** Storage of every in-flight instruction. Declared ahead of the
     *  channels and stages, so it outlives every DynInstPtr they hold;
     *  its destructor checks that all of them came back. */
    DynInstPool instPool_;

    /** @name Channels */
    /// @{
    std::unique_ptr<Channel<DynInstPtr>> fetchToDecode_;
    std::unique_ptr<Channel<DynInstPtr>> dispatchInt_;
    std::unique_ptr<Channel<DynInstPtr>> dispatchFp_;
    std::unique_ptr<Channel<DynInstPtr>> dispatchMem_;
    /** Wakeups between the three execution domains (6 channels). */
    std::vector<std::unique_ptr<Channel<WakeupMsg>>> wakeups_;
    std::unique_ptr<Channel<CompleteMsg>> completeInt_;
    std::unique_ptr<Channel<CompleteMsg>> completeFp_;
    std::unique_ptr<Channel<CompleteMsg>> completeMem_;
    std::unique_ptr<Channel<RedirectMsg>> redirect_;
    std::unique_ptr<Channel<StoreCommitMsg>> storeCommit_;
    std::unique_ptr<Channel<BpredUpdateMsg>> bpredUpdate_;
    std::vector<ChannelBase *> allChannels_;
    /// @}

    std::unique_ptr<FetchStage> fetch_;
    std::unique_ptr<DecodeCommitUnit> decode_;
    std::unique_ptr<ExecDomain> execInt_;
    std::unique_ptr<ExecDomain> execFp_;
    std::unique_ptr<ExecDomain> execMem_;

    /** Per-domain energy close-out, run after the stage logic on
     *  every edge (priority 90). The voltage scale is recomputed only
     *  when the domain's vdd changes (the same value, so every charge
     *  stays bit-exact). */
    class DomainEnergyTicker final : public ClockDomain::Ticker
    {
      public:
        void
        bind(EnergyAccount &energy, DomainId id, ClockDomain &domain)
        {
            energy_ = &energy;
            id_ = id;
            domain_ = &domain;
        }

        void tick() override
        {
            const double vdd = domain_->vdd();
            if (vdd != vdd_) {
                vdd_ = vdd;
                scale_ = energy_->model().tech().energyScale(vdd);
            }
            energy_->domainCycleAtScale(id_, scale_);
        }

      private:
        EnergyAccount *energy_ = nullptr;
        DomainId id_{};
        ClockDomain *domain_ = nullptr;
        double vdd_ = -1.0; ///< vdd scale_ was computed at; none yet
        double scale_ = 0.0;
    };

    /** Global clock-grid charge, synchronous machine only: the single
     *  clock switches every reference-domain cycle (priority 91). */
    class GlobalClockTicker final : public ClockDomain::Ticker
    {
      public:
        void
        bind(EnergyAccount &energy, ClockDomain &ref)
        {
            energy_ = &energy;
            ref_ = &ref;
        }

        void tick() override
        {
            energy_->globalClockCycle(ref_->vdd());
        }

      private:
        EnergyAccount *energy_ = nullptr;
        ClockDomain *ref_ = nullptr;
    };

    DomainEnergyTicker energyTickers_[numDomains];
    GlobalClockTicker globalClockTicker_;

    Tick endTick_ = 0;
    bool energyFinalized_ = false;
    double finalEnergyNj_ = 0.0;
};

} // namespace gals

#endif // CORE_PROCESSOR_HH
