#include "cpu/backend.hh"

#include <algorithm>
#include <functional>

#include "cpu/stage_util.hh"
#include "sim/logging.hh"

namespace gals
{

namespace
{

const char *
execName(ExecKind k)
{
    switch (k) {
      case ExecKind::intCluster:
        return "int_iq";
      case ExecKind::fpCluster:
        return "fp_iq";
      case ExecKind::memCluster:
        return "mem_iq";
    }
    return "?";
}

unsigned
queueCapacity(ExecKind k, const CoreConfig &cfg)
{
    switch (k) {
      case ExecKind::intCluster:
        return cfg.intQueueSize;
      case ExecKind::fpCluster:
        return cfg.fpQueueSize;
      case ExecKind::memCluster:
        return cfg.memQueueSize;
    }
    return 0;
}

FuPool
makeFuPool(ExecKind k, const CoreConfig &cfg)
{
    switch (k) {
      case ExecKind::intCluster:
        return FuPool(cfg.intAlus, cfg.intMuls, 0);
      case ExecKind::fpCluster:
        return FuPool(cfg.fpAlus, cfg.fpMuls, 0);
      case ExecKind::memCluster:
        return FuPool(0, 0, cfg.memPorts);
    }
    gals_panic("bad exec kind");
}

} // namespace

ExecDomain::ExecDomain(ExecKind kind, const CoreConfig &cfg,
                       ClockDomain &domain, EnergyAccount &energy,
                       Channel<DynInstPtr> &dispatchIn,
                       std::vector<Channel<WakeupMsg> *> wakeupIns,
                       std::vector<Channel<WakeupMsg> *> wakeupOuts,
                       Channel<CompleteMsg> &completeOut,
                       Channel<RedirectMsg> *redirectOut,
                       Channel<StoreCommitMsg> *storeCommitIn,
                       CacheHierarchy *hier)
    : kind_(kind), cfg_(cfg), domain_(domain), energy_(energy),
      dispatchIn_(dispatchIn), wakeupIns_(std::move(wakeupIns)),
      wakeupOuts_(std::move(wakeupOuts)), completeOut_(completeOut),
      redirectOut_(redirectOut), storeCommitIn_(storeCommitIn),
      hier_(hier), scoreboard_(cfg.totalPhysRegs()),
      iq_(execName(kind), queueCapacity(kind, cfg), scoreboard_),
      fu_(makeFuPool(kind, cfg)), lsq_(cfg.lsqSize)
{
    if (kind_ == ExecKind::memCluster)
        gals_assert(hier_ != nullptr, "mem cluster needs a hierarchy");
    if (kind_ == ExecKind::intCluster)
        gals_assert(redirectOut_ != nullptr,
                    "int cluster needs the redirect channel");
    // Stage logic runs at priority 10, ahead of the per-domain energy
    // close-out ticker (priority 90).
    domain_.addTicker(*this, 10);
}

unsigned
ExecDomain::issueWidth() const
{
    switch (kind_) {
      case ExecKind::intCluster:
        return cfg_.intIssueWidth;
      case ExecKind::fpCluster:
        return cfg_.fpIssueWidth;
      case ExecKind::memCluster:
        return cfg_.memIssueWidth;
    }
    return 0;
}

Unit
ExecDomain::queueUnit() const
{
    switch (kind_) {
      case ExecKind::intCluster:
        return Unit::intIssueQueue;
      case ExecKind::fpCluster:
        return Unit::fpIssueQueue;
      case ExecKind::memCluster:
        return Unit::memIssueQueue;
    }
    return Unit::intIssueQueue;
}

void
ExecDomain::localWakeup(PhysRegId reg, std::uint32_t epoch)
{
    scoreboard_.observe(reg, epoch);
    energy_.chargeAccess(queueUnit());
}

void
ExecDomain::drainWakeups()
{
    for (auto *ch : wakeupIns_) {
        while (!ch->empty()) {
            const WakeupMsg m = ch->front();
            ch->pop();
            localWakeup(m.reg, m.epoch);
        }
    }
}

void
ExecDomain::broadcastWakeup(const DynInstPtr &inst)
{
    if (inst->physDest == invalidPhysReg)
        return;
    for (auto *ch : wakeupOuts_) {
        // Wakeup channels are sized so they cannot fill in practice;
        // losing a wakeup would wedge the machine.
        gals_assert(!ch->full(), "wakeup channel '", ch->name(),
                    "' overflow");
        ch->push(WakeupMsg{inst->physDest, inst->destEpoch, inst->seq});
    }
}

unsigned
ExecDomain::execLatencyCycles(const DynInstPtr &inst)
{
    if (kind_ != ExecKind::memCluster)
        return instLatency(inst->cls);

    // Memory cluster: one address-generation cycle, then the cache.
    if (inst->isStore())
        return 1; // data written at commit

    gals_assert(inst->isLoad(), "non-memory op in mem cluster");
    if (lsq_.loadForwards(inst))
        return 2; // agen + forward from the store queue

    energy_.chargeAccess(Unit::dcache);
    const MemAccessOutcome oc = hier_->dataAccess(inst->memAddr, false);
    energy_.chargeAccess(Unit::l2cache, oc.l2Accesses);

    const auto &hc = hier_->config();
    unsigned lat = 1 + hc.dl1Latency;
    if (oc.level >= 2)
        lat += hc.l2Latency;
    if (oc.level >= 3)
        lat += hc.memLatency;
    return lat;
}

void
ExecDomain::processCompletions(Tick now)
{
    while (!completions_.empty() && completions_.front().when <= now) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<Completion>());
        const DynInstPtr inst = std::move(completions_.back().inst);
        completions_.pop_back();

        if (inst->squashed)
            continue;

        inst->completed = true;
        inst->completeTick = now;
        ++completed_;

        if (inst->physDest != invalidPhysReg) {
            // Register write + result bus + wakeups.
            energy_.chargeAccess(inst->isFp() ? Unit::regfileFp
                                              : Unit::regfileInt);
            energy_.chargeImmediate(Unit::resultBus, 1, domain_.vdd());
            localWakeup(inst->physDest, inst->destEpoch);
            broadcastWakeup(inst);
        }

        if (kind_ == ExecKind::memCluster && inst->isLoad())
            lsq_.removeLoad(inst->seq);

        gals_assert(!completeOut_.full(), "completion channel overflow");
        completeOut_.push(CompleteMsg{inst->seq});

        if (kind_ == ExecKind::intCluster && inst->mispredicted &&
            !inst->wrongPath) {
            gals_assert(!redirectOut_->full(),
                        "redirect channel overflow");
            redirectOut_->push(RedirectMsg{inst->seq});
        }
    }
}

void
ExecDomain::insertDispatched(Tick now)
{
    while (!dispatchIn_.empty() && !iq_.full()) {
        if (kind_ == ExecKind::memCluster && lsq_.full())
            break;
        DynInstPtr inst = popInst(dispatchIn_, now);
        if (kind_ == ExecKind::memCluster)
            lsq_.insert(inst);
        iq_.insert(std::move(inst));
        energy_.chargeAccess(queueUnit());
    }
}

void
ExecDomain::issue(Tick now)
{
    // The selection callback both checks and consumes the unit, so a
    // wide selection cannot oversubscribe the pool. Unpipelined units
    // reserve for the class's static latency (loads are pipelined
    // behind the cache ports, so their variable latency is irrelevant
    // to the reservation).
    auto fu_ok = [this](const DynInst &inst) {
        if (!fu_.available(inst.cls))
            return false;
        fu_.allocate(inst.cls,
                     domain_.cycle() + instLatency(inst.cls));
        return true;
    };

    for (DynInstPtr &inst : iq_.selectIssue(issueWidth(), fu_ok)) {
        const unsigned lat = execLatencyCycles(inst);
        inst->issueTick = now;
        ++issued_;

        // Operand reads and the execution itself.
        for (unsigned i = 0; i < inst->numSrcs; ++i) {
            energy_.chargeAccess(isFpReg(inst->srcs[i])
                                     ? Unit::regfileFp
                                     : Unit::regfileInt);
        }
        switch (kind_) {
          case ExecKind::intCluster:
            energy_.chargeAccess(Unit::intAlu);
            break;
          case ExecKind::fpCluster:
            energy_.chargeAccess(Unit::fpAlu);
            break;
          case ExecKind::memCluster:
            energy_.chargeAccess(Unit::lsq);
            break;
        }

        const Tick done = now + static_cast<Tick>(lat) * domain_.period();
        completions_.push_back(Completion{done, std::move(inst)});
        std::push_heap(completions_.begin(), completions_.end(),
                       std::greater<Completion>());
    }
}

void
ExecDomain::handleStoreCommits()
{
    if (storeCommitIn_ == nullptr)
        return;
    while (!storeCommitIn_->empty()) {
        const StoreCommitMsg m = storeCommitIn_->front();
        storeCommitIn_->pop();
        energy_.chargeAccess(Unit::dcache);
        const MemAccessOutcome oc = hier_->dataAccess(m.memAddr, true);
        energy_.chargeAccess(Unit::l2cache, oc.l2Accesses);
        lsq_.removeStore(m.seq);
    }
}

void
ExecDomain::tick()
{
    const Tick now = domain_.eventQueue().now();
    fu_.newCycle(domain_.cycle());

    drainWakeups();
    processCompletions(now);
    handleStoreCommits();
    insertDispatched(now);
    issue(now);

    ++occSamples_;
    occSum_ += iq_.size();
}

void
ExecDomain::squashAfter(InstSeqNum afterSeq)
{
    iq_.squashAfter(afterSeq);
    if (kind_ == ExecKind::memCluster)
        lsq_.squashAfter(afterSeq);
    // Completion-heap entries carry the shared DynInst, whose squashed
    // flag is set by the ROB walk; processCompletions drops them.
}

double
ExecDomain::avgQueueOccupancy() const
{
    return occSamples_ ? double(occSum_) / double(occSamples_) : 0.0;
}

} // namespace gals
