#include "cpu/decode.hh"

#include "cpu/stage_util.hh"
#include "sim/logging.hh"

namespace gals
{

DecodeCommitUnit::DecodeCommitUnit(
    const CoreConfig &cfg, ClockDomain &domain, EnergyAccount &energy,
    Channel<DynInstPtr> &fetchIn, Channel<DynInstPtr> &toInt,
    Channel<DynInstPtr> &toFp, Channel<DynInstPtr> &toMem,
    std::vector<Channel<CompleteMsg> *> completeIns,
    Channel<StoreCommitMsg> &storeCommitOut,
    Channel<BpredUpdateMsg> &bpredUpdateOut)
    : cfg_(cfg), domain_(domain), energy_(energy), fetchIn_(fetchIn),
      toInt_(toInt), toFp_(toFp), toMem_(toMem),
      completeIns_(std::move(completeIns)),
      storeCommitOut_(storeCommitOut), bpredUpdateOut_(bpredUpdateOut),
      rob_(cfg.robSize),
      rename_(cfg.numIntPhysRegs, cfg.numFpPhysRegs)
{
    // Stage logic runs at priority 10, ahead of the per-domain energy
    // close-out ticker (priority 90).
    domain_.addTicker(*this, 10);
}

Channel<DynInstPtr> &
DecodeCommitUnit::queueFor(const DynInst &inst)
{
    switch (instQueue(inst.cls)) {
      case IssueQueueId::intQueue:
        return toInt_;
      case IssueQueueId::fpQueue:
        return toFp_;
      case IssueQueueId::memQueue:
        return toMem_;
      default:
        gals_panic("bad issue queue id");
    }
}

void
DecodeCommitUnit::tick()
{
    const Tick now = domain_.eventQueue().now();

    // Completion notices from the execution domains.
    for (auto *ch : completeIns_) {
        while (!ch->empty()) {
            const CompleteMsg m = ch->front();
            ch->pop();
            // A completion may race a squash; a miss is harmless.
            rob_.markCompleted(m.seq);
            energy_.chargeAccess(Unit::rob);
        }
    }

    doCommit(now);
    doDecode(now);
    doDispatch(now);

    // Occupancy sampling (paper section 5.1's occupancy observations).
    ++occSamples_;
    robOccSum_ += rob_.size();
    intRenameSum_ += rename_.intRenamesInFlight();
    fpRenameSum_ += rename_.fpRenamesInFlight();
}

void
DecodeCommitUnit::doCommit(Tick now)
{
    for (unsigned n = 0; n < cfg_.commitWidth && !rob_.empty(); ++n) {
        const DynInstPtr &head = rob_.head();
        if (!head->completed || head->wrongPath)
            break;
        if (head->isStore() && storeCommitOut_.full())
            break; // cannot release the store this cycle

        head->commitTick = now;
        rename_.commitFree(*head);
        energy_.chargeAccess(Unit::rob);

        auto &cs = commitStats_;
        ++cs.committed;
        cs.lastCommitTick = now;
        cs.slipSumTicks += static_cast<double>(head->slip());
        cs.fifoSlipSumTicks += static_cast<double>(head->fifoResidency);

        if (head->isBranch()) {
            ++cs.committedBranches;
            if (head->mispredicted)
                ++cs.committedMispredicts;
            if (!bpredUpdateOut_.full()) {
                bpredUpdateOut_.push(BpredUpdateMsg{
                    head->pc, head->cls, head->actualTaken,
                    head->actualTarget});
            }
        }
        if (head->isLoad())
            ++cs.committedLoads;
        if (head->isStore()) {
            ++cs.committedStores;
            storeCommitOut_.push(StoreCommitMsg{head->seq, head->memAddr});
        }

        rob_.popHead();
    }
}

void
DecodeCommitUnit::doDecode(Tick now)
{
    (void)now;
    const Cycle cycle = domain_.cycle();
    const std::size_t pipe_cap =
        static_cast<std::size_t>(cfg_.decodeWidth) *
        (cfg_.decodePipeDepth + 1);

    for (unsigned n = 0; n < cfg_.decodeWidth; ++n) {
        if (fetchIn_.empty() || decodePipe_.size() >= pipe_cap)
            break;
        DynInstPtr inst = popInst(fetchIn_, domain_.eventQueue().now());
        inst->decodeTick = domain_.eventQueue().now();
        energy_.chargeAccess(Unit::decodeLogic);
        decodePipe_.push_back(
            {std::move(inst), cycle + cfg_.decodePipeDepth});
    }
}

void
DecodeCommitUnit::doDispatch(Tick now)
{
    const Cycle cycle = domain_.cycle();
    bool stalled = false;

    for (unsigned n = 0; n < cfg_.dispatchWidth; ++n) {
        if (decodePipe_.empty() ||
            decodePipe_.front().readyCycle > cycle)
            break;

        DynInstPtr &front = decodePipe_.front().inst;
        if (rob_.full() || !rename_.canRename(*front)) {
            stalled = true;
            break;
        }
        Channel<DynInstPtr> &q = queueFor(*front);
        if (q.full()) {
            stalled = true;
            break;
        }

        DynInstPtr inst = std::move(front);
        decodePipe_.pop_front();

        rename_.rename(*inst);
        energy_.chargeAccess(Unit::renameTable);
        if (inst->mispredicted && !inst->wrongPath)
            rename_.checkpoint(inst->seq);

        inst->dispatchTick = now;
        rob_.insert(inst);
        energy_.chargeAccess(Unit::rob);
        q.push(std::move(inst));
        ++dispatched_;
    }

    if (stalled)
        ++stallCycles_;
}

void
DecodeCommitUnit::squashAfter(InstSeqNum afterSeq)
{
    // Drop younger instructions from the local pipe and channels.
    for (auto it = decodePipe_.begin(); it != decodePipe_.end();) {
        if (it->inst->seq > afterSeq) {
            it->inst->squashed = true;
            it = decodePipe_.erase(it);
        } else {
            ++it;
        }
    }

    // Restore the RAT, then release registers allocated by squashed
    // instructions (walked youngest-first off the ROB tail).
    if (rename_.hasCheckpoint())
        rename_.restore(afterSeq);
    rob_.squashAfter(afterSeq, [this](DynInst &inst) {
        rename_.squashFree(inst);
    });
}

double
DecodeCommitUnit::avgRobOccupancy() const
{
    return occSamples_ ? double(robOccSum_) / double(occSamples_) : 0.0;
}

double
DecodeCommitUnit::avgIntRenames() const
{
    return occSamples_ ? double(intRenameSum_) / double(occSamples_)
                       : 0.0;
}

double
DecodeCommitUnit::avgFpRenames() const
{
    return occSamples_ ? double(fpRenameSum_) / double(occSamples_) : 0.0;
}

} // namespace gals
