#include "cpu/fetch.hh"

#include "sim/logging.hh"

namespace gals
{

FetchStage::FetchStage(const CoreConfig &cfg, ClockDomain &domain,
                       ClockDomain &memDomain, StreamGenerator &gen,
                       CacheHierarchy &hier, EnergyAccount &energy,
                       DynInstPool &pool, Channel<DynInstPtr> &out,
                       Channel<RedirectMsg> &redirectIn,
                       Channel<BpredUpdateMsg> &bpredUpdateIn,
                       bool galsMode, unsigned syncEdges)
    : cfg_(cfg), domain_(domain), memDomain_(memDomain), gen_(gen),
      hier_(hier), energy_(energy), pool_(pool), bpred_(cfg.bpred),
      out_(out), redirectIn_(redirectIn), bpredUpdateIn_(bpredUpdateIn),
      galsMode_(galsMode), syncEdges_(syncEdges)
{
    // Stage logic runs at priority 10, ahead of the per-domain energy
    // close-out ticker (priority 90).
    domain_.addTicker(*this, 10);
}

DynInstPtr
FetchStage::makeInst(const GenInst &gi, bool wrong_path)
{
    DynInstPtr inst = pool_.make();
    inst->seq = nextSeq_++;
    inst->pc = gi.pc;
    inst->cls = gi.cls;
    inst->numSrcs = gi.numSrcs;
    for (unsigned i = 0; i < gi.numSrcs; ++i)
        inst->srcs[i] = gi.srcs[i];
    inst->dest = gi.dest;
    inst->actualTaken = gi.taken;
    inst->actualTarget = gi.target;
    inst->memAddr = gi.memAddr;
    inst->wrongPath = wrong_path;
    inst->fetchTick = domain_.eventQueue().now();
    if (!wrong_path)
        inst->index = gen_.generated() - 1;
    return inst;
}

Tick
FetchStage::missStallTicks(const MemAccessOutcome &out) const
{
    if (out.level <= 1)
        return 0;
    const auto &hc = hier_.config();
    Tick t = static_cast<Tick>(hc.l2Latency) * memDomain_.period();
    if (out.level >= 3)
        t += static_cast<Tick>(hc.memLatency) * memDomain_.period();
    if (galsMode_) {
        // The refill request and response each synchronize into the
        // other clock domain (fetch -> mem, mem -> fetch).
        t += static_cast<Tick>(syncEdges_) *
             (memDomain_.period() + domain_.period());
    }
    return t;
}

void
FetchStage::tick()
{
    const Tick now = domain_.eventQueue().now();

    // Commit-time predictor training arriving from domain 2.
    while (!bpredUpdateIn_.empty()) {
        const BpredUpdateMsg m = bpredUpdateIn_.front();
        bpredUpdateIn_.pop();
        bpred_.update(m.pc, m.cls, m.taken, m.target);
        energy_.chargeAccess(Unit::bpred);
    }

    // Branch redirect: squash everything younger than the branch and
    // resume correct-path fetch.
    while (!redirectIn_.empty()) {
        const RedirectMsg m = redirectIn_.front();
        redirectIn_.pop();
        ++redirects_;
        gals_assert(wrongPathMode_, "redirect while on correct path");
        if (squashFn_)
            squashFn_(m.branchSeq);
        wrongPathMode_ = false;
        if (pending_ && pending_->wrongPath)
            pending_.reset();
        stallUntil_ = 0;
    }

    if (now < stallUntil_) {
        ++stallCycles_;
        return;
    }

    // Remote-completion dependency (fabric NIC window full, etc.).
    if (externalStall_ && externalStall_())
        return;

    std::uint64_t last_line = ~std::uint64_t(0);
    for (unsigned n = 0; n < cfg_.fetchWidth; ++n) {
        if (out_.full())
            break;

        DynInstPtr inst;
        if (pending_) {
            inst = std::move(pending_);
        } else if (wrongPathMode_) {
            inst = makeInst(gen_.wrongPath(wpPc_), true);
        } else {
            if (gen_.generated() >= fetchLimit_)
                break; // drain mode: no new correct-path work
            inst = makeInst(gen_.next(), false);
        }

        // One I-cache access per distinct line touched this cycle.
        const std::uint64_t line = inst->pc / 32;
        if (line != last_line) {
            energy_.chargeAccess(Unit::icache);
            const MemAccessOutcome oc = hier_.instFetch(inst->pc);
            energy_.chargeAccess(Unit::l2cache, oc.l2Accesses);
            if (oc.level > 1) {
                // Miss: hold this instruction until the refill returns.
                pending_ = std::move(inst);
                stallUntil_ = now + missStallTicks(oc);
                break;
            }
            last_line = line;
        }

        bool end_group = false;
        if (inst->isBranch()) {
            const BranchPrediction p =
                bpred_.predict(inst->pc, inst->cls, !inst->wrongPath);
            energy_.chargeAccess(Unit::bpred);
            inst->predTaken = p.taken;
            inst->predTarget = p.target;
            inst->btbMiss = !p.btbHit;

            if (!inst->wrongPath) {
                const bool mispredict =
                    p.taken != inst->actualTaken ||
                    (p.taken && p.target != inst->actualTarget);
                if (mispredict) {
                    inst->mispredicted = true;
                    wrongPathMode_ = true;
                    wpPc_ = p.taken ? p.target : inst->pc + 4;
                }
            } else {
                // Wrong path: follow the front end's own prediction
                // through real code; a predicted-not-taken branch with
                // a known static target may still fall through.
                wpPc_ = p.taken ? gen_.wrapPc(p.target)
                                : inst->pc + 4;
            }
            // A predicted-taken branch ends the fetch group.
            end_group = p.taken;
        } else if (inst->wrongPath) {
            wpPc_ = inst->pc + 4;
        }

        ++fetched_;
        if (inst->wrongPath)
            ++wrongPathFetched_;
        out_.push(std::move(inst));

        if (end_group)
            break;
    }
}

} // namespace gals
