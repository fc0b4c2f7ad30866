#include "fabric/system.hh"

#include <algorithm>
#include <string>

#include "core/channel.hh"
#include "dvfs/controller.hh"
#include "sim/logging.hh"

namespace gals
{

/**
 * One directed inter-core link: a private clock domain driving a
 * store-and-forward hop between two Channel segments. The hop logic
 * runs at priority 10 on the link's own clock, like a pipeline stage.
 *
 * An idle link parks its clock: a tick that leaves the ingress FIFO
 * raw-empty (nothing in it, visible or still synchronizing) stops the
 * domain, and send() restarts it at the first link edge after the
 * push. The skipped edges would have found nothing to move, and the
 * FIFOs read a parked clock's edges off the same grid (see
 * ClockDomain::nextEdgeAt), so records do not change. A backpressured
 * link (ingress items, full egress) keeps ticking.
 *
 * Link edges run at clockEdgePri + 1, after every core edge of the
 * same tick. In base mode that is where they always ran (all phases
 * 0, links started after the cores); a restarted link carries a
 * fresh insertion seq and would otherwise overtake a core edge, which
 * the latch FIFOs (a pop frees its slot at once) would observe. In
 * GALS mode a link touches only its two async FIFOs, whose visibility
 * and release times fall strictly after the current tick, so its
 * place within a tick is invisible.
 */
class System::Link final : public ClockDomain::Ticker
{
  public:
    Link(EventQueue &eq, const RunConfig &cfg, const LinkSpec &spec,
         ClockDomain &srcDom, ClockDomain &dstDom)
        : spec_(spec),
          dom_(eq,
               "fabric.link." + std::to_string(spec.src) + "to" +
                   std::to_string(spec.dst),
               cfg.proc.nominalPeriod, 0, ClockDomain::clockEdgePri + 1),
          in_("fabric.ch." + std::to_string(spec.src) + "to" +
                  std::to_string(spec.dst) + ".in",
              cfg.gals ? ChannelMode::asyncFifo : ChannelMode::syncLatch,
              srcDom, dom_, cfg.fabric.linkFifoCapacity,
              cfg.proc.syncEdges, false),
          out_("fabric.ch." + std::to_string(spec.src) + "to" +
                   std::to_string(spec.dst) + ".out",
               cfg.gals ? ChannelMode::asyncFifo
                        : ChannelMode::syncLatch,
               dom_, dstDom, cfg.fabric.linkFifoCapacity,
               cfg.proc.syncEdges, false)
    {
        dom_.addTicker(*this, 10);
    }

    void
    tick() override
    {
        while (!in_.empty() && !out_.full()) {
            out_.push(in_.front());
            in_.pop();
        }
        if (in_.rawSize() == 0)
            dom_.stop();
    }

    /** Producer side of the ingress FIFO, for the source core's NIC. */
    bool full() const { return in_.full(); }

    /** Push @p m into the ingress FIFO (caller checked full()) and
     *  wake a parked link at its first edge after now. */
    void
    send(const FabricMsg &m)
    {
        in_.push(m);
        if (!dom_.running())
            dom_.restartAt(dom_.eventQueue().now() + 1);
    }

    const LinkSpec &spec() const { return spec_; }
    ClockDomain &domain() { return dom_; }
    Channel<FabricMsg> &ingress() { return in_; }
    Channel<FabricMsg> &egress() { return out_; }

  private:
    LinkSpec spec_;
    ClockDomain dom_;
    Channel<FabricMsg> in_;
    Channel<FabricMsg> out_;
};

/**
 * Per-core network interface, a priority-20 ticker on the core's
 * decode domain (after the pipeline stages, before the energy
 * close-out). Deterministic by construction: in-links drain in
 * ascending source-core order, routing is static (topology.hh), and
 * injection is keyed off the core's own commit count.
 *
 * Commits happen at priority 10 on the same edge, so the NIC is also
 * where the System's run progress (commit total, finished cores) is
 * brought up to date: the run loop reads two counters instead of
 * summing every core after every event.
 */
class System::Nic final : public ClockDomain::Ticker
{
  public:
    Nic(unsigned core, const FabricConfig &fab, EventQueue &eq,
        Processor &proc, std::uint64_t target, Progress &progress)
        : core_(core), cores_(fab.cores), kind_(fab.topology),
          interval_(fab.trafficInterval), window_(fab.trafficWindow),
          eq_(eq), proc_(proc), target_(target), progress_(progress),
          outTo_(fab.cores, nullptr), nextDue_(fab.trafficInterval)
    {
        proc_.domain(DomainId::decode).addTicker(*this, 20);
    }

    void addFlow(const TrafficFlow &f) { flows_.push_back(f); }

    void connectOut(unsigned neighbor, Link *link)
    {
        outTo_[neighbor] = link;
    }

    void connectIn(unsigned srcCore, Channel<FabricMsg> *ch)
    {
        inPorts_.push_back({srcCore, ch});
    }

    /** Sort the in-ports and arm the fetch throttle. */
    void
    finishWiring()
    {
        std::sort(inPorts_.begin(), inPorts_.end(),
                  [](const InPort &a, const InPort &b) {
                      return a.src < b.src;
                  });
        proc_.fetch().setExternalStall([this] {
            if (outstanding_ >= window_) {
                ++remoteStallCycles_;
                return true;
            }
            return false;
        });
    }

    void
    tick() override
    {
        const Tick now = eq_.now();
        const std::uint64_t committed = proc_.committed();
        if (committed != seenCommitted_) {
            progress_.committed += committed - seenCommitted_;
            if (seenCommitted_ < target_ && committed >= target_)
                ++progress_.coresDone;
            seenCommitted_ = committed;
        }

        // Drain incoming links in ascending source order. Backpressure
        // is per-port: a full outbound hop parks the head message and
        // moves on to the next port.
        for (const InPort &port : inPorts_) {
            Channel<FabricMsg> &ch = *port.ch;
            while (!ch.empty()) {
                const FabricMsg m = ch.front();
                if (m.dst == core_) {
                    if (m.reply) {
                        ch.pop();
                        ++repliesReceived_;
                        latencySumTicks_ +=
                            static_cast<double>(now - m.sendTick);
                        gals_assert(outstanding_ > 0,
                                    "fabric: reply without request");
                        --outstanding_;
                    } else {
                        Link *out = routeTo(m.src);
                        if (out->full())
                            break;
                        out->send(FabricMsg{core_, m.src, m.seq, true,
                                            m.sendTick});
                        ch.pop();
                        ++requestsServed_;
                    }
                } else {
                    Link *out = routeTo(m.dst);
                    if (out->full())
                        break;
                    out->send(m);
                    ch.pop();
                    ++forwarded_;
                }
            }
        }

        // Inject one request per trafficInterval commits, round-robin
        // over this core's flows, bounded by the completion window.
        // nextDue_ is the commit count that makes the next one due.
        if (flows_.empty())
            return;
        while (nextDue_ <= committed) {
            if (outstanding_ >= window_)
                break;
            const TrafficFlow &f =
                flows_[rrNext_ % flows_.size()];
            Link *out = routeTo(f.dst);
            if (out->full())
                break;
            out->send(FabricMsg{core_, f.dst, seq_++, false, now});
            ++rrNext_;
            nextDue_ += interval_;
            ++outstanding_;
            ++msgsSent_;
        }
    }

    /** @name Per-core traffic statistics */
    /// @{
    std::uint64_t msgsSent() const { return msgsSent_; }
    std::uint64_t requestsServed() const { return requestsServed_; }
    std::uint64_t repliesReceived() const { return repliesReceived_; }
    std::uint64_t forwarded() const { return forwarded_; }
    std::uint64_t remoteStallCycles() const { return remoteStallCycles_; }
    double latencySumTicks() const { return latencySumTicks_; }
    /// @}

  private:
    struct InPort
    {
        unsigned src;
        Channel<FabricMsg> *ch;
    };

    Link *
    routeTo(unsigned target)
    {
        Link *out = outTo_[nextHop(kind_, cores_, core_, target)];
        gals_assert(out != nullptr, "fabric: core ", core_,
                    " has no link toward ", target);
        return out;
    }

    unsigned core_;
    unsigned cores_;
    TopologyKind kind_;
    std::uint64_t interval_;
    unsigned window_;
    EventQueue &eq_;
    Processor &proc_;
    std::uint64_t target_;
    Progress &progress_;
    std::uint64_t seenCommitted_ = 0;

    std::vector<TrafficFlow> flows_;
    std::vector<Link *> outTo_;   ///< by neighbor core id
    std::vector<InPort> inPorts_; ///< ascending src order

    std::uint64_t seq_ = 1;
    std::size_t rrNext_ = 0;
    std::uint64_t nextDue_;
    unsigned outstanding_ = 0;

    std::uint64_t msgsSent_ = 0;
    std::uint64_t requestsServed_ = 0;
    std::uint64_t repliesReceived_ = 0;
    std::uint64_t forwarded_ = 0;
    std::uint64_t remoteStallCycles_ = 0;
    double latencySumTicks_ = 0.0;
};

System::System(const RunConfig &cfg)
    : cfg_(cfg), eq_("eq.fabric." + cfg.benchmark)
{
    const std::string err = cfg_.fabric.validate();
    if (!err.empty())
        gals_fatal(err);
    gals_assert(cfg_.fabric.active(),
                "System needs cores > 1; use runOne() for one core");
    buildCores();
    buildFabric();
}

System::~System()
{
    // Mirror Processor::~Processor: stop link clocks so no event
    // still scheduled on the queue refers to a dying domain.
    for (auto &l : links_)
        if (l->domain().running())
            l->domain().stop();
}

void
System::buildCores()
{
    // Every core runs the same binary: build its static program once.
    const BenchmarkProfile &profile = findBenchmark(cfg_.benchmark);
    const auto program = std::make_shared<const StaticProgram>(profile);
    for (unsigned c = 0; c < cfg_.fabric.cores; ++c) {
        ProcessorConfig pc = cfg_.proc;
        pc.gals = cfg_.gals;
        pc.dvfs = cfg_.gals ? cfg_.dvfs : DvfsSetting();
        // Core 0 keeps the single-core seeds exactly; core c offsets
        // both the workload and the clock phases deterministically.
        pc.phaseSeed = effectivePhaseSeed(cfg_) + c;
        procs_.push_back(std::make_unique<Processor>(
            eq_, pc, profile, cfg_.seed + c,
            "core" + std::to_string(c) + ".", program));
    }
}

void
System::buildFabric()
{
    const FabricConfig &fab = cfg_.fabric;

    for (unsigned c = 0; c < fab.cores; ++c)
        nics_.push_back(std::make_unique<Nic>(
            c, fab, eq_, *procs_[c], cfg_.instructions, progress_));

    for (const LinkSpec &ls : buildTopologyLinks(fab.topology, fab.cores)) {
        auto link = std::make_unique<Link>(
            eq_, cfg_, ls, procs_[ls.src]->domain(DomainId::decode),
            procs_[ls.dst]->domain(DomainId::decode));
        nics_[ls.src]->connectOut(ls.dst, link.get());
        nics_[ls.dst]->connectIn(ls.src, &link->egress());
        links_.push_back(std::move(link));
    }

    std::vector<TrafficFlow> flows;
    const std::string err =
        parseTrafficPattern(fab.traffic, fab.cores, flows);
    if (!err.empty())
        gals_fatal(err);
    for (const TrafficFlow &f : flows)
        nics_[f.src]->addFlow(f);

    for (auto &nic : nics_)
        nic->finishWiring();
}

RunResults
System::run()
{
    gals_assert(!ran_, "System::run() is single use");
    ran_ = true;

    for (auto &p : procs_)
        p->prepareRun(cfg_.instructions);

    // One online DVFS controller per core, managing its FP domain
    // exactly like the single-core path.
    std::vector<std::unique_ptr<DynamicDvfsController>> ctrls;
    if (cfg_.dynamicDvfs) {
        for (auto &p : procs_) {
            auto ctrl = std::make_unique<DynamicDvfsController>(
                eq_, p->config().tech);
            ctrl->manage(p->domain(DomainId::fpd),
                         p->fpCluster().issuedCounter(),
                         p->config().core.fpIssueWidth);
            ctrl->start();
            ctrls.push_back(std::move(ctrl));
        }
    }

    // Start the core clocks (each core draws its phases from its own
    // seeded stream, so core 0 of an N=1... fabric and a plain run
    // see identical phases), then the link clocks from a separate
    // fabric stream.
    for (auto &p : procs_) {
        Rng rng(p->config().phaseSeed * 0x9e3779b97f4a7c15ULL +
                0x1234567ULL);
        p->startClocks(rng);
    }
    Rng link_rng((effectivePhaseSeed(cfg_) + 0x0fabULL) *
                     0x9e3779b97f4a7c15ULL +
                 0x1234567ULL);
    for (auto &l : links_) {
        ClockDomain &cd = l->domain();
        if (cfg_.gals && cfg_.proc.randomPhase)
            cd.setPhase(link_rng.range(0, cd.period() - 1));
        cd.start();
    }

    // Commits land only on decode edges, whose NIC ticker brings
    // progress_ up to date within the same event.
    const Tick watchdog_ticks =
        cfg_.proc.watchdogCycles * cfg_.proc.nominalPeriod;
    std::uint64_t last_total = 0;
    Tick last_progress = 0;

    while (progress_.coresDone < cores()) {
        gals_assert(!eq_.empty(), "event queue drained mid-run");
        eq_.serviceOne();

        const std::uint64_t total = progress_.committed;
        if (total != last_total) {
            last_total = total;
            last_progress = eq_.now();
        } else if (eq_.now() - last_progress > watchdog_ticks) {
            gals_panic("fabric watchdog: no commit for ",
                       cfg_.proc.watchdogCycles, " cycles at tick ",
                       eq_.now(), " (committed ", total, "/",
                       cfg_.instructions * cores(), " over ", cores(),
                       " cores)");
        }
    }

    for (auto &ctrl : ctrls)
        ctrl->stop();
    for (auto &p : procs_)
        p->finishRun();
    for (auto &l : links_)
        if (l->domain().running())
            l->domain().stop();

    return aggregate();
}

RunResults
System::aggregate()
{
    RunResults agg;
    agg.benchmark = cfg_.benchmark;
    agg.gals = cfg_.gals;

    const double period =
        static_cast<double>(cfg_.proc.nominalPeriod);

    double slip_ticks = 0.0;
    double fifo_slip_ticks = 0.0;
    std::uint64_t mispredicts = 0;
    std::uint64_t dir_correct = 0;
    std::uint64_t dir_wrong = 0;

    for (unsigned c = 0; c < cores(); ++c) {
        Processor &p = *procs_[c];
        const RunResults r = extractRunResults(p, cfg_);

        agg.committed += r.committed;
        agg.fetched += r.fetched;
        agg.wrongPathFetched += r.wrongPathFetched;
        agg.energyJ += r.energyJ;
        agg.fifoEvents += r.fifoEvents;
        for (const auto &kv : r.unitEnergyNj)
            agg.unitEnergyNj[kv.first] += kv.second;

        agg.avgRobOcc += r.avgRobOcc;
        agg.avgIntRenames += r.avgIntRenames;
        agg.avgFpRenames += r.avgFpRenames;
        agg.intIQOcc += r.intIQOcc;
        agg.fpIQOcc += r.fpIQOcc;
        agg.memIQOcc += r.memIQOcc;
        agg.il1MissRate += r.il1MissRate;
        agg.dl1MissRate += r.dl1MissRate;
        agg.l2MissRate += r.l2MissRate;

        const CommitStats &cs = p.decodeUnit().commitStats();
        slip_ticks += cs.slipSumTicks;
        fifo_slip_ticks += cs.fifoSlipSumTicks;
        mispredicts += cs.committedMispredicts;
        const BranchUnit &bu = p.fetch().branchUnit();
        dir_correct += bu.dirCorrect();
        dir_wrong += bu.dirWrong();

        const Nic &nic = *nics_[c];
        CoreResults cr;
        cr.core = c;
        cr.committed = r.committed;
        const double core_cycles =
            static_cast<double>(cs.lastCommitTick) / period;
        cr.ipcNominal =
            core_cycles > 0.0 ? r.committed / core_cycles : 0.0;
        cr.energyJ = r.energyJ;
        cr.fifoEvents = r.fifoEvents;
        cr.msgsSent = nic.msgsSent();
        cr.msgsReceived = nic.requestsServed();
        cr.remoteStallCycles = nic.remoteStallCycles();
        cr.avgRemoteLatencyCycles =
            nic.repliesReceived()
                ? nic.latencySumTicks() /
                      static_cast<double>(nic.repliesReceived()) /
                      period
                : 0.0;
        agg.cores.push_back(cr);
    }

    // Link FIFO traffic is fabric activity the per-core counters
    // cannot see.
    for (const auto &l : links_)
        agg.fifoEvents += l->ingress().pushes() + l->ingress().pops() +
                          l->egress().pushes() + l->egress().pops();

    const double n = static_cast<double>(cores());
    agg.avgRobOcc /= n;
    agg.avgIntRenames /= n;
    agg.avgFpRenames /= n;
    agg.intIQOcc /= n;
    agg.fpIQOcc /= n;
    agg.memIQOcc /= n;
    agg.il1MissRate /= n;
    agg.dl1MissRate /= n;
    agg.l2MissRate /= n;

    agg.ticks = eq_.now();
    agg.timeSec = tickToSeconds(agg.ticks);
    const double cycles = static_cast<double>(agg.ticks) / period;
    agg.ipcNominal =
        cycles > 0.0 ? static_cast<double>(agg.committed) / cycles : 0.0;
    agg.avgPowerW =
        agg.timeSec > 0.0 ? agg.energyJ / agg.timeSec : 0.0;

    if (agg.committed > 0) {
        agg.avgSlipCycles =
            slip_ticks / static_cast<double>(agg.committed) / period;
        agg.avgFifoSlipCycles =
            fifo_slip_ticks / static_cast<double>(agg.committed) /
            period;
    }
    agg.misspecFraction =
        agg.fetched ? static_cast<double>(agg.wrongPathFetched) /
                          static_cast<double>(agg.fetched)
                    : 0.0;
    agg.mispredictsPerKCommitted =
        agg.committed ? 1000.0 * static_cast<double>(mispredicts) /
                            static_cast<double>(agg.committed)
                      : 0.0;
    const std::uint64_t dir_total = dir_correct + dir_wrong;
    agg.dirAccuracy =
        dir_total ? static_cast<double>(dir_correct) /
                        static_cast<double>(dir_total)
                  : 1.0;

    return agg;
}

RunResults
runSystem(const RunConfig &cfg)
{
    System sys(cfg);
    return sys.run();
}

} // namespace gals
