#include "dvfs/controller.hh"

#include <cmath>

#include "sim/logging.hh"

namespace gals
{

DynamicDvfsController::DynamicDvfsController(EventQueue &eq,
                                             const TechParams &tech,
                                             const DynamicDvfsConfig &cfg)
    // Phase == period: the first sample fires one full period after
    // start().
    : tech_(tech), cfg_(cfg),
      sampler_(eq, "dvfs.sampler", cfg.samplePeriod, cfg.samplePeriod,
               ClockDomain::statsPri)
{
    gals_assert(!cfg_.steps.empty() && cfg_.steps.front() == 1.0,
                "DVFS steps must start at 1.0 (nominal)");
    for (std::size_t i = 1; i < cfg_.steps.size(); ++i)
        gals_assert(cfg_.steps[i] > cfg_.steps[i - 1],
                    "DVFS steps must ascend");
    gals_assert(cfg_.loUtil < cfg_.hiUtil, "DVFS thresholds inverted");
    sampler_.addTicker(*this);
}

void
DynamicDvfsController::manage(ClockDomain &domain,
                              const std::uint64_t *workCounter,
                              double peakPerCycle)
{
    gals_assert(workCounter != nullptr, "null work counter");
    gals_assert(peakPerCycle > 0.0, "peak work per cycle must be > 0");
    Managed m;
    m.domain = &domain;
    m.workCounter = workCounter;
    m.peakPerCycle = peakPerCycle;
    m.nominalPeriod = domain.period();
    m.lastWork = *workCounter;
    m.lastCycle = domain.cycle();
    managed_.push_back(m);
}

void
DynamicDvfsController::start()
{
    if (!sampler_.running())
        sampler_.start();
}

void
DynamicDvfsController::stop()
{
    sampler_.stop();
}

void
DynamicDvfsController::applyStep(Managed &m, unsigned step)
{
    if (step == m.step)
        return;
    m.step = step;
    const double slowdown = cfg_.steps[step];
    const Tick period = static_cast<Tick>(
        std::llround(static_cast<double>(m.nominalPeriod) * slowdown));
    m.domain->setPeriod(period);
    if (cfg_.scaleVoltage)
        m.domain->setVdd(vddForSlowdown(slowdown, tech_));
    ++adjustments_;
}

void
DynamicDvfsController::sample()
{
    const bool warming = samples_ < cfg_.warmupSamples;
    ++samples_;

    for (Managed &m : managed_) {
        const std::uint64_t work = *m.workCounter;
        const Cycle cycle = m.domain->cycle();
        const std::uint64_t d_work = work - m.lastWork;
        const Cycle d_cycle = cycle - m.lastCycle;
        m.lastWork = work;
        m.lastCycle = cycle;
        if (d_cycle == 0)
            continue;

        const double util = static_cast<double>(d_work) /
                            (static_cast<double>(d_cycle) *
                             m.peakPerCycle);
        m.lastUtil = util;

        if (warming)
            continue; // measure, but do not act yet

        if (util < cfg_.loUtil &&
            m.step + 1 < cfg_.steps.size()) {
            applyStep(m, m.step + 1);
        } else if (util > cfg_.hiUtil && m.step > 0) {
            applyStep(m, m.step - 1);
        }
    }
}

const DynamicDvfsController::Managed *
DynamicDvfsController::find(const ClockDomain &domain) const
{
    for (const Managed &m : managed_)
        if (m.domain == &domain)
            return &m;
    gals_panic("domain '", domain.name(), "' is not managed");
}

unsigned
DynamicDvfsController::stepOf(const ClockDomain &domain) const
{
    return find(domain)->step;
}

double
DynamicDvfsController::utilizationOf(const ClockDomain &domain) const
{
    return find(domain)->lastUtil;
}

} // namespace gals
