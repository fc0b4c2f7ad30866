/**
 * @file
 * Thread-pool executor for experiment grids.
 *
 * Every RunConfig is an independent simulation — it owns its
 * EventQueue, Processor, caches and energy accounts — so a sweep is
 * embarrassingly parallel. The engine fans a batch out over worker
 * threads and stores each result at its config's index, so the output
 * is deterministic and element-wise identical to the serial runMany()
 * regardless of the job count or scheduling order.
 *
 * Scheduling is work stealing: each worker starts with a contiguous
 * block of run indices in its own deque and, when it runs dry, steals
 * from the tail of another worker's deque. Run lengths are strongly
 * heterogeneous (fpppp simulates ~3x longer than adpcm at equal
 * instruction counts), so a static division can leave most of the
 * pool idle behind one slow worker; stealing keeps every thread busy
 * until the whole grid drains. Because results land in per-index
 * slots, the *order of execution* is free to vary while the *output*
 * stays byte-identical.
 */

#ifndef RUNNER_ENGINE_HH
#define RUNNER_ENGINE_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "core/experiment.hh"

namespace gals::runner
{

/** Most worker threads a command line may ask for: runIndexed()
 *  starts one thread per job (up to the batch size), and a thread
 *  the system refuses aborts the process. */
inline constexpr unsigned maxJobs = 1024;

/** Parallel experiment executor. */
class ExperimentEngine
{
  public:
    /**
     * @param jobs worker threads; 0 picks the hardware thread
     *     count, 1 degenerates to the serial runMany().
     */
    explicit ExperimentEngine(unsigned jobs = 1);

    /**
     * Run the batch across the worker pool.
     * @param cfgs independent run configurations.
     * @return results element-wise: results[i] belongs to cfgs[i],
     *     byte-identical for any job count.
     */
    std::vector<RunResults> run(const std::vector<RunConfig> &cfgs) const;

    /**
     * The work-stealing core, exposed for generic index-addressed
     * work: execute @p task(i) exactly once for every i in
     * [0, count), spread over the pool. @p task must be safe to call
     * concurrently for distinct indices and must confine its effects
     * to index-owned state (the run() wrapper writes results[i]).
     * A task that throws aborts the sweep (fatal) after the pool
     * joins.
     */
    void runIndexed(std::size_t count,
                    const std::function<void(std::size_t)> &task) const;

    /** Resolved worker-thread count (never 0). */
    unsigned jobs() const { return jobs_; }

    /** Hardware thread count (at least 1). */
    static unsigned hardwareJobs();

  private:
    unsigned jobs_;
};

} // namespace gals::runner

#endif // RUNNER_ENGINE_HH
