/**
 * @file
 * Statistical benchmark profiles.
 *
 * The paper evaluates SPEC95 and MediaBench binaries under
 * SimpleScalar. We substitute a synthetic program whose first-order
 * statistics — instruction mix, branch density and predictability,
 * dependency distances, and cache locality — are calibrated per
 * benchmark to published characterizations (see DESIGN.md §2). Those
 * statistics are what drive every effect the paper measures: flow
 * rates through the clock domains, misprediction recovery cost, and
 * queue occupancies.
 *
 * A profile compiles into a *static program* (StaticProgram): a
 * control-flow graph of basic blocks laid out contiguously in the
 * instruction address space, where every branch site has a fixed kind
 * (biased / loop back-edge) and fixed targets. The real branch
 * predictor and the real caches therefore see recurring addresses and
 * can learn, exactly as with a real binary.
 */

#ifndef WORKLOAD_PROFILE_HH
#define WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gals
{

/**
 * Per-benchmark statistical description of the program. All `frac*`
 * fields are fractions of all instructions; the remainder after
 * summing every class fraction is plain integer ALU work.
 */
struct BenchmarkProfile
{
    std::string name;
    std::string suite; ///< "spec95int", "spec95fp" or "mediabench"

    /** @name Instruction mix */
    /// @{
    double fracCondBranch = 0.15;
    double fracUncondBranch = 0.02;
    double fracCall = 0.01; ///< calls; an equal fraction of returns
    double fracLoad = 0.22;
    double fracStore = 0.10;
    double fracFpAlu = 0.0;
    double fracFpMult = 0.0;
    double fracFpDiv = 0.0;
    double fracIntMult = 0.01;
    double fracIntDiv = 0.002;
    /// @}

    /** @name Branch behaviour (per static site) */
    /// @{
    /** Fraction of conditional sites that are strongly biased. */
    double easyBranchFrac = 0.6;
    /** Taken probability of strongly biased sites. */
    double easyBias = 0.97;
    /** Taken probability of weakly biased ("hard") sites. */
    double hardBias = 0.82;
    /** Fraction of conditional sites behaving like loop back-edges. */
    double loopBranchFrac = 0.2;
    /** Mean loop trip count for loop back-edges. */
    double loopMeanTrip = 24.0;
    /// @}

    /** @name Dependency structure (register dataflow) */
    /// @{
    /** Mean producer distance, in int writes, for int sources. */
    double intDepDistMean = 4.0;
    /** Mean producer distance, in fp writes, for fp sources. */
    double fpDepDistMean = 6.0;
    /// @}

    /** @name Memory locality */
    /// @{
    /** Probability a memory access reuses the hot (L1-resident) set. */
    double l1Reuse = 0.93;
    /** Probability of touching the warm (L2-resident) set otherwise. */
    double l2Reuse = 0.05;
    /** Hot working set size, in cache lines. */
    unsigned hotLines = 256;
    /** Warm working set size, in cache lines. */
    unsigned warmLines = 4096;
    /// @}

    /** @name Code shape */
    /// @{
    /** Number of basic blocks in the synthetic program. */
    unsigned codeBlocks = 512;
    /** Probability a jump target is near the current block. */
    double jumpLocality = 0.9;
    /** "Near" radius for local jumps, in blocks. */
    unsigned jumpRadius = 16;
    /** Every Nth block is a callable function entry. */
    unsigned funcEntryStride = 8;
    /// @}

    /** Base RNG seed (combined with the experiment seed). */
    std::uint64_t seed = 1;

    /** Sum of all class fractions except implicit intAlu. */
    double mixSum() const;

    /** Dynamic branch fraction (cond + uncond + call + ret). */
    double branchFrac() const
    {
        return fracCondBranch + fracUncondBranch + 2 * fracCall;
    }

    /** Sanity-check ranges; calls gals_fatal on nonsense. */
    void validate() const;
};

/** All profiles shipped with the library (SPEC95 int/fp + MediaBench). */
const std::vector<BenchmarkProfile> &allBenchmarks();

/** Look up a profile by name; fatal error if unknown. */
const BenchmarkProfile &findBenchmark(const std::string &name);

/** Names of the benchmarks in allBenchmarks() order. */
std::vector<std::string> benchmarkNames();

/** Subset helper: all benchmarks of one suite. */
std::vector<BenchmarkProfile> benchmarksInSuite(const std::string &suite);

} // namespace gals

#endif // WORKLOAD_PROFILE_HH
