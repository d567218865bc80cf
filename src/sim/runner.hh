/**
 * @file
 * Experiment harness shared by the bench binaries: run a set of schemes
 * over the Table 3 workloads and aggregate speedups the way the paper's
 * evaluation does (per-workload CPI ratios, geometric mean across
 * workloads).
 *
 * The matrix executor fans the fully independent (scheme, workload)
 * cells out across a thread pool (see sim/parallel.hh); results are
 * bit-identical to serial execution because every run is shared-nothing.
 */

#ifndef SDPCM_SIM_RUNNER_HH
#define SDPCM_SIM_RUNNER_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace sdpcm {

/**
 * Geometric mean of a series. Non-positive values cannot enter a
 * geometric mean; they are skipped with an SDPCM_WARN so a broken run
 * (zero CPI, failed cell) cannot silently inflate the aggregate.
 */
double geomean(const std::vector<double>& values);

/**
 * Common knobs for a batch of experiment runs: every RunOptions knob
 * of its runs (tracePath applies to single runs only; see RunOptions),
 * plus the batch's parallelism.
 */
struct RunnerConfig : RunOptions
{
    unsigned jobs = 0; //!< matrix-level parallelism (0 = all host cores)
};

/** Run one (scheme, workload) pair and return its metrics. */
RunMetrics runOne(const SchemeConfig& scheme, const WorkloadSpec& workload,
                  const RunnerConfig& cfg);

/** Results of a scheme across all workloads, keyed by workload name. */
struct SchemeResults
{
    std::string scheme;
    std::map<std::string, RunMetrics> byWorkload;

    const RunMetrics&
    at(const std::string& workload) const
    {
        return byWorkload.at(workload);
    }
};

/** One completed matrix cell, reported in deterministic matrix order. */
struct MatrixProgress
{
    std::size_t done = 0;  //!< cells reported so far (this one included)
    std::size_t total = 0; //!< schemes x workloads
    std::string scheme;
    std::string workload;
};

/**
 * Per-cell completion callback. Invocations are serialised under a lock
 * and delivered in matrix order (scheme-major, then workload) no matter
 * which worker finishes first, so progress output is deterministic.
 */
using MatrixProgressFn = std::function<void(const MatrixProgress&)>;

/**
 * Run every (scheme, workload) cell, fanned out over `cfg.jobs` workers
 * (0 = hardware concurrency; 1 = serial in matrix order). Results are
 * bit-identical across jobs values.
 */
std::vector<SchemeResults>
runMatrix(const std::vector<SchemeConfig>& schemes,
          const std::vector<WorkloadSpec>& workloads,
          const RunnerConfig& cfg,
          const MatrixProgressFn& on_cell_done = nullptr);

/** Run a scheme over a workload list (one-row matrix). */
SchemeResults runScheme(const SchemeConfig& scheme,
                        const std::vector<WorkloadSpec>& workloads,
                        const RunnerConfig& cfg);

/**
 * Per-workload speedups of `tech` relative to `base`
 * (CPI_base / CPI_tech), plus the geometric mean under key "gmean".
 */
std::map<std::string, double> speedups(const SchemeResults& base,
                                       const SchemeResults& tech);

} // namespace sdpcm

#endif // SDPCM_SIM_RUNNER_HH
