/**
 * @file
 * Experiment harness shared by the bench binaries: run a set of schemes
 * over the Table 3 workloads and aggregate speedups the way the paper's
 * evaluation does (per-workload CPI ratios, geometric mean across
 * workloads).
 *
 * The matrix executor fans the fully independent (scheme, workload)
 * cells out across threads (see sim/parallel.hh); results are
 * bit-identical to serial execution because every run is shared-nothing.
 */

#ifndef SDPCM_SIM_RUNNER_HH
#define SDPCM_SIM_RUNNER_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace sdpcm {

class ArgParser;

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

/**
 * Knob bounds beyond the knobs' types, checked by the flag parsers only
 * (with NmRatio::valid for 1 <= n <= m).
 */
inline constexpr unsigned kMinCores = 1;
/** Each core is an event target with its own MMU and trace stream;
 *  nothing in the repository runs more than 8. */
inline constexpr unsigned kMaxCores = 64;
inline constexpr std::uint64_t kMinRefsPerCore = 1;
inline constexpr unsigned kMinWriteQueueEntries = 1;
// kMaxWriteQueueEntries (controller/scheme.hh) bounds the write queue,
// kMaxEcpEntries (pcm/ecp.hh) the ECP entries per line.
inline constexpr double kMaxAgeFraction = 1.0; //!< age is in [0, this]
/** Each latency signal keeps one quantile sketch (about 7.8 KB) per
 *  window frame and merges them all every frame: 1024 frames are 16 MB
 *  over the two latency signals. The default is 8; no bench sets it. */
inline constexpr unsigned kMaxTelemetryWindowFrames = 1024;

/** One observer's outputs: files ("" = none), stderr table (0 = none). */
struct ObserverOutputs
{
    std::string json;   //!< --X[=FILE]
    std::string folded; //!< --X-folded=FILE
    unsigned top = 0;   //!< --X-top=N
};

/** Where a finished run's outputs go. */
struct RunOutputs
{
    ObserverOutputs spans;
    ObserverOutputs wdLedger;
    ObserverOutputs profile;
    /** --report=FILE; "" writes none, unset keeps the binary's default. */
    std::optional<std::string> report;
};

/** The shared run flags of one command line. */
struct RunFlags
{
    RunnerConfig config;
    RunOutputs outputs;
};

/**
 * Parse the run flags sdpcm_cli and the benches share (listed in
 * bench/bench_common.hh), fatal on any bad value. A bare --spans,
 * --wd-ledger or --profile turns its observer on with no file, and any
 * output an observer's flags ask for (a FILE, N > 0) turns it on.
 * --quiet lowers the log level on the spot.
 */
RunFlags parseRunFlags(const ArgParser& args,
                       std::uint64_t default_refs = 10000);

/**
 * sdpcm_cli's scheme: SchemeConfig::byName(--scheme, {--n, --m}), then
 * the --ecp --wq --wc --idle-drain --max-cancels --drain-burst knobs.
 */
SchemeConfig schemeFromArgs(const ArgParser& args);

/** One sdpcm_cli run as its flags give it. */
struct CliRun
{
    RunFlags flags;
    SchemeConfig scheme;
    std::string workload; //!< --workload (default mcf; "all" = matrix)
};

/**
 * The flags of one sdpcm_cli run: parseRunFlags, schemeFromArgs,
 * --workload and --age (into flags.config.aging), fatal on any bad
 * value. The scenario fuzzer parses FuzzScenario::args() through this
 * too, so the repro line it prints is the run it made.
 */
CliRun parseCliRun(const ArgParser& args);

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
