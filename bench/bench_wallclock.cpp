/**
 * @file
 * Wall-clock harness for the parallel run-matrix executor: times the
 * same scheme x workload matrix serially (--jobs=1) and parallel
 * (--jobs=N, default all host cores) and checks the results are
 * bit-identical. The timings and verdicts go to stdout and to the run
 * report's environment block (REPORT_wallclock.json, or --report=FILE).
 *
 *   bench_wallclock [--refs=N] [--jobs=N] [--full] [--report=FILE]
 *
 * Default matrix: 3 schemes x 4 workloads (fast smoke at --refs=2000,
 * the tier-1 ctest quick_bench). --full runs the fig11 7-scheme matrix
 * over all 9 Table 3 workloads.
 *
 * After that reference pair, one serial pass with every observer on
 * (span attribution, streaming telemetry + an SLO monitor that never
 * fires, the WD provenance ledger + per-line wear counters, the
 * host-time self-profiler) guards the observability promise: every
 * metric of the serial pass stays bit-identical in it (the observers
 * observe, never perturb). Its time over the serial pass is printed,
 * not gated: one run's timings are too noisy to judge, and simbench's
 * obs.*_frac metrics price each observer.
 */

#include <chrono>
#include <iomanip>

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

namespace {

/**
 * Every metric of `base` must exist bit-identical in `super` (which may
 * add metrics — the span.* / telemetry.* / mon.* families). Proves the
 * observer only observes: any simulation perturbation shows up as a
 * changed counter.
 */
bool
subsetIdentical(const std::vector<SchemeResults>& base,
                const std::vector<SchemeResults>& super,
                const char* label)
{
    if (base.size() != super.size())
        return false;
    bool ok = true;
    for (std::size_t s = 0; s < base.size(); ++s) {
        for (const auto& [name, metrics] : base[s].byWorkload) {
            const auto it = super[s].byWorkload.find(name);
            if (it == super[s].byWorkload.end())
                return false;
            const auto base_snap = metrics.toSnapshot();
            const auto super_snap = it->second.toSnapshot();
            const auto& sup = super_snap.values();
            for (const auto& [metric, value] : base_snap.values()) {
                const auto mv = sup.find(metric);
                if (mv == sup.end() || mv->second != value) {
                    SDPCM_WARN(label, " run perturbed ",
                               base[s].scheme, "/", name, "/", metric);
                    ok = false;
                }
            }
        }
    }
    return ok;
}

/** One timed pass over the matrix. */
struct Pass
{
    const char* label; //!< stdout label
    RunnerConfig cfg;
    std::vector<SchemeResults> results = {};
    double seconds = 0.0;
};

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    const auto [cfg, out] = parseRunFlags(args, 2000);
    const bool full = args.has("full");
    args.finishParsing();

    std::vector<SchemeConfig> schemes;
    std::vector<WorkloadSpec> workloads;
    if (full) {
        schemes = {SchemeConfig::din8F2(),
                   SchemeConfig::baselineVnc(),
                   SchemeConfig::lazyC(),
                   SchemeConfig::lazyCPreRead(),
                   SchemeConfig::lazyCNm(NmRatio{2, 3}),
                   SchemeConfig::lazyCPreReadNm(NmRatio{2, 3}),
                   SchemeConfig::nmOnly(NmRatio{1, 2})};
        workloads = standardWorkloads();
    } else {
        schemes = {SchemeConfig::baselineVnc(),
                   SchemeConfig::lazyCPreRead(),
                   SchemeConfig::sdpcm()};
        workloads = {workloadFromProfile("mcf"),
                     workloadFromProfile("lbm"),
                     workloadFromProfile("gemsFDTD"),
                     workloadFromProfile("stream")};
    }
    const unsigned jobs = resolveJobs(cfg.jobs);
    banner("Wall-clock: serial vs parallel matrix", cfg);
    std::cout << schemes.size() << " schemes x " << workloads.size()
              << " workloads\n\n";

    // The harness owns the observability knobs: the reference pair runs
    // everything-off regardless of --spans, --telemetry-*, --wd-ledger,
    // or --profile flags. --profile in particular must not leak into
    // it: it would put nondeterministic host-clock prof.* metrics into
    // the reference snapshots and fail every identical/subset gate.
    RunnerConfig off = cfg;
    off.jobs = 1;
    off.spans = false;
    off.telemetry = TelemetryConfig{};
    off.wdLedger = false;
    off.profile = false;
    RunnerConfig parallel_cfg = off;
    parallel_cfg.jobs = jobs;
    // Every observer at once, serially: span attribution; registry
    // polling + windowed sketches + a monitor rule that never fires, so
    // the whole frame path runs (no stream file: no disk I/O); WD
    // provenance plus the per-line wear counters the wear.* metrics
    // need; and every PROF_SCOPE site of the profiler.
    RunnerConfig observed = off;
    observed.spans = true;
    observed.telemetry.intervalTicks = 100000;
    observed.telemetry.monitorRules =
        "p99r:p99(ctrl.readLatency)<=1000000000";
    observed.wdLedger = true;
    observed.lineCounters = true;
    observed.profile = true;
    Pass passes[] = {
        {"serial", off}, {"parallel", parallel_cfg}, {"observers", observed}};
    for (Pass& pass : passes) {
        const auto t0 = std::chrono::steady_clock::now();
        pass.results = runMatrix(schemes, workloads, pass.cfg);
        pass.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    }
    const auto& [serial, parallel, observers] = passes;

    // subsetIdentical warns about every metric that differs.
    const bool identical =
        subsetIdentical(serial.results, parallel.results, "parallel") &&
        subsetIdentical(parallel.results, serial.results, "serial");
    const bool observe_only =
        subsetIdentical(serial.results, observers.results, "observers");
    const double speedup =
        parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;
    const double overhead =
        serial.seconds > 0.0 ? observers.seconds / serial.seconds - 1.0
                             : 0.0;

    std::cout << std::left;
    for (const Pass& pass : passes) {
        std::cout << std::setw(9) << pass.label << ": "
                  << TablePrinter::fmt(pass.seconds, 3) << " s";
        if (&pass == &parallel)
            std::cout << "  (" << jobs << " jobs)";
        else if (&pass == &observers)
            std::cout << "  serial (" << TablePrinter::pct(overhead, 1)
                      << " overhead)";
        std::cout << "\n";
    }
    std::cout << std::setw(9) << "speedup" << ": "
              << TablePrinter::fmt(speedup, 2) << "x\n"
              << std::setw(9) << "identical" << ": "
              << (identical ? "yes" : "NO") << "\n"
              << "observers obs-only: " << (observe_only ? "yes" : "NO")
              << "\n";

    // The observers pass is the report's reference copy: every shared
    // metric bit-matches the everything-off serial run while the span.*,
    // telemetry.*, mon.*, wd.*, wear.* and prof.* families ride along,
    // so the regression gate sees the widest schema, and one finish()
    // writes its span, ledger and profile outputs. Its config (not the
    // raw cfg) produced those runs, so the report's host.profiler
    // provenance stays truthful. Wall-clock figures go into the
    // gate-ignored environment section.
    const int oracle_rc = finish(
        out, "bench_wallclock", observers.cfg, observers.results,
        "REPORT_wallclock.json",
        {{"serial_seconds", serial.seconds},
         {"parallel_seconds", parallel.seconds},
         {"observers_serial_seconds", observers.seconds},
         {"speedup", speedup},
         {"jobs", static_cast<double>(jobs)},
         {"identical", identical ? 1.0 : 0.0},
         {"observers_observe_only", observe_only ? 1.0 : 0.0}});
    if (!identical || !observe_only)
        return 1;
    return oracle_rc;
}
