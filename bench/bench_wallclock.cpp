/**
 * @file
 * Wall-clock harness for the parallel run-matrix executor: times the
 * same scheme x workload matrix serially (--jobs=1) and parallel
 * (--jobs=N, default all host cores), checks the results are
 * bit-identical, and writes BENCH_parallel.json so the perf trajectory
 * is tracked across PRs.
 *
 *   bench_wallclock [--refs=N] [--jobs=N] [--full] [--out=FILE]
 *
 * Default matrix: 3 schemes x 4 workloads (fast smoke at --refs=2000,
 * the tier-1 ctest quick_bench). --full runs the fig11 7-scheme matrix
 * over all 9 Table 3 workloads.
 *
 * After that reference pair, one serial pass per observer (a row of
 * the pass table: span attribution, streaming telemetry + SLO
 * monitors, the WD provenance ledger + per-line wear counters, the
 * host-time self-profiler) guards the observability promise: every
 * pre-existing metric stays bit-identical (each observer observes,
 * never perturbs). Each pass's time over the serial pass is printed,
 * not gated: one run's timings are too noisy to judge.
 */

#include <chrono>
#include <fstream>
#include <functional>
#include <iomanip>
#include <thread>

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
    const char* label; //!< stdout label, e.g. "spans-on"
    const char* key;   //!< JSON / report key stem, e.g. "spans"
    bool observer;     //!< gated observe-only against the serial pass
    /** Turns the everything-off serial config into this pass's. */
    std::function<void(RunnerConfig&)> apply;
    RunnerConfig cfg = {};
    std::vector<SchemeResults> results = {};
    double seconds = 0.0;
};

/** A figure of the BENCH json and the report environment. */
struct Figure
{
    std::string key;
    double value;
    bool flag = false; //!< written as true/false in the BENCH json
};

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    const auto [cfg, out] = parseRunFlags(args, 2000);
    const bool full = args.has("full");
    const std::string out_path =
        args.getString("out", "BENCH_parallel.json");
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

    // The harness owns the observability knobs: every pass starts from
    // the everything-off serial config regardless of --spans,
    // --telemetry-*, --wd-ledger, or --profile flags. --profile in
    // particular must not leak into the reference pair: it would put
    // nondeterministic host-clock prof.* metrics into the reference
    // snapshots, failing every identical/subset gate, and turn the
    // profiler overhead into a profiler-on vs profiler-on no-op.
    RunnerConfig off = cfg;
    off.jobs = 1;
    off.spans = false;
    off.telemetry = TelemetryConfig{};
    off.wdLedger = false;
    off.profile = false;
    // The serial/parallel reference pair, then one pass per observer.
    // Every observer pass must keep each metric of the serial pass
    // bit-identical (observe-only); its cost is its time over serial.
    std::vector<Pass> passes = {
        {"serial", "serial", false, [](RunnerConfig&) {}},
        {"parallel", "parallel", false,
         [jobs](RunnerConfig& c) { c.jobs = jobs; }},
        {"spans-on", "spans", true,
         [](RunnerConfig& c) { c.spans = true; }},
        // Registry polling + windowed sketches + a monitor rule that
        // never fires, so the whole frame path runs. No stream file:
        // this times the sampling machinery, not disk I/O.
        {"telem-on", "telemetry", true,
         [](RunnerConfig& c) {
             c.telemetry.intervalTicks = 100000;
             c.telemetry.monitorRules =
                 "p99r:p99(ctrl.readLatency)<=1000000000";
         }},
        // WD provenance plus per-line wear counters (the wear.* metrics
        // need them), so this also times the heatmap bookkeeping.
        {"ledger-on", "ledger", true,
         [](RunnerConfig& c) {
             c.wdLedger = true;
             c.lineCounters = true;
         }},
        // Arms every PROF_SCOPE site; its only observable work is
        // reading the host clock.
        {"prof-on", "profiler", true,
         [](RunnerConfig& c) { c.profile = true; }},
    };
    for (Pass& pass : passes) {
        pass.cfg = off;
        pass.apply(pass.cfg);
        const auto t0 = std::chrono::steady_clock::now();
        pass.results = runMatrix(schemes, workloads, pass.cfg);
        pass.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    }
    const Pass& serial = passes[0];
    const Pass& parallel = passes[1];
    const Pass& ledger = passes[4];

    // subsetIdentical warns about every metric that differs.
    const bool identical =
        subsetIdentical(serial.results, parallel.results, "parallel") &&
        subsetIdentical(parallel.results, serial.results, "serial");
    const double speedup =
        parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;

    // Seconds, speedup, then the bit-identity verdicts: stdout, the
    // BENCH json and the report's gate-ignored environment all list the
    // figures in this order.
    std::vector<Figure> figures;
    std::cout << std::left;
    for (const Pass& pass : passes) {
        figures.push_back({std::string(pass.key) +
                               (pass.observer ? "_serial_seconds"
                                              : "_seconds"),
                           pass.seconds});
        std::cout << std::setw(9) << pass.label << ": "
                  << TablePrinter::fmt(pass.seconds, 3) << " s";
        if (pass.observer) {
            const double overhead = serial.seconds > 0.0
                ? pass.seconds / serial.seconds - 1.0 : 0.0;
            std::cout << "  serial (" << TablePrinter::pct(overhead, 1)
                      << " overhead)";
        } else if (&pass == &parallel) {
            std::cout << "  (" << jobs << " jobs)";
        }
        std::cout << "\n";
    }
    figures.push_back({"speedup", speedup});
    figures.push_back({"identical", identical ? 1.0 : 0.0, true});
    std::cout << std::setw(9) << "speedup" << ": "
              << TablePrinter::fmt(speedup, 2) << "x\n"
              << std::setw(9) << "identical" << ": "
              << (identical ? "yes" : "NO") << "\n";
    bool all_clean = identical;
    for (const Pass& pass : passes) {
        if (!pass.observer)
            continue;
        const bool clean =
            subsetIdentical(serial.results, pass.results, pass.label);
        all_clean = all_clean && clean;
        figures.push_back({std::string(pass.key) + "_observe_only",
                           clean ? 1.0 : 0.0, true});
        std::cout << pass.key << " obs-only: " << (clean ? "yes" : "NO")
                  << "\n";
    }

    std::ofstream os(out_path);
    if (!os)
        SDPCM_FATAL("cannot open ", out_path);
    os << "{\n"
       << "  \"refs_per_core\": " << cfg.refsPerCore << ",\n"
       << "  \"cores\": " << cfg.cores << ",\n"
       << "  \"seed\": " << cfg.seed << ",\n"
       << "  \"schemes\": " << schemes.size() << ",\n"
       << "  \"workloads\": " << workloads.size() << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"host_cores\": " << std::thread::hardware_concurrency();
    std::vector<std::pair<std::string, double>> environment;
    for (const Figure& f : figures) {
        os << ",\n  \"" << f.key << "\": ";
        if (f.flag)
            os << (f.value ? "true" : "false");
        else
            os << f.value;
        environment.emplace_back(f.key, f.value);
    }
    os << "\n}\n";
    SDPCM_PROGRESS("written to ", out_path);

    for (const Pass* pass : {&passes[2], &passes[5]}) {
        writeObserverOutputs(out, pass->cfg, "bench_wallclock",
                             "bench_wallclock", perScheme(pass->results),
                             false);
    }
    // The ledger pass is the report's reference copy: every shared
    // metric bit-matches the everything-off serial run while the wd.* /
    // wear.* families ride along, so the regression gate sees the
    // widest schema. Its config (not the raw cfg) produced those runs,
    // so the report's host.profiler provenance stays truthful even when
    // --profile was passed. Wall-clock figures go into the gate-ignored
    // environment section.
    const int oracle_rc =
        finish(out, "bench_wallclock", ledger.cfg, ledger.results,
               "REPORT_wallclock.json", std::move(environment));
    if (!all_clean)
        return 1;
    return oracle_rc;
}
