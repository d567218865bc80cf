/**
 * @file
 * Shared plumbing for the experiment bench binaries: argument handling,
 * progress reporting and the run-matrix helper.
 *
 * Every bench accepts the shared run flags (parseRunFlags in
 * sim/runner.hh, the same parser sdpcm_cli uses, so each flag means the
 * same in every binary):
 *   --refs=N   memory references per core (default 10000; the paper uses
 *              10M — raise this for tighter statistics)
 *   --seed=N   RNG seed
 *   --cores=N  cores (default 8, per Table 2)
 *   --jobs=N   concurrent (scheme, workload) runs (default: all host
 *              cores; results are bit-identical for any value)
 *   --report=FILE  write a machine-readable run report (obs/report.hh)
 *              of every (scheme, workload) cell. Benches with a
 *              default REPORT_<bench>.json path write it unless
 *              --report= (empty) disables it; the others write a report
 *              only when given a FILE.
 *   --verify-oracle  run the shadow-memory integrity oracle on every
 *              cell (verify/oracle.hh); the bench exits 1 if any cell
 *              saw a mismatch.
 *   --inject=SPEC  deterministic fault injection, e.g.
 *              --inject=stuck=0.5,ecp=2,wd=0.01,seed=3
 *              (verify/faultinject.hh).
 *   --spans[=FILE]  per-request span attribution on every cell
 *              (obs/spans.hh); span.* metrics land in the report and the
 *              optional FILE gets the per-cell span blame JSON.
 *   --spans-folded=FILE  write the collapsed-stack blame of every cell
 *              (flamegraph format; implies --spans).
 *   --spans-top=N  print each scheme's top-N phases by critical cycles
 *              to stderr (implies --spans).
 *   --telemetry-interval=N  streaming telemetry: poll the metric
 *              registry every N ticks on every cell (obs/telemetry.hh);
 *              telemetry.* metrics land in the report.
 *   --monitor=RULES  ';'-separated SLO monitor rules (obs/monitor.hh
 *              grammar); breach counts land in the report as mon.*
 *              metrics. Implies a default --telemetry-interval.
 *   --watchdog=N  flag a stall when no request retires for N ticks
 *              while work is pending. Implies --telemetry-interval.
 *   --telemetry=FILE / --telemetry-prom=FILE  stream JSONL frames /
 *              dump Prometheus text exposition — single runs only;
 *              matrix benches drop the paths with a warning (rules and
 *              the watchdog still run per cell).
 *   --profile[=FILE]  host-time self-profiler on every cell
 *              (obs/profiler.hh); prof.* metrics land in the report and
 *              the optional FILE gets the merged profile JSON.
 *   --profile-top=N  print each scheme's top-N host phases by exclusive
 *              wall-clock to stderr (implies --profile).
 *   --profile-folded=FILE  write the merged profile as collapsed stacks
 *              (flamegraph format; implies --profile).
 *   --profile-sample=N  time 1 of every N root scope trees (power of
 *              two, default 64; 1 = exact).
 *   --wd-ledger[=FILE]  disturbance-provenance ledger on every cell
 *              (obs/ledger.hh); wd.* metrics land in the report and the
 *              optional FILE gets the aggregated per-scheme JSON export.
 *   --wd-top=N  print each scheme's top-N aggressor lines by victim
 *              flips to stderr (implies --wd-ledger).
 *   --endurance=F  per-cell write endurance used for the projected
 *              lifetime estimate (default 1e8, at least 1).
 *   --quiet    silence banner and progress lines (LogLevel::Warn).
 *              Monitor breach and watchdog warnings still print.
 *
 * Every number is range-checked when the flags are parsed, and a bare
 * value flag (`--report`) is a usage error rather than a file named 1.
 * Every bench ends with `return finish(...)`, which writes all of the
 * outputs above and returns the oracle verdict as the exit code.
 */

#ifndef SDPCM_BENCH_COMMON_HH
#define SDPCM_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "sim/parallel.hh"
#include "sim/runner.hh"

namespace sdpcm {
namespace bench {

inline void
banner(const std::string& title, const RunnerConfig& cfg)
{
    if (!logEnabled(LogLevel::Info))
        return;
    std::cout << "=== " << title << " ===\n"
              << cfg.cores << " cores x " << cfg.refsPerCore
              << " memory references per core (use --refs=N to scale; "
                 "the paper used 10M), "
              << resolveJobs(cfg.jobs)
              << " parallel runs (--jobs=N)\n";
    if (cfg.verifyOracle)
        std::cout << "shadow-memory oracle ON (--verify-oracle)\n";
    if (cfg.faults.any())
        std::cout << "fault injection: " << cfg.faults.describe() << "\n";
    if (cfg.telemetry.enabled()) {
        std::cout << "telemetry every " << cfg.telemetry.intervalTicks
                  << " ticks";
        if (!cfg.telemetry.monitorRules.empty())
            std::cout << ", monitors: " << cfg.telemetry.monitorRules;
        if (cfg.telemetry.watchdogTicks > 0) {
            std::cout << ", watchdog " << cfg.telemetry.watchdogTicks
                      << " ticks";
        }
        std::cout << "\n";
    }
    std::cout << "\n";
}

/**
 * The bench prologue: parse the shared flags, reject unknown ones and
 * print the banner. Pairs with finish().
 */
inline RunFlags
start(const ArgParser& args, const std::string& title,
      std::uint64_t default_refs = 10000)
{
    const RunFlags flags = parseRunFlags(args, default_refs);
    args.finishParsing();
    banner(title, flags.config);
    return flags;
}

/**
 * When --verify-oracle was on, report per-cell mismatch totals and
 * return the process exit code (1 on any mismatch, else 0). With the
 * oracle off this is a silent no-op returning 0 (finish() returns it).
 */
inline int
checkOracle(const RunnerConfig& cfg,
            const std::vector<SchemeResults>& results)
{
    if (!cfg.verifyOracle)
        return 0;
    std::uint64_t total = 0;
    for (const SchemeResults& scheme : results) {
        for (const auto& [name, metrics] : scheme.byWorkload) {
            if (metrics.oracle.mismatches == 0)
                continue;
            total += metrics.oracle.mismatches;
            std::cout << "oracle MISMATCH: " << scheme.scheme << " / "
                      << name << ": " << metrics.oracle.mismatches
                      << " mismatch(es)\n";
        }
    }
    if (total == 0) {
        std::cout << "oracle: all cells clean\n";
        return 0;
    }
    std::cout << "oracle: " << total << " mismatch(es) total\n";
    return 1;
}

/**
 * Run several schemes over the standard workloads, fanned out across
 * `cfg.jobs` workers. Per-cell completion lines land on stderr in
 * deterministic matrix order regardless of which run finishes first
 * (each line is printed whole under the executor's progress lock, so
 * lines never interleave), followed by a one-line wall-clock summary.
 */
inline std::vector<SchemeResults>
runMatrix(const std::vector<SchemeConfig>& schemes,
          const RunnerConfig& cfg,
          const std::vector<WorkloadSpec>& workloads = standardWorkloads())
{
    const auto t0 = std::chrono::steady_clock::now();
    // Progress lines go through the logging choke point so --quiet
    // silences them without touching breach/stall warnings.
    auto results = sdpcm::runMatrix(
        schemes, workloads, cfg, [](const MatrixProgress& p) {
            if (!logEnabled(LogLevel::Info))
                return;
            std::fprintf(stderr, "[%3zu/%3zu] %-24s %s\n", p.done,
                         p.total, p.scheme.c_str(), p.workload.c_str());
        });
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    if (logEnabled(LogLevel::Info)) {
        std::fprintf(stderr,
                     "matrix done: %zu runs, %u jobs, %.2fs wall-clock\n",
                     schemes.size() * workloads.size(),
                     resolveJobs(cfg.jobs), seconds);
    }
    return results;
}

/** One output group per scheme of a finished matrix. */
inline std::vector<OutputGroup>
perScheme(const std::vector<SchemeResults>& results)
{
    std::vector<OutputGroup> groups;
    for (const SchemeResults& scheme : results) {
        groups.push_back({scheme.scheme, scheme.scheme, {}});
        for (const auto& [name, metrics] : scheme.byWorkload)
            groups.back().runs.push_back(&metrics);
    }
    return groups;
}

/**
 * Write every output of a finished bench and return its exit code: the
 * span, ledger and profile outputs (writeObserverOutputs, one group per
 * scheme); the run report (--report=FILE, else `default_report`; ""
 * writes none) with one run per cell, the optional `environment` pairs
 * carrying machine-varying extras (wall-clock seconds) the regression
 * gate ignores; and the oracle verdict.
 */
inline int
finish(const RunOutputs& out, const std::string& bench_name,
       const RunnerConfig& cfg, const std::vector<SchemeResults>& results,
       const std::string& default_report = "",
       std::vector<std::pair<std::string, double>> environment = {})
{
    const std::vector<OutputGroup> groups = perScheme(results);
    writeObserverOutputs(out, cfg, bench_name, bench_name, groups, false);
    const std::string report_path = out.report.value_or(default_report);
    if (!report_path.empty()) {
        RunReport report;
        report.bench = bench_name;
        report.config = cfg;
        report.environment = std::move(environment);
        for (const OutputGroup& group : groups) {
            for (const RunMetrics* metrics : group.runs)
                report.addRun(*metrics);
        }
        writeOutputFile(report_path, "report",
                        [&](std::ostream& os) { report.write(os); });
    }
    return checkOracle(cfg, results);
}

/** Workload-name column order: Table 3 order plus the aggregate. */
inline std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto& w : standardWorkloads())
        names.push_back(w.name);
    return names;
}

/** A column a speedup table adds after its schemes: the header and
 *  each workload's cell ("-" on the gmean row). */
struct ExtraColumn
{
    std::string header;
    std::function<std::string(const std::string& workload)> cell;
};

/**
 * The figure benches' speedup table: one column per entry of `columns`,
 * headed by `headers` (the scheme names when empty), with one row per
 * Table 3 workload of `ref`'s CPI over the column's and a last row of
 * the speedups() gmean; then the `extra` column, when it has a cell.
 * Returned unprinted, so a bench can add rows.
 */
inline TablePrinter
speedupTable(const SchemeResults& ref,
             std::span<const SchemeResults> columns,
             std::vector<std::string> headers = {},
             const ExtraColumn& extra = {})
{
    if (headers.empty()) {
        for (const SchemeResults& c : columns)
            headers.push_back(c.scheme);
    }
    headers.insert(headers.begin(), "workload");
    if (extra.cell)
        headers.push_back(extra.header);
    TablePrinter t(headers);
    for (const std::string& name : workloadNames()) {
        std::vector<std::string> row = {name};
        for (const SchemeResults& c : columns) {
            row.push_back(TablePrinter::fmt(
                ref.at(name).meanCpi / c.at(name).meanCpi, 3));
        }
        if (extra.cell)
            row.push_back(extra.cell(name));
        t.addRow(row);
    }
    std::vector<std::string> gmean = {"gmean"};
    for (const SchemeResults& c : columns)
        gmean.push_back(TablePrinter::fmt(speedups(ref, c).at("gmean"), 3));
    if (extra.cell)
        gmean.push_back("-");
    t.addRow(gmean);
    return t;
}

} // namespace bench
} // namespace sdpcm

#endif // SDPCM_BENCH_COMMON_HH
