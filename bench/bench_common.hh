/**
 * @file
 * Shared plumbing for the experiment bench binaries: argument handling,
 * progress reporting and the run-matrix helper.
 *
 * Every bench accepts:
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
 *   --spans    per-request span attribution on every cell (obs/spans.hh);
 *              span.* metrics land in the report.
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
 *              lifetime estimate (default 1e8).
 *   --quiet    silence banner and progress lines (LogLevel::Warn).
 *              Monitor breach and watchdog warnings still print.
 *
 * Every bench ends with `return finish(...)`, which writes all of the
 * outputs above and returns the oracle verdict as the exit code.
 */

#ifndef SDPCM_BENCH_COMMON_HH
#define SDPCM_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
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

inline RunnerConfig
configFromArgs(const ArgParser& args, std::int64_t default_refs = 10000)
{
    if (args.getBool("quiet", false))
        setLogLevel(LogLevel::Warn);
    RunnerConfig cfg;
    cfg.refsPerCore =
        static_cast<std::uint64_t>(args.getInt("refs", default_refs));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    cfg.cores = static_cast<unsigned>(args.getInt("cores", 8));
    cfg.jobs = static_cast<unsigned>(args.getInt("jobs", 0));
    cfg.verifyOracle = args.getBool("verify-oracle", false);
    cfg.spans = args.getBool("spans", false) ||
                args.has("spans-folded") || args.has("spans-top");
    if (args.has("inject")) {
        // FaultSpec::parse throws on malformed specs; turn that into a
        // fatal diagnostic instead of an uncaught-exception terminate.
        try {
            cfg.faults = FaultSpec::parse(args.getString("inject", ""));
        } catch (const std::invalid_argument& e) {
            SDPCM_FATAL("bad --inject spec: ", e.what());
        }
    }
    cfg.telemetry = telemetryFromArgs(args);
    cfg.wdLedger = args.has("wd-ledger") || args.has("wd-top");
    cfg.profile = args.has("profile") || args.has("profile-top") ||
                  args.has("profile-folded");
    const std::int64_t prof_sample = args.getInt(
        "profile-sample", static_cast<std::int64_t>(cfg.profileSample));
    if (!validProfileSamplePeriod(prof_sample)) {
        SDPCM_FATAL("--profile-sample must be a power of two >= 1, got ",
                    prof_sample);
    }
    cfg.profileSample = static_cast<std::uint32_t>(prof_sample);
    cfg.enduranceCellWrites = args.getDouble("endurance", 1e8);
    // finish() reads these after the run; check them now so a bad value
    // is a usage error before any simulation runs, and so
    // finishParsing() before the run accepts them.
    for (const char* top : {"spans-top", "wd-top", "profile-top"})
        args.getInt(top, 0, 0, std::numeric_limits<unsigned>::max());
    for (const char* out : {"report", "spans-folded", "wd-ledger",
                            "profile", "profile-folded"})
        (void)args.has(out);
    return cfg;
}

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
inline RunnerConfig
start(const ArgParser& args, const std::string& title,
      std::int64_t default_refs = 10000)
{
    const RunnerConfig cfg = configFromArgs(args, default_refs);
    args.finishParsing();
    banner(title, cfg);
    return cfg;
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

/**
 * Each scheme's `field` summary merged over its workloads, in matrix
 * order (so a merged profile tree is identical for any --jobs value).
 */
template <typename Summary>
inline std::vector<Summary>
mergedPerScheme(const std::vector<SchemeResults>& results,
                Summary RunMetrics::*field)
{
    std::vector<Summary> merged(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        for (const auto& [name, metrics] : results[i].byWorkload) {
            (void)name;
            merged[i].merge(metrics.*field);
        }
    }
    return merged;
}

/**
 * Span-attribution outputs for a finished matrix: each scheme's top-N
 * blame table on stderr for --spans-top=N, and the collapsed stacks of
 * every scheme to --spans-folded=FILE (one file — flamegraph tooling
 * sums identical frames). No-op when spans were off.
 */
inline void
maybeWriteSpans(const ArgParser& args, const RunnerConfig& cfg,
                const std::vector<SchemeResults>& results)
{
    if (!cfg.spans)
        return;
    const auto merged = mergedPerScheme(results, &RunMetrics::spans);
    const auto top_n = static_cast<unsigned>(args.getInt("spans-top", 0));
    for (std::size_t i = 0; top_n > 0 && i < results.size(); ++i)
        printSpanTop(std::cerr, results[i].scheme, merged[i], top_n);
    writeOutputFile(args.getString("spans-folded", ""), "folded stacks",
                    [&](std::ostream& os) {
                        for (std::size_t i = 0; i < results.size(); ++i)
                            writeFoldedStacks(os, results[i].scheme,
                                              merged[i]);
                    });
}

/**
 * Host-profile outputs for a finished matrix: per-scheme top-N blame
 * tables on stderr for --profile-top=N, collapsed stacks (one file, all
 * schemes) to --profile-folded=FILE, and the whole-matrix merged profile
 * JSON to --profile=FILE (prof.* metrics still land in the report).
 * No-op when profiling was off.
 */
inline void
maybeWriteProfile(const ArgParser& args, const std::string& bench_name,
                  const RunnerConfig& cfg,
                  const std::vector<SchemeResults>& results)
{
    if (!cfg.profile)
        return;
    const auto merged = mergedPerScheme(results, &RunMetrics::prof);
    const auto top_n =
        static_cast<unsigned>(args.getInt("profile-top", 0));
    ProfSummary all;
    for (std::size_t i = 0; i < results.size(); ++i) {
        all.merge(merged[i]);
        if (top_n > 0)
            printProfileTop(std::cerr, results[i].scheme, merged[i], top_n);
    }
    writeOutputFile(args.getString("profile-folded", ""),
                    "profile folded stacks", [&](std::ostream& os) {
                        for (std::size_t i = 0; i < results.size(); ++i)
                            writeProfileFolded(os, results[i].scheme,
                                               merged[i]);
                    });
    writeOutputFile(args.getPath("profile"), "profile",
                    [&](std::ostream& os) {
                        writeProfileJson(os, bench_name, all);
                    });
}

/**
 * Write every output of a finished bench and return its exit code:
 * span and profile outputs; per-scheme top-N aggressor tables on stderr
 * for --wd-top=N and the per-scheme ledger JSON to --wd-ledger=FILE;
 * the run report (--report=FILE, else `default_report`; "" writes none)
 * with one run per cell, the optional `environment` pairs carrying
 * machine-varying extras (wall-clock seconds) the regression gate
 * ignores; and the oracle verdict.
 */
inline int
finish(const ArgParser& args, const std::string& bench_name,
       const RunnerConfig& cfg, const std::vector<SchemeResults>& results,
       const std::string& default_report = "",
       std::vector<std::pair<std::string, double>> environment = {})
{
    maybeWriteSpans(args, cfg, results);
    maybeWriteProfile(args, bench_name, cfg, results);
    if (cfg.wdLedger) {
        const auto merged = mergedPerScheme(results, &RunMetrics::wd);
        const auto top_n = static_cast<unsigned>(args.getInt("wd-top", 0));
        std::vector<WdLedgerEntry> entries;
        for (std::size_t i = 0; i < results.size(); ++i) {
            entries.push_back({results[i].scheme, "all", &merged[i]});
            if (top_n > 0)
                printWdTop(std::cerr, results[i].scheme, merged[i], top_n);
        }
        writeOutputFile(args.getPath("wd-ledger"), "wd ledger",
                        [&](std::ostream& os) {
                            writeWdLedgerJson(os, bench_name, entries);
                        });
    }
    const std::string report_path = args.getString("report", default_report);
    if (!report_path.empty()) {
        RunReport report;
        report.bench = bench_name;
        report.config = cfg;
        report.environment = std::move(environment);
        for (const SchemeResults& scheme : results) {
            for (const auto& [name, metrics] : scheme.byWorkload) {
                (void)name;
                report.addRun(metrics);
            }
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

} // namespace bench
} // namespace sdpcm

#endif // SDPCM_BENCH_COMMON_HH
