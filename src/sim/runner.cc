#include "sim/runner.hh"

#include <cmath>
#include <mutex>
#include <stdexcept>

#include "common/args.hh"
#include "common/logging.hh"
#include "obs/monitor.hh"
#include "obs/profiler.hh"
#include "pcm/ecp.hh"
#include "sim/parallel.hh"

namespace sdpcm {

RunFlags
parseRunFlags(const ArgParser& args, std::uint64_t default_refs)
{
    if (args.getBool("quiet", false))
        setLogLevel(LogLevel::Warn);
    RunFlags flags;
    RunnerConfig& cfg = flags.config;
    RunOutputs& out = flags.outputs;
    cfg.refsPerCore =
        args.get<std::uint64_t>("refs", default_refs, kMinRefsPerCore);
    cfg.seed = args.get<std::uint64_t>("seed", 1);
    cfg.cores = args.get<unsigned>("cores", 8, kMinCores, kMaxCores);
    cfg.jobs = args.get<unsigned>("jobs", 0);
    cfg.verifyOracle = args.getBool("verify-oracle", false);
    try {
        cfg.faults = FaultSpec::parse(args.getString("inject", ""));
    } catch (const std::invalid_argument& e) {
        SDPCM_FATAL("bad --inject spec: ", e.what());
    }

    const auto observer = [&args](ObserverOutputs& o, const char* json,
                                  const char* folded, const char* top) {
        o.json = args.getPath(json);
        o.folded = folded ? args.getString(folded, "") : "";
        o.top = args.get<unsigned>(top, 0);
        return args.has(json) || !o.folded.empty() || o.top > 0;
    };
    cfg.spans = observer(out.spans, "spans", "spans-folded", "spans-top");
    cfg.wdLedger = observer(out.wdLedger, "wd-ledger", nullptr, "wd-top");
    cfg.profile =
        observer(out.profile, "profile", "profile-folded", "profile-top");
    cfg.profileSample = args.get<std::uint32_t>(
        "profile-sample", cfg.profileSample, 1, std::uint32_t{1} << 31);
    if (!validProfileSamplePeriod(cfg.profileSample)) {
        SDPCM_FATAL("--profile-sample must be a power of two >= 1, got ",
                    cfg.profileSample);
    }

    TelemetryConfig& tel = cfg.telemetry;
    tel.path = args.getString("telemetry", "");
    tel.promPath = args.getString("telemetry-prom", "");
    tel.monitorRules = args.getString("monitor", "");
    tel.watchdogTicks = args.get<Tick>("watchdog", 0);
    tel.windowFrames = args.get<unsigned>("telemetry-window", 8, 1,
                                          kMaxTelemetryWindowFrames);
    tel.intervalTicks = args.get<Tick>("telemetry-interval", 0);
    if (tel.intervalTicks == 0 &&
        (!tel.path.empty() || !tel.promPath.empty() ||
         !tel.monitorRules.empty() || tel.watchdogTicks > 0)) {
        // Any telemetry output without an explicit cadence turns
        // sampling on at a default frame interval (25us at 4GHz).
        tel.intervalTicks = 100000;
    }
    if (tel.watchdogTicks > 0 && tel.watchdogTicks < tel.intervalTicks) {
        // The watchdog checks once per frame, so a shorter window could
        // never see an intact window and would flag every gap.
        SDPCM_FATAL("--watchdog=", tel.watchdogTicks, " must be >= the "
                    "telemetry interval (", tel.intervalTicks, " ticks)");
    }
    try {
        // Fail fast on a malformed rule, before any simulation runs.
        MonitorRule::parseList(tel.monitorRules);
    } catch (const std::invalid_argument& e) {
        SDPCM_FATAL(e.what());
    }

    cfg.enduranceCellWrites = args.get<double>("endurance", 1e8, 1.0);
    if (args.has("report"))
        out.report = args.getString("report", "");
    return flags;
}

SchemeConfig
schemeFromArgs(const ArgParser& args)
{
    // --n/--m are read (and checked) for every scheme.
    const NmRatio ratio{args.get<unsigned>("n", 2),
                        args.get<unsigned>("m", 3)};
    if (!ratio.valid()) {
        SDPCM_FATAL("bad value for --n=", ratio.n, " --m=", ratio.m,
                    ": needs 1 <= n <= m <= ", kStripsPerBlock);
    }
    SchemeConfig scheme;
    try {
        scheme = SchemeConfig::byName(
            args.getString("scheme", "lazyc+preread"), ratio);
    } catch (const std::invalid_argument& e) {
        SDPCM_FATAL(e.what());
    }
    scheme.ecpEntries =
        args.get<unsigned>("ecp", scheme.ecpEntries, 0, kMaxEcpEntries);
    scheme.writeQueueEntries =
        args.get<unsigned>("wq", scheme.writeQueueEntries,
                           kMinWriteQueueEntries, kMaxWriteQueueEntries);
    scheme.writeCancellation =
        args.getBool("wc", scheme.writeCancellation);
    scheme.idleWriteDrain =
        args.getBool("idle-drain", scheme.idleWriteDrain);
    scheme.maxCancelsPerWrite =
        args.get<unsigned>("max-cancels", scheme.maxCancelsPerWrite, 0,
                           kMaxCancelsPerWrite);
    scheme.drainBurstWrites =
        args.get<unsigned>("drain-burst", scheme.drainBurstWrites);
    return scheme;
}

CliRun
parseCliRun(const ArgParser& args)
{
    CliRun run{parseRunFlags(args), schemeFromArgs(args),
               args.getString("workload", "mcf")};
    run.flags.config.aging.ageFraction =
        args.get<double>("age", 0.0, 0.0, kMaxAgeFraction);
    return run;
}

double
geomean(const std::vector<double>& values)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const double v : values) {
        if (v <= 0.0) {
            SDPCM_WARN("geomean: skipping non-positive value ", v,
                       " (", values.size(), " inputs); the aggregate "
                       "covers only the remaining values");
            continue;
        }
        log_sum += std::log(v);
        n += 1;
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

RunMetrics
runOne(const SchemeConfig& scheme, const WorkloadSpec& workload,
       const RunnerConfig& cfg)
{
    SystemConfig sc;
    static_cast<RunOptions&>(sc) = cfg;
    sc.scheme = scheme;
    System system(sc, workload);
    system.run();
    return system.metrics();
}

std::vector<SchemeResults>
runMatrix(const std::vector<SchemeConfig>& schemes,
          const std::vector<WorkloadSpec>& workloads,
          const RunnerConfig& cfg,
          const MatrixProgressFn& on_cell_done)
{
    RunnerConfig cell_cfg = cfg;
    if (!cell_cfg.tracePath.empty() || !cell_cfg.telemetry.path.empty() ||
        !cell_cfg.telemetry.promPath.empty()) {
        SDPCM_WARN("matrix runs ignore the trace and telemetry stream/prom "
                   "paths: concurrent cells would overwrite one file; use "
                   "runOne for them (monitor rules and the watchdog still "
                   "run per cell)");
        cell_cfg.tracePath.clear();
        cell_cfg.telemetry.path.clear();
        cell_cfg.telemetry.promPath.clear();
    }

    const std::size_t n_workloads = workloads.size();
    const std::size_t total = schemes.size() * n_workloads;
    // Each cell's metrics are built once, when the cell has run.
    std::vector<std::optional<RunMetrics>> cells(total);

    // Deterministic-ordered progress: completions are recorded under the
    // lock and flushed in matrix order, so the report stream is identical
    // for any jobs value (a cell is announced only after all earlier
    // cells have been).
    std::mutex progress_mutex;
    std::vector<char> cell_done(total, 0);
    std::size_t next_to_report = 0;

    parallelFor(cfg.jobs, total, [&](std::size_t idx) {
        const std::size_t s = idx / n_workloads;
        const std::size_t w = idx % n_workloads;
        cells[idx] = runOne(schemes[s], workloads[w], cell_cfg);
        if (!on_cell_done)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        cell_done[idx] = 1;
        while (next_to_report < total && cell_done[next_to_report]) {
            const std::size_t rs = next_to_report / n_workloads;
            const std::size_t rw = next_to_report % n_workloads;
            next_to_report += 1;
            MatrixProgress p;
            p.done = next_to_report;
            p.total = total;
            p.scheme = schemes[rs].name;
            p.workload = workloads[rw].name;
            on_cell_done(p);
        }
    });

    std::vector<SchemeResults> results(schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        results[s].scheme = schemes[s].name;
        for (std::size_t w = 0; w < n_workloads; ++w) {
            results[s].byWorkload.emplace(
                workloads[w].name, std::move(*cells[s * n_workloads + w]));
        }
    }
    return results;
}

SchemeResults
runScheme(const SchemeConfig& scheme,
          const std::vector<WorkloadSpec>& workloads,
          const RunnerConfig& cfg)
{
    return runMatrix({scheme}, workloads, cfg).front();
}

std::map<std::string, double>
speedups(const SchemeResults& base, const SchemeResults& tech)
{
    std::map<std::string, double> out;
    std::vector<double> all;
    for (const auto& [name, base_metrics] : base.byWorkload) {
        const auto it = tech.byWorkload.find(name);
        if (it == tech.byWorkload.end())
            continue;
        const double s = it->second.meanCpi > 0.0
            ? base_metrics.meanCpi / it->second.meanCpi : 0.0;
        out[name] = s;
        all.push_back(s);
    }
    out["gmean"] = geomean(all);
    return out;
}

} // namespace sdpcm
