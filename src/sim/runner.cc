#include "sim/runner.hh"

#include <cmath>
#include <mutex>

#include "common/logging.hh"
#include "sim/parallel.hh"

namespace sdpcm {

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
    std::vector<RunMetrics> cells(total);

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
                workloads[w].name, std::move(cells[s * n_workloads + w]));
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
