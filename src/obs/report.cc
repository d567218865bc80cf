#include "obs/report.hh"

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"

namespace sdpcm {

void
RunReport::addRun(const RunMetrics& metrics)
{
    ReportRun run;
    run.scheme = metrics.scheme;
    run.workload = metrics.workload;
    run.stats = metrics.toSnapshot();
    runs.push_back(std::move(run));
}

void
RunReport::write(std::ostream& os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema_version",
         static_cast<std::uint64_t>(kReportSchemaVersion));
    w.kv("kind", "sdpcm_run_report");
    w.kv("bench", bench);

    w.key("build").beginObject();
    w.kv("compiler", __VERSION__);
    w.kv("cxx_standard", static_cast<std::uint64_t>(__cplusplus));
#ifdef NDEBUG
    w.kv("assertions", false);
#else
    w.kv("assertions", true);
#endif
    w.endObject();

    // Host/build provenance (additive, schema v2 unchanged): everything
    // here varies by machine or toolchain, so the regression gate treats
    // host.* as informational and never fails on it (see diffReports).
    w.key("host").beginObject();
#if defined(__clang__)
    w.kv("compiler_id", "clang");
#elif defined(__GNUC__)
    w.kv("compiler_id", "gcc");
#else
    w.kv("compiler_id", "unknown");
#endif
    w.kv("compiler_version", __VERSION__);
#ifdef NDEBUG
    w.kv("build_type", "release");
#else
    w.kv("build_type", "debug");
#endif
#ifdef SDPCM_WERROR_BUILD
    w.kv("werror", true);
#else
    w.kv("werror", false);
#endif
    w.kv("hardware_concurrency",
         static_cast<std::uint64_t>(
             std::thread::hardware_concurrency()));
    w.kv("profiler", config.profile);
    w.endObject();

    w.key("config").beginObject();
    w.kv("refs_per_core", config.refsPerCore);
    w.kv("seed", config.seed);
    w.kv("cores", static_cast<std::uint64_t>(config.cores));
    w.kv("jobs", static_cast<std::uint64_t>(config.jobs));
    w.kv("age_fraction", config.aging.ageFraction);
    w.endObject();

    w.key("runs").beginArray();
    for (const ReportRun& run : runs) {
        w.beginObject();
        w.kv("scheme", run.scheme);
        w.kv("workload", run.workload);
        w.key("stats").beginObject();
        for (const auto& [name, value] : run.stats.values())
            w.kv(name, value);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("environment").beginObject();
    for (const auto& [name, value] : environment)
        w.kv(name, value);
    w.endObject();

    w.endObject();
}

void
writeOutputFile(const std::string& path, const std::string& what,
                const std::function<void(std::ostream&)>& write)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        SDPCM_FATAL("cannot open ", what, " file: ", path);
    write(os);
    os.flush();
    if (!os)
        SDPCM_FATAL("error writing ", what, " file: ", path);
    SDPCM_PROGRESS(what, " written to ", path);
}

namespace {

template <typename Summary>
std::vector<Summary>
mergedPerGroup(const std::vector<OutputGroup>& groups,
               Summary RunMetrics::*field)
{
    std::vector<Summary> merged(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
        for (const RunMetrics* m : groups[i].runs)
            merged[i].merge(m->*field);
    }
    return merged;
}

} // namespace

void
writeObserverOutputs(const RunOutputs& out, const RunOptions& cfg,
                     const std::string& tool, const std::string& title,
                     const std::vector<OutputGroup>& groups,
                     bool ledger_per_run)
{
    // Each group's collapsed stacks (one file) and top-N table.
    const auto per_group = [&groups](const ObserverOutputs& o,
                                     const char* what, const auto& merged,
                                     auto fold, auto top) {
        writeOutputFile(o.folded, what, [&](std::ostream& os) {
            for (std::size_t i = 0; i < groups.size(); ++i)
                fold(os, groups[i].stack, merged[i]);
        });
        for (std::size_t i = 0; o.top > 0 && i < groups.size(); ++i)
            top(std::cerr, groups[i].label, merged[i], o.top);
    };
    if (cfg.spans) {
        const auto merged = mergedPerGroup(groups, &RunMetrics::spans);
        std::vector<SpanBlameEntry> entries;
        for (const OutputGroup& g : groups) {
            for (const RunMetrics* m : g.runs)
                entries.push_back({m->scheme, m->workload, &m->spans});
        }
        writeOutputFile(out.spans.json, "span blame", [&](std::ostream& os) {
            writeSpanBlameJson(os, tool, entries);
        });
        per_group(out.spans, "folded stacks", merged, writeFoldedStacks,
                  printSpanTop);
    }
    if (cfg.wdLedger) {
        const auto merged = mergedPerGroup(groups, &RunMetrics::wd);
        std::vector<WdLedgerEntry> entries;
        for (std::size_t i = 0; i < groups.size(); ++i) {
            if (!ledger_per_run) {
                entries.push_back({groups[i].stack, "all", &merged[i]});
                continue;
            }
            for (const RunMetrics* m : groups[i].runs)
                entries.push_back({m->scheme, m->workload, &m->wd});
        }
        writeOutputFile(out.wdLedger.json, "wd ledger",
                        [&](std::ostream& os) {
                            writeWdLedgerJson(os, tool, entries);
                        });
        // The ledger has no collapsed stacks: only its top-N tables.
        per_group(out.wdLedger, "", merged, [](auto&&...) {}, printWdTop);
    }
    if (cfg.profile) {
        const auto merged = mergedPerGroup(groups, &RunMetrics::prof);
        ProfSummary all;
        for (const ProfSummary& p : merged)
            all.merge(p);
        writeOutputFile(out.profile.json, "profile", [&](std::ostream& os) {
            writeProfileJson(os, title, all);
        });
        per_group(out.profile, "profile folded stacks", merged,
                  writeProfileFolded, printProfileTop);
    }
}

namespace {

double
numberAt(const JsonValue& obj, const std::string& key)
{
    const JsonValue& v = obj.at(key);
    if (v.type != JsonValue::Type::Number)
        throw std::runtime_error("report field '" + key +
                                 "' is not a number");
    return v.number;
}

std::string
stringAt(const JsonValue& obj, const std::string& key)
{
    const JsonValue& v = obj.at(key);
    if (v.type != JsonValue::Type::String)
        throw std::runtime_error("report field '" + key +
                                 "' is not a string");
    return v.str;
}

/** Stringify a scalar host.* value; containers are rejected. */
std::string
scalarToString(const std::string& key, const JsonValue& v)
{
    switch (v.type) {
      case JsonValue::Type::String:
        return v.str;
      case JsonValue::Type::Bool:
        return v.boolean ? "true" : "false";
      case JsonValue::Type::Number: {
        std::ostringstream os;
        os.precision(17);
        os << v.number;
        return os.str();
      }
      default:
        throw std::runtime_error("host field '" + key +
                                 "' is not a scalar");
    }
}

} // namespace

ParsedReport
parseReport(std::string_view text)
{
    const JsonValue doc = parseJson(text);
    if (!doc.isObject())
        throw std::runtime_error("report is not a JSON object");
    if (!doc.has("kind") || stringAt(doc, "kind") != "sdpcm_run_report")
        throw std::runtime_error(
            "not an sdpcm run report (missing/unexpected 'kind')");

    ParsedReport report;
    report.schemaVersion =
        static_cast<int>(numberAt(doc, "schema_version"));
    report.bench = doc.has("bench") ? stringAt(doc, "bench") : "";

    // Optional: reports predating the host block parse to an empty map.
    if (doc.has("host")) {
        if (!doc.at("host").isObject())
            throw std::runtime_error("report 'host' is not an object");
        for (const auto& [name, value] : doc.at("host").object)
            report.host.emplace(name, scalarToString(name, value));
    }

    if (!doc.has("runs") || !doc.at("runs").isArray())
        throw std::runtime_error("report has no 'runs' array");
    for (const JsonValue& run : doc.at("runs").array) {
        if (!run.isObject())
            throw std::runtime_error("report run is not an object");
        const std::string key =
            stringAt(run, "scheme") + "/" + stringAt(run, "workload");
        if (!run.has("stats") || !run.at("stats").isObject())
            throw std::runtime_error("report run '" + key +
                                     "' has no 'stats' object");
        auto [it, inserted] = report.runs.emplace(
            key, std::map<std::string, double>());
        if (!inserted)
            throw std::runtime_error("duplicate report run '" + key + "'");
        for (const auto& [name, value] : run.at("stats").object) {
            if (value.type != JsonValue::Type::Number)
                throw std::runtime_error("stat '" + name + "' of run '" +
                                         key + "' is not a number");
            it->second.emplace(name, value.number);
        }
    }
    return report;
}

ParsedReport
parseReportFile(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open report: " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    try {
        return parseReport(buf.str());
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

ThresholdSet
ThresholdSet::parse(std::istream& is)
{
    ThresholdSet set;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string pattern;
        if (!(fields >> pattern))
            continue; // blank / comment-only line
        double rel = 0.0;
        std::string trailing;
        if (!(fields >> rel) || rel < 0.0 || (fields >> trailing)) {
            throw std::runtime_error(
                "thresholds line " + std::to_string(lineno) +
                ": expected 'pattern rel-threshold'");
        }
        if (pattern == "default")
            set.defaultRel = rel;
        else
            set.rules.push_back(Rule{pattern, rel});
    }
    return set;
}

ThresholdSet
ThresholdSet::parseFile(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open thresholds: " + path);
    try {
        return parse(is);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

double
ThresholdSet::relFor(const std::string& key) const
{
    for (const Rule& rule : rules) {
        if (globMatch(rule.pattern, key))
            return rule.rel;
    }
    return defaultRel;
}

bool
globMatch(std::string_view pattern, std::string_view text)
{
    // Iterative '*' matcher with backtracking to the last star.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string_view::npos, star_t = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == text[t] || pattern[p] == '?')) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            star_t = t;
        } else if (star != std::string_view::npos) {
            p = star + 1;
            t = ++star_t;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

DiffResult
diffReports(const ParsedReport& baseline, const ParsedReport& current,
            const ThresholdSet& thresholds, bool allow_missing)
{
    DiffResult result;
    if (baseline.schemaVersion != current.schemaVersion) {
        if (!allow_missing) {
            result.ok = false;
            result.notes.push_back(
                "FAIL: schema version mismatch (baseline v" +
                std::to_string(baseline.schemaVersion) + ", current v" +
                std::to_string(current.schemaVersion) +
                "); refresh the baseline, or pass --allow-missing to "
                "compare across the bump");
            return result;
        }
        result.notes.push_back(
            "note: schema version mismatch tolerated (--allow-missing): "
            "baseline v" + std::to_string(baseline.schemaVersion) +
            ", current v" + std::to_string(current.schemaVersion));
    }

    // host.* is machine/toolchain provenance: differences are surfaced
    // so a surprising delta table can be explained (different compiler,
    // debug vs release), but they never gate.
    for (const auto& [key, base_value] : baseline.host) {
        const auto cur = current.host.find(key);
        if (cur == current.host.end()) {
            result.notes.push_back("note: host." + key +
                                   " absent from current report "
                                   "(informational; host.* never gates)");
        } else if (cur->second != base_value) {
            result.notes.push_back(
                "note: host." + key + " differs: baseline '" +
                base_value + "', current '" + cur->second +
                "' (informational; host.* never gates)");
        }
    }

    // prof.* is the host-time self-profiler's family: host-clock
    // measurements that vary run to run by nature. Golden reports are
    // supposed to be recorded profiler-off, but if a baseline was made
    // with --profile anyway, gating on prof.* would fail every diff on
    // timing noise — so like host.*, the family is surfaced as notes
    // and never gates.
    const auto prof_metric = [](const std::string& metric) {
        return metric.rfind("prof.", 0) == 0;
    };

    for (const auto& [run_key, base_stats] : baseline.runs) {
        const auto cur_it = current.runs.find(run_key);
        if (cur_it == current.runs.end()) {
            if (!allow_missing) {
                result.ok = false;
                result.notes.push_back(
                    "FAIL: run '" + run_key +
                    "' missing from current report (a baseline run "
                    "must not silently disappear; --allow-missing "
                    "tolerates this during schema bumps)");
            } else {
                result.notes.push_back("note: run '" + run_key +
                                       "' missing from current report "
                                       "(tolerated: --allow-missing)");
            }
            continue;
        }
        const auto& cur_stats = cur_it->second;
        for (const auto& [metric, base_value] : base_stats) {
            const auto cur_metric = cur_stats.find(metric);
            const std::string key = run_key + "/" + metric;
            if (prof_metric(metric)) {
                if (cur_metric == cur_stats.end()) {
                    result.notes.push_back(
                        "note: metric '" + key +
                        "' absent from current report (informational; "
                        "prof.* never gates)");
                } else if (cur_metric->second != base_value) {
                    result.notes.push_back(
                        "note: metric '" + key +
                        "' differs (informational; prof.* never gates)");
                }
                continue;
            }
            if (cur_metric == cur_stats.end()) {
                if (!allow_missing) {
                    result.ok = false;
                    result.notes.push_back(
                        "FAIL: metric '" + key +
                        "' missing from current report (a pinned "
                        "metric must not silently disappear; "
                        "--allow-missing tolerates this during "
                        "schema bumps)");
                } else {
                    result.notes.push_back(
                        "note: metric '" + key +
                        "' missing from current report "
                        "(tolerated: --allow-missing)");
                }
                continue;
            }
            const double cur_value = cur_metric->second;
            if (cur_value == base_value)
                continue;
            MetricDelta d;
            d.run = run_key;
            d.metric = metric;
            d.baseline = base_value;
            d.current = cur_value;
            // Relative to the baseline magnitude; a zero baseline makes
            // any change infinitely large relative, so treat it as
            // relative-to-1 (absolute) instead of dividing by zero.
            const double denom = std::max(std::abs(base_value), 1e-300);
            d.rel = std::abs(cur_value - base_value) /
                    (base_value == 0.0 ? 1.0 : denom);
            d.threshold = thresholds.relFor(key);
            d.regressed = d.rel > d.threshold;
            if (d.regressed)
                result.ok = false;
            result.deltas.push_back(std::move(d));
        }
        for (const auto& [metric, value] : cur_stats) {
            (void)value;
            if (base_stats.count(metric) == 0) {
                result.notes.push_back("note: metric '" + run_key + "/" +
                                       metric +
                                       "' added (not in baseline)");
            }
        }
    }
    for (const auto& [run_key, stats] : current.runs) {
        (void)stats;
        if (baseline.runs.count(run_key) == 0) {
            result.notes.push_back("note: run '" + run_key +
                                   "' added (not in baseline)");
        }
    }
    return result;
}

} // namespace sdpcm
