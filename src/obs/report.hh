/**
 * @file
 * Machine-readable run reports and the cross-run regression gate.
 *
 * A run report captures everything needed to reproduce and compare an
 * experiment: the runner configuration, build info, and the full
 * StatSnapshot of every (scheme, workload) cell, serialised as versioned
 * JSON. Numbers go through the shared round-trip formatter (obs/json.hh),
 * so a value parsed back from a report bit-matches the double the
 * simulator produced — which is what lets the regression gate demand
 * exact equality for deterministic metrics.
 *
 * Schema versioning rule (see DESIGN.md): `schema_version` bumps on any
 * change that would make an old reader misinterpret a report — renaming
 * or re-typing existing fields. Purely additive changes (new fields, new
 * stats entries) do NOT bump the version; readers must ignore unknown
 * fields, and the regression gate reports added metrics as notes, not
 * failures.
 */

#ifndef SDPCM_OBS_REPORT_HH
#define SDPCM_OBS_REPORT_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "obs/json.hh"
#include "sim/runner.hh"

namespace sdpcm {

/**
 * Current report schema version (see the file comment for the rule).
 *
 * v2: per-request span attribution (`span.*` metrics and the always-on
 * `ctrl.cancelStallCycles`). The span metrics are structurally additive,
 * but the version is bumped deliberately: the regression gate pins
 * phase-level behaviour now, and a v1 baseline would let a spans-enabled
 * run silently pass against a report that never measured phases. Use
 * `report_diff --allow-missing` while migrating baselines across a bump.
 */
constexpr int kReportSchemaVersion = 2;

/** One (scheme, workload) cell of a report. */
struct ReportRun
{
    std::string scheme;
    std::string workload;
    StatSnapshot stats;
};

/** A run report under construction (producer side). */
struct RunReport
{
    std::string bench; //!< producing binary ("bench_wallclock", "sdpcm_cli")
    RunnerConfig config;
    std::vector<ReportRun> runs;
    /**
     * Machine-varying extras (wall-clock seconds, speedups). Recorded for
     * the reader but deliberately ignored by the regression gate.
     */
    std::vector<std::pair<std::string, double>> environment;

    void addRun(const RunMetrics& metrics);

    void write(std::ostream& os) const;
};

/**
 * Write one output file through `write` and announce it as "<what>
 * written to <path>" (a progress line). An empty path writes nothing;
 * a file that cannot be opened or written is fatal.
 */
void writeOutputFile(const std::string& path, const std::string& what,
                     const std::function<void(std::ostream&)>& write);

/** Runs whose summaries merge into one top-N table (`label`) and one
 *  folded-stack root (`stack`): a bench's scheme, or a CLI invocation. */
struct OutputGroup
{
    std::string label;
    std::string stack;
    std::vector<const RunMetrics*> runs;
};

/**
 * The span, ledger and profile outputs `out` asks for, for the
 * observers `cfg` ran, merged in group and run order: JSON exports
 * named for `tool` (ledger entries per run with `ledger_per_run`, else
 * per group), the profile of every run as `title`, and each group's
 * folded stacks and stderr top-N tables.
 */
void writeObserverOutputs(const RunOutputs& out, const RunOptions& cfg,
                          const std::string& tool, const std::string& title,
                          const std::vector<OutputGroup>& groups,
                          bool ledger_per_run);

/** A report parsed back from JSON (consumer/gate side). */
struct ParsedReport
{
    int schemaVersion = 0;
    std::string bench;
    /** "scheme/workload" -> metric name -> value, both in sorted order. */
    std::map<std::string, std::map<std::string, double>> runs;
    /**
     * The host/build provenance block, values stringified. Machine- and
     * toolchain-varying by design: diffReports surfaces host.*
     * differences as informational notes, never regressions.
     */
    std::map<std::string, std::string> host;
};

/** Parse report JSON; throws std::runtime_error on malformed input. */
ParsedReport parseReport(std::string_view text);
ParsedReport parseReportFile(const std::string& path);

/**
 * Per-metric relative thresholds for the regression gate.
 *
 * File format: one `pattern threshold` pair per line ('#' comments and
 * blank lines skipped). Patterns use '*' globs and match against
 * "scheme/workload/metric"; the FIRST matching rule wins, and metrics
 * matching no rule use `defaultRel` (0.0 = exact: right for a
 * deterministic simulator; nonzero only for derived floating-point
 * metrics where libm/compiler variation is tolerable).
 */
struct ThresholdSet
{
    struct Rule
    {
        std::string pattern;
        double rel = 0.0;
    };
    std::vector<Rule> rules;
    double defaultRel = 0.0;

    static ThresholdSet parse(std::istream& is);
    static ThresholdSet parseFile(const std::string& path);

    double relFor(const std::string& key) const;
};

/** Simple '*' glob match (no character classes). */
bool globMatch(std::string_view pattern, std::string_view text);

/** One metric comparison in a report diff. */
struct MetricDelta
{
    std::string run;    //!< "scheme/workload"
    std::string metric;
    double baseline = 0.0;
    double current = 0.0;
    double rel = 0.0;       //!< |cur - base| / max(|base|, tiny)
    double threshold = 0.0; //!< rule applied to this metric
    bool regressed = false;
};

/** Outcome of comparing two reports. */
struct DiffResult
{
    bool ok = true;
    /** Metrics whose value changed at all (regressed or within bounds). */
    std::vector<MetricDelta> deltas;
    /** Structural findings: missing runs/metrics (fail), additions (ok). */
    std::vector<std::string> notes;

    std::size_t
    regressions() const
    {
        std::size_t n = 0;
        for (const MetricDelta& d : deltas)
            n += d.regressed ? 1 : 0;
        return n;
    }
};

/**
 * Compare `current` against `baseline` metric by metric. Regressions:
 * schema version mismatch, a baseline run or metric missing from
 * current, or a relative delta above the metric's threshold. Metrics and
 * runs only present in `current` are additions — noted, never failures
 * (the additive-schema rule above). Two families never gate regardless
 * of thresholds, because they are machine/host-clock data, not simulator
 * output: host.* (provenance block) and prof.* (self-profiler host
 * times) — differences in either are surfaced as informational notes.
 *
 * `allow_missing` downgrades the structural failures (schema version
 * mismatch, missing runs/metrics) to notes; present-in-both metrics are
 * still compared. It exists solely as the escape hatch for schema bumps
 * and baseline refreshes — a gate running with it permanently is not
 * pinning anything that can disappear.
 */
DiffResult diffReports(const ParsedReport& baseline,
                       const ParsedReport& current,
                       const ThresholdSet& thresholds,
                       bool allow_missing = false);

} // namespace sdpcm

#endif // SDPCM_OBS_REPORT_HH
