/**
 * @file
 * Cross-run regression gate: compare two run reports metric by metric.
 *
 *   report_diff BASELINE.json CURRENT.json [--thresholds=FILE]
 *               [--show-all] [--allow-missing] [--json[=FILE]]
 *
 * Every metric of every (scheme, workload) run in BASELINE must exist in
 * CURRENT and match within its relative threshold (default: exact — the
 * simulator is deterministic). Changed metrics are printed as a delta
 * table; structural notes (missing/added runs or metrics) follow.
 *
 * A baseline metric missing from CURRENT is a hard failure: a pinned
 * metric that silently disappears is exactly the regression the gate
 * exists to catch. `--allow-missing` downgrades missing runs/metrics
 * and schema-version mismatches to notes — the escape hatch for schema
 * bumps and baseline refreshes, not for permanent use.
 *
 * Exit codes: 0 = no regression, 1 = regression (or missing baseline
 * data), 2 = usage/parse error. Metrics or runs only present in CURRENT
 * are reported but never fail the gate (additive schema rule —
 * see obs/report.hh). The host.* provenance block (compiler, build
 * type, core count, profiler on/off) is ignored by default: differences
 * print as informational notes so a surprising delta table can be
 * explained, but host.* never gates.
 *
 * --json[=FILE] emits the full machine-readable verdict (every changed
 * metric with old/new/delta/threshold/verdict, the structural notes and
 * the overall result) to FILE, or to stdout in place of the table when
 * no FILE is given — for CI annotations and dashboards that would
 * otherwise scrape the table.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/args.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "obs/report.hh"

using namespace sdpcm;

namespace {

/** Full-precision value formatting (TablePrinter::fmt rounds). */
std::string
num(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** The machine-readable verdict document (`sdpcm_report_diff`). */
void
writeDiffJson(std::ostream& os, const std::string& baseline_path,
              const std::string& current_path, const DiffResult& diff)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("kind", "sdpcm_report_diff");
    w.kv("schema_version", std::uint64_t(1));
    w.kv("baseline", baseline_path);
    w.kv("current", current_path);
    w.kv("ok", diff.ok);
    w.kv("regressions", static_cast<std::uint64_t>(diff.regressions()));
    w.kv("changed",
         static_cast<std::uint64_t>(diff.deltas.size() -
                                    diff.regressions()));
    w.key("deltas").beginArray();
    for (const MetricDelta& d : diff.deltas) {
        w.beginObject();
        w.kv("run", d.run);
        w.kv("metric", d.metric);
        w.kv("baseline", d.baseline);
        w.kv("current", d.current);
        w.kv("delta", d.current - d.baseline);
        w.kv("rel", d.rel);
        w.kv("threshold", d.threshold);
        w.kv("verdict", d.regressed ? "REGRESSED" : "ok");
        w.endObject();
    }
    w.endArray();
    w.key("notes").beginArray();
    for (const std::string& note : diff.notes)
        w.value(note);
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const std::vector<std::string>& paths = args.positional();
    if (args.has("help") || paths.size() != 2) {
        std::cerr << "usage: report_diff BASELINE.json CURRENT.json"
                     " [--thresholds=FILE] [--show-all]"
                     " [--allow-missing] [--json[=FILE]]\n";
        return paths.size() == 2 ? 0 : 2;
    }
    const std::string thr_path = args.getString("thresholds", "");
    const bool allow_missing = args.getBool("allow-missing", false);
    const bool show_all = args.getBool("show-all", false);
    // A bare --json prints the verdict instead of the table; --json=FILE
    // writes it there and the table still prints.
    const std::string json_path = args.getPath("json");
    args.finishParsing();

    ParsedReport baseline, current;
    ThresholdSet thresholds;
    try {
        baseline = parseReportFile(paths[0]);
        current = parseReportFile(paths[1]);
        if (!thr_path.empty())
            thresholds = ThresholdSet::parseFile(thr_path);
    } catch (const std::runtime_error& e) {
        std::cerr << "report_diff: " << e.what() << "\n";
        return 2;
    }

    const DiffResult diff =
        diffReports(baseline, current, thresholds, allow_missing);

    if (args.has("json")) {
        if (json_path.empty()) {
            writeDiffJson(std::cout, paths[0], paths[1], diff);
            return diff.ok ? 0 : 1;
        }
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "report_diff: cannot open " << json_path << "\n";
            return 2;
        }
        writeDiffJson(os, paths[0], paths[1], diff);
        os.flush();
        if (!os) {
            std::cerr << "report_diff: error writing " << json_path
                      << "\n";
            return 2;
        }
        std::cout << "json verdict written to " << json_path << "\n";
    }

    std::cout << "baseline: " << paths[0] << " (" << baseline.runs.size()
              << " runs)\ncurrent : " << paths[1] << " ("
              << current.runs.size() << " runs)\n\n";

    std::size_t shown = 0;
    TablePrinter t({"run", "metric", "baseline", "current", "rel-delta",
                    "threshold", "status"});
    for (const MetricDelta& d : diff.deltas) {
        if (!d.regressed && !show_all)
            continue;
        ++shown;
        t.addRow({d.run, d.metric, num(d.baseline), num(d.current),
                  TablePrinter::pct(d.rel, 4),
                  TablePrinter::pct(d.threshold, 4),
                  d.regressed ? "REGRESSED" : "ok"});
    }
    if (shown > 0) {
        t.print(std::cout);
        std::cout << "\n";
    }
    for (const std::string& note : diff.notes)
        std::cout << note << "\n";

    const std::size_t within =
        diff.deltas.size() - diff.regressions();
    std::cout << (diff.ok ? "OK" : "REGRESSION") << ": "
              << diff.regressions() << " regressed, " << within
              << " changed within thresholds";
    if (within > 0 && !show_all)
        std::cout << " (--show-all to list)";
    std::cout << "\n";
    return diff.ok ? 0 : 1;
}
