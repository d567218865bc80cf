/**
 * @file
 * Summarise, rank and diff sdpcm telemetry JSONL streams.
 *
 *   telemetry_tail RUN.jsonl                      summary
 *   telemetry_tail RUN.jsonl --metric=M --top=N   hottest frames by M
 *   telemetry_tail A.jsonl B.jsonl                diff two streams
 *   telemetry_tail RUN.jsonl --report=REPORT.json cross-check totals
 *
 * Summary mode prints the stream's identity (scheme/workload/interval),
 * frame count, counter totals recomputed by summing every frame delta,
 * a per-monitor-rule table (breaches, frames evaluated) and watchdog
 * stalls. A rule that evaluated zero frames is flagged NEVER SAMPLED:
 * quantile/burn rules skip zero-request windows, so such a rule
 * silently guarded nothing the whole run (streams older than the
 * `evaluations` summary key show "n/a" instead). The recomputed totals
 * are verified against the stream's own trailing summary line — a
 * truncated or torn stream fails here rather than producing
 * silently-short totals.
 *
 * --metric ranks frames by a counter delta or gauge (default metric:
 * ctrl.readsServiced) and prints the top N (default 10) with their tick
 * ranges — "show me the ugliest intervals of the run" in one command.
 *
 * Diff mode compares two streams' counter totals, frame counts and
 * breach counts (same grammar the regression gate applies to reports:
 * exact by default, --rel=F for a relative tolerance). Exit 1 on any
 * difference.
 *
 * --report cross-checks every counter total against the same-named
 * metric of the matching (scheme, workload) run in a run-report file;
 * exit 1 on divergence. This is the external half of the telescoping
 * invariant the sampler asserts internally.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "obs/report.hh"

using namespace sdpcm;

namespace {

struct Frame
{
    std::uint64_t seq = 0;
    std::uint64_t tick = 0;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
};

/** One parsed stream: meta identity + frames + trailing aggregates. */
struct Stream
{
    std::string path;
    std::string scheme;
    std::string workload;
    std::uint64_t intervalTicks = 0;
    std::vector<Frame> frames;
    std::map<std::string, double> totals; //!< summed frame deltas
    std::map<std::string, double> summaryTotals; //!< trailing line
    /** Rule names declared in the meta line (text before the first ':'
     *  of each rule spec), in declaration order. */
    std::vector<std::string> ruleNames;
    std::map<std::string, std::uint64_t> breaches;
    /** Frames each rule evaluated against, from the summary line. */
    std::map<std::string, std::uint64_t> evaluations;
    /** False for streams written before the `evaluations` key existed. */
    bool sawEvaluations = false;
    std::uint64_t stalls = 0;
    bool sawSummary = false;
};

Stream
parseStream(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open " + path);
    Stream s;
    s.path = path;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        line_no += 1;
        if (line.empty())
            continue;
        JsonValue v;
        try {
            v = parseJson(line);
        } catch (const std::runtime_error& e) {
            throw std::runtime_error(path + ":" +
                                     std::to_string(line_no) + ": " +
                                     e.what());
        }
        const std::string type =
            v.has("type") ? v.at("type").str : "";
        if (type == "meta") {
            s.scheme = v.at("scheme").str;
            s.workload = v.at("workload").str;
            s.intervalTicks = static_cast<std::uint64_t>(
                v.at("interval_ticks").number);
            if (v.has("rules")) {
                for (const JsonValue& r : v.at("rules").array) {
                    const auto colon = r.str.find(':');
                    s.ruleNames.push_back(colon == std::string::npos
                                              ? r.str
                                              : r.str.substr(0, colon));
                }
            }
        } else if (type == "frame") {
            Frame f;
            f.seq = static_cast<std::uint64_t>(v.at("seq").number);
            f.tick = static_cast<std::uint64_t>(v.at("tick").number);
            for (const auto& [name, val] : v.at("counters").object) {
                f.counters[name] = val.number;
                s.totals[name] += val.number;
            }
            for (const auto& [name, val] : v.at("gauges").object)
                f.gauges[name] = val.number;
            s.frames.push_back(std::move(f));
        } else if (type == "breach") {
            s.breaches[v.at("rule").str] += 1;
        } else if (type == "stall") {
            s.stalls += 1;
        } else if (type == "summary") {
            s.sawSummary = true;
            for (const auto& [name, val] : v.at("totals").object)
                s.summaryTotals[name] = val.number;
            if (v.has("evaluations")) {
                s.sawEvaluations = true;
                for (const auto& [rule, val] :
                     v.at("evaluations").object) {
                    s.evaluations[rule] =
                        static_cast<std::uint64_t>(val.number);
                }
            }
        }
    }
    return s;
}

/**
 * A torn or truncated stream must not summarise silently: require the
 * trailing summary line and require the frame-delta sums to reproduce
 * it exactly.
 */
void
checkIntegrity(const Stream& s)
{
    if (!s.sawSummary) {
        throw std::runtime_error(
            s.path + ": no trailing summary line (truncated stream?)");
    }
    for (const auto& [name, total] : s.summaryTotals) {
        const auto it = s.totals.find(name);
        const double summed = it == s.totals.end() ? 0.0 : it->second;
        if (summed != total) {
            std::ostringstream os;
            os << s.path << ": frame deltas for '" << name
               << "' sum to " << summed
               << " but the summary line says " << total
               << " (torn stream?)";
            throw std::runtime_error(os.str());
        }
    }
}

void
printSummary(const Stream& s)
{
    std::cout << s.path << ": scheme " << s.scheme << ", workload "
              << s.workload << ", " << s.frames.size()
              << " frames every " << s.intervalTicks << " ticks\n\n";
    TablePrinter t({"counter", "total"});
    for (const auto& [name, total] : s.totals)
        t.addRow({name, TablePrinter::fmt(total, 0)});
    t.print(std::cout);
    // Monitor rules: union of the meta declaration (covers rules that
    // never breached) and the breach/evaluation maps (covers streams
    // whose meta predates the `rules` key).
    std::vector<std::string> rules = s.ruleNames;
    const auto ensure = [&rules](const std::string& name) {
        if (std::find(rules.begin(), rules.end(), name) == rules.end())
            rules.push_back(name);
    };
    for (const auto& [rule, n] : s.breaches) {
        (void)n;
        ensure(rule);
    }
    for (const auto& [rule, n] : s.evaluations) {
        (void)n;
        ensure(rule);
    }
    if (!rules.empty()) {
        std::cout << "\nSLO monitors:\n";
        TablePrinter mt({"rule", "breaches", "evaluated", "status"});
        for (const std::string& rule : rules) {
            const auto b = s.breaches.find(rule);
            const std::uint64_t breached =
                b == s.breaches.end() ? 0 : b->second;
            const auto e = s.evaluations.find(rule);
            const std::uint64_t evals =
                e == s.evaluations.end() ? 0 : e->second;
            std::string status = "ok";
            if (breached > 0)
                status = "BREACHED";
            else if (s.sawEvaluations && evals == 0)
                status = "NEVER SAMPLED"; // empty windows all run long
            mt.addRow({rule, std::to_string(breached),
                       s.sawEvaluations ? std::to_string(evals) : "n/a",
                       status});
        }
        mt.print(std::cout);
    }
    if (s.stalls > 0)
        std::cout << "\nwatchdog stalls: " << s.stalls << "\n";
}

int
printTop(const Stream& s, const std::string& metric, std::size_t top_n)
{
    std::vector<const Frame*> order;
    for (const Frame& f : s.frames)
        order.push_back(&f);
    const bool is_gauge = !s.frames.empty() &&
                          s.frames.front().gauges.count(metric) > 0;
    if (!is_gauge && !s.frames.empty() &&
        s.frames.front().counters.count(metric) == 0) {
        std::cerr << "telemetry_tail: unknown metric '" << metric
                  << "'; counters and gauges in this stream:\n";
        for (const auto& [name, v] : s.frames.front().counters) {
            (void)v;
            std::cerr << "  " << name << "\n";
        }
        for (const auto& [name, v] : s.frames.front().gauges) {
            (void)v;
            std::cerr << "  " << name << " (gauge)\n";
        }
        return 2;
    }
    const auto value = [&](const Frame* f) {
        const auto& m = is_gauge ? f->gauges : f->counters;
        const auto it = m.find(metric);
        return it == m.end() ? 0.0 : it->second;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](const Frame* a, const Frame* b) {
                         return value(a) > value(b);
                     });
    if (order.size() > top_n)
        order.resize(top_n);
    std::cout << "top " << order.size() << " frames by " << metric
              << (is_gauge ? " (gauge)" : " (delta)") << ":\n\n";
    TablePrinter t({"seq", "tick", metric});
    for (const Frame* f : order) {
        t.addRow({std::to_string(f->seq), std::to_string(f->tick),
                  TablePrinter::fmt(value(f), 0)});
    }
    t.print(std::cout);
    return 0;
}

int
diffStreams(const Stream& a, const Stream& b, double rel)
{
    int differences = 0;
    const auto differ = [rel](double x, double y) {
        if (x == y)
            return false;
        const double denom = std::max(std::fabs(x), std::fabs(y));
        return denom == 0.0 || std::fabs(x - y) / denom > rel;
    };
    if (a.frames.size() != b.frames.size()) {
        std::cout << "frames: " << a.frames.size() << " -> "
                  << b.frames.size() << "\n";
        differences += 1;
    }
    std::map<std::string, double> all = a.totals;
    all.insert(b.totals.begin(), b.totals.end());
    for (const auto& [name, unused] : all) {
        (void)unused;
        const auto ia = a.totals.find(name);
        const auto ib = b.totals.find(name);
        const double va = ia == a.totals.end() ? 0.0 : ia->second;
        const double vb = ib == b.totals.end() ? 0.0 : ib->second;
        if (differ(va, vb)) {
            std::cout << name << ": " << va << " -> " << vb << "\n";
            differences += 1;
        }
    }
    std::map<std::string, std::uint64_t> rules = a.breaches;
    rules.insert(b.breaches.begin(), b.breaches.end());
    for (const auto& [rule, unused] : rules) {
        (void)unused;
        const auto ia = a.breaches.find(rule);
        const auto ib = b.breaches.find(rule);
        const std::uint64_t va = ia == a.breaches.end() ? 0 : ia->second;
        const std::uint64_t vb = ib == b.breaches.end() ? 0 : ib->second;
        if (va != vb) {
            std::cout << "breaches[" << rule << "]: " << va << " -> "
                      << vb << "\n";
            differences += 1;
        }
    }
    if (a.stalls != b.stalls) {
        std::cout << "watchdog stalls: " << a.stalls << " -> "
                  << b.stalls << "\n";
        differences += 1;
    }
    if (differences == 0) {
        std::cout << "streams match: " << a.frames.size()
                  << " frames, " << a.totals.size() << " counters\n";
        return 0;
    }
    std::cout << differences << " difference(s)\n";
    return 1;
}

int
crossCheck(const Stream& s, const std::string& report_path)
{
    const ParsedReport report = parseReportFile(report_path);
    const std::string key = s.scheme + "/" + s.workload;
    const auto run = report.runs.find(key);
    if (run == report.runs.end()) {
        std::cerr << "telemetry_tail: report " << report_path
                  << " has no run '" << key << "'\n";
        return 1;
    }
    int mismatches = 0;
    for (const auto& [name, total] : s.totals) {
        const auto it = run->second.find(name);
        if (it == run->second.end()) {
            std::cout << name << ": in stream but not in report\n";
            mismatches += 1;
            continue;
        }
        if (it->second != total) {
            std::cout << name << ": stream total " << total
                      << " != report " << it->second << "\n";
            mismatches += 1;
        }
    }
    if (mismatches == 0) {
        std::cout << "cross-check OK: " << s.totals.size()
                  << " counter totals match " << key << " in "
                  << report_path << "\n";
        return 0;
    }
    std::cout << mismatches << " mismatch(es)\n";
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const std::vector<std::string>& paths = args.positional();
    if (args.has("help") || paths.empty() || paths.size() > 2) {
        std::cerr
            << "usage: telemetry_tail RUN.jsonl [B.jsonl] [--top=N]\n"
               "         [--metric=NAME] [--report=REPORT.json]"
               " [--rel=F]\n"
               "  one file: summary; with --metric/--top: hottest "
               "frames;\n"
               "  with --report: cross-check totals against a run "
               "report\n"
               "  two files: diff totals/breaches (--rel=F relative "
               "tolerance)\n";
        return paths.empty() || paths.size() > 2 ? 2 : 0;
    }
    const double rel = args.get<double>("rel", 0.0, 0.0);
    const std::string report_path = args.getString("report", "");
    const std::string metric =
        args.getString("metric", "ctrl.readsServiced");
    const auto top_n = args.get<std::size_t>("top", 10);
    args.finishParsing();

    try {
        const Stream a = parseStream(paths[0]);
        checkIntegrity(a);
        if (paths.size() == 2) {
            const Stream b = parseStream(paths[1]);
            checkIntegrity(b);
            return diffStreams(a, b, rel);
        }
        if (!report_path.empty())
            return crossCheck(a, report_path);
        if (args.has("metric") || args.has("top"))
            return printTop(a, metric, top_n);
        printSummary(a);
        return 0;
    } catch (const std::runtime_error& e) {
        std::cerr << "telemetry_tail: " << e.what() << "\n";
        return 2;
    }
}
