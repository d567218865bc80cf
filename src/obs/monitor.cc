#include "obs/monitor.hh"

#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/args.hh"
#include "common/logging.hh"

namespace sdpcm {

namespace {

[[noreturn]] void
badRule(const std::string& rule, const std::string& why)
{
    throw std::invalid_argument("bad monitor rule '" + rule + "': " +
                                why);
}

bool
validName(const std::string& s)
{
    if (s.empty())
        return false;
    for (const char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            return false;
    }
    return true;
}

double
parseNumber(const std::string& rule, const std::string& text)
{
    try {
        return ArgParser::parseDouble(text);
    } catch (const std::invalid_argument& e) {
        badRule(rule, e.what());
    }
}

const char*
cmpName(MonitorRule::Cmp cmp)
{
    switch (cmp) {
      case MonitorRule::Cmp::LE:
        return "<=";
      case MonitorRule::Cmp::GE:
        return ">=";
      case MonitorRule::Cmp::LT:
        return "<";
      case MonitorRule::Cmp::GT:
        return ">";
    }
    return "?";
}

MonitorRule
parseOne(const std::string& text)
{
    MonitorRule r;
    const auto colon = text.find(':');
    if (colon == std::string::npos)
        badRule(text, "missing 'name:' prefix");
    r.name = text.substr(0, colon);
    if (!validName(r.name))
        badRule(text, "rule name must be [A-Za-z0-9_]+");

    std::string rest = text.substr(colon + 1);

    // Comparator: search from after the closing paren so metric names
    // containing no comparators stay unambiguous.
    const auto close = rest.find(')');
    if (close == std::string::npos)
        badRule(text, "missing ')'");
    std::size_t cmp_at = std::string::npos;
    std::size_t cmp_len = 0;
    for (std::size_t i = close + 1; i < rest.size(); ++i) {
        if (rest[i] == '<' || rest[i] == '>') {
            cmp_at = i;
            cmp_len = (i + 1 < rest.size() && rest[i + 1] == '=') ? 2 : 1;
            break;
        }
    }
    if (cmp_at == std::string::npos)
        badRule(text, "missing comparator (<=, >=, <, >)");
    const std::string cmp_s = rest.substr(cmp_at, cmp_len);
    if (cmp_s == "<=")
        r.cmp = MonitorRule::Cmp::LE;
    else if (cmp_s == ">=")
        r.cmp = MonitorRule::Cmp::GE;
    else if (cmp_s == "<")
        r.cmp = MonitorRule::Cmp::LT;
    else
        r.cmp = MonitorRule::Cmp::GT;
    r.limit = parseNumber(text, rest.substr(cmp_at + cmp_len));

    const std::string expr = rest.substr(0, cmp_at);
    const auto open = expr.find('(');
    if (open == std::string::npos || expr.back() != ')')
        badRule(text, "expected fn(args) expression");
    const std::string fn = expr.substr(0, open);
    const std::string args =
        expr.substr(open + 1, expr.size() - open - 2);

    if (fn == "gauge") {
        r.kind = MonitorRule::Kind::Gauge;
        r.metric = args;
        if (r.metric.empty())
            badRule(text, "gauge() needs a metric name");
    } else if (fn == "burn") {
        r.kind = MonitorRule::Kind::Burn;
        std::vector<std::string> parts;
        std::istringstream is(args);
        std::string part;
        while (std::getline(is, part, ','))
            parts.push_back(part);
        if (parts.size() != 3)
            badRule(text, "burn() needs (latency, slo, budget)");
        r.metric = parts[0];
        r.slo = parseNumber(text, parts[1]);
        r.budget = parseNumber(text, parts[2]);
        // evaluate() converts the slo to a 64-bit cycle count.
        if (!(r.slo > 0.0 && r.slo < std::ldexp(1.0, 64)))
            badRule(text, "burn() slo must be in (0, 2^64) cycles");
        if (r.budget <= 0.0 || r.budget > 1.0)
            badRule(text, "burn() budget must be in (0, 1]");
    } else if (fn.size() >= 2 && fn[0] == 'p') {
        r.kind = MonitorRule::Kind::Quantile;
        double scale = 1.0;
        double digits = 0.0;
        for (std::size_t i = 1; i < fn.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(fn[i])))
                badRule(text, "unknown aggregation '" + fn + "'");
            digits = digits * 10.0 + (fn[i] - '0');
            scale *= 10.0;
        }
        r.q = digits / scale; // p99 -> 0.99, p999 -> 0.999, p50 -> 0.5
        if (r.q <= 0.0 || r.q >= 1.0)
            badRule(text, "quantile must be in (0, 1)");
        r.metric = args;
        if (r.metric.empty())
            badRule(text, "p..() needs a latency metric name");
    } else {
        badRule(text, "unknown aggregation '" + fn + "'");
    }
    return r;
}

} // namespace

bool
MonitorRule::satisfied(double value) const
{
    switch (cmp) {
      case Cmp::LE:
        return value <= limit;
      case Cmp::GE:
        return value >= limit;
      case Cmp::LT:
        return value < limit;
      case Cmp::GT:
        return value > limit;
    }
    return true;
}

std::string
MonitorRule::describe() const
{
    std::ostringstream os;
    os << name << ":";
    switch (kind) {
      case Kind::Quantile:
        os << "p" << q * 100.0 << "(" << metric << ")";
        break;
      case Kind::Gauge:
        os << "gauge(" << metric << ")";
        break;
      case Kind::Burn:
        os << "burn(" << metric << "," << slo << "," << budget << ")";
        break;
    }
    os << cmpName(cmp) << limit;
    return os.str();
}

std::vector<MonitorRule>
MonitorRule::parseList(const std::string& spec)
{
    std::vector<MonitorRule> rules;
    std::istringstream is(spec);
    std::string rule_text;
    while (std::getline(is, rule_text, ';')) {
        if (rule_text.empty())
            continue;
        rules.push_back(parseOne(rule_text));
    }
    for (std::size_t i = 0; i < rules.size(); ++i) {
        for (std::size_t j = i + 1; j < rules.size(); ++j) {
            if (rules[i].name == rules[j].name)
                badRule(spec, "duplicate rule name '" + rules[i].name +
                              "'");
        }
    }
    return rules;
}

MonitorSet::MonitorSet(std::vector<MonitorRule> rules)
    : rules_(std::move(rules))
{
    // Every rule gets an entry up front so a rule whose windows are
    // always empty still shows up (with 0) in evaluationsByRule().
    for (const MonitorRule& r : rules_)
        evaluations_[r.name] = 0;
}

void
MonitorSet::bind(const MetricRegistry& registry) const
{
    for (const MonitorRule& r : rules_) {
        const bool ok = r.kind == MonitorRule::Kind::Gauge
            ? registry.hasGauge(r.metric)
            : registry.hasLatency(r.metric);
        if (!ok) {
            SDPCM_FATAL("monitor rule '", r.describe(), "': unknown ",
                        r.kind == MonitorRule::Kind::Gauge
                            ? "gauge" : "latency",
                        " metric '", r.metric, "'");
        }
    }
}

std::vector<BreachEvent>
MonitorSet::evaluate(const FrameData& frame)
{
    std::vector<BreachEvent> fresh;
    for (const MonitorRule& r : rules_) {
        double value = 0.0;
        switch (r.kind) {
          case MonitorRule::Kind::Gauge: {
            const auto it = frame.gauges.find(r.metric);
            SDPCM_ASSERT(it != frame.gauges.end(),
                         "unbound gauge in monitor: ", r.metric);
            value = static_cast<double>(it->second);
            break;
          }
          case MonitorRule::Kind::Quantile: {
            const auto it = frame.windows.find(r.metric);
            SDPCM_ASSERT(it != frame.windows.end(),
                         "unbound latency in monitor: ", r.metric);
            if (it->second.count == 0)
                continue; // zero-request window: no latency SLO to break
            value = it->second.percentile(r.q);
            break;
          }
          case MonitorRule::Kind::Burn: {
            const auto it = frame.windows.find(r.metric);
            SDPCM_ASSERT(it != frame.windows.end(),
                         "unbound latency in monitor: ", r.metric);
            if (it->second.count == 0)
                continue;
            const double bad = static_cast<double>(
                it->second.sketch->countAbove(
                    static_cast<std::uint64_t>(r.slo)));
            const double frac =
                bad / static_cast<double>(it->second.count);
            value = frac / r.budget;
            break;
          }
        }

        // Past the zero-window skips: this rule saw real data.
        evaluations_[r.name] += 1;

        // Track the worst value in the rule's violating direction.
        const bool higher_is_worse =
            r.cmp == MonitorRule::Cmp::LE || r.cmp == MonitorRule::Cmp::LT;
        const auto w = worst_.find(r.name);
        if (w == worst_.end()) {
            worst_.emplace(r.name, value);
        } else if (higher_is_worse ? value > w->second
                                   : value < w->second) {
            w->second = value;
        }

        if (!r.satisfied(value)) {
            BreachEvent b;
            b.rule = r.name;
            b.tick = frame.tick;
            b.seq = frame.seq;
            b.value = value;
            b.limit = r.limit;
            breaches_.push_back(b);
            fresh.push_back(std::move(b));
        }
    }
    return fresh;
}

std::map<std::string, std::uint64_t>
MonitorSet::breachesByRule() const
{
    std::map<std::string, std::uint64_t> by_rule;
    for (const BreachEvent& b : breaches_)
        by_rule[b.rule] += 1;
    return by_rule;
}

Watchdog::Watchdog(Tick window, std::function<std::uint64_t()> retired,
                   std::function<bool()> pending)
    : window_(window),
      retired_(std::move(retired)),
      pending_(std::move(pending))
{
    SDPCM_ASSERT(window_ > 0, "watchdog window must be positive");
}

bool
Watchdog::check(Tick now)
{
    const std::uint64_t cur = retired_();
    if (!primed_ || cur != lastRetired_) {
        primed_ = true;
        lastRetired_ = cur;
        lastProgress_ = now;
        return false;
    }
    if (now - lastProgress_ >= window_ && pending_()) {
        stalls_ += 1;
        // Re-arm so a persistent hang flags once per window, not once
        // per frame.
        lastProgress_ = now;
        return true;
    }
    return false;
}

} // namespace sdpcm
