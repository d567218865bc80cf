#include "obs/profiler.hh"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "obs/folded.hh"
#include "obs/json.hh"

namespace sdpcm {

const char*
profPhaseName(ProfPhase phase)
{
    switch (phase) {
      case ProfPhase::Root:
        return "Root";
      case ProfPhase::EventDispatch:
        return "EventDispatch";
      case ProfPhase::CtrlKick:
        return "CtrlKick";
      case ProfPhase::ReadService:
        return "ReadService";
      case ProfPhase::WriteRound:
        return "WriteRound";
      case ProfPhase::VerifyScan:
        return "VerifyScan";
      case ProfPhase::Correction:
        return "Correction";
      case ProfPhase::Cancel:
        return "Cancel";
      case ProfPhase::DevicePulse:
        return "DevicePulse";
      case ProfPhase::DeviceWdScan:
        return "DeviceWdScan";
      case ProfPhase::DeviceRead:
        return "DeviceRead";
      case ProfPhase::OracleCheck:
        return "OracleCheck";
      case ProfPhase::TelemetryPoll:
        return "TelemetryPoll";
      case ProfPhase::TraceWrite:
        return "TraceWrite";
      case ProfPhase::ReportWrite:
        return "ReportWrite";
      case ProfPhase::Translate:
        return "Translate";
      case ProfPhase::TraceNext:
        return "TraceNext";
    }
    return "?";
}

std::uint64_t
HostProfiler::steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

HostProfiler::HostProfiler(ClockFn clock, std::uint32_t sample_period)
    : clock_(clock), sampleMask_(sample_period - 1)
{
    SDPCM_ASSERT(sample_period > 0 &&
                     (sample_period & (sample_period - 1)) == 0,
                 "profiler sample period must be a power of two, got ",
                 sample_period);
    // The CCT is bounded by the distinct phase paths the instrumentation
    // can produce (depth <= kMaxDepth, small fan-out); 256 is an order
    // of magnitude above what the current sites reach, so the hot path
    // never reallocates.
    nodes_.reserve(256);
    Node root;
    root.phase = ProfPhase::Root;
    root.child.fill(kNoNode);
    nodes_.push_back(root);
}

std::uint32_t
HostProfiler::childOf(std::uint32_t parent, ProfPhase phase)
{
    const auto p = static_cast<unsigned>(phase);
    const std::uint32_t existing = nodes_[parent].child[p];
    if (existing != kNoNode)
        return existing;
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    Node n;
    n.phase = phase;
    n.child.fill(kNoNode);
    nodes_.push_back(n);
    nodes_[parent].child[p] = idx;
    return idx;
}

void
HostProfiler::enterTimed(ProfPhase phase)
{
    SDPCM_ASSERT(depth_ < kMaxDepth, "profiler scope depth overflow at ",
                 profPhaseName(phase));
    const std::uint32_t parent = depth_ ? stack_[depth_ - 1].node : 0;
    const std::uint32_t node = childOf(parent, phase);
    stack_[depth_] = Frame{node, clock_(), 0};
    depth_ += 1;
}

void
HostProfiler::exitTimed()
{
    depth_ -= 1;
    const Frame& f = stack_[depth_];
    const std::uint64_t now = clock_();
    const std::uint64_t elapsed = now >= f.startNs ? now - f.startNs : 0;
    Node& n = nodes_[f.node];
    // Scaled at collection time: one timed tree stands in for
    // `treeScale_` trees, so the stored numbers are already full-run
    // estimates and summaries merge without knowing the period.
    n.calls += treeScale_;
    n.inclusiveNs += elapsed * treeScale_;
#ifndef NDEBUG
    // Telescoping rule: children only run while the parent frame is
    // open, so their summed inclusive time cannot exceed the parent's.
    // A monotonic clock guarantees this; a violation means the frame
    // bookkeeping itself is broken.
    SDPCM_ASSERT(elapsed >= f.childNs, "profiler telescoping violated in ",
                 profPhaseName(n.phase), ": children ", f.childNs,
                 "ns > frame ", elapsed, "ns");
#endif
    n.exclusiveNs +=
        (elapsed > f.childNs ? elapsed - f.childNs : 0) * treeScale_;
    if (depth_ > 0)
        stack_[depth_ - 1].childNs += elapsed;
}

namespace {

std::uint64_t
childInclusiveSum(const ProfSummaryNode& node)
{
    std::uint64_t sum = 0;
    for (const ProfSummaryNode& c : node.children)
        sum += c.inclusiveNs;
    return sum;
}

void
checkTelescoping(const ProfSummaryNode& node, bool is_root)
{
    if (!is_root) {
        SDPCM_ASSERT(childInclusiveSum(node) <= node.inclusiveNs,
                     "profiler telescoping violated in ",
                     profPhaseName(node.phase), ": children ",
                     childInclusiveSum(node), "ns > inclusive ",
                     node.inclusiveNs, "ns");
    }
    for (const ProfSummaryNode& c : node.children)
        checkTelescoping(c, false);
}

void
accumulatePhases(const ProfSummaryNode& node,
                 std::array<ProfPhaseAgg, kNumProfPhases>& totals,
                 std::uint32_t seen_mask)
{
    const auto p = static_cast<unsigned>(node.phase);
    ProfPhaseAgg& agg = totals[p];
    agg.calls += node.calls;
    agg.exclusiveNs += node.exclusiveNs;
    // Inclusive time telescopes through re-entrant nesting: only nodes
    // with no same-phase ancestor contribute, so "all time spent under
    // phase X" is counted once however deep X recurses into itself.
    if ((seen_mask & (1u << p)) == 0)
        agg.inclusiveNs += node.inclusiveNs;
    for (const ProfSummaryNode& c : node.children)
        accumulatePhases(c, totals, seen_mask | (1u << p));
}

void
mergeNode(ProfSummaryNode& into, const ProfSummaryNode& from)
{
    into.calls += from.calls;
    into.inclusiveNs += from.inclusiveNs;
    into.exclusiveNs += from.exclusiveNs;
    for (const ProfSummaryNode& fc : from.children) {
        // Children stay sorted by phase id; find-or-insert keeps the
        // merged structure independent of merge order.
        auto it = std::lower_bound(
            into.children.begin(), into.children.end(), fc.phase,
            [](const ProfSummaryNode& n, ProfPhase p) {
                return n.phase < p;
            });
        if (it == into.children.end() || it->phase != fc.phase) {
            ProfSummaryNode blank;
            blank.phase = fc.phase;
            it = into.children.insert(it, blank);
        }
        mergeNode(*it, fc);
    }
}

void
nodeToJson(JsonWriter& w, const ProfSummaryNode& node)
{
    w.beginObject();
    w.kv("phase", profPhaseName(node.phase));
    w.kv("calls", node.calls);
    w.kv("inclusive_ns", node.inclusiveNs);
    w.kv("exclusive_ns", node.exclusiveNs);
    if (!node.children.empty()) {
        w.key("children").beginArray();
        for (const ProfSummaryNode& c : node.children)
            nodeToJson(w, c);
        w.endArray();
    }
    w.endObject();
}

void
foldNode(FoldedWriter& folded, std::vector<std::string_view>& path,
         const ProfSummaryNode& node)
{
    path.push_back(profPhaseName(node.phase));
    folded.stack(path, node.exclusiveNs);
    for (const ProfSummaryNode& c : node.children)
        foldNode(folded, path, c);
    path.pop_back();
}

} // namespace

ProfSummary
HostProfiler::summarize() const
{
    SDPCM_ASSERT(depth_ == 0, "profiler summarize with ", depth_,
                 " scope(s) still open");
    ProfSummary s;
    s.enabled = true;
    s.samplePeriod = sampleMask_ + 1;

    // Rebuild the tree recursively in phase-id order (the child table is
    // already phase-indexed, so iteration order is the sort order).
    const auto copy = [&](const auto& self,
                          std::uint32_t idx) -> ProfSummaryNode {
        const Node& n = nodes_[idx];
        ProfSummaryNode out;
        out.phase = n.phase;
        out.calls = n.calls;
        out.inclusiveNs = n.inclusiveNs;
        out.exclusiveNs = n.exclusiveNs;
        for (unsigned p = 0; p < kNumProfPhases; ++p) {
            if (n.child[p] != kNoNode)
                out.children.push_back(self(self, n.child[p]));
        }
        return out;
    };
    s.root = copy(copy, 0);
    checkTelescoping(s.root, true);
    return s;
}

std::uint64_t
ProfSummary::totalNs() const
{
    return childInclusiveSum(root);
}

std::array<ProfPhaseAgg, kNumProfPhases>
ProfSummary::phaseTotals() const
{
    std::array<ProfPhaseAgg, kNumProfPhases> totals{};
    for (const ProfSummaryNode& c : root.children)
        accumulatePhases(c, totals, 0);
    return totals;
}

void
ProfSummary::merge(const ProfSummary& other)
{
    if (!other.enabled)
        return;
    enabled = true;
    samplePeriod = std::max(samplePeriod, other.samplePeriod);
    mergeNode(root, other.root);
}

void
writeProfileJson(std::ostream& os, const std::string& label,
                 const ProfSummary& summary)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("kind", "sdpcm_profile");
    w.kv("schema_version", std::uint64_t(1));
    w.kv("label", label);
    w.kv("sample_period",
         static_cast<std::uint64_t>(summary.samplePeriod));
    w.kv("total_ns", summary.totalNs());
    const auto totals = summary.phaseTotals();
    w.key("phases").beginArray();
    for (unsigned p = 0; p < kNumProfPhases; ++p) {
        if (totals[p].calls == 0)
            continue;
        w.beginObject();
        w.kv("phase", profPhaseName(static_cast<ProfPhase>(p)));
        w.kv("calls", totals[p].calls);
        w.kv("inclusive_ns", totals[p].inclusiveNs);
        w.kv("exclusive_ns", totals[p].exclusiveNs);
        w.endObject();
    }
    w.endArray();
    w.key("tree");
    nodeToJson(w, summary.root);
    w.endObject();
    os << "\n";
}

void
writeProfileFolded(std::ostream& os, const std::string& label,
                   const ProfSummary& summary)
{
    FoldedWriter folded(os);
    std::vector<std::string_view> path;
    if (!label.empty())
        path.push_back(label);
    // Start at the root's children: the synthetic Root frame carries no
    // time of its own and would only add an empty band to the graph.
    for (const ProfSummaryNode& c : summary.root.children)
        foldNode(folded, path, c);
}

void
printProfileTop(std::ostream& os, const std::string& label,
                const ProfSummary& summary, unsigned top_n)
{
    const auto totals = summary.phaseTotals();
    struct Row
    {
        ProfPhase phase;
        ProfPhaseAgg agg;
    };
    std::vector<Row> rows;
    for (unsigned p = 0; p < kNumProfPhases; ++p) {
        if (totals[p].calls > 0)
            rows.push_back(Row{static_cast<ProfPhase>(p), totals[p]});
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        if (a.agg.exclusiveNs != b.agg.exclusiveNs)
            return a.agg.exclusiveNs > b.agg.exclusiveNs;
        return a.phase < b.phase; // deterministic tie-break
    });
    if (rows.size() > top_n)
        rows.resize(top_n);

    const std::uint64_t total = summary.totalNs();
    os << "host-phase blame [" << label << "] - "
       << TablePrinter::fmt(static_cast<double>(total) / 1e6, 1)
       << " ms measured";
    if (summary.samplePeriod > 1)
        os << " (sampled 1/" << summary.samplePeriod << ")";
    os << "\n";
    TablePrinter table({"phase", "calls", "excl ms", "% of total",
                        "incl ms", "ns/call"});
    for (const Row& row : rows) {
        const double excl = static_cast<double>(row.agg.exclusiveNs);
        const double share =
            total ? 100.0 * excl / static_cast<double>(total) : 0.0;
        const double per_call =
            row.agg.calls ? excl / static_cast<double>(row.agg.calls)
                          : 0.0;
        table.addRow({profPhaseName(row.phase),
                      std::to_string(row.agg.calls),
                      TablePrinter::fmt(excl / 1e6, 2),
                      TablePrinter::fmt(share, 1),
                      TablePrinter::fmt(
                          static_cast<double>(row.agg.inclusiveNs) / 1e6,
                          2),
                      TablePrinter::fmt(per_call, 0)});
    }
    table.print(os);
}

void
addProfMetrics(StatSnapshot& s, const ProfSummary& summary)
{
    if (!summary.enabled)
        return;
    s.set("prof.total_ns", static_cast<double>(summary.totalNs()));
    s.set("prof.sample_period",
          static_cast<double>(summary.samplePeriod));
    const auto totals = summary.phaseTotals();
    for (unsigned p = 0; p < kNumProfPhases; ++p) {
        // Phases a run never entered stay absent, mirroring the span
        // metrics' absent-when-unused rule.
        if (totals[p].calls == 0)
            continue;
        const std::string prefix =
            std::string("prof.") +
            profPhaseName(static_cast<ProfPhase>(p)) + ".";
        s.set(prefix + "calls", static_cast<double>(totals[p].calls));
        s.set(prefix + "excl_ns",
              static_cast<double>(totals[p].exclusiveNs));
        s.set(prefix + "incl_ns",
              static_cast<double>(totals[p].inclusiveNs));
    }
}

} // namespace sdpcm
