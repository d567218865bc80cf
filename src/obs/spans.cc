#include "obs/spans.hh"

#include <algorithm>
#include <ostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "obs/folded.hh"
#include "obs/json.hh"

namespace sdpcm {

const char*
spanPhaseName(SpanPhase phase)
{
    switch (phase) {
      case SpanPhase::QueueWait:
        return "QueueWait";
      case SpanPhase::Drain:
        return "Drain";
      case SpanPhase::PreReadUp:
        return "PreReadUp";
      case SpanPhase::PreReadLow:
        return "PreReadLow";
      case SpanPhase::WriteRounds:
        return "WriteRounds";
      case SpanPhase::VerifyUp:
        return "VerifyUp";
      case SpanPhase::VerifyLow:
        return "VerifyLow";
      case SpanPhase::LazyCorrect:
        return "LazyCorrect";
      case SpanPhase::CancelStall:
        return "CancelStall";
      case SpanPhase::Retry:
        return "Retry";
      case SpanPhase::ReadService:
        return "ReadService";
    }
    return "?";
}

std::uint64_t
SpanSummary::totalCritical(bool is_write) const
{
    std::uint64_t n = 0;
    for (const auto& agg : byKind(is_write))
        n += agg.criticalCycles;
    return n;
}

std::uint64_t
SpanSummary::totalHidden(bool is_write) const
{
    std::uint64_t n = 0;
    for (const auto& agg : byKind(is_write))
        n += agg.hiddenCycles;
    return n;
}

void
SpanSummary::merge(const SpanSummary& other)
{
    enabled = enabled || other.enabled;
    writesClosed += other.writesClosed;
    readsClosed += other.readsClosed;
    openAtEnd += other.openAtEnd;
    cancelStallCycles += other.cancelStallCycles;
    writeEndToEnd.merge(other.writeEndToEnd);
    readEndToEnd.merge(other.readEndToEnd);
    for (unsigned p = 0; p < kNumSpanPhases; ++p) {
        write[p].merge(other.write[p]);
        read[p].merge(other.read[p]);
    }
}

SpanRecorder::Record&
SpanRecorder::rec(Handle h)
{
    SDPCM_ASSERT(h < pool_.size() && pool_[h].open,
                 "bad span handle ", h);
    return pool_[h];
}

void
SpanRecorder::accumulate(Record& r, Tick now)
{
    r.critical[static_cast<unsigned>(r.cur)] += now - r.curStart;
    r.curStart = now;
}

SpanRecorder::Handle
SpanRecorder::open(bool is_write, Tick now)
{
    Handle h;
    if (!free_.empty()) {
        h = free_.back();
        free_.pop_back();
    } else {
        h = static_cast<Handle>(pool_.size());
        pool_.emplace_back();
    }
    Record& r = pool_[h];
    r.isWrite = is_write;
    r.open = true;
    r.start = now;
    r.curStart = now;
    r.attemptStart = now;
    r.cur = SpanPhase::QueueWait;
    r.critical.fill(0);
    r.hidden.fill(0);
    r.attemptSnap.fill(0);
    return h;
}

void
SpanRecorder::transition(Handle h, SpanPhase next, Tick now)
{
    Record& r = rec(h);
    accumulate(r, now);
    r.cur = next;
}

void
SpanRecorder::transitionSplit(Handle h, SpanPhase stolen,
                              Tick stolen_cycles, SpanPhase next,
                              Tick now)
{
    Record& r = rec(h);
    const Tick segment = now - r.curStart;
    SDPCM_ASSERT(stolen_cycles <= segment,
                 "span split steals ", stolen_cycles, " of a ", segment,
                 "-cycle segment");
    r.critical[static_cast<unsigned>(r.cur)] += segment - stolen_cycles;
    r.critical[static_cast<unsigned>(stolen)] += stolen_cycles;
    r.curStart = now;
    r.cur = next;
}

void
SpanRecorder::hidden(Handle h, SpanPhase phase, Tick cycles)
{
    rec(h).hidden[static_cast<unsigned>(phase)] += cycles;
}

void
SpanRecorder::beginAttempt(Handle h, Tick now)
{
    Record& r = rec(h);
    accumulate(r, now);
    r.attemptSnap = r.critical;
    r.attemptStart = now;
    r.cur = SpanPhase::QueueWait;
}

void
SpanRecorder::cancelAttempt(Handle h, Tick now)
{
    Record& r = rec(h);
    // Re-label the whole attempt (including any mid-attempt suspension)
    // as CancelStall: its work is discarded and will be re-done.
    const Tick stalled = now - r.attemptStart;
    r.critical = r.attemptSnap;
    r.critical[static_cast<unsigned>(SpanPhase::CancelStall)] += stalled;
    r.curStart = now;
    r.cur = SpanPhase::Retry;
    cancelStallCycles_ += stalled;
}

void
SpanRecorder::close(Handle h, Tick now)
{
    Record& r = rec(h);
    accumulate(r, now);

    const Tick total = now - r.start;
    Tick sum = 0;
    for (Tick c : r.critical)
        sum += c;
    SDPCM_ASSERT(sum == total, "span phases sum to ", sum,
                 " but end-to-end latency is ", total);

    auto& aggs = r.isWrite ? closed_.write : closed_.read;
    for (unsigned p = 0; p < kNumSpanPhases; ++p) {
        if (r.critical[p] > 0) {
            aggs[p].requests += 1;
            aggs[p].criticalCycles += r.critical[p];
            aggs[p].perRequest.record(static_cast<double>(r.critical[p]));
        }
        aggs[p].hiddenCycles += r.hidden[p];
    }
    if (r.isWrite) {
        closed_.writesClosed += 1;
        closed_.writeEndToEnd.record(static_cast<double>(total));
    } else {
        closed_.readsClosed += 1;
        closed_.readEndToEnd.record(static_cast<double>(total));
    }

    r.open = false;
    free_.push_back(h);
}

SpanSummary
SpanRecorder::summarize() const
{
    SpanSummary s = closed_;
    s.enabled = true;
    s.cancelStallCycles = cancelStallCycles_;
    s.openAtEnd = 0;
    for (const Record& r : pool_) {
        if (r.open)
            s.openAtEnd += 1;
    }
    return s;
}

void
writeFoldedStacks(std::ostream& os, const std::string& scheme,
                  const SpanSummary& summary)
{
    FoldedWriter folded(os);
    const auto fold = [&](const char* kind,
                          const std::array<SpanPhaseAgg,
                                           kNumSpanPhases>& aggs) {
        for (unsigned p = 0; p < kNumSpanPhases; ++p) {
            const char* phase =
                spanPhaseName(static_cast<SpanPhase>(p));
            // Critical-path time is a leaf stack; hidden (overlapped)
            // time hangs under QueueWait, where it was absorbed. The
            // writer drops zero weights, preserving the output contract.
            folded.stack({scheme, kind, phase}, aggs[p].criticalCycles);
            folded.stack({scheme, kind, "QueueWait", phase},
                         aggs[p].hiddenCycles);
        }
    };
    fold("write", summary.write);
    fold("read", summary.read);
}

void
printSpanTop(std::ostream& os, const std::string& label,
             const SpanSummary& summary, unsigned top_n)
{
    struct Row
    {
        const char* kind;
        SpanPhase phase;
        const SpanPhaseAgg* agg;
    };
    std::vector<Row> rows;
    for (unsigned p = 0; p < kNumSpanPhases; ++p) {
        const auto phase = static_cast<SpanPhase>(p);
        if (summary.write[p].criticalCycles > 0 ||
            summary.write[p].hiddenCycles > 0) {
            rows.push_back(Row{"write", phase, &summary.write[p]});
        }
        if (summary.read[p].criticalCycles > 0 ||
            summary.read[p].hiddenCycles > 0) {
            rows.push_back(Row{"read", phase, &summary.read[p]});
        }
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return a.agg->criticalCycles > b.agg->criticalCycles;
    });
    if (rows.size() > top_n)
        rows.resize(top_n);

    const std::uint64_t total = summary.totalCritical(true) +
                                summary.totalCritical(false);
    os << "span blame [" << label << "] - " << summary.writesClosed
       << " writes, " << summary.readsClosed << " reads closed, "
       << summary.openAtEnd << " open at end\n";
    TablePrinter table({"kind", "phase", "critical", "% of total",
                        "hidden", "reqs", "mean", "p99"});
    for (const Row& row : rows) {
        const double share = total
            ? 100.0 * static_cast<double>(row.agg->criticalCycles) /
                  static_cast<double>(total)
            : 0.0;
        table.addRow({row.kind, spanPhaseName(row.phase),
                      std::to_string(row.agg->criticalCycles),
                      TablePrinter::fmt(share, 1),
                      std::to_string(row.agg->hiddenCycles),
                      std::to_string(row.agg->perRequest.count()),
                      TablePrinter::fmt(row.agg->perRequest.mean(), 1),
                      TablePrinter::fmt(
                          row.agg->perRequest.percentile(0.99), 0)});
    }
    table.print(os);
}

void
spanSummaryToJson(JsonWriter& w, const SpanSummary& summary)
{
    const auto kind = [&](const char* name,
                          const std::array<SpanPhaseAgg,
                                           kNumSpanPhases>& aggs,
                          const LatencyStat& e2e,
                          std::uint64_t closed) {
        w.key(name).beginObject();
        w.kv("closed", closed);
        w.key("endToEnd").beginObject();
        w.kv("mean", e2e.mean());
        w.kv("p50", e2e.percentile(0.50));
        w.kv("p99", e2e.percentile(0.99));
        w.endObject();
        w.key("phases").beginObject();
        for (unsigned p = 0; p < kNumSpanPhases; ++p) {
            const SpanPhaseAgg& agg = aggs[p];
            if (agg.requests == 0 && agg.hiddenCycles == 0)
                continue;
            w.key(spanPhaseName(static_cast<SpanPhase>(p)))
                .beginObject();
            w.kv("requests", agg.requests);
            w.kv("critical", agg.criticalCycles);
            w.kv("hidden", agg.hiddenCycles);
            w.kv("mean", agg.perRequest.mean());
            w.kv("p50", agg.perRequest.percentile(0.50));
            w.kv("p99", agg.perRequest.percentile(0.99));
            w.endObject();
        }
        w.endObject();
        w.endObject();
    };

    w.beginObject();
    w.kv("openAtEnd", summary.openAtEnd);
    w.kv("cancelStallCycles", summary.cancelStallCycles);
    kind("write", summary.write, summary.writeEndToEnd,
         summary.writesClosed);
    kind("read", summary.read, summary.readEndToEnd,
         summary.readsClosed);
    w.endObject();
}

void
writeSpanBlameJson(std::ostream& os, const std::string& bench,
                   const std::vector<SpanBlameEntry>& entries)
{
    writeRunsJson(os, "sdpcm_span_blame", bench, "spans", entries,
                  &spanSummaryToJson);
}

void
addSpanMetrics(StatSnapshot& s, const SpanSummary& summary)
{
    if (!summary.enabled)
        return;
    const auto kind = [&](const std::string& name,
                          const std::array<SpanPhaseAgg,
                                           kNumSpanPhases>& aggs,
                          const LatencyStat& e2e,
                          std::uint64_t closed) {
        const std::string base = "span." + name + ".";
        s.set(base + "closed", static_cast<double>(closed));
        s.set(base + "endToEnd.mean", e2e.mean());
        s.set(base + "endToEnd.p50", e2e.percentile(0.50));
        s.set(base + "endToEnd.p99", e2e.percentile(0.99));
        for (unsigned p = 0; p < kNumSpanPhases; ++p) {
            const SpanPhaseAgg& agg = aggs[p];
            // Phases a run never exercised stay absent: scheme knobs
            // decide which phases exist, and the regression gate treats
            // a metric that disappears as a hard failure.
            if (agg.requests == 0 && agg.hiddenCycles == 0)
                continue;
            const std::string prefix =
                base + spanPhaseName(static_cast<SpanPhase>(p)) + ".";
            s.set(prefix + "requests",
                  static_cast<double>(agg.requests));
            s.set(prefix + "critical",
                  static_cast<double>(agg.criticalCycles));
            s.set(prefix + "hidden",
                  static_cast<double>(agg.hiddenCycles));
            s.set(prefix + "mean", agg.perRequest.mean());
            s.set(prefix + "p50", agg.perRequest.percentile(0.50));
            s.set(prefix + "p99", agg.perRequest.percentile(0.99));
        }
    };
    kind("write", summary.write, summary.writeEndToEnd,
         summary.writesClosed);
    kind("read", summary.read, summary.readEndToEnd,
         summary.readsClosed);
    s.set("span.openAtEnd", static_cast<double>(summary.openAtEnd));
    s.set("span.cancelStallCycles",
          static_cast<double>(summary.cancelStallCycles));
}

} // namespace sdpcm
