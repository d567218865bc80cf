#include "obs/ledger.hh"

#include <algorithm>
#include <ostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "pcm/geometry.hh"

namespace sdpcm {

const char*
wdOutcomeName(WdOutcome outcome)
{
    switch (outcome) {
      case WdOutcome::Absorbed:
        return "Absorbed";
      case WdOutcome::Repaired:
        return "Repaired";
      case WdOutcome::Cancelled:
        return "Cancelled";
      case WdOutcome::Corrected:
        return "Corrected";
      case WdOutcome::Overwritten:
        return "Overwritten";
    }
    return "?";
}

std::uint64_t
WdLedgerSummary::outcomeTotal() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t o : outcomes)
        n += o;
    return n;
}

void
WdLedgerSummary::merge(const WdLedgerSummary& other)
{
    if (!other.enabled)
        return;
    enabled = true;
    flipsWl += other.flipsWl;
    flipsBl += other.flipsBl;
    flipsFromCorrection += other.flipsFromCorrection;
    for (unsigned i = 0; i < kNumWdOutcomes; ++i) {
        outcomes[i] += other.outcomes[i];
        lateFixes[i] += other.lateFixes[i];
    }
    outstanding += other.outstanding;
    cancels += other.cancels;
    cascadeDepth.merge(other.cascadeDepth);
    if (flipsByCore.size() < other.flipsByCore.size())
        flipsByCore.resize(other.flipsByCore.size(), 0);
    for (std::size_t c = 0; c < other.flipsByCore.size(); ++c)
        flipsByCore[c] += other.flipsByCore[c];
    absorbLatency.merge(other.absorbLatency);
    repairLatency.merge(other.repairLatency);
    correctLatency.merge(other.correctLatency);
    for (const auto& [line, entry] : other.blame)
        blame[line].merge(entry);
}

WdLedger::WdLedger(const EventQueue& events, const DimmGeometry& geometry)
    : events_(events), map_(geometry)
{
    agg_.enabled = true;
}

void
WdLedger::noteCancel(const LineAddr& aggressor)
{
    agg_.cancels += 1;
    blame_[map_.lineIndex(aggressor)].cancels += 1;
}

void
WdLedger::recordFlip(const LineAddr& aggressor, bool from_correction,
                     const LineAddr& victim, unsigned pos, bool word_line)
{
    const LineIndex agg_key = map_.lineIndex(aggressor);
    PendingFlip f;
    f.pos = static_cast<std::uint16_t>(pos);
    f.wordLine = word_line;
    f.fromCorrection = from_correction;
    f.depth = static_cast<std::uint16_t>(curDepth_);
    f.core = curCore_;
    f.tick = events_.now();
    f.aggressor = agg_key;
    pending_[map_.lineIndex(victim)].push_back(f);
    pendingCount_ += 1;

    WdBlameEntry& b = blame_[agg_key];
    if (word_line) {
        agg_.flipsWl += 1;
        b.flipsWl += 1;
    } else {
        agg_.flipsBl += 1;
        b.flipsBl += 1;
    }
    if (from_correction) {
        agg_.flipsFromCorrection += 1;
        b.fromCorrection += 1;
    }
    agg_.cascadeDepth.record(curDepth_);
    if (agg_.flipsByCore.size() <= curCore_)
        agg_.flipsByCore.resize(curCore_ + 1, 0);
    agg_.flipsByCore[curCore_] += 1;
}

void
WdLedger::account(const PendingFlip& f, WdOutcome outcome)
{
    const unsigned o = static_cast<unsigned>(outcome);
    agg_.outcomes[o] += 1;
    blame_[f.aggressor].outcomes[o] += 1;
    const double wait = static_cast<double>(events_.now() - f.tick);
    switch (outcome) {
      case WdOutcome::Absorbed:
        agg_.absorbLatency.record(wait);
        break;
      case WdOutcome::Repaired:
      case WdOutcome::Cancelled:
        agg_.repairLatency.record(wait);
        break;
      case WdOutcome::Corrected:
        agg_.correctLatency.record(wait);
        break;
      case WdOutcome::Overwritten:
        break; // not a correction cost; latency is meaningless
    }
}

void
WdLedger::resolve(const LineAddr& victim, unsigned pos, WdOutcome outcome,
                  bool is_fix_event)
{
    if (std::vector<PendingFlip>* flips =
            pending_.find(map_.lineIndex(victim))) {
        for (PendingFlip& f : *flips) {
            if (f.pos != pos)
                continue;
            account(f, outcome);
            f = flips->back();
            flips->pop_back();
            pendingCount_ -= 1;
            return;
        }
    }
    // A fix touched a cell with no pending flip: e.g. a correction
    // write re-RESETs a cell whose flip was already parked in ECP.
    // Booked per class, never asserted against.
    if (is_fix_event)
        agg_.lateFixes[static_cast<unsigned>(outcome)] += 1;
}

void
WdLedger::flipAbsorbed(const LineAddr& victim, unsigned pos)
{
    resolve(victim, pos, WdOutcome::Absorbed, true);
}

void
WdLedger::flipRepaired(const LineAddr& victim, unsigned pos)
{
    resolve(victim, pos,
            inCancelRepair_ ? WdOutcome::Cancelled : WdOutcome::Repaired,
            true);
}

void
WdLedger::flipCorrected(const LineAddr& victim, unsigned pos)
{
    resolve(victim, pos, WdOutcome::Corrected, true);
}

void
WdLedger::noteLineWritten(const LineAddr& line)
{
    std::vector<PendingFlip>* flips = pending_.find(map_.lineIndex(line));
    if (!flips)
        return;
    for (const PendingFlip& f : *flips)
        account(f, WdOutcome::Overwritten);
    pendingCount_ -= flips->size();
    flips->clear(); // keep the capacity: lines are rewritten often
}

WdLedgerSummary
WdLedger::summarize() const
{
    WdLedgerSummary s = agg_;
    s.outstanding = pendingCount_;
    for (const auto& [line, entry] : blame_.sorted(map_))
        s.blame.emplace_hint(s.blame.end(), line, *entry);
    SDPCM_ASSERT(s.outcomeTotal() + s.outstanding == s.flips(),
                 "ledger outcomes (", s.outcomeTotal(), ") + outstanding (",
                 s.outstanding, ") != flips (", s.flips(), ")");
    return s;
}

namespace {

using Aggressor = std::pair<LineAddr, const WdBlameEntry*>;

/** Blame entries by flips caused, heaviest first. Map order is address
 *  order, so equal-flip aggressors stay address-sorted and the ranking
 *  is deterministic. */
std::vector<Aggressor>
rankAggressors(const WdLedgerSummary& summary)
{
    std::vector<Aggressor> rows;
    rows.reserve(summary.blame.size());
    for (const auto& [line, entry] : summary.blame)
        rows.emplace_back(line, &entry);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Aggressor& a, const Aggressor& b) {
                         return a.second->flips() > b.second->flips();
                     });
    return rows;
}

} // namespace

void
printWdTop(std::ostream& os, const std::string& label,
           const WdLedgerSummary& summary, unsigned top_n)
{
    std::vector<Aggressor> rows = rankAggressors(summary);
    if (rows.size() > top_n)
        rows.resize(top_n);

    os << "wd ledger [" << label << "] - " << summary.flips()
       << " flips (wl " << summary.flipsWl << " / bl " << summary.flipsBl
       << "), " << summary.flipsFromCorrection << " by corrections, "
       << summary.outstanding << " outstanding, " << summary.cancels
       << " cancels\n";
    TablePrinter table({"aggressor", "flips", "wl", "bl", "cascade",
                        "absorbed", "repaired", "corrected",
                        "overwritten", "cancels"});
    const auto at = [](const WdBlameEntry& e, WdOutcome o) {
        return e.outcomes[static_cast<unsigned>(o)];
    };
    for (const auto& [line, entry] : rows) {
        const WdBlameEntry& e = *entry;
        table.addRow(
            {"b" + std::to_string(line.bank) + "/r" +
                 std::to_string(line.row) + "/l" + std::to_string(line.line),
             std::to_string(e.flips()), std::to_string(e.flipsWl),
             std::to_string(e.flipsBl), std::to_string(e.fromCorrection),
             std::to_string(at(e, WdOutcome::Absorbed)),
             std::to_string(at(e, WdOutcome::Repaired) +
                            at(e, WdOutcome::Cancelled)),
             std::to_string(at(e, WdOutcome::Corrected)),
             std::to_string(at(e, WdOutcome::Overwritten)),
             std::to_string(e.cancels)});
    }
    table.print(os);
}

void
wdLedgerToJson(JsonWriter& w, const WdLedgerSummary& summary)
{
    const auto latency = [&](const char* name, const LatencyStat& l) {
        w.key(name).beginObject();
        w.kv("count", l.count());
        w.kv("mean", l.mean());
        w.kv("p50", l.percentile(0.50));
        w.kv("p99", l.percentile(0.99));
        w.endObject();
    };

    w.beginObject();
    w.kv("flips", summary.flips());
    w.kv("flipsWl", summary.flipsWl);
    w.kv("flipsBl", summary.flipsBl);
    w.kv("flipsFromCorrection", summary.flipsFromCorrection);
    w.kv("outstanding", summary.outstanding);
    w.kv("cancels", summary.cancels);
    w.key("outcomes").beginObject();
    for (unsigned i = 0; i < kNumWdOutcomes; ++i)
        w.kv(wdOutcomeName(static_cast<WdOutcome>(i)),
             summary.outcomes[i]);
    w.endObject();
    w.key("lateFixes").beginObject();
    for (unsigned i = 0; i < kNumWdOutcomes; ++i) {
        if (summary.lateFixes[i] > 0)
            w.kv(wdOutcomeName(static_cast<WdOutcome>(i)),
                 summary.lateFixes[i]);
    }
    w.endObject();
    w.key("cascadeDepth").beginObject();
    w.kv("mean", summary.cascadeDepth.mean());
    w.kv("p99", summary.cascadeDepth.percentile(0.99));
    w.key("buckets").beginObject();
    for (std::size_t d = 0; d < summary.cascadeDepth.numBuckets(); ++d) {
        if (summary.cascadeDepth.bucket(d) > 0)
            w.kv(std::to_string(d), summary.cascadeDepth.bucket(d));
    }
    if (summary.cascadeDepth.overflow() > 0)
        w.kv("overflow", summary.cascadeDepth.overflow());
    w.endObject();
    w.endObject();
    w.key("flipsByCore").beginArray();
    for (const std::uint64_t n : summary.flipsByCore)
        w.value(n);
    w.endArray();
    w.key("latency").beginObject();
    latency("absorb", summary.absorbLatency);
    latency("repair", summary.repairLatency);
    latency("correct", summary.correctLatency);
    w.endObject();

    // The blame table can cover every written line; the export keeps
    // the heaviest aggressors (deterministic order) plus the total so
    // consumers know what was truncated.
    constexpr std::size_t kMaxAggressors = 100;
    std::vector<Aggressor> rows = rankAggressors(summary);
    w.kv("aggressorsTotal", static_cast<std::uint64_t>(rows.size()));
    if (rows.size() > kMaxAggressors)
        rows.resize(kMaxAggressors);
    w.key("topAggressors").beginArray();
    for (const auto& [line, entry] : rows) {
        const WdBlameEntry& e = *entry;
        w.beginObject();
        w.kv("bank", std::uint64_t{line.bank});
        w.kv("row", line.row);
        w.kv("line", std::uint64_t{line.line});
        w.kv("flipsWl", e.flipsWl);
        w.kv("flipsBl", e.flipsBl);
        w.kv("fromCorrection", e.fromCorrection);
        w.kv("cancels", e.cancels);
        w.key("outcomes").beginObject();
        for (unsigned i = 0; i < kNumWdOutcomes; ++i) {
            if (e.outcomes[i] > 0)
                w.kv(wdOutcomeName(static_cast<WdOutcome>(i)),
                     e.outcomes[i]);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeWdLedgerJson(std::ostream& os, const std::string& bench,
                  const std::vector<WdLedgerEntry>& entries)
{
    writeRunsJson(os, "sdpcm_wd_ledger", bench, "wd", entries,
                  &wdLedgerToJson);
}

void
addWdLedgerMetrics(StatSnapshot& s, const WdLedgerSummary& summary)
{
    if (!summary.enabled)
        return;
    const auto at = [&](WdOutcome o) {
        return static_cast<double>(
            summary.outcomes[static_cast<unsigned>(o)]);
    };
    const auto late = [&](WdOutcome o) {
        return static_cast<double>(
            summary.lateFixes[static_cast<unsigned>(o)]);
    };
    s.set("wd.flips", static_cast<double>(summary.flips()));
    s.set("wd.flipsWl", static_cast<double>(summary.flipsWl));
    s.set("wd.flipsBl", static_cast<double>(summary.flipsBl));
    s.set("wd.flipsFromCorrection",
          static_cast<double>(summary.flipsFromCorrection));
    s.set("wd.absorbed", at(WdOutcome::Absorbed));
    s.set("wd.repaired", at(WdOutcome::Repaired));
    s.set("wd.cancelRepaired", at(WdOutcome::Cancelled));
    s.set("wd.corrected", at(WdOutcome::Corrected));
    s.set("wd.overwritten", at(WdOutcome::Overwritten));
    s.set("wd.outstanding", static_cast<double>(summary.outstanding));
    s.set("wd.cancels", static_cast<double>(summary.cancels));
    s.set("wd.lateAbsorbs", late(WdOutcome::Absorbed));
    s.set("wd.lateRepairs", late(WdOutcome::Repaired));
    s.set("wd.lateCorrects", late(WdOutcome::Corrected));
    s.set("wd.aggressorLines",
          static_cast<double>(summary.blame.size()));
    s.set("wd.cascadeDepth.mean", summary.cascadeDepth.mean());
    s.set("wd.cascadeDepth.p99", summary.cascadeDepth.percentile(0.99));
    s.set("wd.absorbLatency.mean", summary.absorbLatency.mean());
    s.set("wd.absorbLatency.p99",
          summary.absorbLatency.percentile(0.99));
    s.set("wd.repairLatency.mean", summary.repairLatency.mean());
    s.set("wd.repairLatency.p99",
          summary.repairLatency.percentile(0.99));
    s.set("wd.correctLatency.mean", summary.correctLatency.mean());
    s.set("wd.correctLatency.p99",
          summary.correctLatency.percentile(0.99));
}

} // namespace sdpcm
