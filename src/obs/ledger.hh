/**
 * @file
 * Disturbance-provenance ledger.
 *
 * The paper's argument is causal: an aggressor RESET pulse flips cells
 * in neighbour lines, and the schemes differ in *when and how* those
 * flips are paid for (VnC repairs at verify, LazyCorrection parks them
 * in ECP, (n:m)-Alloc avoids the neighbours altogether). The aggregate
 * counters (DeviceStats, per-line LineCounters) record *that* flips
 * happened; the ledger records the chain itself — aggressor write
 * (line, bank, correction-or-data, cascade depth, issuing core) →
 * victim flip (line, cell, word-line or bit-line) → first resolution —
 * with cycle timestamps, and aggregates it into aggressor-blame tables,
 * a cascade-depth histogram and time-to-resolution latency sketches.
 *
 * Event model. Every flip the device's disturbance model commits is
 * recorded pending, keyed by victim (bank, row, line). A pending flip
 * resolves exactly once, into one of five outcomes:
 *  - Absorbed:    parked in the victim line's ECP (LazyCorrection).
 *  - Repaired:    DIN check-and-rewrite at write commit (word-line
 *                 hits repaired by the aggressor's own service).
 *  - Cancelled:   repaired while unwinding a cancelled write attempt.
 *  - Corrected:   RESET by a correction write (eager VnC repair or a
 *                 lazy/cascade correction).
 *  - Overwritten: a later data write to the victim line rewrote the
 *                 cell before any corrective action touched it.
 * Flips still pending when the run ends are `outstanding`. Repair /
 * absorb / correct events that find no pending flip (e.g. a correction
 * write re-RESETting a cell whose flip was already absorbed into ECP)
 * are counted as late fixes per class and never asserted against.
 *
 * Telescoping cross-checks (asserted in System::metrics and a tier-1
 * test): flipsWl == DeviceStats::wlDisturbances, flipsBl ==
 * blDisturbances, absorbed-first + late absorbs == ecpWdRecorded, the
 * five outcomes plus outstanding sum to the flip total, and with
 * per-line counters on the summary flip total equals the sum of
 * per-line `wdFlips`.
 *
 * Discipline matches obs/spans.hh: device and controller hold a null
 * pointer when the ledger is off (every emission site is one null
 * check), and bench_wallclock's observers pass proves the ledger-on run
 * leaves every pre-existing metric bit-identical (observe-only).
 */

#ifndef SDPCM_OBS_LEDGER_HH
#define SDPCM_OBS_LEDGER_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/observers.hh"
#include "pcm/address.hh"
#include "pcm/line_table.hh"
#include "sim/event_queue.hh"

namespace sdpcm {

class JsonWriter;

/** First resolution of a recorded victim flip. */
enum class WdOutcome : std::uint8_t
{
    Absorbed,    //!< parked in the victim line's ECP (LazyCorrection)
    Repaired,    //!< word-line repair at the aggressor's write commit
    Cancelled,   //!< repaired while unwinding a cancelled attempt
    Corrected,   //!< RESET by a correction write
    Overwritten, //!< a later data write rewrote the victim line
};

inline constexpr unsigned kNumWdOutcomes = 5;

const char* wdOutcomeName(WdOutcome outcome);

/** Downstream damage attributed to one aggressor line. */
struct WdBlameEntry
{
    std::uint64_t flipsWl = 0; //!< word-line flips this line caused
    std::uint64_t flipsBl = 0; //!< bit-line flips this line caused
    /** Flips caused while this line was written *as a correction*. */
    std::uint64_t fromCorrection = 0;
    /** How the caused flips were eventually resolved. */
    std::array<std::uint64_t, kNumWdOutcomes> outcomes{};
    /** Cancelled service attempts of this line. */
    std::uint64_t cancels = 0;

    std::uint64_t flips() const { return flipsWl + flipsBl; }

    void
    merge(const WdBlameEntry& other)
    {
        flipsWl += other.flipsWl;
        flipsBl += other.flipsBl;
        fromCorrection += other.fromCorrection;
        for (unsigned i = 0; i < kNumWdOutcomes; ++i)
            outcomes[i] += other.outcomes[i];
        cancels += other.cancels;
    }
};

/** Provenance aggregates of a run (or a merge of runs). */
struct WdLedgerSummary
{
    bool enabled = false;

    std::uint64_t flipsWl = 0;
    std::uint64_t flipsBl = 0;
    /** Flips whose aggressor was a correction write (cascades). */
    std::uint64_t flipsFromCorrection = 0;
    /** First resolutions by class; with `outstanding` they telescope
     *  to the flip total (asserted). */
    std::array<std::uint64_t, kNumWdOutcomes> outcomes{};
    /** Flips still pending when the run ended. */
    std::uint64_t outstanding = 0;
    /** Fix events that found no pending flip, per class (index by the
     *  matching outcome; Cancelled/Overwritten stay 0). */
    std::array<std::uint64_t, kNumWdOutcomes> lateFixes{};
    /** Cancelled write-service attempts observed. */
    std::uint64_t cancels = 0;

    /** Flips by the aggressor's cascade depth (0 = data write). */
    Histogram cascadeDepth{16};
    /** Flips by the core whose request was being serviced. */
    std::vector<std::uint64_t> flipsByCore;

    /** Cycles from flip to resolution, per resolution path (Cancelled
     *  folds into repairLatency; Overwritten is not a correction cost
     *  and is not tracked). */
    LatencyStat absorbLatency;
    LatencyStat repairLatency;
    LatencyStat correctLatency;

    /** Per-aggressor blame in (bank, row, line) order, so iteration is
     *  deterministic. */
    std::map<LineAddr, WdBlameEntry> blame;

    std::uint64_t flips() const { return flipsWl + flipsBl; }
    std::uint64_t outcomeTotal() const;

    void merge(const WdLedgerSummary& other);
};

/**
 * Live event collector. The device emits flip / fix events; the
 * controller brackets them with service context (core, cascade depth,
 * cancel unwinding). All methods are O(1) amortised. Pending flips and
 * blame live in line tables keyed by the line's index; a line's
 * pending list keeps its capacity once resolved, so steady state is
 * allocation-light.
 */
class WdLedger
{
  public:
    WdLedger(const EventQueue& events, const DimmGeometry& geometry);

    // --- Controller-side service context. -----------------------------
    /** Programming rounds for `core`'s request are about to apply;
     *  `depth` is 0 for data writes, the task depth for corrections. */
    void
    beginOp(unsigned core, unsigned depth)
    {
        curCore_ = core;
        curDepth_ = depth;
    }

    /** Word-line repairs until endCancelRepair() belong to a cancelled
     *  attempt being unwound (outcome Cancelled, not Repaired). */
    void beginCancelRepair() { inCancelRepair_ = true; }
    void endCancelRepair() { inCancelRepair_ = false; }

    /** A service attempt of `aggressor` was cancelled. */
    void noteCancel(const LineAddr& aggressor);

    // --- Device-side events. ------------------------------------------
    /** The disturbance model flipped `victim`'s cell `pos` while
     *  writing `aggressor`; `word_line` separates WL from BL hits. */
    void recordFlip(const LineAddr& aggressor, bool from_correction,
                    const LineAddr& victim, unsigned pos, bool word_line);

    /** Cell `pos` of `victim` was parked in ECP (LazyCorrection). */
    void flipAbsorbed(const LineAddr& victim, unsigned pos);

    /** Cell `pos` of `victim` was repaired by a word-line check-and-
     *  rewrite (at write commit, or while unwinding a cancel). */
    void flipRepaired(const LineAddr& victim, unsigned pos);

    /** Cell `pos` of `victim` was RESET by a correction write. */
    void flipCorrected(const LineAddr& victim, unsigned pos);

    /** A data write to `line` committed: its remaining pending flips
     *  were overwritten by fresh content. */
    void noteLineWritten(const LineAddr& line);

    // --- Monotonic counters for the telemetry registry. ---------------
    std::uint64_t flips() const { return agg_.flips(); }
    std::uint64_t flipsWl() const { return agg_.flipsWl; }
    std::uint64_t flipsBl() const { return agg_.flipsBl; }

    std::uint64_t
    outcomeCount(WdOutcome o) const
    {
        return agg_.outcomes[static_cast<unsigned>(o)];
    }

    std::uint64_t
    lateFixCount(WdOutcome o) const
    {
        return agg_.lateFixes[static_cast<unsigned>(o)];
    }

    /** Flips currently awaiting resolution (gauge: can decrease). */
    std::uint64_t outstanding() const { return pendingCount_; }

    /** Snapshot the aggregates; asserts the telescoping invariant. */
    WdLedgerSummary summarize() const;

  private:
    struct PendingFlip
    {
        std::uint16_t pos = 0;
        bool wordLine = false;
        bool fromCorrection = false;
        std::uint16_t depth = 0;
        std::uint32_t core = 0;
        LineIndex aggressor = 0; //!< map_.lineIndex(aggressor)
        Tick tick = 0;
    };

    /** Resolve the pending flip at (victim, pos) as `outcome`; a fix
     *  event with no pending flip books a late fix instead. */
    void resolve(const LineAddr& victim, unsigned pos, WdOutcome outcome,
                 bool is_fix_event);

    void account(const PendingFlip& f, WdOutcome outcome);

    const EventQueue& events_;
    AddressMap map_; //!< line keys: the line's index
    unsigned curCore_ = 0;
    unsigned curDepth_ = 0;
    bool inCancelRepair_ = false;

    LineTable<std::vector<PendingFlip>> pending_; //!< by victim line
    std::uint64_t pendingCount_ = 0;
    /** Blame accumulates unordered on the hot path; summarize() emits
     *  the ordered map. */
    LineTable<WdBlameEntry> blame_;
    WdLedgerSummary agg_; //!< outcomes/latency/histogram accumulator
};

/** Human-readable top-N aggressor lines by flips caused (CLI table). */
void printWdTop(std::ostream& os, const std::string& label,
                const WdLedgerSummary& summary, unsigned top_n);

/** Emit one summary as a JSON object (inside an open writer value). */
void wdLedgerToJson(JsonWriter& w, const WdLedgerSummary& summary);

/** One (scheme, workload) cell of a standalone ledger file. */
using WdLedgerEntry = RunEntry<WdLedgerSummary>;

/** Write a standalone provenance document (`sdpcm_wd_ledger`). */
void writeWdLedgerJson(std::ostream& os, const std::string& bench,
                       const std::vector<WdLedgerEntry>& entries);

/** Flatten a summary into `wd.*` snapshot metrics (report schema). */
void addWdLedgerMetrics(StatSnapshot& s, const WdLedgerSummary& summary);

} // namespace sdpcm

#endif // SDPCM_OBS_LEDGER_HH
