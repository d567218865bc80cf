/**
 * @file
 * Functional + fault model of the super dense PCM DIMM.
 *
 * Every line starts with deterministic pseudo-random content, a pure
 * function of the device seed and the line's place. The device marks
 * each line it touches in its row's slot of a row table
 * (pcm/row_table.hh), and records a line's physical cell states only
 * once they can differ from that seed content: when the line is
 * written or corrected, gets an ECP entry parked, is given a WD flip,
 * or draws a stuck cell at its first touch (on an aged device, or one
 * with a fault injector). A read of a line without a record, and the
 * WD scan's look at a neighbour without one, answer from its seed
 * content. The device applies DIN encoding on the
 * write path, injects thermal write disturbance into word-line and
 * bit-line neighbours of every RESET pulse, maintains per-line ECP
 * metadata (hard errors + LazyCorrection WD parking) and tracks wear
 * for the lifetime studies.
 *
 * Timing is the memory controller's job: the device exposes writes as a
 * sequence of <=128-cell program rounds so the controller can charge each
 * round's bank occupancy and support mid-write cancellation; a cancelled
 * write simply stops applying rounds, leaving the partially-programmed
 * state (and any disturbance already caused) in place, exactly the
 * behaviour Section 6.8 attributes to write cancellation in SD-PCM.
 */

#ifndef SDPCM_PCM_DEVICE_HH
#define SDPCM_PCM_DEVICE_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/column.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "obs/observers.hh"
#include "obs/profiler.hh"
#include "encoding/diffwrite.hh"
#include "encoding/din.hh"
#include "pcm/address.hh"
#include "pcm/ecp.hh"
#include "pcm/geometry.hh"
#include "pcm/line.hh"
#include "pcm/line_table.hh"
#include "pcm/row_table.hh"
#include "pcm/timing.hh"

namespace sdpcm {

class FaultInjector;

/** Per-direction disturbance probabilities (per RESET, vulnerable cell). */
struct WdRates
{
    double wordLine = 0.099; //!< Table 1, 4F^2 word-line neighbour
    double bitLine = 0.115;  //!< Table 1, 4F^2 bit-line neighbour
};

/** Endurance / aging model parameters (Figure 14). */
struct AgingConfig
{
    /** Fraction of DIMM lifetime already consumed, in [0, 1]. */
    double ageFraction = 0.0;
    /** Mean hard errors per line when the DIMM reaches end of life. */
    static constexpr double meanHardPerLineAtEol = 2.0;
    /** Wear-out acceleration exponent (errors ~ mean * age^exponent). */
    static constexpr double exponent = 3.0;
};

/**
 * Per-line activity counters for spatial heatmaps (opt-in).
 *
 * Disabled by default: the hot path pays only a predictable branch per
 * increment site when `DeviceConfig::lineCounters` is off. The counters
 * live in a column of their own, beside the line records and numbered
 * like them, that exists only when they are on; a line without a
 * record has all-zero counters (it has only been read).
 */
struct LineCounters
{
    std::uint32_t writes = 0;      //!< completed normal data writes
    std::uint32_t wdFlips = 0;     //!< WD flips landed on this line (victim)
    std::uint32_t wdAbsorbed = 0;  //!< WD errors parked in this line's ECP
    std::uint32_t wdCorrected = 0; //!< cells fixed by correction/DIN repair
    std::uint32_t ecpHighWater = 0; //!< peak ECP entries in use
    /** Data cells programmed on this line (wear: every program pulse of
     *  normal writes, corrections and WL repairs; across all touched
     *  lines this telescopes to DeviceStats::dataCellWrites). */
    std::uint32_t cellWrites = 0;
};

/** One line's counters with its address (heatmap export). */
struct LineCounterSample
{
    LineAddr addr;
    LineCounters counters;
};

/** Device configuration. */
struct DeviceConfig
{
    DimmGeometry geometry;
    PcmTiming timing;
    WdRates rates;          //!< set bitLine = 0 for the 8F^2 DIN design
    unsigned ecpEntries = 6; //!< at most kMaxEcpEntries
    bool dinEnabled = true;
    /**
     * Encode the data chip with Flip-N-Write, DinConfig::flipNWrite(),
     * instead of `din` (mutually exclusive with dinEnabled). FNW
     * minimises programmed cells but, unlike DIN, gives no word-line
     * disturbance suppression — the full Table 1 rate applies.
     */
    bool fnwEnabled = false;
    DinConfig din;
    AgingConfig aging;
    std::uint64_t seed = 1;
    /** Track per-line LineCounters for spatial heatmaps (see above). */
    bool lineCounters = false;
};

/** Aggregate device statistics. */
struct DeviceStats
{
    std::uint64_t lineReads = 0;
    std::uint64_t lineWrites = 0;       //!< completed normal writes
    std::uint64_t correctionWrites = 0; //!< completed correction writes

    std::uint64_t dataCellWrites = 0;       //!< all programmed cells
    std::uint64_t normalCellWrites = 0;     //!< from normal writes
    std::uint64_t correctionCellWrites = 0; //!< from corrections + WL fixes

    std::uint64_t wlDisturbances = 0; //!< word-line WD errors injected
    std::uint64_t blDisturbances = 0; //!< bit-line WD errors injected

    std::uint64_t ecpWdRecorded = 0;  //!< WD errors parked in ECP
    std::uint64_t ecpOverflows = 0;   //!< WD parking attempts that spilled
    std::uint64_t ecpBitsWritten = 0; //!< differential cell writes, ECP chip
    std::uint64_t ecpWdReleased = 0;  //!< WD entries cleared by writes
    std::uint64_t hardErrors = 0;     //!< aging stuck-at cells drawn
    std::uint64_t ecpSaturatedLines = 0; //!< hard errors exceeding ECP-N
    std::uint64_t injectedStuckCells = 0; //!< fault-injected stuck cells

    /** Figure 4(a): WD errors within the written word-line, per write. */
    RunningStat wlErrorsPerWrite;
    /** Figure 4(b): WD errors per adjacent line, per write. */
    RunningStat blErrorsPerAdjacentLine;
    Histogram blErrorHistogram{16};
};

/**
 * The PCM DIMM functional model. Its observers: the WD ledger (every
 * flip and fix) and the profiler (pulse, WD-probe and readout loops).
 */
class PcmDevice : public Observed
{
    struct LineState;

  public:
    explicit PcmDevice(const DeviceConfig& config);

    const DeviceConfig& config() const { return config_; }
    const AddressMap& addressMap() const { return map_; }

    /** Override disturbance rates at runtime (tests, aging studies). */
    void
    setRates(const WdRates& rates)
    {
        config_.rates = rates;
    }
    DeviceStats& stats() { return stats_; }
    const DeviceStats& stats() const { return stats_; }

    /**
     * Attach a deterministic fault source (see verify/faultinject.hh).
     * Injected stuck cells apply to lines first touched after this call,
     * so attach before the first access; WD boosts apply immediately.
     * A line that draws an injected stuck cell is recorded at its first
     * touch, like any line with a stuck cell. The injector draws from
     * its own RNG stream — the device's sequence is identical with and
     * without one attached.
     */
    void setFaultInjector(FaultInjector* inject) { inject_ = inject; }

    /**
     * Running maximum of per-line programmed-cell counts (wear-skew
     * telemetry gauge). 0 unless `DeviceConfig::lineCounters` is on.
     */
    std::uint32_t maxLineCellWrites() const { return maxLineCellWrites_; }

    /**
     * Logical-space mask of cells whose intended value the line cannot
     * represent: stuck-at cells beyond ECP capacity. The integrity oracle
     * excludes these positions from content comparisons.
     */
    LineData uncorrectableMask(const LineAddr& addr);

    /** Logical read: raw cells + ECP overlay + DIN decode. */
    LineData readLine(const LineAddr& addr);

    /**
     * Functional backdoor read (no statistics): used by the workload layer
     * to synthesise write payloads with a controlled bit-flip density.
     */
    LineData peekLine(const LineAddr& addr);

    /**
     * An in-flight write, broken into program rounds.
     *
     * For a normal write the target is the DIN encoding of the new logical
     * data against current cell states; for a correction write the target
     * RESETs the named disturbed cells.
     */
    /** One program pulse group: <=parallelism cells of one kind. */
    struct ProgramRound
    {
        LineData mask;       //!< cells this round programs
        bool isReset = false;
    };

    struct WritePlan
    {
        LineAddr addr;
        LineData targetPhysical;  //!< desired cell states (stuck cells excl.)
        LineData intendedPhysical; //!< target before stuck-cell masking
        std::uint64_t targetFlags = 0;
        WriteMasks masks;          //!< full program masks (diagnostics)
        LineData writtenMask;      //!< all cells this write programs
        std::vector<ProgramRound> rounds;
        std::size_t nextRound = 0;
        bool isCorrection = false;
        // Disturbance bookkeeping for this write.
        std::vector<unsigned> wlHits;   //!< in-row disturbed cell keys
        unsigned blHitsUpper = 0;
        unsigned blHitsLower = 0;

        bool
        roundsRemaining() const
        {
            return nextRound < rounds.size();
        }

        unsigned
        totalRounds() const
        {
            return static_cast<unsigned>(rounds.size());
        }

      private:
        friend class PcmDevice;
        /** A line this write touches, as the plan or its WD scan found
         *  it. */
        struct Pin
        {
            LineState* record = nullptr;      //!< its record, once it has one
            LineCounters* counters = nullptr; //!< its counters, once pinned
            bool touched = false;             //!< the scan looked it up
        };
        // The records of the lines this write touches, pinned so the
        // round, WD-scan and repair paths look each line up once. The
        // written line is recorded and pinned at planning. The scan looks
        // each neighbour up only where it first needs it, so a lookup
        // never changes when a line is first touched (and draws its
        // stuck cells from the device RNG); the lookup touches the line
        // and pins its record if it has one, but makes none unless that
        // first touch draws a stuck cell, as a read's would. Until a
        // flip lands on it, a neighbour without a record answers from
        // its seed content; the first flip records it and pins the
        // record. A pin without a record is therefore right only while
        // no other plan writes, corrects or parks an entry on its line
        // before this plan's last round: the controller runs one plan
        // per bank at a time, every neighbour lies in the written
        // line's bank, and a read records no line that is touched
        // already. With lineCounters on, a record's counters are pinned
        // with it, so no later round, repair or finish looks them up.
        // Pins point into the planning device's record and counters
        // columns and stay valid as long as it lives; every re-plan
        // resets them.
        Pin line_;  //!< the written line
        Pin left_;  //!< word-line neighbour, line - 1
        Pin right_; //!< word-line neighbour, line + 1
        Pin upper_; //!< bit-line neighbour, row - 1
        Pin lower_; //!< bit-line neighbour, row + 1
    };

    /**
     * Plan a normal write of logical data into `plan`, reusing its heap
     * buffers (rounds, wlHits). The hot path re-plans every write
     * service; recycling the vectors keeps it allocation-free.
     */
    void planWriteInto(WritePlan& plan, const LineAddr& addr,
                       const LineData& new_logical);

    /** Plan a correction write RESETting the given disturbed cells into
     *  `plan` (buffers reused as in planWriteInto). */
    void planCorrectionInto(WritePlan& plan, const LineAddr& addr,
                            const std::vector<unsigned>& cells);

    /** Outcome of one program round. */
    struct RoundOutcome
    {
        bool isReset = false;
        Tick latency = 0;
        unsigned wlErrors = 0; //!< in-row disturbances injected
        unsigned blErrors = 0; //!< adjacent-row disturbances injected
    };

    /** Timing preview of the next pending round (no state change). */
    struct RoundPeek
    {
        bool valid = false;
        bool isReset = false;
        Tick latency = 0;
    };

    /**
     * Inspect the next pending round without applying it; the controller
     * charges the latency first and applies effects at completion, which
     * is what makes mid-operation write cancellation clean.
     */
    RoundPeek peekNextRound(const WritePlan& plan) const;

    /**
     * Apply the next pending round in buildRounds order: with windowed
     * drivers, each window's RESET round and then its SET round; with
     * pooled drivers, every RESET round before the SET rounds.
     * @return false if the plan is already complete.
     */
    bool applyNextRound(WritePlan& plan, RoundOutcome& outcome);

    /** Result of completing a write. */
    struct FinishOutcome
    {
        unsigned wlErrorsFixed = 0;   //!< DIN check-and-rewrite repairs
        unsigned ecpWdReleased = 0;   //!< WD entries absorbed by the write
    };

    /**
     * Complete a write whose rounds have all been applied: repair the
     * word-line disturbances this write caused inside its own row (the DIN
     * check-and-rewrite step), commit flag bits, refresh stuck-cell ECP
     * values, and release the line's parked WD entries.
     */
    FinishOutcome finishWrite(WritePlan& plan);

    /**
     * Repair the in-row (word-line) disturbances recorded in the plan's
     * hit list (idempotent: each repair is a getBit-guarded RESET; the
     * list itself is left intact for stats and is cleared by the next
     * re-plan). finishWrite does this implicitly; an aborted (cancelled)
     * write must call it explicitly before releasing the bank, or the
     * damage on ADJACENT lines leaks: re-planning clears the hit list
     * and the re-plan diff only re-covers the written line itself —
     * and until the entry recommits, idle-window reads and pre-read
     * captures would observe the torn neighbours.
     * @return the number of cells actually repaired.
     */
    unsigned repairWlHits(WritePlan& plan);

    /**
     * Compare the line's current logical content against `expected` and
     * fill `out` (cleared first, its capacity reused) with the positions
     * that differ (the disturbed cells).
     */
    void verifyLineInto(const LineAddr& addr, const LineData& expected,
                        std::vector<unsigned>& out);

    /**
     * LazyCorrection: try to park the given disturbed cells in the line's
     * free ECP entries.
     * @return true if all cells are now covered; false on overflow (no
     *         entries were consumed beyond those that fit).
     */
    bool recordWdInEcp(const LineAddr& addr,
                       const std::vector<unsigned>& cells);

    /** ECP occupancy of a line (X in the X+Y<=N test). */
    unsigned ecpUsed(const LineAddr& addr);
    unsigned ecpFree(const LineAddr& addr);

    /** Cells currently parked as WD entries in the line's ECP table. */
    std::vector<unsigned> ecpWdCells(const LineAddr& addr);

    /** Number of distinct lines touched by any access (test/diagnostic
     *  hook). */
    std::size_t touchedLines() const;

    /** Number of touched lines holding a record: written, corrected,
     *  ECP-parked, given a WD flip, or given a stuck cell at their first
     *  touch (test/diagnostic hook). */
    std::size_t recordedLines() const;

    /** A line's content before anything changes it: a pure function of
     *  the device seed and the line's place. */
    LineData seedContent(const LineAddr& addr) const;

    /** Word `w` of seedContent(addr), computed alone. */
    std::uint64_t seedWord(const LineAddr& addr, unsigned w) const;

    /**
     * Snapshot of every touched line's counters, sorted by (bank, row,
     * line); a line without a counters entry has zero counters. Empty
     * unless `DeviceConfig::lineCounters` is set.
     */
    std::vector<LineCounterSample> lineCounterSamples() const;

    /**
     * FNV-1a digest of every touched line's modelled state, visited in
     * (bank, row, line) order: physical cells, flag bits, ECP entries
     * and their wear images, stuck cells, write count and counters. A
     * line without a record hashes as its seeded record would, and one
     * without a counters entry as zero counters.
     * Differential tests compare it across host-side changes that must
     * leave the modelled cells untouched.
     */
    std::uint64_t lineStateDigest() const;

  private:
    /**
     * One line's modelled state: a fixed record that never allocates,
     * holding only simulated state: the 512 cells, the DIN flags, the
     * write count and the inline ECP table (the LineCounters observer
     * keeps its own table). Two things are derived instead of stored:
     *  - the line's stuck cells, in draw order: its hard ECP entries
     *    (pinned first at first touch, kept first by clearWd), then, on
     *    a saturated line only, the rest in `stuckOverflow_`;
     *  - the ECP chip's slot image (wear model): the packed live
     *    entries once `ecpCharged` is set, all zeros before. Entries
     *    change only in finishWrite and recordWdInEcp, which both end
     *    with a charge.
     */
    struct LineState
    {
        LineData physical;
        std::uint64_t dinFlags = 0;
        std::uint32_t writeCount = 0;
        EcpLine ecp;
        bool ecpCharged = false; //!< the ECP slots were charged once
        bool saturated = false;  //!< stuck cells beyond the ECP entries
    };
    static_assert(sizeof(LineState) <= 104,
                  "a line's state is its cells and 40 bytes of metadata");
    static_assert(std::is_trivially_copyable_v<LineState>,
                  "a line's state owns no heap storage");

    /**
     * The pin of the line's record, created if it has none: a copy of
     * `drawn` (a first touch's stuck-cell draw) when given, else seeded,
     * drawing its stuck cells if this is the line's first touch. The
     * only place a record is created.
     */
    WritePlan::Pin state(const LineAddr& addr,
                         const LineState* drawn = nullptr);

    /** The pin of record `entry`: it, and with lineCounters on its
     *  counters. */
    WritePlan::Pin pinOf(std::uint32_t entry);

    /**
     * The line's record for a read path, or null when it has none: the
     * line is then marked touched, and its content is its seed content
     * with DIN flags 0 and no ECP entries. A first touch on a device that
     * can have stuck cells draws them (firstTouchRecord).
     */
    LineState* readState(const LineAddr& addr);

    /** True when a line's first touch draws stuck cells: the device is
     *  aged or has a fault injector. */
    bool
    canStick() const
    {
        return hardErrorMean_ > 0.0 || inject_;
    }

    /**
     * A first touch on a device that can have stuck cells: draw them into
     * a local seeded state, and record the line (through state()) only
     * if it got one; an empty pin otherwise. Kept out of line so that
     * readState's frame holds no LineState.
     */
    [[gnu::noinline]] WritePlan::Pin firstTouchRecord(const LineAddr& addr);

    /** The line's index, its bank and line range asserted. */
    LineIndex indexOf(const LineAddr& addr) const;

    /** Fill a fresh record with the line's seed content and an empty
     *  ECP table. */
    void seed(LineState& ls, const LineAddr& addr) const;

    /** Draw the stuck cells of a line's first touch into `ls`, its
     *  seeded state (its record, or firstTouchRecord's local copy). */
    void drawStuckCells(LineState& ls, const LineAddr& addr);

    /** Key within the bank: row * linesPerRow + line (content seed). */
    std::uint64_t lineKey(const LineAddr& addr) const;

    /** The key the line's seed content is drawn from. */
    std::uint64_t seedKey(const LineAddr& addr) const;

    /** Reset a plan for reuse, keeping its vectors' capacity, and pin
     *  the written line, `line`. */
    void resetPlan(WritePlan& plan, const LineAddr& addr,
                   const WritePlan::Pin& line);

    /** Finalise a plan's masks and rounds from its target state. */
    void sealPlan(WritePlan& plan, const LineState& ls);

    /** Decompose a plan's program masks into driver rounds. */
    void buildRounds(WritePlan& plan);

    /** Call fn(cell, stuck value) for each of the line's stuck cells,
     *  in draw order. */
    template <typename Fn>
    void forEachStuckCell(const LineState& ls, const LineAddr& addr,
                          Fn&& fn) const;

    bool isHardCell(const LineState& ls, const LineAddr& addr,
                    unsigned pos) const;

    /**
     * Inject WD for an applied RESET round: the neighbours of every
     * cell of `resets`, in cell order, each cell drawing left and right
     * word-line chances (idle neighbours only), then upper and lower
     * bit-line chances.
     */
    void injectDisturbance(const LineData& resets, WritePlan& plan,
                           RoundOutcome& outcome);

    /** Charge the ECP chip's differential bit writes for the change of
     *  the line's entries since `before`, its table when the call that
     *  changed them began. */
    void chargeEcp(LineState& ls, const EcpLine& before);

    DeviceConfig config_;
    AddressMap map_;
    /** The data chip's encoder: `din`, or Flip-N-Write under
     *  fnwEnabled; used only when one of the two is enabled. */
    DinEncoder encoder_;
    Rng rng_;
    DeviceStats stats_;
    double hardErrorMean_;
    FaultInjector* inject_ = nullptr;

    /** Peak LineCounters::cellWrites across lines (wear-skew gauge). */
    std::uint32_t maxLineCellWrites_ = 0;

    /** Injected stuck-cell scratch for drawStuckCells() (reused per
     *  line). */
    std::vector<unsigned> injectScratch_;

    /** Every touched line, and the entry number of each record. */
    RowTable rows_;

    /** The record of every line that has one, by entry number. */
    Column<LineState> records_;

    /** With lineCounters on, every record's counters, numbered like
     *  records_; empty with it off. */
    Column<LineCounters> counters_;

    /** Each saturated line's stuck cells beyond its ECP entries, as
     *  hard entries in draw order, keyed by line index. */
    LineTable<std::vector<EcpEntry>> stuckOverflow_;
};

} // namespace sdpcm

#endif // SDPCM_PCM_DEVICE_HH
