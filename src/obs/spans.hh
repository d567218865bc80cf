/**
 * @file
 * Per-request span attribution.
 *
 * A SpanRecorder gives every memory request (read and write) a lifecycle
 * record that decomposes its end-to-end latency into named phases — the
 * same decomposition production memory controllers expose as per-command
 * state timers. The controller drives the recorder at its existing stage
 * boundaries; the recorder guarantees the *telescoping invariant*: at any
 * accumulation point the per-phase critical cycles of a request sum to
 * exactly the time elapsed since it was opened, so a closed request's
 * phases sum to its end-to-end latency with no gaps and no double-count.
 *
 * Two cycle classes per phase:
 *  - critical cycles: wall-clock segments of the request's own lifetime,
 *    labelled by what the request was doing (or waiting on) during them.
 *  - hidden cycles: bank work done on the request's behalf while its
 *    critical clock was charged to another phase. The only producer today
 *    is PreRead: an idle-cycle pre-read capture burns bank cycles, but
 *    the write it serves is still just queue-waiting — the capture's
 *    cycles are "hidden under QueueWait". This split is what makes
 *    PreRead's benefit (Section 4.3) directly measurable: under sdpcm the
 *    pre-read cycles move from the critical PreReadUp/Low phases into
 *    hidden cycles, and VnC's PreUpper/PreLower stages are skipped.
 *
 * The recorder is allocation-free in steady state (records are recycled
 * through a free list) and entirely absent from the hot path when
 * disabled: the controller holds a null pointer and every emission site
 * is a single null check, the same idiom as TraceSink / ShadowOracle.
 */

#ifndef SDPCM_OBS_SPANS_HH
#define SDPCM_OBS_SPANS_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/observers.hh"
#include "pcm/timing.hh"

namespace sdpcm {

/**
 * Lifecycle phases of a request. Write phases map 1:1 onto the
 * controller's service stages; reads use QueueWait / Drain /
 * ReadService; CancelStall and Retry label the write-cancellation
 * window (Section 6.8).
 */
enum class SpanPhase : std::uint8_t
{
    /** Waiting in a queue (or suspended at an op boundary) with the
     *  bank doing other work. */
    QueueWait,
    /** Read-only: queue wait that overlapped a drain burst — the
     *  portion of a read's wait the bursty-write policy is to blame
     *  for (Table 2). */
    Drain,
    PreReadUp,   //!< in-service pre-write read of the upper neighbour
    PreReadLow,  //!< in-service pre-write read of the lower neighbour
    WriteRounds, //!< DIN/FNW programming rounds
    VerifyUp,    //!< post-write verify read of the upper neighbour
    VerifyLow,   //!< post-write verify read of the lower neighbour
    /** ECP parking plus all correction work (cascading correction
     *  rounds and reads), eager or lazy. */
    LazyCorrect,
    /** A cancelled service attempt: everything from service start to
     *  the cancel is re-labelled as stall (the attempt's work is
     *  discarded and re-done). */
    CancelStall,
    /** Queue wait after a cancellation, before the retry services. */
    Retry,
    ReadService, //!< the read's own array access
};

inline constexpr unsigned kNumSpanPhases = 11;

const char* spanPhaseName(SpanPhase phase);

/** Per-phase blame aggregate over closed requests of one kind. */
struct SpanPhaseAgg
{
    /** Closed requests with > 0 critical cycles in this phase. */
    std::uint64_t requests = 0;
    std::uint64_t criticalCycles = 0;
    std::uint64_t hiddenCycles = 0;
    /** Critical cycles per request (recorded only when > 0). */
    LatencyStat perRequest;

    void
    merge(const SpanPhaseAgg& other)
    {
        requests += other.requests;
        criticalCycles += other.criticalCycles;
        hiddenCycles += other.hiddenCycles;
        perRequest.merge(other.perRequest);
    }
};

/** Blame summary of a run (or a merge of runs). */
struct SpanSummary
{
    bool enabled = false;
    std::uint64_t writesClosed = 0;
    std::uint64_t readsClosed = 0;
    /** Requests still open when the run ended (their cycles are not
     *  folded into the aggregates). */
    std::uint64_t openAtEnd = 0;
    /**
     * Total cycles burned by cancelled service attempts, across *all*
     * attempts — including writes that never completed (a cancelled
     * write can legitimately sit in the queue at run end), so this
     * matches CtrlStats::cancelStallCycles exactly, while the per-phase
     * CancelStall aggregate only covers closed requests.
     */
    std::uint64_t cancelStallCycles = 0;
    LatencyStat writeEndToEnd; //!< enqueue -> completion, cycles
    LatencyStat readEndToEnd;  //!< enqueue -> data return, cycles

    std::array<SpanPhaseAgg, kNumSpanPhases> write;
    std::array<SpanPhaseAgg, kNumSpanPhases> read;

    const std::array<SpanPhaseAgg, kNumSpanPhases>&
    byKind(bool is_write) const
    {
        return is_write ? write : read;
    }

    std::uint64_t totalCritical(bool is_write) const;
    std::uint64_t totalHidden(bool is_write) const;

    void merge(const SpanSummary& other);
};

/**
 * Records phase transitions for in-flight requests.
 *
 * Handles index a recycled record pool; after warm-up no call
 * allocates. Every mutation maintains the telescoping invariant
 * documented at the top of this file, and close() asserts it.
 */
class SpanRecorder
{
  public:
    using Handle = std::uint32_t;
    static constexpr Handle kNull = ~Handle(0);

    /** Open a record; the request starts in QueueWait at `now`. */
    Handle open(bool is_write, Tick now);

    /** Close the current phase segment and enter `next`. */
    void transition(Handle h, SpanPhase next, Tick now);

    /**
     * Like transition(), but re-labels `stolen_cycles` of the closing
     * segment as `stolen` (must not exceed the segment). Used to carve
     * a read's drain-overlap out of its queue wait.
     */
    void transitionSplit(Handle h, SpanPhase stolen, Tick stolen_cycles,
                         SpanPhase next, Tick now);

    /** Credit bank cycles spent on the request's behalf while its
     *  critical clock runs elsewhere (pre-read captures). */
    void hidden(Handle h, SpanPhase phase, Tick cycles);

    /** A service attempt starts: snapshot the phase totals so a cancel
     *  can re-label the whole attempt, and enter QueueWait (the stage
     *  ops transition into their own phases). */
    void beginAttempt(Handle h, Tick now);

    /** The in-flight attempt was cancelled: everything accumulated
     *  since beginAttempt() becomes CancelStall; enter Retry. */
    void cancelAttempt(Handle h, Tick now);

    /** Request finished: fold into the summary and recycle. Asserts
     *  the phase totals sum to the end-to-end latency. */
    void close(Handle h, Tick now);

    /** Snapshot the blame summary; open records count as openAtEnd. */
    SpanSummary summarize() const;

    std::uint64_t
    cancelStallCycles() const
    {
        return cancelStallCycles_;
    }

  private:
    struct Record
    {
        bool isWrite = false;
        bool open = false;
        Tick start = 0;
        Tick curStart = 0;
        Tick attemptStart = 0;
        SpanPhase cur = SpanPhase::QueueWait;
        std::array<Tick, kNumSpanPhases> critical{};
        std::array<Tick, kNumSpanPhases> hidden{};
        std::array<Tick, kNumSpanPhases> attemptSnap{};
    };

    Record& rec(Handle h);
    static void accumulate(Record& r, Tick now);

    std::vector<Record> pool_;
    std::vector<Handle> free_;
    SpanSummary closed_;
    std::uint64_t cancelStallCycles_ = 0;
};

/**
 * Append collapsed-stack lines (`frame;frame;frame count`) consumable
 * by standard flamegraph tooling. Critical cycles fold as
 * `scheme;kind;Phase N`; hidden cycles as `scheme;kind;QueueWait;Phase N`
 * (they were absorbed by queue wait). Zero-count stacks are omitted.
 */
void writeFoldedStacks(std::ostream& os, const std::string& scheme,
                       const SpanSummary& summary);

/** Human-readable top-N phases by critical cycles (stderr table). */
void printSpanTop(std::ostream& os, const std::string& label,
                  const SpanSummary& summary, unsigned top_n);

class JsonWriter;

/** Emit one summary as a JSON object (inside an open writer value). */
void spanSummaryToJson(JsonWriter& w, const SpanSummary& summary);

/** One (scheme, workload) cell of a standalone blame file. */
using SpanBlameEntry = RunEntry<SpanSummary>;

/** Write a standalone per-phase blame document (`sdpcm_span_blame`). */
void writeSpanBlameJson(std::ostream& os, const std::string& bench,
                        const std::vector<SpanBlameEntry>& entries);

/** Flatten a summary into `span.*` snapshot metrics (report schema). */
void addSpanMetrics(StatSnapshot& s, const SpanSummary& summary);

} // namespace sdpcm

#endif // SDPCM_OBS_SPANS_HH
