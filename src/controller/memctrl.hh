/**
 * @file
 * The SD-PCM memory controller.
 *
 * Implements the queueing and scheduling model of Table 2 (per-bank
 * 32-entry write queues, drain-on-full bursty writes that block reads,
 * read priority otherwise) plus the paper's mechanisms:
 *
 *  - Basic VnC (Section 3.2): every write to super dense PCM pre-reads
 *    its used adjacent lines, writes, post-reads and compares, and issues
 *    correction writes for disturbed cells; corrections recursively
 *    verify *their* adjacent lines (cascading verification).
 *  - LazyCorrection (Section 4.2): verification errors are parked in the
 *    line's free ECP entries (on the disturbance-free low-density ECP
 *    chip); a correction write is issued only on ECP overflow and then
 *    clears all parked errors.
 *  - PreRead (Section 4.3): while a write waits in the queue, the two
 *    pre-write reads are issued during bank idle cycles and buffered next
 *    to the entry (pr-bits + 2x64B buffers, Figure 8); if the adjacent
 *    line itself sits earlier in the write queue its payload is forwarded
 *    directly, and completed writes refresh any stale buffered copies.
 *  - (n:m)-Alloc (Section 4.4): the allocator tag carried by each write
 *    decides which adjacent lines exist at all; block-edge strips always
 *    verify outwards.
 *  - Write cancellation (Section 6.8): an arriving read may cancel an
 *    in-flight write service during its pre-read or program-round stages
 *    (never during verification/correction); the partially programmed
 *    line simply re-queues, and any disturbance already caused stays —
 *    re-execution will find it.
 */

#ifndef SDPCM_CONTROLLER_MEMCTRL_HH
#define SDPCM_CONTROLLER_MEMCTRL_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/fifo.hh"
#include "common/stats.hh"
#include "controller/scheme.hh"
#include "obs/spans.hh"
#include "obs/trace_sink.hh"
#include "pcm/device.hh"
#include "sim/event_queue.hh"

namespace sdpcm {

/** Controller statistics. */
struct CtrlStats
{
    std::uint64_t readsServiced = 0;
    std::uint64_t readsForwarded = 0;
    /** Reads whose forwarding was (re)established at service time: a
     *  write to the line arrived or went into service after the read
     *  queued, so the array would have returned torn or stale data. */
    std::uint64_t readsForwardedAtService = 0;
    std::uint64_t writesAccepted = 0;
    std::uint64_t writesCoalesced = 0;
    std::uint64_t writesCompleted = 0;
    std::uint64_t writeDrains = 0;

    std::uint64_t preReadsIssued = 0;
    std::uint64_t preReadsForwarded = 0;
    std::uint64_t preReadsUseful = 0; //!< pre-reads that skipped a VnC read
    /** Buffered pre-read copies refreshed because the adjacent line's
     *  queued payload changed (coalesce) or committed. */
    std::uint64_t preReadsRefreshed = 0;

    std::uint64_t verifyReads = 0;
    std::uint64_t adjacentsSkippedNm = 0;
    std::uint64_t ecpUpdates = 0;
    std::uint64_t correctionWrites = 0;
    std::uint64_t cascadeVerifies = 0; //!< verify reads caused by corrections
    std::uint64_t cascadeDropped = 0;  //!< tasks dropped at the depth cap
    RunningStat cascadeDepth;

    std::uint64_t writeCancellations = 0;
    /** Cycles burned by cancelled service attempts (service start to
     *  cancel, summed over every cancellation). Kept as a first-class
     *  counter so the cost of re-done work is visible even with span
     *  attribution off; with spans on it equals the recorder's
     *  CancelStall total (asserted in tests). */
    std::uint64_t cancelStallCycles = 0;

    /** Bank-busy cycles by operation category. */
    std::uint64_t cyclesRead = 0;
    std::uint64_t cyclesWrite = 0;
    std::uint64_t cyclesPreRead = 0;
    std::uint64_t cyclesVerify = 0;
    std::uint64_t cyclesCorrection = 0;
    std::uint64_t cyclesEcp = 0;

    LatencyStat readLatency;         //!< enqueue -> data return, cycles
    LatencyStat writeServiceLatency; //!< service start -> complete
};

/** Whoever submitted a read: its data is delivered here. */
class ReadClient
{
  public:
    /** The read's data is available (array read or forwarded). */
    virtual void readDone(const LineData& data) = 0;
};

/**
 * The per-channel memory controller. It feeds every observer of its
 * bundle: bank-op trace events, oracle mirroring, request spans, WD
 * ledger service context and profiler scopes per stage body.
 *
 * Its own events are bank-op completions and forwarded-read deliveries
 * (see fire()); each bank keeps the state of its one in-flight op.
 */
class MemoryController : public Observed, public EventTarget
{
  public:
    MemoryController(EventQueue& events, PcmDevice& device,
                     const SchemeConfig& scheme, std::uint64_t seed);

    const SchemeConfig& scheme() const { return scheme_; }
    CtrlStats& stats() { return stats_; }
    const CtrlStats& stats() const { return stats_; }

    /**
     * Point the bundle's trace member at `sink` (null detaches); for
     * harnesses that attach their own sink to an assembled System.
     */
    void setTraceSink(TraceSink* sink) { obs_.trace = sink; }

    // --- Observability accessors (epoch sampling / diagnostics). ---
    unsigned
    numBanks() const
    {
        return static_cast<unsigned>(banks_.size());
    }
    std::size_t readQueueDepth(unsigned bank) const;
    std::size_t writeQueueDepth(unsigned bank) const;

    /** Correction tasks queued or in flight across all banks. */
    std::uint64_t pendingCorrections() const;

    /** Submit a read; `client` gets its data when it is available
     *  and must outlive the read. */
    void submitRead(PhysAddr addr, unsigned core_id, ReadClient& client);

    /** True if the bank's write queue can take another entry. */
    bool canAcceptWrite(PhysAddr addr) const;

    /**
     * Submit a write; the payload is synthesised as the line's current
     * (queue-coherent) value with `flip_density * 512` random bits
     * flipped. @return false if the write queue is full.
     */
    bool submitWrite(PhysAddr addr, const NmRatio& tag, unsigned core_id,
                     double flip_density);

    /** Submit a write with an explicit payload. */
    bool submitWriteData(PhysAddr addr, const NmRatio& tag,
                         unsigned core_id, const LineData& payload);

    /** Schedule `target.fire(arg)` once the write queue of the bank
     *  holding `addr` has space again. */
    void onWriteSpace(PhysAddr addr, EventTarget& target,
                      std::uint64_t arg);

    /** True when all queues are empty and no bank is busy. */
    bool quiescent() const;

    /** Pending writes across all banks (drain diagnostics). */
    std::uint64_t pendingWrites() const;

    /** Banks currently mid write service (telemetry gauge). */
    std::uint64_t inFlightWrites() const;

    /** A bank op finished (`arg` is opArg()) or a forwarded read is
     *  due (`arg` is kForwardArg). */
    void fire(std::uint64_t arg) override;

  private:
    /**
     * Bank ops. Each has a trace name and the CtrlStats cycle counter it
     * bills (the kOpInfo table in memctrl.cc), and one case of
     * completeOp() that finishes it. The neighbour reads of a write in
     * service and of a correction trace as VerifyRead and CascadeRead.
     */
    enum class OpKind : std::uint8_t
    {
        Read,            //!< a demand read; returns data to its client
        PreRead,         //!< PreRead's capture for a queued write
        WritePreRead,    //!< the write in service reads a neighbour
        WriteRound,      //!< one program round of the write
        WriteVerify,     //!< the write's post-read of a neighbour
        EcpUpdate,       //!< LazyC's parked-error ECP update
        CorrPreRead,     //!< a correction reads a neighbour
        CorrectionRound, //!< one program round of a correction
        CorrVerify       //!< the correction's post-read of a neighbour
    };

    /**
     * One bit-line neighbour a write or correction verifies: `need` when
     * it exists and the (n:m) tag marks it used, and `have` once `data`
     * holds its pre-write value (for a queued write, Figure 8's pr-bit
     * and pre-read buffer).
     */
    struct Adjacent
    {
        bool need = false;
        bool have = false;
        LineAddr addr;
        LineData data;
    };
    /** Upper then lower neighbour: the order every VnC step runs in. */
    using Adjacents = std::array<Adjacent, 2>;

    /** One queued write (Figure 8 write-queue entry). */
    struct QueuedWrite
    {
        LineAddr la;
        NmRatio tag;
        unsigned coreId = 0;
        /** Monotonic controller-wide id: the only safe way to re-locate
         *  an entry from a deferred completion (two same-tick writes to
         *  one line are otherwise indistinguishable). */
        std::uint64_t id = 0;
        Tick enqueueTick = 0;
        LineData payload;
        /** Derived from tag + geometry at enqueue time; PreRead fills
         *  the buffers while the entry waits. */
        Adjacents adj;
        unsigned cancels = 0;
        /** Span lifecycle record (kNull when attribution is off). */
        SpanRecorder::Handle span = SpanRecorder::kNull;
    };

    struct PendingRead
    {
        LineAddr la;
        unsigned coreId = 0;
        Tick enqueueTick = 0;
        ReadClient* client = nullptr;
        /** Span lifecycle record (kNull when attribution is off). */
        SpanRecorder::Handle span = SpanRecorder::kNull;
        /** Bank drain-cycle total at enqueue; the delta at service time
         *  is the read's drain-overlap (its Drain phase). */
        Tick drainSnap = 0;
    };

    /** A pending correction (cascading verification work item). */
    struct CorrectionTask
    {
        LineAddr addr;
        std::vector<unsigned> cells;
        unsigned depth = 1;
    };

    /** Correction sub-state while a task executes (plan: Bank::corrPlan). */
    struct ActiveCorrection
    {
        CorrectionTask task;
        bool planned = false;
        Adjacents adj;

        enum class Stage { PreUp, PreLow, Rounds, VerUp, VerLow, Done };
        Stage stage = Stage::PreUp;
    };

    /** In-service write (owns the queue entry until completion). */
    struct ActiveWrite
    {
        QueuedWrite w;
        bool planned = false;
        Fifo<CorrectionTask> tasks;
        std::optional<ActiveCorrection> corr;
        Tick serviceStart = 0;
        Tick pendingEcpCycles = 0;
        unsigned maxDepthSeen = 0;

        enum class Stage
        {
            PreUpper, PreLower, Rounds, VerUpper, VerLower,
            Corrections
        };
        Stage stage = Stage::PreUpper;
    };

    /** A core stalled on a full write queue: `target.fire(arg)`
     *  retries its write. */
    struct SpaceWaiter
    {
        EventTarget* target;
        std::uint64_t arg;
    };

    /** A read answered from a pending write, delivered by an event. */
    struct ForwardedRead
    {
        ReadClient* client;
        LineData data;
    };

    /** Buckets of a bank's pending-write counts (see Bank). */
    static constexpr unsigned kPendingBuckets = 256;

    struct Bank
    {
        bool busy = false;
        bool draining = false;
        /** A full tryIssuePreRead scan found nothing left to capture and
         *  no entry has been queued since (see tryIssuePreRead). */
        bool capturesSettled = false;
        unsigned drainRemaining = 0;
        unsigned wcReadGrace = 0; //!< reads admitted by a cancellation
        Fifo<PendingRead> readQueue;
        Fifo<QueuedWrite> writeQueue;
        std::optional<ActiveWrite> active;
        /**
         * The bank's pending writes, queued or in service, counted by
         * pendingBucket() of their line: raised when an entry is
         * queued, lowered when its write completes. A zero count means
         * no pending write to any line of the bucket. At most
         * kMaxWriteQueueEntries + 1 writes pend, so no count wraps.
         */
        std::array<std::uint16_t, kPendingBuckets> pendingByBucket{};
        std::vector<SpaceWaiter> spaceWaiters;
        // The plans of the write in service and of its correction, each
        // replanned in place so its vectors stop reallocating (hot path).
        PcmDevice::WritePlan writePlan;
        PcmDevice::WritePlan corrPlan;
        // The in-flight op: what completeOp() needs to finish it, and
        // what write cancellation needs to abort it.
        std::uint64_t opGen = 0;       //!< bumped to invalidate completions
        bool opCancellable = false;
        OpKind opKind = OpKind::Read;
        unsigned opSide = 0; //!< side a capture or neighbour read is for
        /** True while the in-flight op has an open span-phase trace
         *  event that must be closed on completion or cancel. */
        bool opSpanTraced = false;
        /** The span the op is billed to (kNull when attribution is off
         *  or the op has none). */
        SpanRecorder::Handle opSpan = SpanRecorder::kNull;
        Tick opStart = 0;
        Tick opLatency = 0;
        LineAddr opTarget;           //!< a capture's neighbour line
        std::uint64_t opWriteId = 0; //!< a capture's queued write
        PendingRead opRead;          //!< the read being serviced
        // Cumulative drain-burst cycles (for read Drain attribution).
        Tick drainStart = 0;
        Tick drainCum = 0;
    };

    /** Start a drain burst if the bank's write queue is full. */
    void drainIfFull(unsigned bank);
    /** Cumulative drain-burst cycles of the bank as of now. */
    Tick drainCumNow(const Bank& b) const;

    void kick(unsigned bank);
    /**
     * Occupy the bank for `latency` cycles with a `kind` op, which
     * completeOp() finishes; the caller sets any other op state the
     * kind needs (side, capture target, serviced read) on the bank.
     * When `span` is a live handle, the request's span transitions into
     * `span_phase` for the op's duration (nested under the op's trace
     * event); on completion it returns to QueueWait, except after a
     * Read, whose completion closes the span itself.
     */
    void occupy(unsigned bank, Tick latency, OpKind kind,
                bool cancellable = false,
                SpanRecorder::Handle span = SpanRecorder::kNull,
                SpanPhase span_phase = SpanPhase::QueueWait);
    /** The event argument of the bank's in-flight op: its generation
     *  and bank, so a cancelled op's completion no longer matches. */
    static std::uint64_t
    opArg(const Bank& b, unsigned bank)
    {
        return b.opGen << kBankBits | bank;
    }
    /** Finish the bank's in-flight op: one case per OpKind. */
    void completeOp(unsigned bank);
    void maybeCancelForRead(unsigned bank);
    void serviceRead(unsigned bank);
    void startWriteService(unsigned bank);
    void advanceWrite(unsigned bank);
    void advanceCorrection(unsigned bank);
    void completeWrite(unsigned bank);
    void cancelActive(unsigned bank);
    void tryIssuePreRead(unsigned bank);
    void notifySpace(unsigned bank);

    /**
     * Handle verification errors on one adjacent line. `errors` is only
     * read (callers pass a reused scratch vector); the cells are copied
     * out only when a correction task is actually queued.
     */
    void handleVerifyErrors(unsigned bank, const LineAddr& addr,
                            const std::vector<unsigned>& errors,
                            unsigned depth);

    /**
     * The neighbours a write to `la` under `tag` must verify (none
     * without super dense cells). Neighbours the tag marks no-use are
     * counted into `skipped` when it is given.
     */
    Adjacents adjacentsOf(const LineAddr& la, const NmRatio& tag,
                          std::uint64_t* skipped = nullptr) const;

    /** Newest payload of `la` the bank still has to commit (the write
     *  queue back to front, then the write in service), or null. */
    const LineData* pendingPayload(unsigned bank, const LineAddr& la) const;

    /** The Bank::pendingByBucket bucket of `la`: the top bits of a
     *  Fibonacci hash of its line index. */
    unsigned
    pendingBucket(const LineAddr& la) const
    {
        static_assert(kPendingBuckets == 256, "8 hash bits pick a bucket");
        return static_cast<unsigned>(
            (device_.addressMap().lineIndex(la) * 0x9e3779b97f4a7c15ULL) >>
            56);
    }

    /** Overwrite the buffered copies of `la` that queue entries `first`
     *  onward hold with `data`, its new pending or committed value. */
    void refreshBuffers(unsigned bank, std::size_t first,
                        const LineAddr& la, const LineData& data);

    /** Make a payload by flipping ~density*512 random bits of base. */
    LineData mutatePayload(const LineData& base, double density);

    EventQueue& events_;
    PcmDevice& device_;
    SchemeConfig scheme_;
    Rng rng_;
    CtrlStats stats_;
    /** Verify-diff scratch: most verifies find zero errors, so reusing
     *  one vector makes the verify path allocation-free. */
    std::vector<unsigned> diffScratch_;
    std::uint64_t nextWriteId_ = 1;
    std::vector<Bank> banks_;
    /** Forwarded reads in delivery order (one event each). */
    Fifo<ForwardedRead> forwards_;

    /** Low bits of an event argument that hold the bank. */
    static constexpr unsigned kBankBits = 16;
    static constexpr std::uint64_t kBankMask = (1u << kBankBits) - 1;
    /** The event argument of a forwarded-read delivery. An op's
     *  generation is at least 1, so no opArg() equals it. */
    static constexpr std::uint64_t kForwardArg = kBankMask;

    static constexpr unsigned kMaxCascadeDepth = 64;
    /** Cascade depth at which a trace instant marker is emitted. */
    static constexpr unsigned kCascadeSpikeDepth = 4;
};

} // namespace sdpcm

#endif // SDPCM_CONTROLLER_MEMCTRL_HH
