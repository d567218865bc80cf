/**
 * @file
 * Shadow-memory integrity oracle for the SD-PCM controller.
 *
 * SD-PCM's contract is that every read returns the last-written logical
 * data even though RESET heat keeps flipping neighbour cells. The oracle
 * verifies that contract end to end: it shadows every line's expected
 * content keyed off controller events and cross-checks
 *
 *  - forwarded reads against the newest submitted payload,
 *  - array reads and PreRead captures against the last committed value,
 *  - every VnC verify baseline buffer against the committed value of the
 *    adjacent line at service time (a stale buffer makes the correction
 *    machinery "restore" wrong data — the PreRead staleness bug class),
 *  - every commit against the device's post-write logical content, and
 *  - the final drained device state against the newest submitted data.
 *
 * Transients the architecture permits are skipped, not flagged, and
 * counted separately so "zero mismatches" means zero *unexplained*
 * divergence:
 *
 *  - dirty victims: between a write's program rounds and the end of its
 *    verify/correction service (or across a cancellation) its neighbour
 *    lines legitimately hold uncorrected disturbance;
 *  - uncorrectable cells: stuck-at cells beyond the line's ECP capacity
 *    are masked out of comparisons (the device cannot represent their
 *    intended value);
 *  - tainted lines: a correction dropped at the cascade depth cap
 *    legitimately leaves errors behind until the next full write.
 *
 * The oracle is opt-in: detached, the controller pays one null check per
 * emission site and the hot path is untouched.
 */

#ifndef SDPCM_VERIFY_ORACLE_HH
#define SDPCM_VERIFY_ORACLE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/observers.hh"
#include "pcm/device.hh"
#include "sim/event_queue.hh"

namespace sdpcm {

/** One detected divergence (structured mismatch report). */
struct OracleMismatch
{
    std::string kind; //!< forwarded_read|array_read|preread_capture|
                      //!< verify_buffer|commit|final
    LineAddr addr;
    Tick tick = 0;
    unsigned diffBits = 0;
    LineData diffMask;
    LineData expected;
    LineData actual;
};

/** Aggregated oracle counters (RunMetrics / reports). */
struct OracleSummary
{
    bool enabled = false;
    std::uint64_t readsChecked = 0;
    std::uint64_t forwardsChecked = 0;
    std::uint64_t preReadsChecked = 0;
    std::uint64_t buffersChecked = 0;
    std::uint64_t commitsChecked = 0;
    std::uint64_t finalLinesChecked = 0;
    std::uint64_t skippedDirty = 0;    //!< checks skipped on dirty victims
    std::uint64_t skippedTainted = 0;  //!< checks skipped on tainted lines
    std::uint64_t finalSkippedPending = 0; //!< lines with queued writes
    std::uint64_t finalSkippedDirty = 0;   //!< victims of unfinished writers
    std::uint64_t maskedUncorrectable = 0; //!< comparisons that masked cells
    std::uint64_t mismatches = 0;
};

/**
 * The shadow memory and its checkers (see file comment). Mismatches
 * become instants in the bundle's trace sink.
 */
class ShadowOracle : public Observed
{
  public:
    ShadowOracle(EventQueue& events, PcmDevice& device);

    // --- Controller hooks (null-guarded at every call site). ---
    void noteWriteSubmitted(const LineAddr& la, const LineData& payload,
                            bool new_entry);
    void noteWriteCommitted(const LineAddr& la, const LineData& payload);
    void noteForwardedRead(const LineAddr& la, const LineData& data);
    void noteArrayRead(const LineAddr& la, const LineData& data);
    void notePreReadCapture(const LineAddr& la, const LineData& data);
    void noteVerifyBuffer(const LineAddr& la, const LineData& buffer,
                          std::uint64_t writer_id);
    /**
     * Program rounds are starting against `written` on behalf of
     * `writer_id` (the data write itself, or one of its correction
     * writes). Marks the neighbourhood dirty; idempotent per
     * (writer, victim) pair, so cancellation re-services are free.
     */
    void noteRoundsStart(std::uint64_t writer_id, const LineAddr& written);
    /** The writer's whole service (verify + corrections) finished. */
    void noteServiceEnd(std::uint64_t writer_id);
    /** A correction task was dropped at the cascade depth cap. */
    void noteUncorrectedDrop(const LineAddr& la);

    /** Compare the drained device state against the shadow copy. */
    void finalCheck();

    OracleSummary summary() const;
    const std::vector<OracleMismatch>& mismatches() const
    {
        return mismatches_;
    }
    bool clean() const { return mismatchCount_ == 0; }

    /** Human-readable mismatch dump (CLI diagnostics). */
    void report(std::ostream& os) const;

  private:
    struct LineInfo
    {
        LineData expected;  //!< newest submitted payload
        LineData committed; //!< last committed (or adopted) value
        bool haveExpected = false;
        bool haveCommitted = false;
        unsigned pending = 0; //!< queued-but-uncommitted writes
        bool tainted = false; //!< dropped correction left errors behind
    };

    /** A line's key in the oracle's tables: its index. */
    LineIndex
    key(const LineAddr& la) const
    {
        return device_.addressMap().lineIndex(la);
    }

    LineInfo& info(const LineAddr& la) { return lines_[key(la)]; }
    bool isDirty(LineIndex k) const;
    bool isDirtyByOther(LineIndex k, std::uint64_t writer) const;
    void markVictim(std::uint64_t writer, const LineAddr& victim);

    /**
     * Compare `actual` against `expect`; `mask_hard` additionally drops
     * the device's uncorrectable cells from the diff. Records a mismatch
     * (and returns false) when bits survive.
     */
    bool check(const char* kind, const LineAddr& la,
               const LineData& expect, const LineData& actual,
               bool mask_hard);

    EventQueue& events_;
    PcmDevice& device_;

    LineTable<LineInfo> lines_;
    /** victim line -> writer ids with in-flight disturbance on it (an
     *  empty list is clean). */
    LineTable<std::vector<std::uint64_t>> dirtyBy_;
    /** writer id -> victim keys (for O(victims) clearing). */
    std::unordered_map<std::uint64_t, std::vector<LineIndex>> victimsOf_;

    OracleSummary counts_;
    std::vector<OracleMismatch> mismatches_;
    std::uint64_t mismatchCount_ = 0;

    /** Stored mismatch cap; the count keeps increasing past it. */
    static constexpr std::size_t kMaxStoredMismatches = 64;
};

} // namespace sdpcm

#endif // SDPCM_VERIFY_ORACLE_HH
