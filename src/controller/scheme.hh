/**
 * @file
 * Scheme configuration: which of the paper's mechanisms are active.
 *
 * The compared schemes of Section 5.3 are specific combinations:
 *   - DIN            : din8F2() — 8F^2 comparator, WD-free bit-lines, no VnC
 *   - baseline       : baselineVnc() — super dense + basic verify-n-correct
 *   - LazyC          : lazyC() — + WD buffering in low-density ECP
 *   - LazyC+PreRead  : lazyCPreRead()
 *   - (n:m)-Alloc    : via defaultTag
 *   - WC variants    : writeCancellation = true
 */

#ifndef SDPCM_CONTROLLER_SCHEME_HH
#define SDPCM_CONTROLLER_SCHEME_HH

#include <string>

#include "os/nm_policy.hh"

namespace sdpcm {

/** Most write queue entries a bank may have (`--wq`). Figure 15 sweeps
 *  8 to 64; the bound keeps each bank's pending-write counts 16-bit. */
inline constexpr unsigned kMaxWriteQueueEntries = 1024;

/** Most times one write may be cancelled (`--max-cancels`). The fuzzer
 *  draws at most 8; the bound keeps a flag value from letting reads
 *  cancel a write without end. */
inline constexpr unsigned kMaxCancelsPerWrite = 1024;

/** Memory-controller / device mechanism selection. */
struct SchemeConfig
{
    std::string name = "baseline";

    /**
     * Super dense (4F^2) cell array: every write runs verify-n-correct
     * on its used bit-line neighbours. When false the comparator DIN
     * design (8F^2) is modelled: bit-line disturbance vanishes and no
     * VnC runs.
     */
    bool superDense = true;

    /** LazyCorrection: park WD errors in free ECP entries. */
    bool lazyCorrection = false;

    /** ECP entries per 64B line (ECP-N). */
    unsigned ecpEntries = 6;

    /** PreRead: issue pre-write reads from the write queue early. */
    bool preRead = false;

    /** Write cancellation (Qureshi et al., HPCA'10) integration. */
    bool writeCancellation = false;
    unsigned maxCancelsPerWrite = 4; //!< at most kMaxCancelsPerWrite

    /**
     * Replace the DIN data-chip encoder with Flip-N-Write. FNW minimises
     * programmed cells but does not suppress word-line disturbance, so
     * VnC sees the full Table 1 word-line rate — the comparison point the
     * paper's Figure 4 motivates DIN with.
     */
    bool fnwEncoding = false;

    /** Default (n:m) allocator tag for every application. */
    NmRatio defaultTag{1, 1};

    /** Write queue entries per bank (Table 2: 32), at most
     *  kMaxWriteQueueEntries. */
    unsigned writeQueueEntries = 32;

    /**
     * A drain triggered by a full queue services a bounded burst of
     * writes (or until the queue empties) before readmitting reads.
     * Bounding the burst caps how long a drain blocks reads regardless
     * of the queue capacity.
     */
    unsigned drainBurstWrites = 16;

    /**
     * Also drain one write when the bank is otherwise idle. The paper's
     * policy (Table 2) buffers writes until the queue is full — that is
     * what creates the long queue residency PreRead exploits — so this
     * defaults to off; writes still left in a never-filled queue at the
     * end of a run are simply uncommitted buffer content.
     */
    bool idleWriteDrain = false;

    /**
     * Bank cycles charged for updating the ECP chip after verification.
     * The ECP chip is a separate device on the rank, so its short write
     * overlaps with subsequent data-chip operations; 0 models the overlap
     * (the ablation bench studies nonzero values).
     */
    unsigned ecpUpdateCycles = 0;

    /**
     * Attribution switch for the Figure 5 overhead breakdown: when
     * false, correction rounds and the reads around them (cascading
     * verification) still execute functionally but occupy the bank for
     * zero cycles, leaving only the verification cost. Verify reads are
     * always charged.
     */
    bool chargeCorrectionOps = true;

    // --- Named configurations from Section 5.3. ---
    static SchemeConfig din8F2();
    static SchemeConfig baselineVnc();
    static SchemeConfig lazyC(unsigned ecp_entries = 6);
    static SchemeConfig lazyCPreRead();
    static SchemeConfig lazyCNm(const NmRatio& tag);
    static SchemeConfig lazyCPreReadNm(const NmRatio& tag);
    static SchemeConfig nmOnly(const NmRatio& tag);

    /** Basic VnC with the FNW encoder instead of DIN (full WL rate). */
    static SchemeConfig fnwVnc();

    /** The full SD-PCM stack: LazyC + PreRead + (n:m)-Alloc. */
    static SchemeConfig sdpcm(const NmRatio& tag = NmRatio{2, 3});

    /**
     * The scheme an sdpcm_cli --scheme name gives (a stored fuzz
     * scenario is an sdpcm_cli line too); the (n:m) schemes use
     * `ratio`. Throws std::invalid_argument on an unknown name.
     */
    static SchemeConfig byName(const std::string& name,
                               const NmRatio& ratio);

    bool operator==(const SchemeConfig&) const = default;
};

} // namespace sdpcm

#endif // SDPCM_CONTROLLER_SCHEME_HH
