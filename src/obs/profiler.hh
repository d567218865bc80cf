/**
 * @file
 * Host-time self-profiler: hierarchical wall-clock blame for the
 * simulator's own hot paths.
 *
 * Span attribution (obs/spans.hh) explains where *simulated cycles* go;
 * this profiler explains where *host nanoseconds* go, so the "raw
 * speed" ROADMAP item can attack the phases that actually burn wall
 * clock instead of guessing. It is a calling-context tree (CCT) over a
 * fixed enum of simulator phases:
 *
 *  - RAII scoped timers (`PROF_SCOPE(prof, DeviceWdScan)`) push/pop a
 *    small fixed-depth frame stack; each distinct phase path gets one
 *    CCT node recording calls, inclusive ns and exclusive (self) ns.
 *  - Null-gated: every instrumentation site takes a `HostProfiler*`;
 *    when profiling is off the pointer is null and the scope is a
 *    single branch — no clock reads, no stores, zero side effects.
 *  - Allocation-free on the hot path: nodes live in a vector reserved
 *    up front; a node is created at most once per distinct path (the
 *    phase tree is small and bounded), after which enter/exit touch
 *    only preallocated memory.
 *  - Telescoping rule: a frame's children can only run while the frame
 *    is open, so the sum of the children's inclusive time never exceeds
 *    the parent's inclusive time. Checked per scope exit in debug
 *    builds and re-asserted over the whole tree at summarize().
 *  - Sampled timing: reading the host clock twice per scope costs more
 *    than most instrumented phases themselves (an event body is a few
 *    hundred ns; a clock read is ~20-40). To honour the <=2% overhead
 *    budget the profiler times every `samplePeriod`-th root-level scope
 *    *tree* in full and only counts depth on the rest, scaling the
 *    timed trees' calls and ns by the period at collection time. A tree
 *    is timed or skipped as a unit, so the telescoping rule holds
 *    exactly inside everything that is measured. Period 1 (the default,
 *    used by the unit tests) times everything exactly.
 *
 * One HostProfiler belongs to one System (and therefore one thread);
 * `--jobs=N` matrix runs carry one ProfSummary per cell and merge them
 * in deterministic matrix order. The merged tree's *structure* is
 * deterministic regardless of timing noise: children are keyed and
 * ordered by phase id, never by arrival order or magnitude.
 */

#ifndef SDPCM_OBS_PROFILER_HH
#define SDPCM_OBS_PROFILER_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace sdpcm {

class StatSnapshot;

/**
 * The fixed phase vocabulary. One value per instrumented simulator
 * phase; paths through the tree (e.g. EventDispatch > WriteRound >
 * DeviceWdScan) carry the hierarchy, so the enum stays flat.
 */
enum class ProfPhase : std::uint8_t
{
    Root = 0,      //!< implicit tree root (never entered directly)
    EventDispatch, //!< EventQueue::runNext event callback body
    CtrlKick,      //!< controller scheduler (tick/drain/issue decisions)
    ReadService,   //!< read completion: device read + forwarding + reply
    WriteRound,    //!< write-round planning and pulse application
    VerifyScan,    //!< post-write verify read + diff scan
    Correction,    //!< correction rounds + correction verify
    Cancel,        //!< write-cancellation bookkeeping + WL repair
    DevicePulse,   //!< device cell-programming loop inside a round
    DeviceWdScan,  //!< neighbour write-disturbance probe loop
    DeviceRead,    //!< raw line readout from the cell array
    OracleCheck,   //!< shadow-oracle read/commit/final checking
    TelemetryPoll, //!< telemetry and epoch frames + monitors + streaming
    TraceWrite,    //!< trace sink event serialisation
    ReportWrite,   //!< in-run metrics/report assembly
    Translate,     //!< a core's MMU translation (TLB, page table, fault)
    TraceNext,     //!< a core drawing its next trace record
};

constexpr unsigned kNumProfPhases = 17;
static_assert(kNumProfPhases ==
                  static_cast<unsigned>(ProfPhase::TraceNext) + 1,
              "kNumProfPhases counts every phase");

const char* profPhaseName(ProfPhase phase);

/**
 * True iff `v` is a usable sampling period: a power of two >= 1 that
 * fits SystemConfig::profileSample's uint32. CLIs validate
 * --profile-sample with this at parse time so a bad value is a usage
 * error, not an assertion failure inside the HostProfiler constructor.
 */
constexpr bool
validProfileSamplePeriod(std::int64_t v)
{
    return v >= 1 && v <= (std::int64_t{1} << 31) && (v & (v - 1)) == 0;
}

/** Per-phase rollup across the whole tree (see ProfSummary::phases). */
struct ProfPhaseAgg
{
    std::uint64_t calls = 0;
    /**
     * Summed only over nodes with no same-phase ancestor, so re-entrant
     * scopes (phase X nested under phase X) are not double counted.
     */
    std::uint64_t inclusiveNs = 0;
    std::uint64_t exclusiveNs = 0;
};

/** One merged calling-context-tree node (children sorted by phase). */
struct ProfSummaryNode
{
    ProfPhase phase = ProfPhase::Root;
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t exclusiveNs = 0;
    std::vector<ProfSummaryNode> children;
};

/**
 * Mergeable, serialisable profile result. `enabled` distinguishes "ran
 * with the profiler off" (all downstream output suppressed) from "ran
 * and measured nothing".
 */
struct ProfSummary
{
    bool enabled = false;
    /**
     * Sampling period of the producing profiler (1 = exact). Merged
     * summaries keep the largest contributing period, purely as
     * provenance — the numbers are already scaled to full-run
     * estimates at collection time.
     */
    std::uint32_t samplePeriod = 1;
    ProfSummaryNode root; //!< phase Root; timing lives in its subtree

    /** Total measured host time: sum of root children's inclusive ns. */
    std::uint64_t totalNs() const;

    /** Flat per-phase rollup (indexed by phase id, Root included). */
    std::array<ProfPhaseAgg, kNumProfPhases> phaseTotals() const;

    /**
     * Accumulate `other` into this summary. Trees are merged node by
     * node keyed on phase path; children stay sorted by phase id, so
     * the merged structure is independent of merge order and of the
     * actual ns magnitudes.
     */
    void merge(const ProfSummary& other);
};

/**
 * The live per-thread profiler. Construct one per System when profiling
 * is enabled; hand the raw pointer to the instrumented components (the
 * same null-gated observer idiom as TraceSink/SpanRecorder).
 */
class HostProfiler
{
  public:
    /** Host-ns clock hook; tests inject a deterministic counter. */
    using ClockFn = std::uint64_t (*)();

    /**
     * `sample_period` (a power of two) times one root-level scope tree
     * out of every `sample_period`, scaling the measurements back to
     * full-run estimates; 1 times everything exactly. Production runs
     * pick a period > 1 (see SystemConfig::profileSample) so the
     * untimed fast path — two branches and a depth bump, no clock
     * reads — keeps overhead inside the observe-only budget.
     */
    explicit HostProfiler(ClockFn clock = &HostProfiler::steadyNs,
                          std::uint32_t sample_period = 1);

    HostProfiler(const HostProfiler&) = delete;
    HostProfiler& operator=(const HostProfiler&) = delete;

    /**
     * Open a scope for `phase` under the current frame. `force_timed`
     * (only meaningful at root level) exempts this tree from sampling
     * and records it exactly, unscaled — for once-per-run scopes like
     * ReportWrite whose scaled estimate would be nonsense.
     *
     * Inline on purpose: the untimed fast path — a sampling decision
     * at root level, then a bare depth bump — is what every skipped
     * scope pays, so it must compile down to a few instructions at the
     * call site instead of a function call.
     */
    void enter(ProfPhase phase, bool force_timed = false)
    {
        if (depth_ == 0) {
            // A tree is timed or skipped as a unit, decided here, so
            // the telescoping rule holds exactly inside every timed
            // tree.
            timing_ =
                force_timed || (rootTick_++ & sampleMask_) == 0;
            treeScale_ =
                force_timed ? 1 : sampleMask_ + std::uint64_t(1);
        }
        if (!timing_) {
            depth_ += 1;
            return;
        }
        enterTimed(phase);
    }

    /** Close the innermost scope and charge its elapsed time. */
    void exit()
    {
        SDPCM_ASSERT(depth_ > 0, "profiler exit without matching enter");
        if (!timing_) {
            depth_ -= 1;
            return;
        }
        exitTimed();
    }

    /** Current open-scope depth (0 between events). */
    unsigned depth() const { return depth_; }

    /**
     * Snapshot the tree into a merge-ready summary. Must be called
     * with no open scopes; re-verifies the telescoping rule over the
     * whole tree.
     */
    ProfSummary summarize() const;

    /** Monotonic host nanoseconds (std::chrono::steady_clock). */
    static std::uint64_t steadyNs();

  private:
    static constexpr std::uint32_t kNoNode = 0xffffffffu;
    static constexpr unsigned kMaxDepth = 32;

    struct Node
    {
        ProfPhase phase = ProfPhase::Root;
        std::uint64_t calls = 0;
        std::uint64_t inclusiveNs = 0;
        std::uint64_t exclusiveNs = 0;
        /** Child node index per phase id (kNoNode = not yet seen). */
        std::array<std::uint32_t, kNumProfPhases> child;
    };

    struct Frame
    {
        std::uint32_t node = 0;
        std::uint64_t startNs = 0;
        std::uint64_t childNs = 0; //!< inclusive ns of closed children
    };

    std::uint32_t childOf(std::uint32_t parent, ProfPhase phase);
    void enterTimed(ProfPhase phase);
    void exitTimed();

    std::vector<Node> nodes_;
    std::array<Frame, kMaxDepth> stack_;
    unsigned depth_ = 0;
    ClockFn clock_;
    std::uint32_t sampleMask_;  //!< sample_period - 1 (period is pow2)
    std::uint32_t rootTick_ = 0; //!< root-level scopes seen so far
    bool timing_ = false;        //!< current tree is being timed
    std::uint64_t treeScale_ = 1; //!< scale of the current timed tree
};

/**
 * RAII scope: no-op (one branch) when `prof` is null. Use through
 * PROF_SCOPE so the variable naming stays out of the way.
 */
class ProfScope
{
  public:
    ProfScope(HostProfiler* prof, ProfPhase phase) : prof_(prof)
    {
        if (prof_)
            prof_->enter(phase);
    }

    ~ProfScope()
    {
        if (prof_)
            prof_->exit();
    }

    ProfScope(const ProfScope&) = delete;
    ProfScope& operator=(const ProfScope&) = delete;

  private:
    HostProfiler* prof_;
};

#define SDPCM_PROF_CONCAT2(a, b) a##b
#define SDPCM_PROF_CONCAT(a, b) SDPCM_PROF_CONCAT2(a, b)

/** `PROF_SCOPE(prof, DeviceWdScan)` — timed scope until end of block. */
#define PROF_SCOPE(prof, phase) \
    ::sdpcm::ProfScope SDPCM_PROF_CONCAT(prof_scope_, __LINE__)( \
        (prof), ::sdpcm::ProfPhase::phase)

/**
 * Profile JSON document: kind "sdpcm_profile", flat per-phase table
 * plus the full tree. `label` names the run (bench/scheme/workload).
 */
void writeProfileJson(std::ostream& os, const std::string& label,
                      const ProfSummary& summary);

/**
 * Folded flamegraph stacks (obs/folded.hh): one line per tree path,
 * weighted by the node's exclusive ns. `label` is the first frame when
 * non-empty, so multiple runs can share one flamegraph.
 */
void writeProfileFolded(std::ostream& os, const std::string& label,
                        const ProfSummary& summary);

/**
 * Console blame table: top `top_n` phases by exclusive host time, with
 * calls, per-call cost and share of total.
 */
void printProfileTop(std::ostream& os, const std::string& label,
                     const ProfSummary& summary, unsigned top_n);

/**
 * Report metrics (`prof.total_ns`, `prof.<Phase>.{calls,excl_ns,
 * incl_ns}`). Emitted only when the summary is enabled, so golden
 * reports (always profiler-off) never see non-deterministic host time.
 */
void addProfMetrics(StatSnapshot& snapshot, const ProfSummary& summary);

} // namespace sdpcm

#endif // SDPCM_OBS_PROFILER_HH
