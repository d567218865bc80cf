/**
 * @file
 * Full-system assembly: thermal model -> device -> controller -> MMUs ->
 * cores, wired per Table 2, plus the run loop and metric extraction.
 */

#ifndef SDPCM_SIM_SYSTEM_HH
#define SDPCM_SIM_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "controller/memctrl.hh"
#include "cpu/core.hh"
#include "obs/ledger.hh"
#include "obs/observers.hh"
#include "obs/profiler.hh"
#include "obs/telemetry.hh"
#include "obs/trace_sink.hh"
#include "os/buddy.hh"
#include "os/page_table.hh"
#include "pcm/device.hh"
#include "sim/event_queue.hh"
#include "thermal/wd_model.hh"
#include "verify/faultinject.hh"
#include "verify/oracle.hh"
#include "workload/trace.hh"

namespace sdpcm {

/** A workload: a factory of per-core trace streams. */
struct WorkloadSpec
{
    std::string name;
    std::function<std::unique_ptr<TraceStream>(unsigned core,
                                               std::uint64_t seed)>
        makeStream;
};

/** Build a WorkloadSpec where every core runs a copy of one profile. */
WorkloadSpec workloadFromProfile(const std::string& profile_name);

/** The 9 simulated applications of Table 3. */
std::vector<WorkloadSpec> standardWorkloads();

/**
 * The run, observer and verification knobs. SystemConfig (one System)
 * and RunnerConfig (batches of runs) both derive from it, so a batch
 * hands its knobs to each run in one assignment.
 */
struct RunOptions
{
    unsigned cores = 8;
    std::uint64_t refsPerCore = 50000;
    std::uint64_t seed = 1;
    AgingConfig aging;
    DinConfig din;     //!< encoder knobs (ablation studies)
    PcmTiming timing;  //!< device timing knobs (ablation studies)
    Tick maxTicks = ~Tick(0);

    // --- Observability (all default off: zero-overhead fast path). ---
    /** Write a Chrome trace-event JSON of bank activity to this path
     *  (single runs only: matrix runs drop it with a warning). */
    std::string tracePath;
    /** Sample controller counters every N ticks (0 disables). */
    Tick epochTicks = 0;
    /** Track per-line wear/WD counters for spatial heatmaps. */
    bool lineCounters = false;
    /** Per-request span attribution (obs/spans.hh). */
    bool spans = false;
    /** Streaming telemetry + SLO monitors (obs/telemetry.hh); disabled
     *  unless telemetry.intervalTicks > 0. The stream/prom paths apply
     *  to single runs only; matrix runs drop them (one file, many
     *  cells) but keep interval/rules/watchdog so mon.* metrics stay
     *  per-cell. */
    TelemetryConfig telemetry;
    /** Disturbance-provenance ledger (obs/ledger.hh). */
    bool wdLedger = false;
    /** Host-time self-profiler (obs/profiler.hh): hierarchical
     *  wall-clock blame for the simulator's own hot paths. Observe-only
     *  by construction — it never touches RNG or simulated state. Each
     *  matrix cell carries its own profile; merge the summaries in
     *  matrix order for a deterministic whole-matrix blame tree. */
    bool profile = false;
    /** Profiler sampling period (power of two): one root scope tree in
     *  `profileSample` is timed in full, the rest only counted, with
     *  measurements scaled back to full-run estimates; 1 times every
     *  scope exactly (for tiny runs and debugging). The default's
     *  overhead is not resolved: simbench's `obs.profiler_frac` read
     *  0.035-0.34 on write-mcf, against a 2% budget (DESIGN §6.6). */
    std::uint32_t profileSample = 64;
    /** Per-cell endurance budget (writes a cell survives) for the
     *  wear.projectedLifetimeTicks estimate. 1e8 is the paper's PCM
     *  endurance ballpark; purely an output-side scale factor. */
    double enduranceCellWrites = 1e8;

    // --- Verification (both default off: zero-overhead fast path). ---
    /** Shadow-memory integrity oracle (see verify/oracle.hh). */
    bool verifyOracle = false;
    /** Deterministic fault injection (see verify/faultinject.hh). */
    FaultSpec faults;
};

/** What a run varies; the Table 1/2 facts are constants (DESIGN §5). */
struct SystemConfig : RunOptions
{
    SchemeConfig scheme;
};

/** Extracted results of one run. */
struct RunMetrics
{
    std::string workload;
    std::string scheme;
    std::vector<double> coreCpi;
    double meanCpi = 0.0;
    Tick finalTick = 0;
    DeviceStats device;
    CtrlStats ctrl;
    EpochSeries epochs; //!< empty unless SystemConfig::epochTicks > 0
    /** Sorted per-line counters; empty unless lineCounters was on. */
    std::vector<LineCounterSample> lines;
    /** Oracle counters; `enabled` false unless verifyOracle was on. */
    OracleSummary oracle;
    /** Per-phase blame; `enabled` false unless spans was on. */
    SpanSummary spans;
    /** Telemetry aggregates; `enabled` false unless telemetry was on. */
    TelemetrySummary telemetry;
    /** WD provenance; `enabled` false unless wdLedger was on. */
    WdLedgerSummary wd;
    /** Host-time blame tree; `enabled` false unless profile was on. */
    ProfSummary prof;
    /** Endurance budget used for wear.projectedLifetimeTicks. */
    double enduranceCellWrites = 1e8;

    /** Correction writes per completed data write (Figure 12). */
    double
    correctionsPerWrite() const
    {
        if (ctrl.writesCompleted == 0)
            return 0.0;
        return static_cast<double>(ctrl.correctionWrites) /
               static_cast<double>(ctrl.writesCompleted);
    }

    /** Speedup of this run against a baseline CPI. */
    double
    speedupOver(double base_cpi) const
    {
        return meanCpi > 0.0 ? base_cpi / meanCpi : 0.0;
    }

    /** Flatten every counter into a named snapshot (CLI/tooling). */
    StatSnapshot toSnapshot() const;
};

/** One end-to-end simulation instance. */
class System
{
  public:
    System(const SystemConfig& config, const WorkloadSpec& workload);

    /** Run to completion (all cores done, memory quiescent). */
    void run();

    RunMetrics metrics() const;

    PcmDevice& device() { return *device_; }
    MemoryController& controller() { return *ctrl_; }
    PageAllocatorSystem& allocator() { return *allocator_; }
    EventQueue& events() { return events_; }
    const std::vector<std::unique_ptr<TraceCore>>& cores() const
    {
        return cores_;
    }

    /** Disturbance rates the thermal model yields for this scheme (the
     *  ThermalConfig, all constants, changes nothing). */
    static WdRates ratesFor(const SchemeConfig& scheme,
                            const ThermalConfig& = {});

  private:
    SystemConfig config_;
    WorkloadSpec workload_;
    EventQueue events_;
    std::unique_ptr<PcmDevice> device_;
    std::unique_ptr<MemoryController> ctrl_;
    std::unique_ptr<FaultInjector> faultInjector_;
    // Observers (each null when off) and the bundle of their pointers
    // every emitting component holds.
    std::unique_ptr<ChromeTraceSink> traceSink_;
    std::unique_ptr<ShadowOracle> oracle_;
    std::unique_ptr<SpanRecorder> spanRecorder_;
    std::unique_ptr<WdLedger> ledger_;
    std::unique_ptr<HostProfiler> profiler_;
    ObserverBundle obs_;
    /** Epoch series: a telemetry sampler over the epoch registry whose
     *  frames fill `epochs_`. Installed before telemetrySampler_, so
     *  same-tick epoch counters precede breach instants in the trace. */
    std::unique_ptr<TelemetrySampler> epochSampler_;
    EpochSeries epochs_;
    std::unique_ptr<TelemetrySampler> telemetrySampler_;
    std::unique_ptr<PageAllocatorSystem> allocator_;
    std::vector<std::unique_ptr<Mmu>> mmus_;
    std::vector<std::unique_ptr<TraceStream>> streams_;
    std::vector<std::unique_ptr<TraceCore>> cores_;
};

} // namespace sdpcm

#endif // SDPCM_SIM_SYSTEM_HH
