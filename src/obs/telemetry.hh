/**
 * @file
 * Streaming telemetry: the live-signal backbone of a run.
 *
 * Every observability surface before this one (reports, span blame,
 * heatmaps) is end-of-run; telemetry is what the system looks like
 * *while* it runs. A MetricRegistry names the signals a simulation
 * publishes — cumulative counters, instantaneous gauges and latency
 * distributions — as poll functions over the components' existing Stats
 * structs, so publishing costs nothing on the hot path: nothing is
 * touched until a frame boundary, and a disabled registry is simply
 * never constructed (the same absent-when-off idiom as TraceSink /
 * SpanRecorder).
 *
 * The TelemetrySampler rides an EventQueue tick hook: every
 * `intervalTicks` it polls the registry, forms counter *deltas* since
 * the previous frame, snapshots gauges, and maintains a ring-of-epochs
 * windowed view of each latency sketch (cumulative QuantileSketch
 * snapshots subtract into per-frame deltas; the last `windowFrames`
 * deltas merge into the sliding window the SLO monitors read p99s
 * from). Frames stream to a JSONL file as the run progresses, and a
 * Prometheus text-exposition dump of the final cumulative state can be
 * written for future scrape-based serving.
 *
 * Telescoping invariant (tested, asserted at finalize): summing a
 * counter's frame deltas over all frames — including the final partial
 * frame — reproduces the end-of-run cumulative value exactly, and those
 * totals must bit-match the corresponding run-report metrics
 * (System::metrics cross-checks them). Deltas are emitted signed: a
 * write cancellation can refund busy-cycles, making an individual frame
 * delta negative; the unsigned wrap-sum still telescopes exactly.
 *
 * The epoch series (`--epoch=N`) is a projection of the same machinery:
 * a second sampler whose registry holds only the 14 controller counters
 * and 4 queue gauges behind the EpochSeries columns, and whose frames
 * become EpochSample rows (and `queues` / `throughput` trace counter
 * tracks). The tick hook, wrap-deltas and the boundary-tick tail frame
 * therefore exist once, here.
 */

#ifndef SDPCM_OBS_TELEMETRY_HH
#define SDPCM_OBS_TELEMETRY_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/observers.hh"
#include "sim/event_queue.hh"

namespace sdpcm {

class MonitorSet;
class Watchdog;

/** Telemetry knobs (all off by default: zero-overhead fast path). */
struct TelemetryConfig
{
    /** Frame interval in ticks; 0 disables telemetry entirely. */
    Tick intervalTicks = 0;
    /** Stream JSONL frames to this path ("" = no stream file). */
    std::string path;
    /** Prometheus text-exposition dump of the final state ("" = none). */
    std::string promPath;
    /** Sliding-window width for latency percentiles, in frames. */
    unsigned windowFrames = 8;
    /** ';'-separated SLO monitor rules (obs/monitor.hh grammar). */
    std::string monitorRules;
    /** Forward-progress watchdog window in ticks (0 = off): flag the
     *  run as stalled when no request retires for this long while work
     *  is pending. */
    Tick watchdogTicks = 0;

    bool enabled() const { return intervalTicks > 0; }
};

/**
 * Named signals of one simulation instance. Deliberately per-instance,
 * not process-global (experiments run many Systems per process); the
 * System wires its components in at construction.
 */
class MetricRegistry
{
  public:
    using Poll = std::function<std::uint64_t()>;

    struct Counter
    {
        std::string name;
        Poll poll; //!< cumulative value (wrap-telescoping, may refund)
    };
    struct Gauge
    {
        std::string name;
        Poll poll; //!< instantaneous value at the frame boundary
    };
    struct Latency
    {
        std::string name;
        /** Not owned; must outlive the registry (a component's stat). */
        const LatencyStat* stat = nullptr;
    };

    /** Counter names match their run-report metric keys exactly — that
     *  identity is what the final-frame/report cross-check rests on. */
    void addCounter(const std::string& name, Poll poll);
    void addGauge(const std::string& name, Poll poll);
    void addLatency(const std::string& name, const LatencyStat* stat);

    const std::vector<Counter>& counters() const { return counters_; }
    const std::vector<Gauge>& gauges() const { return gauges_; }
    const std::vector<Latency>& latencies() const { return latencies_; }

    bool hasGauge(const std::string& name) const;
    bool hasLatency(const std::string& name) const;

    /** The counters and gauges whose names `keep` accepts, in registry
     *  order (no latencies). */
    MetricRegistry subset(bool (*keep)(const std::string&)) const;

  private:
    std::vector<Counter> counters_;
    std::vector<Gauge> gauges_;
    std::vector<Latency> latencies_;
};

/** Sliding-window view over one latency metric (monitor input). */
struct WindowView
{
    std::uint64_t count = 0; //!< samples inside the window
    /** Merged window sketch; never null while the frame is live. */
    const QuantileSketch* sketch = nullptr;

    double
    percentile(double q) const
    {
        return sketch ? sketch->percentile(q) : 0.0;
    }
};

/** One frame's worth of polled state, as the monitors see it. */
struct FrameData
{
    Tick tick = 0;
    std::uint64_t seq = 0; //!< frame index, 0-based
    Tick intervalTicks = 0;
    std::map<std::string, std::int64_t> counterDeltas;
    std::map<std::string, std::uint64_t> gauges;
    std::map<std::string, WindowView> windows;
};

/** End-of-run telemetry aggregates (carried by RunMetrics). */
struct TelemetrySummary
{
    bool enabled = false;
    Tick intervalTicks = 0;
    std::uint64_t frames = 0;
    /** Wrap-sum of frame deltas per counter; bit-matches the final
     *  cumulative poll (asserted) and the run report (cross-checked). */
    std::map<std::string, std::uint64_t> counterTotals;
    std::uint64_t breaches = 0; //!< SLO monitor breaches, all rules
    std::map<std::string, std::uint64_t> breachesByRule;
    /** Worst observed value per rule (most violating direction). */
    std::map<std::string, double> worstByRule;
    /** Frames each rule evaluated against (every rule appears; 0 means
     *  the rule's window was always empty — it never guarded anything). */
    std::map<std::string, std::uint64_t> evaluationsByRule;
    std::uint64_t watchdogStalls = 0;
};

/**
 * Polls the registry every frame interval via an EventQueue tick hook,
 * streams JSONL frames, evaluates SLO monitors and the forward-progress
 * watchdog, and dumps Prometheus text exposition at finalize. Breach and
 * stall instants go to the bundle's trace sink; every poll bills to the
 * bundle's profiler (TelemetryPoll), so the sampler's own cost shows up
 * in the blame table it rides along with.
 */
class TelemetrySampler : public Observed
{
  public:
    /** Receives every frame right after it is polled. */
    using FrameFn = std::function<void(const FrameData&)>;

    /**
     * @param registry the fully wired registry (moved in).
     * @param scheme / @param workload label the stream (meta line,
     *        Prometheus labels).
     * @param on_frame optional frame consumer (the epoch series).
     * Throws std::invalid_argument on a malformed monitor rule spec;
     * fatal when an output file cannot be opened, before the run.
     */
    TelemetrySampler(EventQueue& events, MetricRegistry registry,
                     const TelemetryConfig& cfg,
                     const std::string& scheme,
                     const std::string& workload,
                     FrameFn on_frame = nullptr);
    ~TelemetrySampler();

    /**
     * Attach the forward-progress watchdog (the System builds it — it
     * owns the retirement/pending polls). Call before start().
     */
    void setWatchdog(std::unique_ptr<Watchdog> watchdog);

    /** Install the tick hook and emit the meta line; call once. */
    void start();

    /**
     * Capture the final partial frame, emit the summary line, dump the
     * Prometheus file, and assert the telescoping invariant. Call after
     * the run drains (idempotent).
     */
    void finalize();

    const TelemetrySummary& summary() const { return summary_; }

  private:
    /** Per-latency windowed state: ring of per-frame delta sketches. */
    struct LatencyWindow
    {
        QuantileSketch prevCum;          //!< cumulative at last frame
        std::vector<QuantileSketch> ring; //!< last windowFrames deltas
        QuantileSketch window;            //!< merge of the ring (scratch)
    };

    /** True when a counter or latency moved since the last frame poll
     *  (a boundary-tick event retiring after the hook fired). */
    bool unobservedActivity() const;

    void takeFrame(Tick now);
    void writeMeta();
    void writeFrame(const FrameData& fd);
    void writeSummaryLine(Tick now);
    void writePromFile();

    EventQueue& events_;
    MetricRegistry registry_;
    TelemetryConfig cfg_;
    std::string scheme_;
    std::string workload_;
    FrameFn onFrame_; //!< null unless a projection consumes frames

    std::ofstream stream_;           //!< open iff cfg_.path non-empty
    std::ofstream prom_;             //!< open iff cfg_.promPath non-empty
    std::vector<std::uint64_t> prevCounters_;
    std::vector<std::uint64_t> counterTotals_; //!< wrap-sum of deltas
    std::vector<LatencyWindow> windows_;
    std::unique_ptr<MonitorSet> monitors_; //!< null when no rules
    std::unique_ptr<Watchdog> watchdog_;   //!< null when off
    /** Rules already warned about (first breach warns; the rest stream
     *  silently to JSONL/trace, with a per-rule summary at finalize). */
    std::set<std::string> warnedRules_;
    TelemetrySummary summary_;
    Tick lastFrameTick_ = 0;
    std::size_t hookId_ = 0;
    bool started_ = false;
    bool finalized_ = false;
};

/** One epoch's worth of controller activity (a projected frame). */
struct EpochSample
{
    Tick tick = 0; //!< sample time (end of the epoch)

    // Counter deltas over the epoch.
    std::uint64_t readsServiced = 0;
    std::uint64_t readsForwarded = 0;
    std::uint64_t writesAccepted = 0;
    std::uint64_t writesCompleted = 0;
    std::uint64_t writeDrains = 0;
    std::uint64_t ecpUpdates = 0;
    std::uint64_t correctionWrites = 0;
    std::uint64_t writeCancellations = 0;
    std::uint64_t cyclesRead = 0;
    std::uint64_t cyclesPreRead = 0;
    std::uint64_t cyclesWrite = 0;
    std::uint64_t cyclesVerify = 0;
    std::uint64_t cyclesCorrection = 0;
    std::uint64_t cyclesEcp = 0;

    // Instantaneous gauges at the sample time.
    std::uint64_t readQueued = 0;      //!< pending reads, all banks
    std::uint64_t writeQueued = 0;     //!< queued writes, all banks
    std::uint64_t maxBankWriteQueue = 0;
    std::uint64_t pendingCorrections = 0;
};

/**
 * The epoch time series a run produces (carried by RunMetrics): the
 * SD-PCM mechanisms' temporal structure — LazyCorrection parking errors
 * until a burst of overflows, PreRead racing bank-idle windows, drains
 * blocking reads — that end-of-run totals hide. Summing any delta
 * column over all samples reproduces the final CtrlStats total exactly
 * (tested). Samples are taken at the first event on or after each
 * boundary, so quiet windows just space them further apart.
 */
struct EpochSeries
{
    Tick epochTicks = 0; //!< 0 when sampling was disabled
    std::vector<EpochSample> samples;

    bool enabled() const { return epochTicks > 0; }

    /** Column names, in the order dumpCsv() writes them. */
    static std::vector<std::string> columns();

    /** True for the registry signals the columns project. */
    static bool usesSignal(const std::string& name);

    /**
     * Append a frame of the epoch registry as one sample, mirroring it
     * into `trace` (when non-null) as `queues` and `throughput` counter
     * tracks.
     */
    void record(const FrameData& frame, TraceSink* trace);

    void dumpCsv(std::ostream& os) const;
    void dumpJson(std::ostream& os) const;

    /** Largest value of one column over the series (0 when empty). */
    std::uint64_t peak(std::uint64_t EpochSample::*column) const;
};

} // namespace sdpcm

#endif // SDPCM_OBS_TELEMETRY_HH
