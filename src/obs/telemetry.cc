#include "obs/telemetry.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/csv.hh"
#include "obs/json.hh"
#include "obs/monitor.hh"
#include "obs/trace_sink.hh"

namespace sdpcm {

namespace {

/** Prometheus metric name: dots become underscores, `sdpcm_` prefix. */
std::string
promName(const std::string& name)
{
    std::string out = "sdpcm_";
    for (const char c : name)
        out += (c == '.') ? '_' : c;
    return out;
}

/** Escape a Prometheus label value (backslash, quote, newline). */
std::string
promLabelValue(const std::string& v)
{
    std::string out;
    for (const char c : v) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

} // namespace

void
MetricRegistry::addCounter(const std::string& name, Poll poll)
{
    for (const Counter& c : counters_)
        SDPCM_ASSERT(c.name != name, "duplicate counter: ", name);
    counters_.push_back(Counter{name, std::move(poll)});
}

void
MetricRegistry::addGauge(const std::string& name, Poll poll)
{
    for (const Gauge& g : gauges_)
        SDPCM_ASSERT(g.name != name, "duplicate gauge: ", name);
    gauges_.push_back(Gauge{name, std::move(poll)});
}

void
MetricRegistry::addLatency(const std::string& name,
                           const LatencyStat* stat)
{
    SDPCM_ASSERT(stat != nullptr, "null latency stat: ", name);
    for (const Latency& l : latencies_)
        SDPCM_ASSERT(l.name != name, "duplicate latency: ", name);
    latencies_.push_back(Latency{name, stat});
}

bool
MetricRegistry::hasGauge(const std::string& name) const
{
    for (const Gauge& g : gauges_) {
        if (g.name == name)
            return true;
    }
    return false;
}

bool
MetricRegistry::hasLatency(const std::string& name) const
{
    for (const Latency& l : latencies_) {
        if (l.name == name)
            return true;
    }
    return false;
}

MetricRegistry
MetricRegistry::subset(bool (*keep)(const std::string&)) const
{
    MetricRegistry reg;
    for (const Counter& c : counters_) {
        if (keep(c.name))
            reg.counters_.push_back(c);
    }
    for (const Gauge& g : gauges_) {
        if (keep(g.name))
            reg.gauges_.push_back(g);
    }
    return reg;
}

TelemetrySampler::TelemetrySampler(EventQueue& events,
                                   MetricRegistry registry,
                                   const TelemetryConfig& cfg,
                                   const std::string& scheme,
                                   const std::string& workload,
                                   FrameFn on_frame)
    : events_(events),
      registry_(std::move(registry)),
      cfg_(cfg),
      scheme_(scheme),
      workload_(workload),
      onFrame_(std::move(on_frame))
{
    SDPCM_ASSERT(cfg_.intervalTicks > 0,
                 "telemetry interval must be positive");
    SDPCM_ASSERT(cfg_.windowFrames > 0,
                 "telemetry window must be at least one frame");
    summary_.enabled = true;
    summary_.intervalTicks = cfg_.intervalTicks;

    if (!cfg_.path.empty()) {
        stream_.open(cfg_.path);
        if (!stream_)
            SDPCM_FATAL("cannot open telemetry file: ", cfg_.path);
    }
    if (!cfg_.promPath.empty()) {
        prom_.open(cfg_.promPath);
        if (!prom_)
            SDPCM_FATAL("cannot open prometheus file: ", cfg_.promPath);
    }
    if (!cfg_.monitorRules.empty()) {
        monitors_ = std::make_unique<MonitorSet>(
            MonitorRule::parseList(cfg_.monitorRules));
        monitors_->bind(registry_);
    }

    prevCounters_.resize(registry_.counters().size(), 0);
    counterTotals_.resize(registry_.counters().size(), 0);
    windows_.resize(registry_.latencies().size());
    for (LatencyWindow& w : windows_)
        w.ring.resize(cfg_.windowFrames);
}

TelemetrySampler::~TelemetrySampler() = default;

void
TelemetrySampler::start()
{
    SDPCM_ASSERT(!started_, "telemetry sampler started twice");
    started_ = true;
    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i)
        prevCounters_[i] = counters[i].poll();
    const auto& lats = registry_.latencies();
    for (std::size_t i = 0; i < lats.size(); ++i)
        windows_[i].prevCum = lats[i].stat->sketch();
    if (cfg_.watchdogTicks > 0) {
        // The watchdog rides the frame hook, so its effective resolution
        // is one frame; a window below the interval could never observe
        // an intact window and would flag every gap.
        SDPCM_ASSERT(cfg_.watchdogTicks >= cfg_.intervalTicks,
                     "watchdog window (", cfg_.watchdogTicks,
                     ") must be >= the telemetry interval (",
                     cfg_.intervalTicks, ")");
    }
    writeMeta();
    hookId_ = events_.addTickHook(cfg_.intervalTicks,
                                  [this](Tick now) { takeFrame(now); });
}

void
TelemetrySampler::finalize()
{
    if (finalized_)
        return;
    SDPCM_ASSERT(started_, "telemetry sampler finalized before start");
    finalized_ = true;
    events_.removeTickHook(hookId_);

    // Capture the tail partial frame (activity since the last boundary).
    // Hooks fire *before* the first event at a boundary tick, so a run
    // whose last event lands exactly on a boundary retires work after
    // the final in-run poll: catch it by comparing the cumulative state
    // against the last frame's, not just the tick.
    if (events_.now() > lastFrameTick_ || summary_.frames == 0 ||
        unobservedActivity())
        takeFrame(events_.now());

    // Telescoping invariant: the wrap-sum of frame deltas must equal
    // the final cumulative poll for every counter — a frame was never
    // missed, double-counted, or torn.
    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const std::uint64_t cum = counters[i].poll();
        SDPCM_ASSERT(counterTotals_[i] == cum,
                     "telemetry frame deltas for '", counters[i].name,
                     "' sum to ", counterTotals_[i],
                     " but the cumulative counter reads ", cum);
        summary_.counterTotals[counters[i].name] = counterTotals_[i];
    }
    if (monitors_) {
        summary_.breaches = monitors_->totalBreaches();
        summary_.breachesByRule = monitors_->breachesByRule();
        summary_.worstByRule = monitors_->worstByRule();
        summary_.evaluationsByRule = monitors_->evaluationsByRule();
        for (const auto& [rule, evals] : summary_.evaluationsByRule) {
            if (evals == 0) {
                SDPCM_WARN("SLO rule '", rule, "' never evaluated: its "
                           "window held zero samples in all ",
                           summary_.frames, " frames — the rule guarded "
                           "nothing");
            }
        }
        for (const auto& [rule, n] : summary_.breachesByRule) {
            const auto worst = summary_.worstByRule.find(rule);
            SDPCM_WARN("SLO rule '", rule, "' breached in ", n, " of ",
                       summary_.frames, " frames (worst value ",
                       worst != summary_.worstByRule.end()
                           ? worst->second : 0.0, ")");
        }
    }
    if (watchdog_)
        summary_.watchdogStalls = watchdog_->stalls();

    writeSummaryLine(events_.now());
    if (stream_.is_open()) {
        stream_.flush();
        if (!stream_)
            SDPCM_FATAL("error writing telemetry file: ", cfg_.path);
    }
    writePromFile();
}

void
TelemetrySampler::setWatchdog(std::unique_ptr<Watchdog> watchdog)
{
    watchdog_ = std::move(watchdog);
}

bool
TelemetrySampler::unobservedActivity() const
{
    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (counters[i].poll() != prevCounters_[i])
            return true;
    }
    const auto& latencies = registry_.latencies();
    for (std::size_t i = 0; i < latencies.size(); ++i) {
        if (latencies[i].stat->sketch().count() !=
            windows_[i].prevCum.count())
            return true;
    }
    return false;
}

void
TelemetrySampler::takeFrame(Tick now)
{
    PROF_SCOPE(obs_.prof, TelemetryPoll);
    FrameData fd;
    fd.tick = now;
    fd.seq = summary_.frames;
    fd.intervalTicks = cfg_.intervalTicks;

    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const std::uint64_t cur = counters[i].poll();
        // Wrap-subtraction: a cycle refund (write cancellation) can make
        // an individual delta negative; the unsigned wrap-sum still
        // telescopes to the cumulative total exactly.
        const std::uint64_t delta = cur - prevCounters_[i];
        counterTotals_[i] += delta;
        prevCounters_[i] = cur;
        fd.counterDeltas.emplace(counters[i].name,
                                 static_cast<std::int64_t>(delta));
    }
    for (const MetricRegistry::Gauge& g : registry_.gauges())
        fd.gauges.emplace(g.name, g.poll());

    const auto& lats = registry_.latencies();
    for (std::size_t i = 0; i < lats.size(); ++i) {
        LatencyWindow& w = windows_[i];
        const QuantileSketch cur = lats[i].stat->sketch();
        w.ring[fd.seq % cfg_.windowFrames] = cur.diff(w.prevCum);
        w.prevCum = cur;
        w.window.reset();
        for (const QuantileSketch& epoch : w.ring)
            w.window.merge(epoch);
        WindowView view;
        view.count = w.window.count();
        view.sketch = &w.window;
        fd.windows.emplace(lats[i].name, view);
    }

    summary_.frames += 1;
    lastFrameTick_ = now;
    writeFrame(fd);
    if (onFrame_)
        onFrame_(fd);

    if (monitors_) {
        for (const BreachEvent& b : monitors_->evaluate(fd)) {
            if (warnedRules_.insert(b.rule).second) {
                SDPCM_WARN("SLO breach: rule '", b.rule, "' value ",
                           b.value, " violates limit ", b.limit,
                           " at tick ", b.tick,
                           " (further breaches of this rule stream "
                           "silently; totals at end of run)");
            }
            if (stream_.is_open()) {
                JsonWriter w(stream_, false);
                w.beginObject();
                w.kv("type", "breach");
                w.kv("tick", static_cast<std::uint64_t>(b.tick));
                w.kv("seq", b.seq);
                w.kv("rule", b.rule);
                w.kv("value", b.value);
                w.kv("limit", b.limit);
                w.endObject();
                stream_ << "\n";
            }
            if (obs_.trace) {
                obs_.trace->instant(0, "slo_breach", "monitor", now,
                                    {{"value", b.value},
                                     {"limit", b.limit}});
            }
        }
    }
    if (watchdog_ && watchdog_->check(now)) {
        const Tick idle = watchdog_->window();
        SDPCM_WARN("watchdog: no request retired for ", idle,
                   " ticks with work pending (tick ", now,
                   ") — run looks stalled");
        if (stream_.is_open()) {
            JsonWriter w(stream_, false);
            w.beginObject();
            w.kv("type", "stall");
            w.kv("tick", static_cast<std::uint64_t>(now));
            w.kv("seq", fd.seq);
            w.kv("window", static_cast<std::uint64_t>(idle));
            w.endObject();
            stream_ << "\n";
        }
        if (obs_.trace) {
            obs_.trace->instant(0, "watchdog_stall", "monitor", now,
                                {{"window", static_cast<double>(idle)}});
        }
    }
}

void
TelemetrySampler::writeMeta()
{
    if (!stream_.is_open())
        return;
    JsonWriter w(stream_, false);
    w.beginObject();
    w.kv("type", "meta");
    w.kv("kind", "sdpcm_telemetry");
    w.kv("version", static_cast<std::uint64_t>(1));
    w.kv("scheme", scheme_);
    w.kv("workload", workload_);
    w.kv("interval_ticks", static_cast<std::uint64_t>(cfg_.intervalTicks));
    w.kv("window_frames", static_cast<std::uint64_t>(cfg_.windowFrames));
    w.key("counters").beginArray();
    for (const auto& c : registry_.counters())
        w.value(c.name);
    w.endArray();
    w.key("gauges").beginArray();
    for (const auto& g : registry_.gauges())
        w.value(g.name);
    w.endArray();
    w.key("latencies").beginArray();
    for (const auto& l : registry_.latencies())
        w.value(l.name);
    w.endArray();
    w.key("rules").beginArray();
    if (monitors_) {
        for (const MonitorRule& r : monitors_->rules())
            w.value(r.describe());
    }
    w.endArray();
    w.kv("watchdog_ticks",
         static_cast<std::uint64_t>(cfg_.watchdogTicks));
    w.endObject();
    stream_ << "\n";
}

void
TelemetrySampler::writeFrame(const FrameData& fd)
{
    if (!stream_.is_open())
        return;
    JsonWriter w(stream_, false);
    w.beginObject();
    w.kv("type", "frame");
    w.kv("seq", fd.seq);
    w.kv("tick", static_cast<std::uint64_t>(fd.tick));
    w.key("counters").beginObject();
    for (const auto& [name, delta] : fd.counterDeltas)
        w.kv(name, static_cast<double>(delta));
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto& [name, value] : fd.gauges)
        w.kv(name, value);
    w.endObject();
    w.key("windows").beginObject();
    for (const auto& [name, view] : fd.windows) {
        w.key(name).beginObject();
        w.kv("count", view.count);
        w.kv("p50", view.percentile(0.50));
        w.kv("p95", view.percentile(0.95));
        w.kv("p99", view.percentile(0.99));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    stream_ << "\n";
}

void
TelemetrySampler::writeSummaryLine(Tick now)
{
    if (!stream_.is_open())
        return;
    JsonWriter w(stream_, false);
    w.beginObject();
    w.kv("type", "summary");
    w.kv("tick", static_cast<std::uint64_t>(now));
    w.kv("frames", summary_.frames);
    w.key("totals").beginObject();
    for (const auto& [name, total] : summary_.counterTotals)
        w.kv(name, total);
    w.endObject();
    w.key("breaches").beginObject();
    for (const auto& [rule, n] : summary_.breachesByRule)
        w.kv(rule, n);
    w.endObject();
    // Schema-additive (tools tolerate its absence in old streams):
    // frames each rule actually evaluated against — 0 flags a rule
    // whose windows were always empty.
    w.key("evaluations").beginObject();
    for (const auto& [rule, n] : summary_.evaluationsByRule)
        w.kv(rule, n);
    w.endObject();
    w.kv("watchdog_stalls", summary_.watchdogStalls);
    w.endObject();
    stream_ << "\n";
}

void
TelemetrySampler::writePromFile()
{
    if (!prom_.is_open())
        return;
    std::ofstream& os = prom_;
    const std::string labels = "{scheme=\"" + promLabelValue(scheme_) +
                               "\",workload=\"" +
                               promLabelValue(workload_) + "\"}";
    for (const auto& c : registry_.counters()) {
        const std::string n = promName(c.name);
        os << "# TYPE " << n << " counter\n"
           << n << labels << " " << c.poll() << "\n";
    }
    for (const auto& g : registry_.gauges()) {
        const std::string n = promName(g.name);
        os << "# TYPE " << n << " gauge\n"
           << n << labels << " " << g.poll() << "\n";
    }
    for (const auto& l : registry_.latencies()) {
        const std::string n = promName(l.name);
        os << "# TYPE " << n << " summary\n";
        for (const double q : {0.5, 0.95, 0.99}) {
            os << n << "{scheme=\"" << promLabelValue(scheme_)
               << "\",workload=\"" << promLabelValue(workload_)
               << "\",quantile=\"" << q << "\"} "
               << l.stat->percentile(q) << "\n";
        }
        os << n << "_sum" << labels << " " << l.stat->sum() << "\n"
           << n << "_count" << labels << " " << l.stat->count() << "\n";
    }
    if (monitors_) {
        const std::string n = "sdpcm_mon_breaches";
        os << "# TYPE " << n << " counter\n";
        for (const auto& [rule, count] : monitors_->breachesByRule()) {
            os << n << "{scheme=\"" << promLabelValue(scheme_)
               << "\",workload=\"" << promLabelValue(workload_)
               << "\",rule=\"" << promLabelValue(rule) << "\"} " << count
               << "\n";
        }
    }
    os.flush();
    if (!os)
        SDPCM_FATAL("error writing prometheus file: ", cfg_.promPath);
}

namespace {

/**
 * One epoch column: its CSV/JSON name, the registry signal it projects
 * (a counter delta or a gauge; null for the tick) and its sample field.
 */
struct EpochColumn
{
    const char* name;
    const char* signal;
    std::uint64_t EpochSample::*field;
};

const EpochColumn kEpochColumns[] = {
    {"tick", nullptr, &EpochSample::tick},
    {"reads_serviced", "ctrl.readsServiced", &EpochSample::readsServiced},
    {"reads_forwarded", "ctrl.readsForwarded",
     &EpochSample::readsForwarded},
    {"writes_accepted", "ctrl.writesAccepted",
     &EpochSample::writesAccepted},
    {"writes_completed", "ctrl.writesCompleted",
     &EpochSample::writesCompleted},
    {"write_drains", "ctrl.writeDrains", &EpochSample::writeDrains},
    {"ecp_updates", "ctrl.ecpUpdates", &EpochSample::ecpUpdates},
    {"correction_writes", "ctrl.correctionWrites",
     &EpochSample::correctionWrites},
    {"write_cancellations", "ctrl.writeCancellations",
     &EpochSample::writeCancellations},
    {"cycles_read", "ctrl.cycles.read", &EpochSample::cyclesRead},
    {"cycles_preread", "ctrl.cycles.preRead", &EpochSample::cyclesPreRead},
    {"cycles_write", "ctrl.cycles.write", &EpochSample::cyclesWrite},
    {"cycles_verify", "ctrl.cycles.verify", &EpochSample::cyclesVerify},
    {"cycles_correction", "ctrl.cycles.correction",
     &EpochSample::cyclesCorrection},
    {"cycles_ecp", "ctrl.cycles.ecp", &EpochSample::cyclesEcp},
    {"read_queued", "ctrl.readQueued", &EpochSample::readQueued},
    {"write_queued", "ctrl.writeQueued", &EpochSample::writeQueued},
    {"max_bank_write_queue", "ctrl.maxBankWriteQueue",
     &EpochSample::maxBankWriteQueue},
    {"pending_corrections", "ctrl.pendingCorrections",
     &EpochSample::pendingCorrections},
};

} // namespace

std::vector<std::string>
EpochSeries::columns()
{
    std::vector<std::string> names;
    for (const EpochColumn& c : kEpochColumns)
        names.emplace_back(c.name);
    return names;
}

bool
EpochSeries::usesSignal(const std::string& name)
{
    for (const EpochColumn& c : kEpochColumns) {
        if (c.signal && name == c.signal)
            return true;
    }
    return false;
}

void
EpochSeries::record(const FrameData& frame, TraceSink* trace)
{
    EpochSample s;
    s.tick = frame.tick;
    for (const EpochColumn& c : kEpochColumns) {
        if (!c.signal)
            continue;
        // Counter deltas travel signed; the cast restores the unsigned
        // wrap-delta the columns hold (a cycle refund can wrap one).
        const auto delta = frame.counterDeltas.find(c.signal);
        s.*c.field = delta != frame.counterDeltas.end()
            ? static_cast<std::uint64_t>(delta->second)
            : frame.gauges.at(c.signal);
    }
    samples.push_back(s);

    if (trace) {
        trace->counter("queues", s.tick,
                       {{"reads_queued",
                         static_cast<double>(s.readQueued)},
                        {"writes_queued",
                         static_cast<double>(s.writeQueued)},
                        {"pending_corrections",
                         static_cast<double>(s.pendingCorrections)}});
        trace->counter("throughput", s.tick,
                       {{"reads_serviced",
                         static_cast<double>(s.readsServiced)},
                        {"writes_completed",
                         static_cast<double>(s.writesCompleted)}});
    }
}

void
EpochSeries::dumpCsv(std::ostream& os) const
{
    // Header comment: document the file's one non-obvious invariant so a
    // consumer need not find this source. Comment lines start with '#';
    // readers (including our own tests) skip them before the header row.
    os << "# sdpcm epoch series: one sample per epoch of " << epochTicks
       << " ticks (tick = sample time, end of epoch).\n"
       << "# Delta-sum invariant: every counter column (reads_serviced "
          "... cycles_ecp) holds the\n"
       << "# delta over its epoch, and summing a column over all rows "
          "reproduces the end-of-run\n"
       << "# CtrlStats total exactly. The queue columns (read_queued, "
          "write_queued,\n"
       << "# max_bank_write_queue, pending_corrections) are "
          "instantaneous gauges, not deltas.\n";
    bool first = true;
    for (const EpochColumn& c : kEpochColumns) {
        os << (first ? "" : ",");
        csv::writeField(os, c.name);
        first = false;
    }
    os << "\n";
    for (const EpochSample& s : samples) {
        first = true;
        for (const EpochColumn& c : kEpochColumns) {
            os << (first ? "" : ",") << s.*c.field;
            first = false;
        }
        os << "\n";
    }
}

void
EpochSeries::dumpJson(std::ostream& os) const
{
    os << "{\"epoch_ticks\":" << epochTicks << ",\"samples\":[";
    bool first_sample = true;
    for (const EpochSample& s : samples) {
        os << (first_sample ? "\n" : ",\n") << "{";
        first_sample = false;
        bool first = true;
        for (const EpochColumn& c : kEpochColumns) {
            os << (first ? "" : ",");
            json::writeString(os, c.name);
            os << ":";
            json::writeNumber(os, s.*c.field);
            first = false;
        }
        os << "}";
    }
    os << "\n]}\n";
}

std::uint64_t
EpochSeries::peak(std::uint64_t EpochSample::*column) const
{
    std::uint64_t peak = 0;
    for (const EpochSample& s : samples)
        peak = std::max(peak, s.*column);
    return peak;
}

} // namespace sdpcm
