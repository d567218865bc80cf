#include "sim/system.hh"

#include <algorithm>
#include <iostream>

#include "obs/monitor.hh"
#include "workload/generators.hh"

namespace sdpcm {

namespace {

/** A plain counter of the run report, named by its report key. */
template <typename Stats>
struct ReportCounter
{
    const char* name;
    std::uint64_t Stats::*field;
    bool live = false; //!< also a telemetry counter, under the same name
};

// The report's device, controller and oracle counters. The live ones,
// in table order, are the telemetry registry's counters: one table
// keeps every counter name identical to its report key, the identity
// the frame/report cross-check rests on.
const ReportCounter<DeviceStats> kDeviceCounters[] = {
    {"device.lineReads", &DeviceStats::lineReads, true},
    {"device.lineWrites", &DeviceStats::lineWrites, true},
    {"device.correctionWrites", &DeviceStats::correctionWrites},
    {"device.dataCellWrites", &DeviceStats::dataCellWrites},
    {"device.normalCellWrites", &DeviceStats::normalCellWrites},
    {"device.correctionCellWrites", &DeviceStats::correctionCellWrites},
    {"device.wlDisturbances", &DeviceStats::wlDisturbances, true},
    {"device.blDisturbances", &DeviceStats::blDisturbances, true},
    {"device.ecpWdRecorded", &DeviceStats::ecpWdRecorded, true},
    {"device.ecpOverflows", &DeviceStats::ecpOverflows, true},
    {"device.ecpBitsWritten", &DeviceStats::ecpBitsWritten},
    {"device.ecpWdReleased", &DeviceStats::ecpWdReleased},
    {"device.hardErrors", &DeviceStats::hardErrors, true},
    {"device.injectedStuckCells", &DeviceStats::injectedStuckCells},
};

const ReportCounter<CtrlStats> kCtrlCounters[] = {
    {"ctrl.readsServiced", &CtrlStats::readsServiced, true},
    {"ctrl.readsForwarded", &CtrlStats::readsForwarded, true},
    {"ctrl.readsForwardedAtService", &CtrlStats::readsForwardedAtService},
    {"ctrl.writesAccepted", &CtrlStats::writesAccepted, true},
    {"ctrl.writesCoalesced", &CtrlStats::writesCoalesced, true},
    {"ctrl.writesCompleted", &CtrlStats::writesCompleted, true},
    {"ctrl.writeDrains", &CtrlStats::writeDrains, true},
    {"ctrl.preReadsIssued", &CtrlStats::preReadsIssued, true},
    {"ctrl.preReadsForwarded", &CtrlStats::preReadsForwarded},
    {"ctrl.preReadsUseful", &CtrlStats::preReadsUseful},
    {"ctrl.preReadsRefreshed", &CtrlStats::preReadsRefreshed},
    {"ctrl.verifyReads", &CtrlStats::verifyReads, true},
    {"ctrl.adjacentsSkippedNm", &CtrlStats::adjacentsSkippedNm},
    {"ctrl.ecpUpdates", &CtrlStats::ecpUpdates, true},
    {"ctrl.correctionWrites", &CtrlStats::correctionWrites, true},
    {"ctrl.cascadeVerifies", &CtrlStats::cascadeVerifies, true},
    {"ctrl.cascadeDropped", &CtrlStats::cascadeDropped},
    {"ctrl.writeCancellations", &CtrlStats::writeCancellations, true},
    {"ctrl.cancelStallCycles", &CtrlStats::cancelStallCycles, true},
    {"ctrl.cycles.read", &CtrlStats::cyclesRead, true},
    {"ctrl.cycles.preRead", &CtrlStats::cyclesPreRead, true},
    {"ctrl.cycles.write", &CtrlStats::cyclesWrite, true},
    {"ctrl.cycles.verify", &CtrlStats::cyclesVerify, true},
    {"ctrl.cycles.correction", &CtrlStats::cyclesCorrection, true},
    {"ctrl.cycles.ecp", &CtrlStats::cyclesEcp, true},
};

const ReportCounter<OracleSummary> kOracleCounters[] = {
    {"oracle.mismatches", &OracleSummary::mismatches},
    {"oracle.readsChecked", &OracleSummary::readsChecked},
    {"oracle.forwardsChecked", &OracleSummary::forwardsChecked},
    {"oracle.preReadsChecked", &OracleSummary::preReadsChecked},
    {"oracle.buffersChecked", &OracleSummary::buffersChecked},
    {"oracle.commitsChecked", &OracleSummary::commitsChecked},
    {"oracle.finalLinesChecked", &OracleSummary::finalLinesChecked},
    {"oracle.skippedDirty", &OracleSummary::skippedDirty},
    {"oracle.skippedTainted", &OracleSummary::skippedTainted},
    {"oracle.finalSkippedPending", &OracleSummary::finalSkippedPending},
    {"oracle.finalSkippedDirty", &OracleSummary::finalSkippedDirty},
    {"oracle.maskedUncorrectable", &OracleSummary::maskedUncorrectable},
};

/** Set every counter of `table` in `s` from `stats`. */
template <typename Stats, std::size_t N>
void
setCounters(StatSnapshot& s, const ReportCounter<Stats> (&table)[N],
            const Stats& stats)
{
    for (const ReportCounter<Stats>& c : table)
        s.set(c.name, static_cast<double>(stats.*c.field));
}

/** Publish the live counters of `table` off `stats` into `reg`. */
template <typename Stats, std::size_t N>
void
addLiveCounters(MetricRegistry& reg,
                const ReportCounter<Stats> (&table)[N], const Stats& stats)
{
    for (const ReportCounter<Stats>& c : table) {
        if (c.live)
            reg.addCounter(c.name, [&stats, f = c.field] { return stats.*f; });
    }
}

/** Publish the system's signals into a telemetry registry. */
MetricRegistry
buildRegistry(const MemoryController& ctrl, const PcmDevice& device,
              const WdLedger* ledger)
{
    MetricRegistry reg;
    addLiveCounters(reg, kCtrlCounters, ctrl.stats());
    addLiveCounters(reg, kDeviceCounters, device.stats());

    reg.addGauge("ctrl.readQueued", [&ctrl] {
        std::uint64_t n = 0;
        for (unsigned b = 0; b < ctrl.numBanks(); ++b)
            n += ctrl.readQueueDepth(b);
        return n;
    });
    reg.addGauge("ctrl.writeQueued", [&ctrl] {
        std::uint64_t n = 0;
        for (unsigned b = 0; b < ctrl.numBanks(); ++b)
            n += ctrl.writeQueueDepth(b);
        return n;
    });
    reg.addGauge("ctrl.maxBankWriteQueue", [&ctrl] {
        std::uint64_t peak = 0;
        for (unsigned b = 0; b < ctrl.numBanks(); ++b) {
            peak = std::max<std::uint64_t>(peak,
                                           ctrl.writeQueueDepth(b));
        }
        return peak;
    });
    reg.addGauge("ctrl.pendingCorrections",
                 [&ctrl] { return ctrl.pendingCorrections(); });
    reg.addGauge("ctrl.inFlightWrites",
                 [&ctrl] { return ctrl.inFlightWrites(); });

    if (ledger) {
        // Outcome counters are monotonic: a flip resolves exactly once.
        // Names are the wd.* snapshot keys (cross-check identity).
        reg.addCounter("wd.flips", [ledger] { return ledger->flips(); });
        reg.addCounter("wd.flipsWl",
                       [ledger] { return ledger->flipsWl(); });
        reg.addCounter("wd.flipsBl",
                       [ledger] { return ledger->flipsBl(); });
        const auto outcome = [&reg, ledger](const char* name,
                                            WdOutcome o) {
            reg.addCounter(name, [ledger, o] {
                return ledger->outcomeCount(o);
            });
        };
        outcome("wd.absorbed", WdOutcome::Absorbed);
        outcome("wd.repaired", WdOutcome::Repaired);
        outcome("wd.cancelRepaired", WdOutcome::Cancelled);
        outcome("wd.corrected", WdOutcome::Corrected);
        outcome("wd.overwritten", WdOutcome::Overwritten);
        // Outstanding flips drain as they resolve: a gauge, not a
        // counter (the cross-check demands monotonic counters).
        reg.addGauge("wd.outstanding",
                     [ledger] { return ledger->outstanding(); });
    }
    if (device.config().lineCounters) {
        // Wear-skew gauges so SLO monitors can alarm on uneven aging.
        reg.addGauge("wear.maxLineCellWrites", [&device] {
            return static_cast<std::uint64_t>(device.maxLineCellWrites());
        });
        // max/mean per-line programmed cells in permille (integer gauge
        // semantics): 1000 = perfectly level, higher = skewed.
        reg.addGauge("wear.skewPermille", [&device] {
            const std::uint64_t total = device.stats().dataCellWrites;
            if (total == 0)
                return std::uint64_t(0);
            const std::uint64_t peak = device.maxLineCellWrites();
            return peak * 1000 *
                   static_cast<std::uint64_t>(device.touchedLines()) /
                   total;
        });
    }

    reg.addLatency("ctrl.readLatency", &ctrl.stats().readLatency);
    reg.addLatency("ctrl.writeServiceLatency",
                   &ctrl.stats().writeServiceLatency);
    return reg;
}

} // namespace

WorkloadSpec
workloadFromProfile(const std::string& profile_name)
{
    WorkloadSpec spec;
    spec.name = profile_name;
    if (profile_name == "qstress") {
        // Adversarial queue-stress workload (not in Table 3): built for
        // the integrity oracle, see QueueStressGenerator.
        spec.makeStream = [](unsigned core, std::uint64_t seed) {
            return std::make_unique<QueueStressGenerator>(
                seed ^ (0x5712e55ULL * (core + 1)));
        };
        return spec;
    }
    // Resolve the profile once here rather than in every makeStream call
    // (the matrix harness builds cores x runs streams); unknown names
    // fail fast at spec construction instead of mid-run.
    const WorkloadProfile profile = profileByName(profile_name);
    if (profile_name == "stream") {
        spec.makeStream = [profile](unsigned core, std::uint64_t seed) {
            return std::make_unique<StreamTraceGenerator>(
                profile.footprintBytes / 3, profile.apki(),
                seed ^ (0x517eadULL + core));
        };
        return spec;
    }
    spec.makeStream = [profile](unsigned core, std::uint64_t seed) {
        return std::make_unique<SyntheticTraceGenerator>(
            profile, seed ^ (0x9e3779b9ULL * (core + 1)));
    };
    return spec;
}

std::vector<WorkloadSpec>
standardWorkloads()
{
    std::vector<WorkloadSpec> specs;
    for (const auto& profile : table3Profiles())
        specs.push_back(workloadFromProfile(profile.name));
    return specs;
}

WdRates
System::ratesFor(const SchemeConfig& scheme, const ThermalConfig&)
{
    const WdModel model;
    const CellLayout layout =
        scheme.superDense ? kLayoutSuperDense : kLayoutDin;
    WdRates rates;
    rates.wordLine = model.wordLineErrorRate(layout);
    rates.bitLine = model.bitLineErrorRate(layout);
    return rates;
}

System::System(const SystemConfig& config, const WorkloadSpec& workload)
    : config_(config),
      workload_(workload)
{
    DeviceConfig dc;
    dc.timing = config_.timing;
    dc.rates = ratesFor(config_.scheme);
    dc.ecpEntries = config_.scheme.ecpEntries;
    // DIN is the encoder of all paper-compared schemes; FNW replaces it
    // only in the explicit fnw ablation scheme.
    dc.dinEnabled = !config_.scheme.fnwEncoding;
    dc.fnwEnabled = config_.scheme.fnwEncoding;
    dc.din = config_.din;
    dc.aging = config_.aging;
    dc.seed = config_.seed;
    dc.lineCounters = config_.lineCounters;
    device_ = std::make_unique<PcmDevice>(dc);

    if (config_.faults.any()) {
        faultInjector_ = std::make_unique<FaultInjector>(config_.faults);
        device_->setFaultInjector(faultInjector_.get());
    }

    ctrl_ = std::make_unique<MemoryController>(events_, *device_,
                                               config_.scheme,
                                               config_.seed);
    allocator_ = std::make_unique<PageAllocatorSystem>(dc.geometry);

    if (!config_.tracePath.empty()) {
        traceSink_ = std::make_unique<ChromeTraceSink>(config_.tracePath);
        for (unsigned b = 0; b < ctrl_->numBanks(); ++b)
            traceSink_->threadName(b, "bank " + std::to_string(b));
    }
    if (config_.verifyOracle)
        oracle_ = std::make_unique<ShadowOracle>(events_, *device_);
    if (config_.spans)
        spanRecorder_ = std::make_unique<SpanRecorder>();
    if (config_.wdLedger)
        ledger_ = std::make_unique<WdLedger>(events_, dc.geometry);
    // The profiler only reads the host clock — it cannot perturb RNG
    // streams or simulated state.
    if (config_.profile) {
        profiler_ = std::make_unique<HostProfiler>(
            &HostProfiler::steadyNs, config_.profileSample);
    }
    obs_ = ObserverBundle{traceSink_.get(), oracle_.get(),
                          spanRecorder_.get(), ledger_.get(),
                          profiler_.get()};

    if (config_.epochTicks > 0 || config_.telemetry.enabled()) {
        MetricRegistry registry =
            buildRegistry(*ctrl_, *device_, ledger_.get());
        if (config_.epochTicks > 0) {
            // The epoch series is a projection of telemetry frames over
            // exactly its columns' signals: the tail-frame check
            // compares every registered signal, so extra ones would
            // change when the last sample is taken.
            TelemetryConfig epoch_cfg;
            epoch_cfg.intervalTicks = config_.epochTicks;
            epochs_.epochTicks = config_.epochTicks;
            epochSampler_ = std::make_unique<TelemetrySampler>(
                events_, registry.subset(&EpochSeries::usesSignal),
                epoch_cfg, config_.scheme.name, workload_.name,
                [this](const FrameData& frame) {
                    epochs_.record(frame, obs_.trace);
                });
        }
        if (config_.telemetry.enabled()) {
            telemetrySampler_ = std::make_unique<TelemetrySampler>(
                events_, std::move(registry), config_.telemetry,
                config_.scheme.name, workload_.name);
            if (config_.telemetry.watchdogTicks > 0) {
                // The System builds the watchdog: it owns the notion of
                // "retired" (reads serviced + writes completed) and
                // "pending" (controller not quiescent).
                telemetrySampler_->setWatchdog(std::make_unique<Watchdog>(
                    config_.telemetry.watchdogTicks,
                    [c = ctrl_.get()] {
                        return c->stats().readsServiced +
                               c->stats().writesCompleted;
                    },
                    [c = ctrl_.get()] { return !c->quiescent(); }));
            }
        }
    }

    for (unsigned c = 0; c < config_.cores; ++c) {
        mmus_.push_back(std::make_unique<Mmu>(*allocator_,
                                              config_.scheme.defaultTag));
        streams_.push_back(workload_.makeStream(c, config_.seed));
        cores_.push_back(std::make_unique<TraceCore>(
            c, events_, *ctrl_, *mmus_[c], *streams_[c],
            config_.refsPerCore));
    }

    // One attach pass: every component that emits into an observer
    // holds the bundle (null members stay off).
    const std::initializer_list<Observed*> emitters = {
        &events_, device_.get(), ctrl_.get(), traceSink_.get(),
        oracle_.get(), epochSampler_.get(), telemetrySampler_.get()};
    for (Observed* c : emitters) {
        if (c)
            c->observe(obs_);
    }
    for (auto& core : cores_)
        core->observe(obs_);
}

void
System::run()
{
    if (epochSampler_)
        epochSampler_->start();
    if (telemetrySampler_)
        telemetrySampler_->start();
    for (auto& core : cores_)
        core->start();
    events_.run(config_.maxTicks);
    if (epochSampler_)
        epochSampler_->finalize();
    // Before the trace closes: the final partial frame may still emit
    // breach/stall instants into the trace.
    if (telemetrySampler_)
        telemetrySampler_->finalize();
    // Final drain-state audit before the trace closes, so mismatch
    // instants still land in the trace file.
    if (oracle_) {
        oracle_->finalCheck();
        if (!oracle_->clean())
            oracle_->report(std::cerr);
    }
    if (traceSink_)
        traceSink_->close();

    // With the drain-on-full policy a never-filled queue legitimately
    // retains buffered writes at the end of the run; anything beyond one
    // queue's worth per bank indicates a stall.
    const std::uint64_t benign = static_cast<std::uint64_t>(
        config_.scheme.writeQueueEntries) * DimmGeometry::banks();
    if (ctrl_->pendingWrites() > benign) {
        SDPCM_WARN("simulation ended with ", ctrl_->pendingWrites(),
                   " writes pending");
    }
    for (const auto& core : cores_) {
        if (!core->done())
            SDPCM_WARN("core did not finish its trace (tick limit?)");
    }
}

StatSnapshot
RunMetrics::toSnapshot() const
{
    StatSnapshot s;
    s.set("sim.finalTick", static_cast<double>(finalTick));
    s.set("sim.meanCpi", meanCpi);
    for (std::size_t c = 0; c < coreCpi.size(); ++c)
        s.set("core" + std::to_string(c) + ".cpi", coreCpi[c]);

    setCounters(s, kDeviceCounters, device);
    s.set("device.wlErrorsPerWrite.mean", device.wlErrorsPerWrite.mean());
    s.set("device.wlErrorsPerWrite.max", device.wlErrorsPerWrite.max());
    s.set("device.blErrorsPerAdjacentLine.mean",
          device.blErrorsPerAdjacentLine.mean());
    s.set("device.blErrorsPerAdjacentLine.max",
          device.blErrorsPerAdjacentLine.max());

    setCounters(s, kCtrlCounters, ctrl);
    s.set("ctrl.cascadeDepth.max", ctrl.cascadeDepth.max());
    s.set("ctrl.readLatency.mean", ctrl.readLatency.mean());
    s.set("ctrl.readLatency.max", ctrl.readLatency.max());
    s.set("read_latency_p50", ctrl.readLatency.percentile(0.50));
    s.set("read_latency_p95", ctrl.readLatency.percentile(0.95));
    s.set("read_latency_p99", ctrl.readLatency.percentile(0.99));
    s.set("ctrl.writeServiceLatency.mean",
          ctrl.writeServiceLatency.mean());
    s.set("write_service_latency_p50",
          ctrl.writeServiceLatency.percentile(0.50));
    s.set("write_service_latency_p95",
          ctrl.writeServiceLatency.percentile(0.95));
    s.set("write_service_latency_p99",
          ctrl.writeServiceLatency.percentile(0.99));
    s.set("derived.correctionsPerWrite", correctionsPerWrite());

    if (oracle.enabled)
        setCounters(s, kOracleCounters, oracle);

    addSpanMetrics(s, spans);
    addWdLedgerMetrics(s, wd);
    addProfMetrics(s, prof);

    if (!lines.empty()) {
        // Wear distribution over the touched lines: inequality metrics
        // plus a lifetime projection (measured per-line write rate
        // against the per-cell endurance budget). Deterministic: the
        // samples are sorted and the Gini sum is exact over integers.
        std::vector<double> per_line;
        per_line.reserve(lines.size());
        double total = 0.0;
        double peak = 0.0;
        for (const LineCounterSample& l : lines) {
            const double v = static_cast<double>(l.counters.cellWrites);
            per_line.push_back(v);
            total += v;
            peak = std::max(peak, v);
        }
        std::sort(per_line.begin(), per_line.end());
        const double n = static_cast<double>(per_line.size());
        const double mean = total / n;
        double gini = 0.0;
        if (total > 0.0) {
            double weighted = 0.0;
            for (std::size_t i = 0; i < per_line.size(); ++i)
                weighted += static_cast<double>(i + 1) * per_line[i];
            gini = 2.0 * weighted / (n * total) - (n + 1.0) / n;
        }
        s.set("wear.lines", n);
        s.set("wear.totalCellWrites", total);
        s.set("wear.maxLineCellWrites", peak);
        s.set("wear.meanLineCellWrites", mean);
        s.set("wear.maxOverMean", mean > 0.0 ? peak / mean : 0.0);
        s.set("wear.gini", gini);
        s.set("wear.enduranceCellWrites", enduranceCellWrites);
        // Ticks until the hottest line exhausts its budget at the rate
        // this run measured (0 when nothing was programmed).
        s.set("wear.projectedLifetimeTicks",
              peak > 0.0 ? enduranceCellWrites *
                               static_cast<double>(finalTick) / peak
                         : 0.0);
    }

    if (telemetry.enabled) {
        s.set("telemetry.intervalTicks",
              static_cast<double>(telemetry.intervalTicks));
        s.set("telemetry.frames", static_cast<double>(telemetry.frames));
        s.set("mon.breaches", static_cast<double>(telemetry.breaches));
        s.set("mon.watchdogStalls",
              static_cast<double>(telemetry.watchdogStalls));
        for (const auto& [rule, n] : telemetry.breachesByRule) {
            s.set("mon." + rule + ".breaches", static_cast<double>(n));
        }
        for (const auto& [rule, worst] : telemetry.worstByRule)
            s.set("mon." + rule + ".worst", worst);
        for (const auto& [rule, n] : telemetry.evaluationsByRule) {
            s.set("mon." + rule + ".evaluations",
                  static_cast<double>(n));
        }
    }

    if (epochs.enabled()) {
        s.set("epoch.ticks", static_cast<double>(epochs.epochTicks));
        s.set("epoch.samples",
              static_cast<double>(epochs.samples.size()));
        s.set("epoch.peakReadQueued", static_cast<double>(
                  epochs.peak(&EpochSample::readQueued)));
        s.set("epoch.peakWriteQueued", static_cast<double>(
                  epochs.peak(&EpochSample::writeQueued)));
        s.set("epoch.peakPendingCorrections", static_cast<double>(
                  epochs.peak(&EpochSample::pendingCorrections)));
    }
    return s;
}

RunMetrics
System::metrics() const
{
    RunMetrics m;
    // Manual enter/exit rather than PROF_SCOPE: the frame must close
    // before summarize() below (which requires no open scopes), and the
    // body has no early returns to leak past the exit(). Force-timed:
    // a once-per-run scope would otherwise be dropped or wildly scaled
    // by the sampling period.
    if (profiler_)
        profiler_->enter(ProfPhase::ReportWrite, /*force_timed=*/true);
    m.workload = workload_.name;
    m.scheme = config_.scheme.name;
    double sum = 0.0;
    for (const auto& core : cores_) {
        m.coreCpi.push_back(core->cpi());
        sum += core->cpi();
    }
    m.meanCpi = cores_.empty() ? 0.0 : sum / cores_.size();
    m.finalTick = events_.now();
    m.device = device_->stats();
    m.ctrl = ctrl_->stats();
    if (epochSampler_)
        m.epochs = epochs_;
    if (config_.lineCounters)
        m.lines = device_->lineCounterSamples();
    if (oracle_)
        m.oracle = oracle_->summary();
    m.enduranceCellWrites = config_.enduranceCellWrites;
    if (ledger_) {
        m.wd = ledger_->summarize();
        // The ledger telescopes to the device's own disturbance
        // counters by construction: every flip site and every absorb
        // site emits both. Bit-exact, not approximate.
        SDPCM_ASSERT(m.wd.flipsWl == m.device.wlDisturbances,
                     "ledger WL flips (", m.wd.flipsWl,
                     ") diverged from device wlDisturbances (",
                     m.device.wlDisturbances, ")");
        SDPCM_ASSERT(m.wd.flipsBl == m.device.blDisturbances,
                     "ledger BL flips (", m.wd.flipsBl,
                     ") diverged from device blDisturbances (",
                     m.device.blDisturbances, ")");
        const std::uint64_t absorbs =
            m.wd.outcomes[static_cast<unsigned>(WdOutcome::Absorbed)] +
            m.wd.lateFixes[static_cast<unsigned>(WdOutcome::Absorbed)];
        SDPCM_ASSERT(absorbs == m.device.ecpWdRecorded,
                     "ledger absorb events (", absorbs,
                     ") diverged from device ecpWdRecorded (",
                     m.device.ecpWdRecorded, ")");
    }
    if (spanRecorder_) {
        m.spans = spanRecorder_->summarize();
        // Spans also count every cancelled attempt; the two counters
        // measure the same thing through independent machinery.
        SDPCM_ASSERT(m.spans.cancelStallCycles ==
                         m.ctrl.cancelStallCycles,
                     "span CancelStall total diverged from the "
                     "controller counter");
    }
    if (telemetrySampler_) {
        m.telemetry = telemetrySampler_->summary();
        // Hard cross-check: every telemetry counter total (the wrap-sum
        // of frame deltas) must bit-match the run report under the same
        // name — frames and report are two paths to one truth.
        const StatSnapshot snap = m.toSnapshot();
        for (const auto& [name, total] : m.telemetry.counterTotals) {
            SDPCM_ASSERT(snap.has(name),
                         "telemetry counter '", name,
                         "' missing from the run report");
            SDPCM_ASSERT(snap.get(name) == static_cast<double>(total),
                         "telemetry total for '", name, "' (", total,
                         ") diverged from the run report (",
                         snap.get(name), ")");
        }
    }
    if (profiler_) {
        profiler_->exit();
        m.prof = profiler_->summarize();
    }
    return m;
}

} // namespace sdpcm
