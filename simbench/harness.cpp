/**
 * @file
 * The simulator benchmark harness.
 *
 *   simbench --workload=NAME --seed=N [--seconds=S] [--trace=0|1]
 *   simbench --workload=NAME --seed=N --record=1
 *
 * Workloads (closed loop: each simulated core issues its next reference
 * only after the previous one retires; one process, at most
 * min(4, nproc) threads, and a gauge child only between repetitions):
 *   write-mcf     one serial sdpcm/mcf run; the write/VnC path dominates.
 *   read-bwaves   one serial sdpcm/bwaves run; reads, event dispatch and
 *                 the trace generator dominate.
 *   sweep         runMatrix over din8F2, baselineVnc and sdpcm x the 9
 *                 Table 3 workloads at min(4, nproc) jobs.
 *   observed-mcf  the write-mcf cell with spans, telemetry plus a monitor
 *                 rule, the WD ledger with line counters and the
 *                 profiler all on (not in BENCHMARK.json; see README).
 *
 * --trace=0 repeats the workload for --seconds and reports the
 * end-to-end metrics (medians over the repetitions). A HostGauge pass
 * between repetitions measures the shared host's current speed, and
 * refs_per_s is scaled by it (see simbench.hh). --trace=1 runs the
 * workload untraced and traced (timed trace streams, a counting trace
 * sink), arms the integrity oracle on single-run workloads, pairs each
 * observer on against off, and drives stand-alone device and encoder
 * probes; it reports the per-layer metrics. --record=1 runs every cell
 * once, serially with observers off, for the recorded digests.
 *
 * Every cell run is listed with its simulated-statistics digest; the
 * driver script compares them with each other and with the recorded
 * ones. The last line of stdout is one JSON object.
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/args.hh"
#include "obs/json.hh"
#include "simbench.hh"
#include "workload/generators.hh"

using namespace sdpcm;
using namespace simbench;

namespace {

// Run lengths (refs per core). A single run or a whole sweep matrix
// takes under a second on a 4-core x86 host, so a 25 s measurement
// holds dozens of repetitions.
constexpr std::uint64_t kMcfRefs = 10000;
constexpr std::uint64_t kBwavesRefs = 30000;
constexpr std::uint64_t kSweepRefs = 4000;

/** Timed repetitions a run makes even when --seconds is shorter. */
constexpr std::size_t kMinReps = 3;
/** Untraced/traced pairs and observer on/off rounds of a traced run. */
constexpr unsigned kPairs = 3;
/** Replays of each stand-alone probe. */
constexpr unsigned kProbeReps = 3;
/** Set-up-only samples taken before each timed repetition. */
constexpr unsigned kSetupSamplesPerRep = 4;
/** One-off sweep set-ups timed together as one set-up sample. */
constexpr unsigned kSweepSetupBatch = 100;

struct Workload
{
    std::string name;
    std::vector<Cell> cells; //!< matrix order: scheme-major
    Observers observers;
    bool matrix = false;     //!< run the cells through runMatrix
    Cell reference;          //!< probes and observer pairs run this cell
};

std::vector<SchemeConfig>
sweepSchemes()
{
    return {SchemeConfig::din8F2(), SchemeConfig::baselineVnc(),
            SchemeConfig::sdpcm()};
}

Workload
makeWorkload(const std::string& name)
{
    Workload w;
    w.name = name;
    if (name == "write-mcf" || name == "observed-mcf") {
        w.cells = {Cell{SchemeConfig::sdpcm(), "mcf", kMcfRefs}};
        if (name == "observed-mcf")
            w.observers = Observers::all();
    } else if (name == "read-bwaves") {
        w.cells = {Cell{SchemeConfig::sdpcm(), "bwaves", kBwavesRefs}};
    } else if (name == "sweep") {
        for (const SchemeConfig& scheme : sweepSchemes()) {
            for (const WorkloadProfile& p : table3Profiles())
                w.cells.push_back(Cell{scheme, p.name, kSweepRefs});
        }
        w.matrix = true;
        w.reference = Cell{SchemeConfig::sdpcm(), "mcf", kSweepRefs};
        return w;
    } else {
        SDPCM_FATAL("unknown workload '", name,
                    "' (write-mcf, read-bwaves, sweep, observed-mcf)");
    }
    w.reference = w.cells.front();
    return w;
}

unsigned
sweepJobs()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/** One simulated cell run, as the driver script checks it. */
struct CellRun
{
    std::string cell;
    std::string pass;
    std::uint64_t digest = 0;
    bool finished = false;
    std::uint64_t oracleMismatches = 0;
};

class RunLog
{
  public:
    void
    add(const Cell& cell, const std::string& pass, const RunMetrics& m)
    {
        runs_.push_back(CellRun{cell.id(), pass, simDigest(m),
                                coresFinished(m), m.oracle.mismatches});
    }

    const std::vector<CellRun>& runs() const { return runs_; }

  private:
    std::vector<CellRun> runs_;
};

/** Host-time split of one System's life. */
struct CellTiming
{
    double setupS = 0.0;   //!< System constructor
    double runS = 0.0;     //!< System::run
    double metricsS = 0.0; //!< System::metrics
    double wallS() const { return setupS + runS + metricsS; }
};

/**
 * Construct, run and read out one System, timing each step. `attach`
 * runs between construction and run (untimed), `inspect` after the
 * metrics are read, while the System is still alive.
 */
template <typename Attach, typename Inspect>
CellTiming
runSystem(const SystemConfig& sc, const WorkloadSpec& spec, Attach attach,
          Inspect inspect)
{
    CellTiming t;
    const Clock::time_point t0 = Clock::now();
    System sys(sc, spec);
    const Clock::time_point t1 = Clock::now();
    attach(sys);
    const Clock::time_point t2 = Clock::now();
    sys.run();
    const Clock::time_point t3 = Clock::now();
    const RunMetrics m = sys.metrics();
    const Clock::time_point t4 = Clock::now();
    t.setupS = secondsBetween(t0, t1);
    t.runS = secondsBetween(t2, t3);
    t.metricsS = secondsBetween(t3, t4);
    inspect(sys, m);
    return t;
}

CellTiming
runLogged(const Cell& cell, const SystemConfig& sc, const WorkloadSpec& spec,
          RunLog& log, const std::string& pass)
{
    return runSystem(sc, spec, [](System&) {},
                     [&](System&, const RunMetrics& m) {
                         log.add(cell, pass, m);
                     });
}

using Metrics = std::map<std::string, double>;
/** Raw host-time samples behind the reported medians. */
using Samples = std::map<std::string, std::vector<double>>;

/** Log every cell of a runMatrix result, in the workload's cell order. */
void
logMatrix(const Workload& w, const std::vector<WorkloadSpec>& workloads,
          const std::vector<SchemeResults>& results, RunLog& log,
          const std::string& pass)
{
    std::size_t i = 0;
    for (const SchemeResults& row : results) {
        for (const WorkloadSpec& spec : workloads)
            log.add(w.cells[i++], pass, row.at(spec.name));
    }
}

// ---------------------------------------------------------------------
// Timed runs: end-to-end metrics.

double
peakRssMb()
{
    return static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
}

Metrics
timedSingle(const Workload& w, std::uint64_t seed, double seconds,
            RunLog& log, Samples& samples)
{
    const Cell& cell = w.cells.front();
    const WorkloadSpec spec = workloadFromProfile(cell.profile);
    // Reference run with every observer off: the digest each timed
    // repetition must reproduce (observe-only for observed-mcf). It
    // also warms the heap before timing starts.
    runLogged(cell, systemConfig(cell, seed, {}, false), spec, log,
              "reference");

    const SystemConfig sc = systemConfig(cell, seed, w.observers, false);
    std::vector<double>& setup_s = samples["setup_s"];
    std::vector<double>& run_s = samples["run_s"];
    std::vector<double>& gauge_s = samples["gauge_s"];
    double peak_rss_mb = 0.0;
    gauge_s.push_back(gaugeSeconds(1));
    const Clock::time_point start = Clock::now();
    while (run_s.size() < kMinReps ||
           secondsBetween(start, Clock::now()) < seconds) {
        // Set-up takes well under a millisecond: extra constructions
        // between the repetitions give its median enough samples.
        for (unsigned i = 0; i < kSetupSamplesPerRep; ++i) {
            const Clock::time_point t0 = Clock::now();
            const System sys(sc, spec);
            setup_s.push_back(secondsBetween(t0, Clock::now()));
        }
        const CellTiming t = runLogged(cell, sc, spec, log, "timed");
        setup_s.push_back(t.setupS);
        run_s.push_back(t.runS);
        // One run's footprint, observers included. Later repetitions
        // reuse this heap, and with observers on they fragment it by
        // amounts that depend on host timing.
        if (run_s.size() == 1)
            peak_rss_mb = peakRssMb();
        gauge_s.push_back(gaugeSeconds(1));
    }
    const double refs = static_cast<double>(kCores * cell.refsPerCore);
    return {{"refs_per_s", gaugedRate(refs, run_s, gauge_s)},
            {"host_refs_per_s", refs / median(run_s)},
            {"setup_s", median(setup_s)},
            {"peak_rss_mb", peak_rss_mb}};
}

Metrics
timedSweep(const Workload& w, std::uint64_t seed, double seconds,
           RunLog& log, Samples& samples)
{
    // The harness's one-off set-up: resolve the schemes and the Table 3
    // workload specs. Per-cell System construction is part of the run.
    // One set-up takes about a microsecond, so each sample times a
    // batch of them, and samples are taken between the repetitions.
    std::vector<double>& setup_s = samples["setup_s"];
    std::vector<SchemeConfig> schemes;
    std::vector<WorkloadSpec> workloads;
    const auto sample_setup = [&] {
        for (unsigned i = 0; i < kSetupSamplesPerRep; ++i) {
            const Clock::time_point t0 = Clock::now();
            for (unsigned j = 0; j < kSweepSetupBatch; ++j) {
                schemes = sweepSchemes();
                workloads = standardWorkloads();
            }
            setup_s.push_back(secondsBetween(t0, Clock::now()) /
                              kSweepSetupBatch);
        }
    };
    sample_setup();

    const RunnerConfig cfg = runnerConfig(kSweepRefs, seed, sweepJobs());
    // Untimed first matrix: the reference digests, and a warm heap.
    logMatrix(w, workloads, runMatrix(schemes, workloads, cfg), log,
              "reference");
    std::vector<double>& makespan_s = samples["makespan_s"];
    std::vector<double>& gauge_s = samples["gauge_s"];
    // The matrix runs on cfg.jobs threads, so the host is gauged on as
    // many threads at once.
    gauge_s.push_back(gaugeSeconds(cfg.jobs));
    const Clock::time_point start = Clock::now();
    while (makespan_s.size() < kMinReps ||
           secondsBetween(start, Clock::now()) < seconds) {
        sample_setup();
        const Clock::time_point t0 = Clock::now();
        const std::vector<SchemeResults> results =
            runMatrix(schemes, workloads, cfg);
        makespan_s.push_back(secondsBetween(t0, Clock::now()));
        gauge_s.push_back(gaugeSeconds(cfg.jobs));
        logMatrix(w, workloads, results, log, "timed");
    }
    const double refs =
        static_cast<double>(w.cells.size() * kCores * kSweepRefs);
    // Which cells share the host varies between matrices; the peak over
    // every matrix of the run is the steady figure.
    return {{"refs_per_s", gaugedRate(refs, makespan_s, gauge_s)},
            {"host_refs_per_s", refs / median(makespan_s)},
            {"setup_s", median(setup_s)},
            {"peak_rss_mb", peakRssMb()}};
}

// ---------------------------------------------------------------------
// Traced runs: per-layer metrics.

/** Work counts summed over the traced cells of a run. */
struct LayerTotals
{
    std::uint64_t cells = 0;
    std::uint64_t refs = 0;
    std::uint64_t events = 0;
    std::uint64_t instructions = 0;
    std::uint64_t writeStalls = 0;
    std::uint64_t touchedLines = 0;
    double cpiSum = 0.0;
    std::uint64_t bankTicks = 0;
    std::uint64_t busyCycles = 0;
    // Only the fields layerMetrics() reads are accumulated.
    CtrlStats ctrl;     //!< counters summed, read latency merged
    DeviceStats device; //!< counters summed
    StreamTally stream;
    std::map<std::string, std::uint64_t> bankOps;

    void
    add(System& sys, const RunMetrics& m, const CountingSink& sink,
        const StreamTally& tally)
    {
        cells += 1;
        events += sys.events().processed();
        for (const auto& core : sys.cores()) {
            refs += core->stats().readsIssued + core->stats().writesIssued;
            instructions += core->stats().instructions;
            writeStalls += core->stats().writeStalls;
        }
        touchedLines += sys.device().touchedLines();
        cpiSum += m.meanCpi;
        bankTicks += static_cast<std::uint64_t>(sys.controller().numBanks()) *
                     m.finalTick;
        const CtrlStats& c = m.ctrl;
        busyCycles += c.cyclesRead + c.cyclesPreRead + c.cyclesWrite +
                      c.cyclesVerify + c.cyclesCorrection + c.cyclesEcp;
        ctrl.readsServiced += c.readsServiced;
        ctrl.writesCompleted += c.writesCompleted;
        ctrl.writeDrains += c.writeDrains;
        ctrl.verifyReads += c.verifyReads;
        ctrl.correctionWrites += c.correctionWrites;
        ctrl.cascadeVerifies += c.cascadeVerifies;
        ctrl.writeCancellations += c.writeCancellations;
        ctrl.preReadsIssued += c.preReadsIssued;
        ctrl.preReadsUseful += c.preReadsUseful;
        ctrl.ecpUpdates += c.ecpUpdates;
        ctrl.readLatency.merge(c.readLatency);
        const DeviceStats& d = m.device;
        device.lineReads += d.lineReads;
        device.lineWrites += d.lineWrites;
        device.wlDisturbances += d.wlDisturbances;
        device.blDisturbances += d.blDisturbances;
        device.ecpOverflows += d.ecpOverflows;
        device.normalCellWrites += d.normalCellWrites;
        stream.calls += tally.calls;
        stream.records += tally.records;
        stream.ns += tally.ns;
        for (const auto& [name, n] : sink.bankOps())
            bankOps[name] += n;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Run one cell with the timed streams and the counting sink attached. */
CellTiming
runTraced(const Cell& cell, const SystemConfig& sc, const WorkloadSpec& spec,
          RunLog& log, LayerTotals* totals)
{
    StreamTally tally;
    CountingSink sink;
    return runSystem(
        sc, timedWorkload(spec, tally),
        [&](System& sys) { sys.controller().setTraceSink(&sink); },
        [&](System& sys, const RunMetrics& m) {
            log.add(cell, "traced", m);
            if (totals)
                totals->add(sys, m, sink, tally);
        });
}

/**
 * Bytes of resident memory per touched line over the first System of
 * the process (later ones reuse freed heap pages).
 */
double
bytesPerLine(const Cell& cell, const SystemConfig& sc,
             const WorkloadSpec& spec, RunLog& log)
{
    const std::uint64_t before = currentRssBytes();
    double per_line = 0.0;
    runSystem(sc, spec, [](System&) {},
              [&](System& sys, const RunMetrics& m) {
                  const std::uint64_t after = currentRssBytes();
                  const double grown = static_cast<double>(
                      after > before ? after - before : 0);
                  per_line = ratio(grown, static_cast<double>(
                                              sys.device().touchedLines()));
                  log.add(cell, "rss-probe", m);
              });
    return per_line;
}

/**
 * Each observer alone on versus all off, on one cell, interleaved
 * kPairs times: the median wall-time ratio minus one.
 */
Metrics
observerCosts(const Cell& cell, std::uint64_t seed, RunLog& log)
{
    const WorkloadSpec spec = workloadFromProfile(cell.profile);
    struct Variant
    {
        const char* metric;
        Observers observers;
    };
    const Variant variants[] = {
        {"", {}},
        {"obs.spans_frac", {true, false, false, false}},
        {"obs.telemetry_frac", {false, true, false, false}},
        {"obs.ledger_frac", {false, false, true, false}},
        {"obs.profiler_frac", {false, false, false, true}},
    };
    std::vector<std::vector<double>> wall(std::size(variants));
    for (unsigned k = 0; k < kPairs; ++k) {
        for (std::size_t v = 0; v < std::size(variants); ++v) {
            const std::string pass =
                v == 0 ? "observers-off" : std::string(variants[v].metric);
            wall[v].push_back(
                runLogged(cell,
                          systemConfig(cell, seed, variants[v].observers,
                                       false),
                          spec, log, pass)
                    .wallS());
        }
    }
    Metrics out;
    const double off = median(wall[0]);
    for (std::size_t v = 1; v < std::size(variants); ++v)
        out[variants[v].metric] = median(wall[v]) / off - 1.0;
    return out;
}

/** Metric names of the bank operations the controller traces. */
const std::pair<const char*, const char*> kBankOps[] = {
    {"Read", "ctrl.bank_ops.read"},
    {"PreRead", "ctrl.bank_ops.pre_read"},
    {"WriteRound", "ctrl.bank_ops.write_round"},
    {"VerifyRead", "ctrl.bank_ops.verify_read"},
    {"CorrectionRound", "ctrl.bank_ops.correction_round"},
    {"CascadeRead", "ctrl.bank_ops.cascade_read"},
    {"EcpUpdate", "ctrl.bank_ops.ecp_update"},
};

/** Host-time figures of a traced run, next to its work counts. */
struct HostTimes
{
    double untracedRunS = 0.0; //!< System::run, untraced, summed over cells
    double untracedWallS = 0.0;
    double tracedWallS = 0.0;
    double cellSumS = 0.0;     //!< serial per-cell wall, summed
    double cellMaxS = 0.0;
    double makespanS = 0.0;    //!< parallel wall of the same cells
    unsigned jobs = 1;
    double bytesPerLine = 0.0;
};

Metrics
layerMetrics(const LayerTotals& t, const HostTimes& h, const Cell& reference,
             std::uint64_t seed, RunLog& log)
{
    const double empty_ns = emptyIntervalNs();
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const CtrlStats& c = t.ctrl;
    const DeviceStats& d = t.device;
    Metrics out;
    out["workload.records"] = n(t.stream.records);
    out["workload.next_ns"] =
        ratio(n(t.stream.ns) - empty_ns * n(t.stream.calls),
              n(t.stream.calls));
    out["sim.events"] = n(t.events);
    out["sim.events_per_ref"] = ratio(n(t.events), n(t.refs));
    out["sim.ns_per_event"] = ratio(h.untracedRunS * 1e9, n(t.events));
    out["sweep.cell_s_sum"] = h.cellSumS;
    out["sweep.cell_s_max"] = h.cellMaxS;
    out["sweep.parallel_eff"] = ratio(h.cellSumS, h.jobs * h.makespanS);
    out["sweep.imbalance"] =
        ratio(h.cellMaxS, h.cellSumS / static_cast<double>(t.cells));
    out["cpu.instructions"] = n(t.instructions);
    out["cpu.write_stalls"] = n(t.writeStalls);
    out["cpu.mean_cpi"] = t.cpiSum / static_cast<double>(t.cells);
    out["ctrl.reads"] = n(c.readsServiced);
    out["ctrl.writes_completed"] = n(c.writesCompleted);
    out["ctrl.drains"] = n(c.writeDrains);
    out["ctrl.verify_reads"] = n(c.verifyReads);
    out["ctrl.corrections"] = n(c.correctionWrites);
    out["ctrl.cascade_verifies"] = n(c.cascadeVerifies);
    out["ctrl.cancels"] = n(c.writeCancellations);
    for (const auto& [op, metric] : kBankOps) {
        const auto it = t.bankOps.find(op);
        out[metric] = it == t.bankOps.end() ? 0.0 : n(it->second);
    }
    out["ctrl.preread_useful_frac"] =
        ratio(n(c.preReadsUseful), n(c.preReadsIssued));
    out["ctrl.bank_busy_frac"] = ratio(n(t.busyCycles), n(t.bankTicks));
    out["ctrl.read_latency_p50_cycles"] = c.readLatency.percentile(0.50);
    out["ctrl.read_latency_p99_cycles"] = c.readLatency.percentile(0.99);
    out["pcm.line_reads"] = n(d.lineReads);
    out["pcm.line_writes"] = n(d.lineWrites);
    out["pcm.wd_flips"] = n(d.wlDisturbances + d.blDisturbances);
    // A parking attempt either fits (ecpUpdates) or overflows.
    out["pcm.ecp_overflow_frac"] =
        ratio(n(d.ecpOverflows), n(c.ecpUpdates + d.ecpOverflows));
    out["pcm.cells_per_write"] =
        ratio(n(d.normalCellWrites), n(d.lineWrites));
    out["pcm.touched_lines"] = n(t.touchedLines);
    out["pcm.bytes_per_line"] = h.bytesPerLine;
    const DeviceProbe dev = probeDevice(reference, seed, kProbeReps);
    out["pcm.read_ns"] = dev.readNs;
    out["pcm.write_ns"] = dev.writeNs;
    out["pcm.verify_ns"] = dev.verifyNs;
    out["din.encode_ns"] = probeDinEncode(reference, seed, kProbeReps);
    for (const auto& [name, value] : observerCosts(reference, seed, log))
        out[name] = value;
    out["trace.overhead_frac"] = h.tracedWallS / h.untracedWallS - 1.0;
    return out;
}

Metrics
tracedSingle(const Workload& w, std::uint64_t seed, RunLog& log)
{
    const Cell& cell = w.cells.front();
    const WorkloadSpec spec = workloadFromProfile(cell.profile);
    const SystemConfig sc = systemConfig(cell, seed, w.observers, false);
    HostTimes h;
    h.bytesPerLine = bytesPerLine(cell, sc, spec, log);

    LayerTotals totals;
    std::vector<double> untraced_run, untraced_wall, traced_wall;
    for (unsigned k = 0; k < kPairs; ++k) {
        const CellTiming u = runLogged(cell, sc, spec, log, "untraced");
        untraced_run.push_back(u.runS);
        untraced_wall.push_back(u.wallS());
        traced_wall.push_back(
            runTraced(cell, sc, spec, log, k == 0 ? &totals : nullptr)
                .wallS());
    }
    // The integrity oracle checks every read and commit; its cost is
    // kept out of the traced/untraced timing pairs above.
    runLogged(cell, systemConfig(cell, seed, w.observers, true), spec, log,
              "oracle");

    h.untracedRunS = median(untraced_run);
    h.untracedWallS = median(untraced_wall);
    h.tracedWallS = median(traced_wall);
    // A single run is a one-cell, one-job matrix.
    h.cellSumS = h.untracedWallS;
    h.cellMaxS = h.untracedWallS;
    h.makespanS = h.untracedWallS;
    return layerMetrics(totals, h, w.reference, seed, log);
}

Metrics
tracedSweep(const Workload& w, std::uint64_t seed, RunLog& log)
{
    HostTimes h;
    h.bytesPerLine = bytesPerLine(
        w.reference, systemConfig(w.reference, seed, {}, false),
        workloadFromProfile(w.reference.profile), log);

    // Serial pass: each cell timed alone, as runOne would run it.
    for (const Cell& cell : w.cells) {
        const CellTiming t =
            runLogged(cell, systemConfig(cell, seed, {}, false),
                      workloadFromProfile(cell.profile), log, "serial");
        h.untracedRunS += t.runS;
        h.cellSumS += t.wallS();
        h.cellMaxS = std::max(h.cellMaxS, t.wallS());
    }
    h.untracedWallS = h.cellSumS;

    // Parallel pass: the timed workload's matrix, whose cells must
    // digest exactly like the serial ones.
    h.jobs = sweepJobs();
    const std::vector<WorkloadSpec> workloads = standardWorkloads();
    const Clock::time_point t0 = Clock::now();
    const std::vector<SchemeResults> results = runMatrix(
        sweepSchemes(), workloads, runnerConfig(kSweepRefs, seed, h.jobs));
    h.makespanS = secondsBetween(t0, Clock::now());
    logMatrix(w, workloads, results, log, "parallel");

    LayerTotals totals;
    for (const Cell& cell : w.cells) {
        h.tracedWallS +=
            runTraced(cell, systemConfig(cell, seed, {}, false),
                      workloadFromProfile(cell.profile), log, &totals)
                .wallS();
    }
    return layerMetrics(totals, h, w.reference, seed, log);
}

// ---------------------------------------------------------------------

void
record(const Workload& w, std::uint64_t seed, RunLog& log)
{
    for (const Cell& cell : w.cells) {
        runLogged(cell, systemConfig(cell, seed, {}, false),
                  workloadFromProfile(cell.profile), log, "record");
    }
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex;
    os.width(16);
    os.fill('0');
    os << v;
    return os.str();
}

bool
optimisedBuild()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    const std::string name = args.getString("workload", "");
    const std::int64_t seed_arg = args.getInt("seed", 1);
    const double seconds = args.getDouble("seconds", 10.0);
    const bool traced = args.getInt("trace", 0) != 0;
    const bool recording = args.getInt("record", 0) != 0;
    args.finishParsing();
    if (seed_arg < 0)
        SDPCM_FATAL("--seed must be >= 0, got ", seed_arg);
    if (!(seconds > 0.0) || seconds > 3600.0)
        SDPCM_FATAL("--seconds must be in (0, 3600], got ", seconds);
    const auto seed = static_cast<std::uint64_t>(seed_arg);
    const Workload w = makeWorkload(name);

    const std::string build_type = SIMBENCH_BUILD_TYPE;
    if (build_type != "Release" || !optimisedBuild()) {
        std::cerr << "\n*** WARNING: simbench was built as '" << build_type
                  << (optimisedBuild() ? "'" : "' without optimisation")
                  << ", not Release. Its timings must not be compared "
                     "with Release figures. ***\n\n";
    }

    RunLog log;
    Metrics metrics;
    Samples samples;
    if (recording) {
        record(w, seed, log);
    } else if (traced) {
        metrics = w.matrix ? tracedSweep(w, seed, log)
                           : tracedSingle(w, seed, log);
    } else {
        metrics = w.matrix ? timedSweep(w, seed, seconds, log, samples)
                           : timedSingle(w, seed, seconds, log, samples);
    }

    std::ostringstream os;
    JsonWriter out(os, /*pretty=*/false);
    out.beginObject();
    out.key("provenance").beginObject();
    out.kv("compiler", __VERSION__);
    out.kv("build_type", build_type.c_str());
    out.kv("optimised", optimisedBuild());
    out.kv("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()));
    out.kv("seed", seed);
    out.kv("cores", static_cast<std::uint64_t>(kCores));
    out.kv("refs_per_core", w.cells.front().refsPerCore);
    out.kv("jobs", static_cast<std::uint64_t>(w.matrix ? sweepJobs() : 1));
    out.endObject();
    out.key("metrics").beginObject();
    for (const auto& [key, value] : metrics)
        out.kv(key, value);
    out.endObject();
    out.key("samples").beginObject();
    for (const auto& [key, values] : samples) {
        out.key(key).beginArray();
        for (const double v : values)
            out.value(v);
        out.endArray();
    }
    out.endObject();
    out.key("runs").beginArray();
    for (const CellRun& r : log.runs()) {
        out.beginObject();
        out.kv("cell", r.cell.c_str());
        out.kv("pass", r.pass.c_str());
        out.kv("digest", hex(r.digest).c_str());
        out.kv("finished", r.finished);
        out.kv("oracle_mismatches", r.oracleMismatches);
        out.endObject();
    }
    out.endArray();
    out.endObject();
    std::cout << os.str() << std::endl;
    return 0;
}
