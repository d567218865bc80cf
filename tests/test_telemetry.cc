/**
 * @file
 * Streaming-telemetry tests: sketch delta algebra, monitor-rule grammar
 * and evaluation, watchdog semantics, and full-System runs checking the
 * telescoping invariant (frame deltas sum to run totals), epoch/
 * telemetry window alignment at non-divisible intervals, the JSONL
 * stream shape, the Prometheus dump, and telemetry-on/off metric
 * identity.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/json.hh"
#include "obs/monitor.hh"
#include "obs/telemetry.hh"
#include "sim/runner.hh"

namespace sdpcm {
namespace {

// ---------------------------------------------------------------------
// QuantileSketch delta algebra (the windowed-view building blocks)
// ---------------------------------------------------------------------

TEST(QuantileSketchDelta, DiffIsolatesNewSamples)
{
    QuantileSketch cum;
    for (int i = 0; i < 100; ++i)
        cum.record(10);
    const QuantileSketch snap = cum; // earlier snapshot
    for (int i = 0; i < 50; ++i)
        cum.record(100000);

    const QuantileSketch delta = cum.diff(snap);
    EXPECT_EQ(delta.count(), 50u);
    // All delta samples are ~100000; the old 10s must not bleed in.
    EXPECT_GT(delta.percentile(0.01), 10000.0);

    // diff + merge round-trips: snap + delta == cum, bucket-exact.
    QuantileSketch rebuilt = snap;
    rebuilt.merge(delta);
    EXPECT_EQ(rebuilt.count(), cum.count());
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_EQ(rebuilt.percentile(q), cum.percentile(q));
}

TEST(QuantileSketchDelta, DiffOfSelfIsEmpty)
{
    QuantileSketch cum;
    cum.record(42);
    const QuantileSketch d = cum.diff(cum);
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.percentile(0.5), 0.0);
}

TEST(QuantileSketchDelta, CountAboveMatchesBucketBoundaries)
{
    QuantileSketch s;
    // Values below 16 have exact buckets, so countAbove is exact there.
    for (std::uint64_t v = 0; v < 16; ++v)
        s.record(v);
    EXPECT_EQ(s.countAbove(7), 8u);  // 8..15
    EXPECT_EQ(s.countAbove(15), 0u);
    EXPECT_EQ(s.countAbove(0), 15u);

    // Far above everything recorded: nothing qualifies.
    s.record(1000);
    EXPECT_EQ(s.countAbove(~std::uint64_t(0)), 0u);
    // Far below: everything in strictly higher buckets qualifies.
    EXPECT_EQ(s.countAbove(1), 15u); // 2..15 and 1000
}

// ---------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------

TEST(MetricRegistry, LookupAndOrderPreserved)
{
    MetricRegistry reg;
    std::uint64_t c = 7;
    reg.addCounter("a.count", [&c] { return c; });
    reg.addGauge("a.gauge", [] { return std::uint64_t(3); });
    LatencyStat lat;
    reg.addLatency("a.lat", &lat);

    ASSERT_EQ(reg.counters().size(), 1u);
    EXPECT_EQ(reg.counters()[0].name, "a.count");
    EXPECT_EQ(reg.counters()[0].poll(), 7u);
    c = 9;
    EXPECT_EQ(reg.counters()[0].poll(), 9u);

    EXPECT_TRUE(reg.hasGauge("a.gauge"));
    EXPECT_FALSE(reg.hasGauge("a.count"));
    EXPECT_TRUE(reg.hasLatency("a.lat"));
    EXPECT_FALSE(reg.hasLatency("a.gauge"));
}

TEST(MetricRegistryDeathTest, DuplicateNamesRejected)
{
    MetricRegistry reg;
    reg.addCounter("x", [] { return std::uint64_t(0); });
    EXPECT_DEATH(reg.addCounter("x", [] { return std::uint64_t(0); }),
                 "duplicate counter");
}

// ---------------------------------------------------------------------
// Monitor rule grammar
// ---------------------------------------------------------------------

TEST(MonitorRules, ParsesQuantileGaugeAndBurn)
{
    const auto rules = MonitorRule::parseList(
        "p99r:p99(ctrl.readLatency)<=30000;"
        "wq:gauge(ctrl.writeQueued)<200;"
        "burnr:burn(ctrl.readLatency,20000,0.001)<=1;"
        "tail:p999(ctrl.readLatency)>=1");
    ASSERT_EQ(rules.size(), 4u);

    EXPECT_EQ(rules[0].kind, MonitorRule::Kind::Quantile);
    EXPECT_DOUBLE_EQ(rules[0].q, 0.99);
    EXPECT_EQ(rules[0].metric, "ctrl.readLatency");
    EXPECT_EQ(rules[0].cmp, MonitorRule::Cmp::LE);
    EXPECT_DOUBLE_EQ(rules[0].limit, 30000.0);

    EXPECT_EQ(rules[1].kind, MonitorRule::Kind::Gauge);
    EXPECT_EQ(rules[1].cmp, MonitorRule::Cmp::LT);

    EXPECT_EQ(rules[2].kind, MonitorRule::Kind::Burn);
    EXPECT_DOUBLE_EQ(rules[2].slo, 20000.0);
    EXPECT_DOUBLE_EQ(rules[2].budget, 0.001);

    EXPECT_DOUBLE_EQ(rules[3].q, 0.999);
    EXPECT_EQ(rules[3].cmp, MonitorRule::Cmp::GE);
}

TEST(MonitorRules, MalformedSpecsThrow)
{
    const char* bad[] = {
        "noname<=5",                        // missing name:
        "r:p99(x",                          // missing )
        "r:p99(x)",                         // missing comparator
        "r:p99(x)<=",                       // missing limit
        "r:q99(x)<=5",                      // unknown aggregation
        "r:p0(x)<=5",                       // quantile out of range
        "r:burn(x,5)<=1",                   // burn needs 3 args
        "r:burn(x,0,0.5)<=1",               // slo must be positive
        "r:burn(x,1e30,0.5)<=1",            // slo beyond 2^64 cycles
        "r:burn(x,18446744073709551616,0.5)<=1", // slo of exactly 2^64
        "r:burn(x,5,2)<=1",                 // budget > 1
        "r:gauge()<=1",                     // empty metric
        "a b:p99(x)<=5",                    // bad name chars
        "r:p99(x)<=5;r:p99(y)<=5",          // duplicate names
        "r:p99(x)<=nan",                    // non-finite limit
        "r:gauge(x)>=inf",                  // non-finite limit
    };
    for (const char* spec : bad) {
        EXPECT_THROW(MonitorRule::parseList(spec), std::invalid_argument)
            << spec;
    }
    // Empty rules between separators are skipped, not errors.
    EXPECT_EQ(MonitorRule::parseList(";;").size(), 0u);
    // An slo below 2^64 is a cycle count evaluate() can compare.
    EXPECT_EQ(MonitorRule::parseList("r:burn(x,1e19,0.5)<=1").size(), 1u);
}

TEST(MonitorRules, DescribeRoundTripsThroughParse)
{
    const auto rules = MonitorRule::parseList(
        "p99r:p99(lat)<=30000;wq:gauge(g)>5;b:burn(lat,100,0.5)<1");
    for (const MonitorRule& r : rules) {
        const auto reparsed = MonitorRule::parseList(r.describe());
        ASSERT_EQ(reparsed.size(), 1u) << r.describe();
        EXPECT_EQ(reparsed[0].name, r.name);
        EXPECT_EQ(reparsed[0].kind, r.kind);
        EXPECT_EQ(reparsed[0].metric, r.metric);
        EXPECT_EQ(reparsed[0].cmp, r.cmp);
        EXPECT_DOUBLE_EQ(reparsed[0].limit, r.limit);
    }
}

// ---------------------------------------------------------------------
// MonitorSet evaluation
// ---------------------------------------------------------------------

/** Build a frame with one latency window and one gauge. */
FrameData
makeFrame(const QuantileSketch* sketch, std::uint64_t count,
          std::uint64_t gauge_value)
{
    FrameData fd;
    fd.tick = 1000;
    fd.seq = 3;
    WindowView w;
    w.count = count;
    w.sketch = sketch;
    fd.windows.emplace("lat", w);
    fd.gauges.emplace("g", gauge_value);
    return fd;
}

TEST(MonitorSet, GaugeAndQuantileBreaches)
{
    QuantileSketch sk;
    for (int i = 0; i < 100; ++i)
        sk.record(100000);

    MonitorSet set(MonitorRule::parseList(
        "lat:p50(lat)<=1000;wq:gauge(g)<=50"));

    const auto breaches =
        set.evaluate(makeFrame(&sk, sk.count(), 80));
    ASSERT_EQ(breaches.size(), 2u);
    EXPECT_EQ(breaches[0].rule, "lat");
    EXPECT_EQ(breaches[1].rule, "wq");
    EXPECT_DOUBLE_EQ(breaches[1].value, 80.0);
    EXPECT_EQ(breaches[1].tick, 1000u);
    EXPECT_EQ(breaches[1].seq, 3u);

    // Second frame under the limits: no new breaches, totals persist.
    QuantileSketch quiet;
    quiet.record(5);
    EXPECT_TRUE(set.evaluate(makeFrame(&quiet, 1, 10)).empty());
    EXPECT_EQ(set.totalBreaches(), 2u);
    EXPECT_EQ(set.breachesByRule().at("lat"), 1u);
    // Worst tracks the violating (high) direction across frames.
    EXPECT_DOUBLE_EQ(set.worstByRule().at("wq"), 80.0);
}

TEST(MonitorSet, ZeroSampleWindowsSkipLatencyRules)
{
    QuantileSketch empty;
    MonitorSet set(MonitorRule::parseList(
        "p99:p99(lat)<=1;b:burn(lat,10,0.5)<=1;wq:gauge(g)<=5"));
    // An idle window violates no latency SLO, but gauges still fire.
    const auto breaches = set.evaluate(makeFrame(&empty, 0, 100));
    ASSERT_EQ(breaches.size(), 1u);
    EXPECT_EQ(breaches[0].rule, "wq");
    // Skipped rules never evaluated, so they have no worst entry.
    EXPECT_EQ(set.worstByRule().count("p99"), 0u);
}

TEST(MonitorSet, BurnRateMeasuresBudgetConsumption)
{
    // 10% of requests above the SLO, budget 5% -> burn rate ~2.
    QuantileSketch sk;
    for (int i = 0; i < 90; ++i)
        sk.record(100);
    for (int i = 0; i < 10; ++i)
        sk.record(100000);
    MonitorSet set(
        MonitorRule::parseList("b:burn(lat,1000,0.05)<=1"));
    const auto breaches = set.evaluate(makeFrame(&sk, sk.count(), 0));
    ASSERT_EQ(breaches.size(), 1u);
    EXPECT_DOUBLE_EQ(breaches[0].value, 2.0);
}

TEST(MonitorSet, BindRejectsUnknownMetrics)
{
    MetricRegistry reg;
    LatencyStat lat;
    reg.addLatency("lat", &lat);
    MonitorSet ok(MonitorRule::parseList("p:p99(lat)<=1"));
    ok.bind(reg); // known metric: no death
    MonitorSet bad(MonitorRule::parseList("p:p99(nope)<=1"));
    EXPECT_DEATH(bad.bind(reg), "unknown latency metric");
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, FlagsOncePerElapsedWindowWhilePending)
{
    std::uint64_t retired = 0;
    bool pending = true;
    Watchdog dog(100, [&retired] { return retired; },
                 [&pending] { return pending; });

    EXPECT_FALSE(dog.check(0)); // priming observation
    EXPECT_FALSE(dog.check(50));
    EXPECT_TRUE(dog.check(100)); // a full window with no progress
    EXPECT_EQ(dog.stalls(), 1u);
    // Re-armed: the next flag needs another full window.
    EXPECT_FALSE(dog.check(150));
    EXPECT_TRUE(dog.check(200));
    EXPECT_EQ(dog.stalls(), 2u);

    // Progress resets the clock.
    retired = 5;
    EXPECT_FALSE(dog.check(250));
    EXPECT_FALSE(dog.check(340));
    EXPECT_TRUE(dog.check(350));
    EXPECT_EQ(dog.stalls(), 3u);

    // Idle (nothing pending) is not a stall, no matter how long.
    pending = false;
    EXPECT_FALSE(dog.check(10000));
    EXPECT_EQ(dog.stalls(), 3u);
}

// ---------------------------------------------------------------------
// Full-System integration
// ---------------------------------------------------------------------

RunMetrics
telemetryRun(RunnerConfig cfg, Tick interval,
             const std::string& rules = "", const std::string& path = "",
             Tick epoch_ticks = 0)
{
    cfg.refsPerCore = 2000;
    cfg.cores = 4;
    cfg.seed = 11;
    cfg.epochTicks = epoch_ticks;
    cfg.telemetry.intervalTicks = interval;
    cfg.telemetry.monitorRules = rules;
    cfg.telemetry.path = path;
    return runOne(SchemeConfig::lazyCPreReadNm(NmRatio{2, 3}),
                  workloadFromProfile("mcf"), cfg);
}

/**
 * The telescoping invariant, end to end: summing every frame delta —
 * including the final partial frame — reproduces the run totals under
 * the exact report metric names. (System::metrics also asserts this
 * internally; this test re-derives it from the JSONL stream, through
 * the serialisation layer.)
 */
TEST(TelemetryIntegration, FrameDeltasSumToReportTotals)
{
    const std::string path =
        ::testing::TempDir() + "sdpcm_telemetry_sum.jsonl";
    // A deliberately non-round interval so the final frame is partial.
    const RunMetrics m = telemetryRun(RunnerConfig{}, 33333, "", path);
    ASSERT_TRUE(m.telemetry.enabled);
    ASSERT_GT(m.telemetry.frames, 2u);

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::map<std::string, double> sums;
    std::uint64_t frames = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t last_tick = 0;
    bool saw_summary = false;
    std::string line;
    while (std::getline(is, line)) {
        const JsonValue v = parseJson(line); // every line parses alone
        const std::string& type = v.at("type").str;
        if (type == "frame") {
            EXPECT_EQ(v.at("seq").number, static_cast<double>(frames))
                << "frame seq not contiguous";
            frames += 1;
            last_seq = static_cast<std::uint64_t>(v.at("seq").number);
            const auto tick =
                static_cast<std::uint64_t>(v.at("tick").number);
            // Ticks are non-decreasing; a run ending exactly on a frame
            // boundary may emit its tail frame at the same tick.
            EXPECT_GE(tick, last_tick) << "frames out of order";
            last_tick = tick;
            for (const auto& [name, val] : v.at("counters").object)
                sums[name] += val.number;
        } else if (type == "summary") {
            saw_summary = true;
            EXPECT_EQ(v.at("frames").number,
                      static_cast<double>(frames));
        }
    }
    (void)last_seq;
    EXPECT_TRUE(saw_summary);
    EXPECT_EQ(frames, m.telemetry.frames);
    // The last frame covers the tail: its tick is the final tick.
    EXPECT_EQ(last_tick, m.finalTick);

    const StatSnapshot snap = m.toSnapshot();
    ASSERT_FALSE(sums.empty());
    for (const auto& [name, sum] : sums) {
        ASSERT_TRUE(snap.has(name)) << name;
        EXPECT_EQ(sum, snap.get(name)) << name;
    }
    std::remove(path.c_str());
}

/**
 * Epoch sampler and telemetry at non-divisible intervals: both ride
 * tick hooks of the same queue, sample at different boundaries, and
 * must both telescope to the same run totals.
 */
TEST(TelemetryIntegration, AlignsWithEpochSamplerAtOddIntervals)
{
    const RunMetrics m =
        telemetryRun(RunnerConfig{}, 17001, "", "", 23000);
    ASSERT_TRUE(m.telemetry.enabled);
    ASSERT_TRUE(m.epochs.enabled());

    std::uint64_t epoch_reads = 0, epoch_wcycles = 0;
    for (const EpochSample& s : m.epochs.samples) {
        epoch_reads += s.readsServiced;
        epoch_wcycles += s.cyclesWrite;
    }
    EXPECT_EQ(m.telemetry.counterTotals.at("ctrl.readsServiced"),
              epoch_reads);
    EXPECT_EQ(m.telemetry.counterTotals.at("ctrl.cycles.write"),
              epoch_wcycles);
    EXPECT_EQ(epoch_reads, m.ctrl.readsServiced);
}

/** An interval longer than the whole run: one final catch-all frame. */
TEST(TelemetryIntegration, SingleFinalFrameWhenIntervalExceedsRun)
{
    const RunMetrics m = telemetryRun(RunnerConfig{}, ~Tick(0) / 2);
    ASSERT_TRUE(m.telemetry.enabled);
    EXPECT_EQ(m.telemetry.frames, 1u);
    EXPECT_EQ(m.telemetry.counterTotals.at("ctrl.readsServiced"),
              m.ctrl.readsServiced);
}

/** Telemetry observes, never perturbs: shared metrics bit-identical. */
TEST(TelemetryIntegration, OnOffRunsShareIdenticalMetrics)
{
    RunnerConfig base;
    base.refsPerCore = 2000;
    base.cores = 4;
    base.seed = 11;
    const RunMetrics off =
        runOne(SchemeConfig::lazyCPreReadNm(NmRatio{2, 3}),
               workloadFromProfile("mcf"), base);
    const RunMetrics on = telemetryRun(
        base, 50000, "p99:p99(ctrl.readLatency)<=1;"
                     "wq:gauge(ctrl.writeQueued)<=0");
    const StatSnapshot off_snap = off.toSnapshot();
    const StatSnapshot on_snap = on.toSnapshot();
    for (const auto& [name, value] : off_snap.values()) {
        ASSERT_TRUE(on_snap.has(name)) << name;
        EXPECT_EQ(on_snap.get(name), value) << name;
    }
    // The monitors fired (limits are absurdly tight) without touching
    // the simulation, and their counts landed in the report namespace.
    EXPECT_GT(on.telemetry.breaches, 0u);
    EXPECT_EQ(on_snap.get("mon.breaches"),
              static_cast<double>(on.telemetry.breaches));
    EXPECT_GT(on_snap.get("mon.p99.breaches"), 0.0);
    EXPECT_GT(on_snap.get("mon.wq.worst"), 0.0);
}

/** Zero-request windows (tiny interval) must not fire latency rules
 *  spuriously or break the telescoping sum. */
TEST(TelemetryIntegration, ZeroRequestWindowsAreBenign)
{
    // 500-tick frames: many frames see no read retire at all.
    const RunMetrics m = telemetryRun(
        RunnerConfig{}, 500, "p50:p50(ctrl.readLatency)>=1");
    ASSERT_TRUE(m.telemetry.enabled);
    ASSERT_GT(m.telemetry.frames, 50u);
    // The >=1 rule would breach on any zero-valued evaluation; zero-
    // sample windows are skipped, so no breach is possible (windows
    // with samples always have p50 >= 1 tick).
    EXPECT_EQ(m.telemetry.breaches, 0u);
    EXPECT_EQ(m.telemetry.counterTotals.at("ctrl.readsServiced"),
              m.ctrl.readsServiced);
}

TEST(TelemetryIntegration, PrometheusDumpMatchesReport)
{
    const std::string path =
        ::testing::TempDir() + "sdpcm_telemetry.prom";
    RunnerConfig cfg;
    cfg.refsPerCore = 2000;
    cfg.cores = 4;
    cfg.seed = 11;
    cfg.telemetry.intervalTicks = 50000;
    cfg.telemetry.promPath = path;
    const RunMetrics m =
        runOne(SchemeConfig::lazyCPreReadNm(NmRatio{2, 3}),
               workloadFromProfile("mcf"), cfg);

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::map<std::string, double> values;
    std::string line;
    std::size_t type_lines = 0;
    while (std::getline(is, line)) {
        if (line.rfind("# TYPE", 0) == 0) {
            type_lines += 1;
            continue;
        }
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        values[line.substr(0, space)] = std::stod(line.substr(space + 1));
    }
    EXPECT_GT(type_lines, 10u);

    const std::string labels =
        "{scheme=\"LazyC+PreRead+(2:3)\",workload=\"mcf\"}";
    EXPECT_EQ(values.at("sdpcm_ctrl_readsServiced" + labels),
              static_cast<double>(m.ctrl.readsServiced));
    EXPECT_EQ(values.at("sdpcm_device_wlDisturbances" + labels),
              static_cast<double>(m.device.wlDisturbances));
    EXPECT_EQ(values.at("sdpcm_ctrl_readLatency_count" + labels),
              static_cast<double>(m.ctrl.readLatency.count()));
    std::remove(path.c_str());
}

/** Matrix runs keep rules (mon.* per cell) but drop stream paths. */
TEST(TelemetryIntegration, MatrixKeepsMonitorsDropsPaths)
{
    RunnerConfig cfg;
    cfg.refsPerCore = 1000;
    cfg.cores = 2;
    cfg.seed = 3;
    cfg.jobs = 2;
    cfg.telemetry.intervalTicks = 50000;
    // p50 of the whole-run window is some positive latency: every cell
    // is guaranteed at least one breach from its final frame.
    cfg.telemetry.monitorRules = "lat:p50(ctrl.readLatency)<=0";
    cfg.telemetry.path =
        ::testing::TempDir() + "sdpcm_matrix_should_not_exist.jsonl";
    const auto results = runMatrix(
        {SchemeConfig::baselineVnc()},
        {workloadFromProfile("mcf"), workloadFromProfile("lbm")}, cfg);
    ASSERT_EQ(results.size(), 1u);
    for (const auto& [name, m] : results[0].byWorkload) {
        (void)name;
        EXPECT_TRUE(m.telemetry.enabled);
        EXPECT_GT(m.telemetry.breaches, 0u);
    }
    // The stream path was dropped, not written by racing cells.
    std::ifstream is(cfg.telemetry.path);
    EXPECT_FALSE(is.good());
}

} // namespace
} // namespace sdpcm
