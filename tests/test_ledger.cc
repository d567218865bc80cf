/**
 * @file
 * Disturbance-provenance ledger tests: unit-level event accounting
 * (exactly-once resolution, outcome classes, late fixes, blame), the
 * end-to-end telescoping cross-check the acceptance gate names (ledger
 * totals bit-match the device counters under a fault storm), the
 * observe-only guarantee, the wear-skew snapshot metrics (known-Gini
 * fixtures), monitor evaluation counting, and the heatmap edge cases
 * (non-power-of-two line counts, all-zero PGM normalisation, wear CSV
 * parse-back).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/heatmap.hh"
#include "obs/json.hh"
#include "obs/ledger.hh"
#include "obs/monitor.hh"
#include "sim/runner.hh"

namespace sdpcm {
namespace {

unsigned
idx(WdOutcome o)
{
    return static_cast<unsigned>(o);
}

// ---------------------------------------------------------------------
// Unit-level event accounting
// ---------------------------------------------------------------------

TEST(WdLedgerUnit, FlipResolvesExactlyOnceThenBooksLateFixes)
{
    EventQueue events;
    DimmGeometry geom;
    WdLedger led(events, geom);

    const LineAddr agg{0, 10, 3};
    const LineAddr victim{0, 10, 4};
    led.beginOp(2, 0);
    led.recordFlip(agg, false, victim, 7, true);
    EXPECT_EQ(led.flipsWl(), 1u);
    EXPECT_EQ(led.flipsBl(), 0u);
    EXPECT_EQ(led.outstanding(), 1u);

    led.flipRepaired(victim, 7);
    EXPECT_EQ(led.outstanding(), 0u);
    EXPECT_EQ(led.outcomeCount(WdOutcome::Repaired), 1u);

    // A second fix of the same cell finds nothing pending: a late fix,
    // never a double resolution.
    led.flipRepaired(victim, 7);
    EXPECT_EQ(led.outcomeCount(WdOutcome::Repaired), 1u);
    EXPECT_EQ(led.lateFixCount(WdOutcome::Repaired), 1u);

    const WdLedgerSummary s = led.summarize();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.flips(), 1u);
    EXPECT_EQ(s.outcomeTotal(), 1u);
    EXPECT_EQ(s.outstanding, 0u);
    // Blame lands on the aggressor line, attributed to the issuing core.
    ASSERT_EQ(s.blame.size(), 1u);
    ASSERT_TRUE(s.blame.count(agg));
    EXPECT_EQ(s.blame.at(agg).flipsWl, 1u);
    EXPECT_EQ(s.blame.at(agg).outcomes[idx(WdOutcome::Repaired)], 1u);
    ASSERT_GT(s.flipsByCore.size(), 2u);
    EXPECT_EQ(s.flipsByCore[2], 1u);
}

TEST(WdLedgerUnit, OutcomeClassesAndTelescoping)
{
    EventQueue events;
    DimmGeometry geom;
    WdLedger led(events, geom);

    const LineAddr agg{1, 20, 0};
    led.beginOp(0, 0);

    // Cancelled: a repair inside the cancel-unwind scope.
    const LineAddr v1{1, 20, 1};
    led.recordFlip(agg, false, v1, 1, true);
    led.beginCancelRepair();
    led.flipRepaired(v1, 1);
    led.endCancelRepair();

    // Absorbed: parked in ECP.
    const LineAddr v2{1, 21, 0};
    led.recordFlip(agg, false, v2, 2, false);
    led.flipAbsorbed(v2, 2);

    // Corrected, caused by a correction write at cascade depth 1.
    led.beginOp(1, 1);
    const LineAddr v3{1, 19, 0};
    led.recordFlip(agg, true, v3, 3, false);
    led.flipCorrected(v3, 3);

    // Overwritten: a later data write rewrote the victim line.
    led.beginOp(0, 0);
    const LineAddr v4{1, 20, 2};
    led.recordFlip(agg, false, v4, 4, true);
    led.noteLineWritten(v4);

    // Outstanding: never resolved.
    const LineAddr v5{1, 20, 3};
    led.recordFlip(agg, false, v5, 5, true);

    led.noteCancel(agg);

    const WdLedgerSummary s = led.summarize();
    EXPECT_EQ(s.flipsWl, 3u);
    EXPECT_EQ(s.flipsBl, 2u);
    EXPECT_EQ(s.flipsFromCorrection, 1u);
    EXPECT_EQ(s.outcomes[idx(WdOutcome::Cancelled)], 1u);
    EXPECT_EQ(s.outcomes[idx(WdOutcome::Absorbed)], 1u);
    EXPECT_EQ(s.outcomes[idx(WdOutcome::Corrected)], 1u);
    EXPECT_EQ(s.outcomes[idx(WdOutcome::Overwritten)], 1u);
    EXPECT_EQ(s.outcomes[idx(WdOutcome::Repaired)], 0u);
    EXPECT_EQ(s.outstanding, 1u);
    EXPECT_EQ(s.outcomeTotal() + s.outstanding, s.flips());
    EXPECT_EQ(s.cancels, 1u);

    // Latency routing: Cancelled folds into the repair path and
    // Overwritten is not a correction cost.
    EXPECT_EQ(s.absorbLatency.count(), 1u);
    EXPECT_EQ(s.repairLatency.count(), 1u);
    EXPECT_EQ(s.correctLatency.count(), 1u);

    // Cascade depth histogram covers every flip.
    EXPECT_EQ(s.cascadeDepth.total(), s.flips());
    EXPECT_EQ(s.cascadeDepth.bucket(0), 4u);
    EXPECT_EQ(s.cascadeDepth.bucket(1), 1u);

    // Blame all lands on the single aggressor, cancels included.
    ASSERT_EQ(s.blame.size(), 1u);
    ASSERT_TRUE(s.blame.count(agg));
    EXPECT_EQ(s.blame.at(agg).flips(), s.flips());
    EXPECT_EQ(s.blame.at(agg).cancels, 1u);
    EXPECT_EQ(s.blame.at(agg).fromCorrection, 1u);
}

TEST(WdLedgerUnit, SummaryMergeAddsEverything)
{
    EventQueue events;
    DimmGeometry geom;
    WdLedger a(events, geom);
    WdLedger b(events, geom);

    const LineAddr agg{0, 1, 0};
    const LineAddr v1{0, 1, 1};
    const LineAddr v2{0, 2, 0};
    a.beginOp(0, 0);
    a.recordFlip(agg, false, v1, 1, true);
    a.flipRepaired(v1, 1);
    b.beginOp(1, 0);
    b.recordFlip(agg, false, v2, 2, false);
    b.flipAbsorbed(v2, 2);

    WdLedgerSummary merged = a.summarize();
    merged.merge(b.summarize());
    EXPECT_EQ(merged.flips(), 2u);
    EXPECT_EQ(merged.flipsWl, 1u);
    EXPECT_EQ(merged.flipsBl, 1u);
    EXPECT_EQ(merged.outcomes[idx(WdOutcome::Repaired)], 1u);
    EXPECT_EQ(merged.outcomes[idx(WdOutcome::Absorbed)], 1u);
    EXPECT_EQ(merged.outcomeTotal(), 2u);
    // Both flips blame the same aggressor line: entries merge by line.
    ASSERT_EQ(merged.blame.size(), 1u);
    ASSERT_TRUE(merged.blame.count(agg));
    EXPECT_EQ(merged.blame.at(agg).flips(), 2u);
    ASSERT_GT(merged.flipsByCore.size(), 1u);
    EXPECT_EQ(merged.flipsByCore[0] + merged.flipsByCore[1], 2u);
}

TEST(WdLedgerUnit, JsonExportShape)
{
    EventQueue events;
    DimmGeometry geom;
    WdLedger led(events, geom);
    const LineAddr agg{0, 3, 2};
    const LineAddr victim{0, 3, 3};
    led.beginOp(0, 0);
    led.recordFlip(agg, false, victim, 0, true);
    led.flipCorrected(victim, 0);

    const WdLedgerSummary s = led.summarize();
    std::ostringstream os;
    writeWdLedgerJson(os, "test", {{"sdpcm", "mcf", &s}});

    const JsonValue doc = parseJson(os.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("kind").str, "sdpcm_wd_ledger");
    EXPECT_EQ(doc.at("bench").str, "test");
    ASSERT_EQ(doc.at("runs").array.size(), 1u);
    const JsonValue& run = doc.at("runs").array[0];
    EXPECT_EQ(run.at("scheme").str, "sdpcm");
    EXPECT_EQ(run.at("workload").str, "mcf");
    const JsonValue& wd = run.at("wd");
    EXPECT_EQ(wd.at("flips").number, 1.0);
    EXPECT_EQ(wd.at("outcomes").at("Corrected").number, 1.0);
    ASSERT_EQ(wd.at("topAggressors").array.size(), 1u);
    EXPECT_EQ(wd.at("topAggressors").array[0].at("row").number, 3.0);
    EXPECT_EQ(wd.at("topAggressors").array[0].at("line").number, 2.0);
}

// ---------------------------------------------------------------------
// End-to-end telescoping cross-check (the acceptance-gate test): under
// a fault storm with cancellation, the ledger's totals bit-match the
// device's independent counters.
// ---------------------------------------------------------------------

RunnerConfig
stormConfig()
{
    RunnerConfig cfg;
    cfg.refsPerCore = 3000;
    cfg.cores = 4;
    cfg.seed = 5;
    cfg.wdLedger = true;
    cfg.lineCounters = true;
    cfg.faults = FaultSpec::parse("stuck=0.3,ecp=2,wd=0.02,seed=5");
    return cfg;
}

void
expectLedgerTelescopes(const RunMetrics& m)
{
    ASSERT_TRUE(m.wd.enabled);
    ASSERT_GT(m.wd.flips(), 0u) << "storm produced no flips";

    // Ledger totals == device disturbance counters, bit for bit.
    EXPECT_EQ(m.wd.flipsWl, m.device.wlDisturbances);
    EXPECT_EQ(m.wd.flipsBl, m.device.blDisturbances);

    // Every flip resolved exactly once or still outstanding.
    EXPECT_EQ(m.wd.outcomeTotal() + m.wd.outstanding, m.wd.flips());

    // ECP absorptions (first or late) == device ECP WD bookkeeping.
    EXPECT_EQ(m.wd.outcomes[idx(WdOutcome::Absorbed)] +
                  m.wd.lateFixes[idx(WdOutcome::Absorbed)],
              m.device.ecpWdRecorded);

    // Latency sketches cover exactly the resolved flips of their path.
    EXPECT_EQ(m.wd.absorbLatency.count(),
              m.wd.outcomes[idx(WdOutcome::Absorbed)]);
    EXPECT_EQ(m.wd.repairLatency.count(),
              m.wd.outcomes[idx(WdOutcome::Repaired)] +
                  m.wd.outcomes[idx(WdOutcome::Cancelled)]);
    EXPECT_EQ(m.wd.correctLatency.count(),
              m.wd.outcomes[idx(WdOutcome::Corrected)]);

    // Per-line counters and the blame table tell the same story.
    std::uint64_t line_flips = 0;
    std::uint64_t line_cell_writes = 0;
    std::uint64_t line_absorbed = 0;
    std::uint64_t line_corrected = 0;
    for (const LineCounterSample& s : m.lines) {
        line_flips += s.counters.wdFlips;
        line_cell_writes += s.counters.cellWrites;
        line_absorbed += s.counters.wdAbsorbed;
        line_corrected += s.counters.wdCorrected;
    }
    EXPECT_EQ(line_flips, m.wd.flips());
    EXPECT_EQ(line_cell_writes, m.device.dataCellWrites);
    EXPECT_EQ(line_absorbed, m.wd.outcomes[idx(WdOutcome::Absorbed)] +
                                 m.wd.lateFixes[idx(WdOutcome::Absorbed)]);
    // wdCorrected counts every fixed cell: WL repairs (Repaired or
    // Cancelled, depending on the unwind scope) plus correction RESETs,
    // late fixes included.
    EXPECT_EQ(line_corrected,
              m.wd.outcomes[idx(WdOutcome::Repaired)] +
                  m.wd.outcomes[idx(WdOutcome::Cancelled)] +
                  m.wd.outcomes[idx(WdOutcome::Corrected)] +
                  m.wd.lateFixes[idx(WdOutcome::Repaired)] +
                  m.wd.lateFixes[idx(WdOutcome::Cancelled)] +
                  m.wd.lateFixes[idx(WdOutcome::Corrected)]);

    std::uint64_t blame_flips = 0;
    std::uint64_t blame_from_correction = 0;
    for (const auto& [key, e] : m.wd.blame) {
        (void)key;
        blame_flips += e.flips();
        blame_from_correction += e.fromCorrection;
    }
    EXPECT_EQ(blame_flips, m.wd.flips());
    EXPECT_EQ(blame_from_correction, m.wd.flipsFromCorrection);

    // Attribution axes are complete: every flip has a depth and a core.
    EXPECT_EQ(m.wd.cascadeDepth.total(), m.wd.flips());
    std::uint64_t core_flips = 0;
    for (std::uint64_t n : m.wd.flipsByCore)
        core_flips += n;
    EXPECT_EQ(core_flips, m.wd.flips());

    // The snapshot carries the same totals into the report schema.
    const StatSnapshot snap = m.toSnapshot();
    ASSERT_TRUE(snap.has("wd.flips"));
    EXPECT_EQ(snap.get("wd.flips"), static_cast<double>(m.wd.flips()));
    EXPECT_EQ(snap.get("wd.outstanding"),
              static_cast<double>(m.wd.outstanding));
    ASSERT_TRUE(snap.has("wear.totalCellWrites"));
    EXPECT_EQ(snap.get("wear.totalCellWrites"),
              static_cast<double>(line_cell_writes));
}

TEST(WdLedgerStorm, TelescopesToDeviceCountersSdpcm)
{
    SchemeConfig scheme = SchemeConfig::sdpcm();
    scheme.writeCancellation = true;
    expectLedgerTelescopes(
        runOne(scheme, workloadFromProfile("qstress"), stormConfig()));
}

TEST(WdLedgerStorm, TelescopesToDeviceCountersLazyC)
{
    SchemeConfig scheme = SchemeConfig::lazyCPreRead();
    scheme.writeCancellation = true;
    expectLedgerTelescopes(
        runOne(scheme, workloadFromProfile("qstress"), stormConfig()));
}

/** The ledger observes; it must not perturb. Every metric of a plain
 *  run bit-matches the same run with the ledger on. */
TEST(WdLedgerStorm, LedgerIsObserveOnly)
{
    RunnerConfig base;
    base.refsPerCore = 1500;
    base.cores = 2;
    base.seed = 7;
    base.faults = FaultSpec::parse("stuck=0.3,ecp=2,wd=0.02,seed=7");
    RunnerConfig with_ledger = base;
    with_ledger.wdLedger = true;

    const SchemeConfig scheme = SchemeConfig::sdpcm();
    const WorkloadSpec workload = workloadFromProfile("mcf");
    const StatSnapshot plain =
        runOne(scheme, workload, base).toSnapshot();
    const StatSnapshot observed =
        runOne(scheme, workload, with_ledger).toSnapshot();

    ASSERT_GT(observed.values().size(), plain.values().size());
    for (const auto& [name, value] : plain.values()) {
        ASSERT_TRUE(observed.has(name)) << name;
        EXPECT_EQ(observed.get(name), value) << name;
    }
}

/** FNV-1a over the bytes of `text`. */
std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Pins the ledger's exported bytes: the JSON document (per-run entries
 * and per-scheme merged entries, as the CLI and the benches write them)
 * and the top-20 aggressor tables, for one storm run and one 2 x 2
 * matrix. Blame order, the aggressor names and the JSON line fields all
 * come from the blame table's keys, so a change to how a line is keyed
 * must reproduce these bytes exactly.
 */
TEST(LedgerExport, BytesMatchRecordedDigest)
{
    RunnerConfig storm_cfg;
    storm_cfg.refsPerCore = 1200;
    storm_cfg.cores = 4;
    storm_cfg.seed = 5;
    storm_cfg.wdLedger = true;
    storm_cfg.faults = FaultSpec::parse("stuck=0.3,ecp=2,wd=0.02,seed=5");
    SchemeConfig storm_scheme = SchemeConfig::sdpcm();
    storm_scheme.writeCancellation = true;
    const RunMetrics storm =
        runOne(storm_scheme, workloadFromProfile("qstress"), storm_cfg);
    ASSERT_GT(storm.wd.blame.size(), 20u);

    RunnerConfig cfg;
    cfg.refsPerCore = 600;
    cfg.cores = 2;
    cfg.seed = 7;
    cfg.wdLedger = true;
    const auto matrix = runMatrix(
        {SchemeConfig::lazyCPreRead(), SchemeConfig::sdpcm()},
        {workloadFromProfile("mcf"), workloadFromProfile("lbm")}, cfg);

    std::vector<WdLedgerSummary> merged(matrix.size());
    std::vector<WdLedgerEntry> entries{
        {storm.scheme, storm.workload, &storm.wd}};
    for (std::size_t s = 0; s < matrix.size(); ++s) {
        for (const auto& [workload, m] : matrix[s].byWorkload) {
            entries.push_back({m.scheme, workload, &m.wd});
            merged[s].merge(m.wd);
        }
    }
    for (std::size_t s = 0; s < matrix.size(); ++s)
        entries.push_back({matrix[s].scheme, "all", &merged[s]});

    std::ostringstream json;
    writeWdLedgerJson(json, "ledger_export", entries);
    std::ostringstream top;
    printWdTop(top, "storm", storm.wd, 20);
    for (std::size_t s = 0; s < matrix.size(); ++s)
        printWdTop(top, matrix[s].scheme, merged[s], 20);

    EXPECT_EQ(json.str().size(), 198273u);
    EXPECT_EQ(fnv1a(json.str()), 0xbd2ae4cb979ce02eULL);
    EXPECT_EQ(fnv1a(top.str()), 0x9d640647cdd29da1ULL) << top.str();
}

// ---------------------------------------------------------------------
// Wear-skew snapshot metrics: hand-built fixtures with known Gini.
// ---------------------------------------------------------------------

RunMetrics
wearFixture(const std::vector<std::uint32_t>& cell_writes)
{
    RunMetrics m;
    m.scheme = "fixture";
    m.workload = "fixture";
    m.finalTick = 1000;
    m.enduranceCellWrites = 1e6;
    for (std::size_t i = 0; i < cell_writes.size(); ++i) {
        LineCounterSample s;
        s.addr = LineAddr{0, i, 0};
        s.counters.cellWrites = cell_writes[i];
        m.lines.push_back(s);
    }
    return m;
}

TEST(WearMetrics, UniformWearHasZeroGini)
{
    const StatSnapshot s = wearFixture({4, 4, 4, 4}).toSnapshot();
    EXPECT_EQ(s.get("wear.lines"), 4.0);
    EXPECT_EQ(s.get("wear.totalCellWrites"), 16.0);
    EXPECT_EQ(s.get("wear.maxLineCellWrites"), 4.0);
    EXPECT_EQ(s.get("wear.meanLineCellWrites"), 4.0);
    EXPECT_DOUBLE_EQ(s.get("wear.maxOverMean"), 1.0);
    EXPECT_NEAR(s.get("wear.gini"), 0.0, 1e-12);
    // Lifetime projection: the hottest line burns 4 of 1e6 writes in
    // 1000 ticks -> 2.5e8 ticks to exhaustion.
    EXPECT_DOUBLE_EQ(s.get("wear.projectedLifetimeTicks"), 2.5e8);
}

TEST(WearMetrics, ConcentratedWearHasKnownGini)
{
    const StatSnapshot s = wearFixture({0, 0, 0, 8}).toSnapshot();
    EXPECT_EQ(s.get("wear.maxLineCellWrites"), 8.0);
    EXPECT_EQ(s.get("wear.meanLineCellWrites"), 2.0);
    EXPECT_DOUBLE_EQ(s.get("wear.maxOverMean"), 4.0);
    // All wear on one of four lines: gini = (n-1)/n = 0.75.
    EXPECT_NEAR(s.get("wear.gini"), 0.75, 1e-12);
    EXPECT_DOUBLE_EQ(s.get("wear.projectedLifetimeTicks"), 1e6 * 1000 / 8);
}

TEST(WearMetrics, AllZeroWearIsWellDefined)
{
    const StatSnapshot s = wearFixture({0, 0}).toSnapshot();
    EXPECT_EQ(s.get("wear.totalCellWrites"), 0.0);
    EXPECT_EQ(s.get("wear.maxOverMean"), 0.0);
    EXPECT_EQ(s.get("wear.gini"), 0.0);
    EXPECT_EQ(s.get("wear.projectedLifetimeTicks"), 0.0);
}

// ---------------------------------------------------------------------
// Monitor evaluation counting (the "never sampled" signal).
// ---------------------------------------------------------------------

TEST(MonitorEvaluations, ZeroSampleWindowsAreNotEvaluations)
{
    MonitorSet mons(
        MonitorRule::parseList("p99r:p99(lat)<=100;wq:gauge(q)<=5"));
    ASSERT_EQ(mons.evaluationsByRule().size(), 2u);
    EXPECT_EQ(mons.evaluationsByRule().at("p99r"), 0u);
    EXPECT_EQ(mons.evaluationsByRule().at("wq"), 0u);

    // Empty latency window: the quantile rule skips, the gauge rule
    // still evaluates.
    QuantileSketch empty;
    FrameData f0;
    f0.windows["lat"] = WindowView{0, &empty};
    f0.gauges["q"] = 3;
    EXPECT_TRUE(mons.evaluate(f0).empty());
    EXPECT_EQ(mons.evaluationsByRule().at("p99r"), 0u);
    EXPECT_EQ(mons.evaluationsByRule().at("wq"), 1u);

    // A populated window evaluates (and here breaches) the quantile
    // rule; breached frames still count as evaluations.
    QuantileSketch sk;
    sk.record(500);
    FrameData f1;
    f1.windows["lat"] = WindowView{sk.count(), &sk};
    f1.gauges["q"] = 9;
    const std::vector<BreachEvent> breaches = mons.evaluate(f1);
    EXPECT_EQ(breaches.size(), 2u);
    EXPECT_EQ(mons.evaluationsByRule().at("p99r"), 1u);
    EXPECT_EQ(mons.evaluationsByRule().at("wq"), 2u);
}

// ---------------------------------------------------------------------
// Heatmap edge cases
// ---------------------------------------------------------------------

LineCounterSample
sample(unsigned bank, std::uint64_t row, unsigned line,
       std::uint32_t value, HeatmapKind kind = HeatmapKind::Writes)
{
    LineCounterSample s;
    s.addr = LineAddr{bank, row, line};
    if (kind == HeatmapKind::Wear)
        s.counters.cellWrites = value;
    else
        s.counters.writes = value;
    return s;
}

TEST(HeatmapEdge, NonPowerOfTwoLinesAndRowSpanBinning)
{
    // 5 lines per row (not a power of two), rows 0..9 touched, capped at
    // 4 bins: 10 rows -> 3 rows per bin -> 4 bins, last bin truncated.
    const std::vector<LineCounterSample> samples = {
        sample(0, 0, 4, 7),
        sample(0, 9, 0, 3),
        sample(1, 5, 2, 11),
    };
    const Heatmap map =
        buildHeatmap(samples, HeatmapKind::Writes, 2, 5, 4);
    EXPECT_EQ(map.banks, 2u);
    EXPECT_EQ(map.lines, 5u);
    EXPECT_EQ(map.rowsPerBin, 3u);
    EXPECT_EQ(map.rowBins, 4u);
    EXPECT_EQ(map.rowLo, 0u);
    EXPECT_EQ(map.rowHi, 9u);
    // The last bin covers only the leftover row.
    EXPECT_EQ(map.binRowLo(3), 9u);
    EXPECT_EQ(map.binRowHi(3), 9u);
    EXPECT_EQ(map.binRowHi(2), 8u);

    EXPECT_EQ(map.at(0, 0, 4), 7u);
    EXPECT_EQ(map.at(0, 3, 0), 3u); // row 9 -> bin 3
    EXPECT_EQ(map.at(1, 1, 2), 11u); // row 5 -> bin 1
    std::uint64_t total = 0;
    for (std::uint64_t v : map.values)
        total += v;
    EXPECT_EQ(total, 21u) << "values landed outside their cells";
}

TEST(HeatmapEdge, AllZeroBanksNormaliseToBlackPgm)
{
    // Counters exist but are all zero: the PGM scale must not divide by
    // the zero maximum, and every pixel must be 0.
    const std::vector<LineCounterSample> samples = {
        sample(0, 0, 0, 0),
        sample(0, 1, 1, 0),
        sample(1, 0, 0, 0),
    };
    const Heatmap map =
        buildHeatmap(samples, HeatmapKind::Writes, 2, 2, 4);
    EXPECT_EQ(map.maxValue(), 0u);

    std::ostringstream os;
    writeHeatmapPgm(map, os);
    std::istringstream is(os.str());
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "P2");
    std::getline(is, line); // comment
    EXPECT_EQ(line.rfind('#', 0), 0u);
    unsigned width = 0, height = 0, maxval = 0;
    is >> width >> height >> maxval;
    EXPECT_EQ(width, map.lines);
    EXPECT_EQ(height, map.banks * map.rowBins);
    EXPECT_EQ(maxval, 255u);
    unsigned px = 0;
    std::size_t pixels = 0;
    while (is >> px) {
        EXPECT_EQ(px, 0u);
        pixels += 1;
    }
    EXPECT_EQ(pixels, static_cast<std::size_t>(width) * height);
}

TEST(HeatmapEdge, WearCsvRoundTripsEveryCell)
{
    const std::vector<LineCounterSample> samples = {
        sample(0, 0, 0, 12, HeatmapKind::Wear),
        sample(0, 3, 1, 5, HeatmapKind::Wear),
        sample(1, 7, 2, 40, HeatmapKind::Wear),
    };
    const Heatmap map =
        buildHeatmap(samples, HeatmapKind::Wear, 2, 3, 8);

    std::ostringstream os;
    writeHeatmapCsv(map, os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t records = 0;
    bool header_seen = false;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (!header_seen) {
            EXPECT_EQ(line, "bank,row_bin,row_lo,row_hi,line,value");
            header_seen = true;
            continue;
        }
        std::istringstream fields(line);
        std::uint64_t bank, bin, row_lo, row_hi, ln, value;
        char comma;
        fields >> bank >> comma >> bin >> comma >> row_lo >> comma >>
            row_hi >> comma >> ln >> comma >> value;
        ASSERT_FALSE(fields.fail()) << line;
        EXPECT_EQ(row_lo, map.binRowLo(static_cast<unsigned>(bin)));
        EXPECT_EQ(row_hi, map.binRowHi(static_cast<unsigned>(bin)));
        EXPECT_EQ(value,
                  map.at(static_cast<unsigned>(bank),
                         static_cast<unsigned>(bin),
                         static_cast<unsigned>(ln)));
        records += 1;
    }
    EXPECT_TRUE(header_seen);
    EXPECT_EQ(records,
              static_cast<std::size_t>(map.banks) * map.rowBins *
                  map.lines);
}

TEST(HeatmapEdge, WearKindNameRoundTrips)
{
    EXPECT_EQ(heatmapKindByName("wear"), HeatmapKind::Wear);
    EXPECT_STREQ(heatmapKindName(HeatmapKind::Wear), "wear");
    EXPECT_THROW(heatmapKindByName("weary"), std::invalid_argument);
}

} // namespace
} // namespace sdpcm
