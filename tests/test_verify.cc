/**
 * @file
 * Tests for the verification subsystem: FaultSpec parsing, injector
 * determinism, device-side fault application, the shadow-memory oracle's
 * checkers, and end-to-end oracle runs across the scheme matrix —
 * including under injection storms and the queue-stress workload.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "verify/faultinject.hh"
#include "verify/oracle.hh"

namespace sdpcm {
namespace {

// ---------------------------------------------------------------------
// FaultSpec parsing
// ---------------------------------------------------------------------

TEST(FaultSpec, ParsesFullSpec)
{
    const FaultSpec s = FaultSpec::parse("stuck=0.5,ecp=2,wd=0.01,seed=9");
    EXPECT_DOUBLE_EQ(s.stuckPerLine, 0.5);
    EXPECT_EQ(s.ecpSteal, 2u);
    EXPECT_DOUBLE_EQ(s.wdBoost, 0.01);
    EXPECT_EQ(s.seed, 9u);
    EXPECT_TRUE(s.any());
    EXPECT_FALSE(s.describe().empty());
    // Every cell of a line may be stolen.
    EXPECT_EQ(FaultSpec::parse("ecp=512").ecpSteal, kLineBits);
}

TEST(FaultSpec, DefaultsAreInert)
{
    const FaultSpec s;
    EXPECT_FALSE(s.any());
    const FaultSpec parsed = FaultSpec::parse("seed=4");
    EXPECT_FALSE(parsed.any());
    EXPECT_EQ(parsed.seed, 4u);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultSpec::parse("bogus=1"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("stuck=abc"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("stuck=1.5junk"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("wd=1.5"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("stuck=-1"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("stuck"), std::invalid_argument);
    // stoul/stoull silently wrap negatives; a sign must be rejected,
    // not turned into 4294967295 ECP steals.
    EXPECT_THROW(FaultSpec::parse("ecp=-1"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("seed=-1"), std::invalid_argument);
    // NaN compares false against every range bound; the validation
    // must reject it explicitly.
    EXPECT_THROW(FaultSpec::parse("stuck=nan"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("wd=nan"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("stuck=inf"), std::invalid_argument);
    // A steal is a stuck cell drawn from the line's 512 cells.
    EXPECT_THROW(FaultSpec::parse("ecp=513"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("ecp=4294967295"), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Injector determinism
// ---------------------------------------------------------------------

TEST(FaultInjector, StuckCellsAreAPureFunctionOfSeedBankKey)
{
    FaultSpec spec;
    spec.stuckPerLine = 2.0;
    spec.ecpSteal = 1;
    spec.seed = 11;
    const FaultInjector a(spec);
    const FaultInjector b(spec);

    std::vector<unsigned> cells_a;
    std::vector<unsigned> cells_b;
    for (unsigned bank = 0; bank < 4; ++bank) {
        for (std::uint64_t line_key = 0; line_key < 50; ++line_key) {
            cells_a.clear();
            cells_b.clear();
            a.stuckCellsFor(bank, line_key, cells_a);
            // Query order must not matter: b already served other lines.
            b.stuckCellsFor(bank ^ 3, line_key + 7, cells_b);
            cells_b.clear();
            b.stuckCellsFor(bank, line_key, cells_b);
            EXPECT_EQ(cells_a, cells_b);
            EXPECT_GE(cells_a.size(), spec.ecpSteal);
        }
    }
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultSpec spec;
    spec.stuckPerLine = 4.0;
    spec.seed = 1;
    FaultSpec other = spec;
    other.seed = 2;
    const FaultInjector a(spec);
    const FaultInjector b(other);
    unsigned differing = 0;
    std::vector<unsigned> cells_a;
    std::vector<unsigned> cells_b;
    for (std::uint64_t line_key = 0; line_key < 40; ++line_key) {
        cells_a.clear();
        cells_b.clear();
        a.stuckCellsFor(0, line_key, cells_a);
        b.stuckCellsFor(0, line_key, cells_b);
        if (cells_a != cells_b)
            differing += 1;
    }
    EXPECT_GT(differing, 30u);
}

TEST(FaultInjector, WdBoostZeroNeverFires)
{
    FaultInjector inj(FaultSpec{});
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(inj.forceWdFlip());
    EXPECT_EQ(inj.forcedFlips(), 0u);
}

TEST(FaultInjector, WdBoostFiresAtRoughlyTheConfiguredRate)
{
    FaultSpec spec;
    spec.wdBoost = 0.25;
    spec.seed = 3;
    FaultInjector inj(spec);
    unsigned fired = 0;
    for (int i = 0; i < 4000; ++i)
        fired += inj.forceWdFlip() ? 1 : 0;
    EXPECT_EQ(fired, inj.forcedFlips());
    EXPECT_GT(fired, 800u);
    EXPECT_LT(fired, 1200u);
}

// ---------------------------------------------------------------------
// Device-side application
// ---------------------------------------------------------------------

TEST(DeviceInjection, EcpStealMaterialisesStuckCells)
{
    DeviceConfig dc;
    dc.seed = 7;
    PcmDevice device(dc);
    FaultSpec spec;
    spec.ecpSteal = 2;
    spec.seed = 5;
    FaultInjector inj(spec);
    device.setFaultInjector(&inj);

    const LineAddr la{0, 10, 0};
    (void)device.readLine(la); // records the line and its stuck cells
    EXPECT_GE(device.stats().injectedStuckCells, 2u);
    const std::uint64_t after_one = device.stats().injectedStuckCells;
    (void)device.readLine(la); // same line: no re-injection
    EXPECT_EQ(device.stats().injectedStuckCells, after_one);
    (void)device.readLine(LineAddr{1, 10, 0});
    EXPECT_GT(device.stats().injectedStuckCells, after_one);
}

TEST(DeviceInjection, StuckValueMatchesContentAtMaterialisation)
{
    // A stuck cell freezes the value the cell held when the line was
    // first touched, so a fresh line reads identically with and
    // without injection; only later writes can collide with it.
    DeviceConfig dc;
    dc.seed = 21;
    PcmDevice clean_dev(dc);
    PcmDevice faulty_dev(dc);
    FaultSpec spec;
    spec.stuckPerLine = 4.0;
    spec.ecpSteal = 2;
    spec.seed = 13;
    FaultInjector inj(spec);
    faulty_dev.setFaultInjector(&inj);
    for (unsigned line = 0; line < 8; ++line) {
        const LineAddr la{2, 30, line};
        EXPECT_EQ(clean_dev.readLine(la), faulty_dev.readLine(la));
    }
}

// ---------------------------------------------------------------------
// Oracle unit behaviour
// ---------------------------------------------------------------------

TEST(ShadowOracle, CatchesACommitThatNeverReachedTheDevice)
{
    EventQueue events;
    DeviceConfig dc;
    dc.seed = 7;
    PcmDevice device(dc);
    ShadowOracle oracle(events, device);

    const LineAddr la{3, 40, 5};
    const LineData payload = LineData::randomFromKey(77);
    oracle.noteWriteSubmitted(la, payload, /*new_entry=*/true);
    // Commit claimed without the device ever being written: the shadow
    // copy must flag the divergence.
    oracle.noteWriteCommitted(la, payload);
    ASSERT_FALSE(oracle.clean());
    ASSERT_EQ(oracle.mismatches().size(), 1u);
    EXPECT_EQ(oracle.mismatches()[0].kind, "commit");
    EXPECT_EQ(oracle.summary().mismatches, 1u);
}

TEST(ShadowOracle, CatchesAForwardOfStaleData)
{
    EventQueue events;
    DeviceConfig dc;
    dc.seed = 7;
    PcmDevice device(dc);
    ShadowOracle oracle(events, device);

    const LineAddr la{0, 5, 1};
    const LineData newest = LineData::randomFromKey(1);
    const LineData stale = LineData::randomFromKey(2);
    oracle.noteWriteSubmitted(la, newest, /*new_entry=*/true);
    oracle.noteForwardedRead(la, stale);
    ASSERT_FALSE(oracle.clean());
    EXPECT_EQ(oracle.mismatches()[0].kind, "forwarded_read");
}

TEST(ShadowOracle, DirtyVictimsAreSkippedUntilServiceEnd)
{
    EventQueue events;
    DeviceConfig dc;
    dc.seed = 7;
    PcmDevice device(dc);
    ShadowOracle oracle(events, device);

    const LineAddr written{0, 10, 3};
    const LineAddr victim{0, 9, 3}; // bit-line neighbour (upper row)
    const LineData committed = device.readLine(victim); // adopt baseline
    oracle.noteArrayRead(victim, committed);

    oracle.noteRoundsStart(/*writer_id=*/42, written);
    LineData disturbed = committed;
    disturbed.flipBit(17);
    oracle.noteArrayRead(victim, disturbed); // in flux: skipped
    EXPECT_TRUE(oracle.clean());
    EXPECT_EQ(oracle.summary().skippedDirty, 1u);

    oracle.noteServiceEnd(42);
    oracle.noteArrayRead(victim, disturbed); // now it must match again
    ASSERT_FALSE(oracle.clean());
    EXPECT_EQ(oracle.mismatches()[0].kind, "array_read");
}

TEST(ShadowOracle, FinalCheckSkipsPendingWrites)
{
    EventQueue events;
    DeviceConfig dc;
    dc.seed = 7;
    PcmDevice device(dc);
    ShadowOracle oracle(events, device);

    const LineAddr la{1, 2, 3};
    oracle.noteWriteSubmitted(la, LineData::randomFromKey(9), true);
    oracle.finalCheck(); // never committed: array holds older data
    EXPECT_TRUE(oracle.clean());
    EXPECT_EQ(oracle.summary().finalSkippedPending, 1u);
}

// ---------------------------------------------------------------------
// End-to-end: oracle across the scheme matrix
// ---------------------------------------------------------------------

RunnerConfig
oracleConfig()
{
    RunnerConfig cfg;
    cfg.refsPerCore = 1200;
    cfg.cores = 2;
    cfg.seed = 5;
    cfg.verifyOracle = true;
    return cfg;
}

std::vector<SchemeConfig>
matrixSchemes(bool write_cancellation)
{
    std::vector<SchemeConfig> schemes = {
        SchemeConfig::baselineVnc(),
        SchemeConfig::lazyC(),
        SchemeConfig::lazyCPreRead(),
        SchemeConfig::sdpcm(),
        SchemeConfig::nmOnly(NmRatio{1, 2}),
    };
    if (write_cancellation) {
        for (auto& s : schemes)
            s.writeCancellation = true;
    }
    return schemes;
}

void
expectMatrixClean(const RunnerConfig& cfg, bool write_cancellation)
{
    const std::vector<WorkloadSpec> workloads = {
        workloadFromProfile("mcf"), workloadFromProfile("qstress")};
    for (const SchemeConfig& scheme : matrixSchemes(write_cancellation)) {
        for (const WorkloadSpec& w : workloads) {
            const RunMetrics m = runOne(scheme, w, cfg);
            ASSERT_TRUE(m.oracle.enabled);
            EXPECT_EQ(m.oracle.mismatches, 0u)
                << scheme.name << " / " << w.name << " wc="
                << write_cancellation;
            EXPECT_GT(m.oracle.readsChecked + m.oracle.commitsChecked, 0u);
        }
    }
}

TEST(OracleMatrix, CleanAcrossSchemes)
{
    expectMatrixClean(oracleConfig(), /*write_cancellation=*/false);
}

TEST(OracleMatrix, CleanAcrossSchemesWithWriteCancellation)
{
    expectMatrixClean(oracleConfig(), /*write_cancellation=*/true);
}

TEST(OracleMatrix, CleanUnderInjectionStorm)
{
    RunnerConfig cfg = oracleConfig();
    cfg.faults = FaultSpec::parse("stuck=0.5,ecp=2,wd=0.03,seed=5");
    expectMatrixClean(cfg, /*write_cancellation=*/true);
}

TEST(OracleMatrix, InjectionLeavesUninjectedStatsUntouched)
{
    // The injector draws from its own RNG stream, so an injection run
    // replays the same demand-access sequence (every core issues and
    // retires the same references). Timing-dependent counters like
    // writesCompleted may shift — injected faults make the reliability
    // machinery work harder, which changes how much stays buffered at
    // run end — but the serviced reads must match.
    RunnerConfig cfg = oracleConfig();
    cfg.verifyOracle = false;
    const WorkloadSpec w = workloadFromProfile("mcf");
    const SchemeConfig scheme = SchemeConfig::lazyCPreRead();
    const RunMetrics clean_run = runOne(scheme, w, cfg);
    cfg.faults = FaultSpec::parse("ecp=1,seed=9");
    const RunMetrics faulty_run = runOne(scheme, w, cfg);
    EXPECT_EQ(clean_run.ctrl.readsServiced,
              faulty_run.ctrl.readsServiced);
    EXPECT_GT(faulty_run.device.injectedStuckCells, 0u);
    EXPECT_EQ(clean_run.device.injectedStuckCells, 0u);
}

TEST(OracleMatrix, OracleOffIsBitIdenticalToOracleOn)
{
    // The oracle observes; it must never perturb. Compare every counter
    // of a run with the oracle on against one with it off.
    RunnerConfig cfg = oracleConfig();
    const WorkloadSpec w = workloadFromProfile("qstress");
    const SchemeConfig scheme = SchemeConfig::sdpcm();
    const RunMetrics on = runOne(scheme, w, cfg);
    cfg.verifyOracle = false;
    const RunMetrics off = runOne(scheme, w, cfg);
    EXPECT_EQ(on.finalTick, off.finalTick);
    EXPECT_EQ(on.meanCpi, off.meanCpi);
    EXPECT_EQ(on.ctrl.writesCompleted, off.ctrl.writesCompleted);
    EXPECT_EQ(on.device.lineReads, off.device.lineReads);
    EXPECT_EQ(on.device.lineWrites, off.device.lineWrites);
}

} // namespace
} // namespace sdpcm
