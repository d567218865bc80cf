/**
 * @file
 * Tests for the PCM device model: functional reads/writes, the program-
 * round decomposition, disturbance injection, ECP parking, corrections,
 * stuck-at aging and the partial-write (cancellation) semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>

#include "obs/ledger.hh"
#include "pcm/device.hh"
#include "sim/event_queue.hh"
#include "verify/faultinject.hh"

namespace sdpcm {
namespace {

DeviceConfig
quietConfig()
{
    DeviceConfig dc;
    dc.rates = WdRates{0.0, 0.0};
    dc.seed = 99;
    return dc;
}

/** Drive a plan to completion. */
PcmDevice::FinishOutcome
runPlan(PcmDevice& dev, PcmDevice::WritePlan& plan)
{
    PcmDevice::RoundOutcome outcome;
    while (dev.applyNextRound(plan, outcome)) {
    }
    return dev.finishWrite(plan);
}

TEST(Device, WriteThenReadRoundTrip)
{
    PcmDevice dev(quietConfig());
    const LineAddr la{3, 100, 7};
    const LineData data = LineData::randomFromKey(77);
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, data);
    runPlan(dev, plan);
    EXPECT_EQ(dev.readLine(la), data);
}

TEST(Device, RoundTripWithoutDin)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    PcmDevice dev(dc);
    const LineAddr la{0, 5, 0};
    const LineData data = LineData::randomFromKey(3);
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, data);
    runPlan(dev, plan);
    EXPECT_EQ(dev.readLine(la), data);
}

TEST(Device, PeekLineDoesNotCountReads)
{
    PcmDevice dev(quietConfig());
    const LineAddr la{0, 1, 1};
    dev.peekLine(la);
    EXPECT_EQ(dev.stats().lineReads, 0u);
    dev.readLine(la);
    EXPECT_EQ(dev.stats().lineReads, 1u);
}

TEST(Device, WindowedRoundsCoverChangedWindowsOnly)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false; // make the physical target predictable
    PcmDevice dev(dc);
    const LineAddr la{1, 10, 0};
    const LineData old = dev.peekLine(la);
    LineData target = old;
    target.flipBit(0);   // window 0
    target.flipBit(300); // window 2
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, target);
    // Two windows touched, one cell each -> exactly two rounds.
    EXPECT_EQ(plan.totalRounds(), 2u);
}

TEST(Device, PooledRoundsFollowCeilDiv)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.timing.windowed = false;
    PcmDevice dev(dc);
    const LineAddr la{1, 11, 0};
    const LineData old = dev.peekLine(la);
    LineData target;
    for (unsigned w = 0; w < kLineWords; ++w)
        target.words[w] = ~old.words[w]; // flip all 512 cells
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, target);
    // 256-ish RESETs and SETs each -> ceil(n/128) rounds per kind.
    unsigned reset_rounds = 0, set_rounds = 0;
    for (const auto& r : plan.rounds)
        (r.isReset ? reset_rounds : set_rounds) += 1;
    EXPECT_EQ(reset_rounds,
              (plan.masks.resetCount() + 127) / 128);
    EXPECT_EQ(set_rounds, (plan.masks.setCount() + 127) / 128);
}

TEST(Device, BitLineDisturbanceHitsVulnerableCellsOnly)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.rates.bitLine = 1.0; // every vulnerable neighbour flips
    PcmDevice dev(dc);

    const LineAddr la{2, 50, 9};
    const LineAddr upper{2, 49, 9};
    const LineAddr lower{2, 51, 9};
    const LineData upper_before = dev.peekLine(upper);
    const LineData lower_before = dev.peekLine(lower);
    const LineData old = dev.peekLine(la);

    LineData target = old;
    target.flipBit(100);
    target.flipBit(200);
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, target);
    runPlan(dev, plan);

    // Only the columns that were RESET can disturb, and only if the
    // neighbour cell held '0'.
    std::set<unsigned> reset_cols;
    forEachSetBit(plan.masks.resetMask,
                  [&](unsigned pos) { reset_cols.insert(pos); });
    for (const auto& [n_addr, before] :
         {std::pair{upper, upper_before}, std::pair{lower,
                                                    lower_before}}) {
        const LineData after = dev.peekLine(n_addr);
        forEachSetBit(after.diff(before), [&](unsigned pos) {
            EXPECT_TRUE(reset_cols.count(pos));
            EXPECT_FALSE(before.getBit(pos)); // was amorphous '0'
            EXPECT_TRUE(after.getBit(pos));   // partially SET
        });
    }
    EXPECT_EQ(dev.stats().blDisturbances,
              dev.peekLine(upper).diff(upper_before).popcount() +
                  dev.peekLine(lower).diff(lower_before).popcount());
}

TEST(Device, NoBitLineDisturbanceAtZeroRate)
{
    DeviceConfig dc = quietConfig();
    PcmDevice dev(dc);
    const LineAddr la{2, 50, 9};
    const LineAddr upper{2, 49, 9};
    const LineData before = dev.peekLine(upper);
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, LineData::randomFromKey(5));
    runPlan(dev, plan);
    EXPECT_EQ(dev.peekLine(upper), before);
    EXPECT_EQ(dev.stats().blDisturbances, 0u);
}

TEST(Device, VerifyDetectsInjectedErrors)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.rates.bitLine = 1.0;
    PcmDevice dev(dc);

    const LineAddr la{4, 60, 0};
    const LineAddr upper{4, 59, 0};
    const LineData expected = dev.readLine(upper); // pre-write read

    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, LineData::randomFromKey(123));
    runPlan(dev, plan);

    std::vector<unsigned> errors;
    dev.verifyLineInto(upper, expected, errors);
    EXPECT_EQ(static_cast<unsigned>(errors.size()), plan.blHitsUpper);
}

TEST(Device, CorrectionRestoresDisturbedLine)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.rates.bitLine = 1.0;
    PcmDevice dev(dc);

    const LineAddr la{4, 61, 3};
    const LineAddr lower{4, 62, 3};
    const LineData expected = dev.readLine(lower);

    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, LineData::randomFromKey(321));
    runPlan(dev, plan);
    std::vector<unsigned> errors;
    dev.verifyLineInto(lower, expected, errors);
    ASSERT_FALSE(errors.empty());

    dev.setRates(WdRates{0.0, 0.0}); // keep the correction clean
    PcmDevice::WritePlan fix;
    dev.planCorrectionInto(fix, lower, errors);
    EXPECT_TRUE(fix.isCorrection);
    runPlan(dev, fix);
    std::vector<unsigned> left;
    dev.verifyLineInto(lower, expected, left);
    EXPECT_TRUE(left.empty());
    EXPECT_EQ(dev.stats().correctionWrites, 1u);
}

TEST(Device, EcpParkingMakesReadsCorrect)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.rates.bitLine = 1.0;
    dc.ecpEntries = 6;
    PcmDevice dev(dc);

    const LineAddr la{5, 70, 1};
    const LineAddr upper{5, 69, 1};
    const LineData expected = dev.readLine(upper);

    LineData target = dev.peekLine(la);
    target.flipBit(40); // at most 1 RESET -> at most 1 disturbance/side
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, target);
    runPlan(dev, plan);

    std::vector<unsigned> errors;
    dev.verifyLineInto(upper, expected, errors);
    if (!errors.empty()) {
        EXPECT_TRUE(dev.recordWdInEcp(upper, errors));
        // The read path now overlays the parked corrections.
        EXPECT_EQ(dev.readLine(upper), expected);
        std::vector<unsigned> left;
        dev.verifyLineInto(upper, expected, left);
        EXPECT_TRUE(left.empty());
        EXPECT_EQ(dev.stats().ecpWdRecorded, errors.size());
    }
}

TEST(Device, EcpOverflowReportsFalse)
{
    DeviceConfig dc = quietConfig();
    dc.ecpEntries = 2;
    PcmDevice dev(dc);
    const LineAddr la{0, 7, 0};
    EXPECT_FALSE(dev.recordWdInEcp(la, {1, 2, 3}));
    EXPECT_EQ(dev.ecpUsed(la), 2u);
    EXPECT_EQ(dev.ecpWdCells(la).size(), 2u);
}

TEST(Device, WriteReleasesParkedWdEntries)
{
    DeviceConfig dc = quietConfig();
    PcmDevice dev(dc);
    const LineAddr la{0, 8, 0};
    EXPECT_TRUE(dev.recordWdInEcp(la, {5, 6}));
    EXPECT_EQ(dev.ecpUsed(la), 2u);
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, LineData::randomFromKey(8));
    const auto out = runPlan(dev, plan);
    EXPECT_EQ(out.ecpWdReleased, 2u);
    EXPECT_EQ(dev.ecpUsed(la), 0u);
}

TEST(Device, PartialWriteResumesCleanly)
{
    // Write cancellation leaves a half-programmed line; re-planning from
    // the current state must still converge to the same final content.
    DeviceConfig dc = quietConfig();
    PcmDevice dev(dc);
    const LineAddr la{6, 90, 5};
    const LineData data = LineData::randomFromKey(2024);

    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, data);
    PcmDevice::RoundOutcome outcome;
    if (plan.roundsRemaining())
        dev.applyNextRound(plan, outcome); // one round, then "cancel"

    PcmDevice::WritePlan resume;
    dev.planWriteInto(resume, la, data);
    runPlan(dev, resume);
    EXPECT_EQ(dev.readLine(la), data);
}

TEST(Device, AgedDeviceHasStuckCellsCoveredByEcp)
{
    DeviceConfig dc = quietConfig();
    dc.aging.ageFraction = 1.0;
    // Every ECP entry a line holds, so no sampled line exceeds its
    // hard-error capacity (an ECP-saturated line is legitimately
    // unprotectable).
    dc.ecpEntries = kMaxEcpEntries;
    PcmDevice dev(dc);

    // Touch a population of lines and write fresh data over them; reads
    // must return the written data despite the stuck cells.
    std::uint64_t hard_before = 0;
    for (unsigned i = 0; i < 50; ++i) {
        const LineAddr la{i % 16, 100 + i, i % 64};
        const LineData data = LineData::randomFromKey(i * 31 + 1);
        PcmDevice::WritePlan plan;
        dev.planWriteInto(plan, la, data);
        runPlan(dev, plan);
        EXPECT_EQ(dev.readLine(la), data) << "line " << i;
    }
    hard_before = dev.stats().hardErrors;
    // Poisson(2) over 50 lines: expect a healthy population.
    EXPECT_GT(hard_before, 50u);
    EXPECT_LT(hard_before, 200u);
    EXPECT_EQ(dev.stats().ecpSaturatedLines, 0u);
}

TEST(DeviceDeath, EcpBeyondTheInlineSlotsIsFatal)
{
    DeviceConfig dc = quietConfig();
    dc.ecpEntries = kMaxEcpEntries + 1;
    EXPECT_EXIT(PcmDevice{dc}, ::testing::ExitedWithCode(1),
                "fatal: ECP-11 exceeds the 10 ECP entries a line holds");
}

TEST(Device, FreshDeviceHasNoHardErrors)
{
    PcmDevice dev(quietConfig());
    for (unsigned i = 0; i < 20; ++i)
        dev.readLine(LineAddr{0, i, 0});
    EXPECT_EQ(dev.stats().hardErrors, 0u);
}

TEST(Device, WordLineFixupsRepairOwnRow)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = true;
    dc.din.modeledResidualFactor = 1.0;
    dc.rates.wordLine = 1.0;
    PcmDevice dev(dc);

    const LineAddr la{7, 110, 8};
    const LineData data = LineData::randomFromKey(55);
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, data);
    const auto out = runPlan(dev, plan);
    // Everything disturbed within the row was repaired by the write.
    EXPECT_EQ(out.wlErrorsFixed, plan.wlHits.size());
    EXPECT_EQ(dev.readLine(la), data);
}

TEST(Device, Figure4StatsAccumulate)
{
    DeviceConfig dc = quietConfig();
    dc.rates = WdRates{0.099, 0.115};
    PcmDevice dev(dc);
    for (unsigned i = 0; i < 40; ++i) {
        const LineAddr la{i % 16, 200 + i / 16, i % 64};
        PcmDevice::WritePlan plan;
        dev.planWriteInto(plan, la, LineData::randomFromKey(i));
        runPlan(dev, plan);
    }
    EXPECT_EQ(dev.stats().wlErrorsPerWrite.count(), 40u);
    // Two adjacent-line samples per write.
    EXPECT_EQ(dev.stats().blErrorsPerAdjacentLine.count(), 80u);
    EXPECT_GT(dev.stats().blDisturbances, 0u);
}

TEST(Device, TouchedLinesTracksMaterialisation)
{
    PcmDevice dev(quietConfig());
    EXPECT_EQ(dev.touchedLines(), 0u);
    dev.readLine(LineAddr{0, 0, 0});
    dev.readLine(LineAddr{0, 0, 0});
    dev.readLine(LineAddr{1, 0, 0});
    EXPECT_EQ(dev.touchedLines(), 2u);
}

TEST(Device, ReadOnlyLinesKeepNoRecord)
{
    // The sdpcm device: no stuck cells, so a read records nothing.
    const DeviceConfig dc;
    PcmDevice dev(dc);
    std::vector<unsigned> diffs;
    const LineAddr a{0, 0, 0}, b{1, 5, 63}, c{2, 7, 1}, d{3, 9, 2},
        e{4, 11, 3}, f{5, 13, 4}, g{6, 15, 5}, k{7, 17, 6};

    const LineData content = dev.readLine(a);
    EXPECT_EQ(dev.peekLine(b), dev.peekLine(b));
    dev.verifyLineInto(c, LineData{}, diffs);
    std::vector<unsigned> clean;
    dev.verifyLineInto(d, dev.peekLine(d), clean);
    EXPECT_EQ(clean, std::vector<unsigned>{});
    EXPECT_EQ(dev.ecpUsed(e), 0u);
    EXPECT_EQ(dev.ecpFree(f), dc.ecpEntries);
    EXPECT_EQ(dev.ecpWdCells(g), std::vector<unsigned>{});
    EXPECT_EQ(dev.uncorrectableMask(k), LineData{});
    EXPECT_EQ(dev.touchedLines(), 8u);
    EXPECT_EQ(dev.recordedLines(), 0u);
    // A verify read against zeros reports every set cell of the content.
    EXPECT_EQ(diffs.size(), dev.readLine(c).popcount());

    // Reading again answers the same content; a write records the line.
    EXPECT_EQ(dev.readLine(a), content);
    EXPECT_EQ(dev.recordedLines(), 0u);
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, a, content);
    runPlan(dev, plan);
    EXPECT_EQ(dev.readLine(a), content);
    EXPECT_GE(dev.recordedLines(), 1u);
    EXPECT_EQ(dev.touchedLines(), dev.recordedLines() + 7u);
}

TEST(Device, StuckCellDevicesRecordOnlyLinesWithStuckCells)
{
    // Stuck cells are drawn at a line's first touch, and a read records
    // only a line that drew one. A stuck cell holds its seed value, so
    // every read answers what a healthy device reads.
    DeviceConfig aged = quietConfig();
    aged.aging.ageFraction = 0.6;
    PcmDevice old_dimm(aged);
    FaultSpec faults;
    faults.stuckPerLine = 0.3;
    FaultInjector inject(faults);
    PcmDevice stormed(quietConfig());
    stormed.setFaultInjector(&inject);
    for (PcmDevice* dev : {&old_dimm, &stormed}) {
        PcmDevice healthy(quietConfig());
        std::size_t stuck_lines = 0;
        for (unsigned i = 0; i < 50; ++i) {
            const LineAddr la{i % 16, i, i % 64};
            EXPECT_EQ(dev->readLine(la), healthy.readLine(la)) << i;
            stuck_lines += dev->ecpUsed(la) > 0 ||
                dev->uncorrectableMask(la).popcount() > 0;
        }
        EXPECT_EQ(dev->touchedLines(), 50u);
        EXPECT_EQ(dev->recordedLines(), stuck_lines);
        EXPECT_GT(stuck_lines, 0u);
        EXPECT_LT(stuck_lines, 50u);
    }
}

/** A line of crystalline cells only. */
LineData
allSet()
{
    LineData line;
    line.words.fill(~0ULL);
    return line;
}

TEST(Device, NeighboursNoFlipLandsOnKeepNoRecord)
{
    // Without DIN, and with every draw a hit, the WD scan looks up all
    // four neighbours of the written line: the bit-line ones at its
    // first RESET cell, a word-line one at its first RESET cell on the
    // word edge next to it. This write RESETs only cells whose
    // neighbour cells are crystalline, so no flip lands anywhere.
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    PcmDevice dev(dc);
    const AddressMap& map = dev.addressMap();
    const LineAddr la{3, 40, 7};
    const LineAddr left{3, 40, 6};
    const LineAddr right{3, 40, 8};
    const LineAddr upper = *map.upperNeighbor(la);
    const LineAddr lower = *map.lowerNeighbor(la);

    // At quiet rates the scan looks nothing up.
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, allSet());
    runPlan(dev, plan);
    EXPECT_EQ(dev.touchedLines(), 1u);

    const LineData up = dev.seedContent(upper);
    const LineData low = dev.seedContent(lower);
    LineData data;
    unsigned left_edges = 0;
    unsigned right_edges = 0;
    for (unsigned w = 0; w < kLineWords; ++w) {
        // Cell offset 0 neighbours the left line's cell 63 of the same
        // word, offset 63 the right line's cell 0.
        std::uint64_t resets = up.words[w] & low.words[w];
        if (!dev.seedContent(left).getBit(w * 64 + 63))
            resets &= ~1ULL;
        if (!dev.seedContent(right).getBit(w * 64))
            resets &= ~(1ULL << 63);
        left_edges += resets & 1;
        right_edges += resets >> 63;
        data.words[w] = ~resets;
    }
    ASSERT_GT(left_edges, 0u);
    ASSERT_GT(right_edges, 0u);
    dev.setRates(WdRates{1.0, 1.0});
    dev.planWriteInto(plan, la, data);
    runPlan(dev, plan);
    EXPECT_EQ(dev.stats().wlDisturbances, 0u);
    EXPECT_EQ(dev.stats().blDisturbances, 0u);
    EXPECT_EQ(dev.touchedLines(), 5u);
    EXPECT_EQ(dev.recordedLines(), 1u);
    for (const LineAddr& n : {left, right, upper, lower})
        EXPECT_EQ(dev.peekLine(n), dev.seedContent(n));

    // A flip that lands records its line: with bit-line draws alone,
    // RESET one cell that only the upper neighbour holds amorphous.
    unsigned cell = 0;
    while (up.getBit(cell) || !low.getBit(cell))
        ++cell;
    data.setBit(cell, false);
    dev.setRates(WdRates{0.0, 1.0});
    dev.planWriteInto(plan, la, data);
    runPlan(dev, plan);
    EXPECT_EQ(dev.stats().blDisturbances, 1u);
    EXPECT_EQ(dev.recordedLines(), 2u);
    LineData flipped = up;
    flipped.setBit(cell, true);
    EXPECT_EQ(dev.peekLine(upper), flipped);
    EXPECT_EQ(dev.peekLine(lower), low);
}

TEST(Device, SeedWordIsThatWordOfSeedContent)
{
    for (const std::uint64_t seed : {1ULL, 99ULL, 0xdeadbeefULL}) {
        DeviceConfig dc = quietConfig();
        dc.seed = seed;
        dc.dinEnabled = false;
        PcmDevice dev(dc);
        const std::uint64_t last_row = dc.geometry.rowsPerBank - 1;
        for (const LineAddr& la :
             {LineAddr{0, 0, 0}, LineAddr{15, last_row, 63},
              LineAddr{3, 40, 7}, LineAddr{7, 1234, 31}}) {
            const LineData content = dev.seedContent(la);
            for (unsigned w = 0; w < kLineWords; ++w)
                EXPECT_EQ(dev.seedWord(la, w), content.words[w]) << w;
            // Without encoding, a line nothing changed reads as it.
            EXPECT_EQ(dev.peekLine(la), content);
        }
    }
}

/**
 * Run `change` on two like devices, one of which read `line` first (so
 * the change finds it touched but unrecorded), and expect the same
 * modelled state. Returns the content the read returned.
 */
template <typename Change>
LineData
expectChangeStartsFromReadContent(const DeviceConfig& dc,
                                  const LineAddr& line, Change&& change)
{
    PcmDevice read_first(dc);
    PcmDevice fresh(dc);
    const LineData content = read_first.readLine(line);
    EXPECT_EQ(read_first.recordedLines(), 0u);
    change(read_first);
    change(fresh);
    EXPECT_GE(read_first.recordedLines(), 1u);
    EXPECT_EQ(read_first.lineStateDigest(), fresh.lineStateDigest());
    EXPECT_EQ(read_first.readLine(line), fresh.readLine(line));
    EXPECT_EQ(read_first.stats().dataCellWrites,
              fresh.stats().dataCellWrites);
    return content;
}

TEST(Device, FirstChangeOfAReadOnlyLineStartsFromItsReadContent)
{
    const DeviceConfig sdpcm;
    const LineAddr la{3, 40, 7};
    const std::vector<unsigned> cells = {0, 1, 2, 3, 100, 200, 300, 511};

    // A write: the read content, with a few cells flipped.
    LineData written;
    const LineData read = expectChangeStartsFromReadContent(
        quietConfig(), la, [&](PcmDevice& dev) {
            written = dev.peekLine(la);
            for (const unsigned cell : cells)
                written.flipBit(cell);
            PcmDevice::WritePlan plan;
            dev.planWriteInto(plan, la, written);
            runPlan(dev, plan);
            EXPECT_EQ(dev.readLine(la), written);
        });
    EXPECT_EQ(read.diff(written).popcount(), cells.size());

    // A correction RESETs exactly the named cells the content has set
    // (a line no write touched has DIN flags 0: its cells are its data).
    const LineData corrected = expectChangeStartsFromReadContent(
        sdpcm, la, [&](PcmDevice& dev) {
            PcmDevice::WritePlan plan;
            dev.planCorrectionInto(plan, la, cells);
            runPlan(dev, plan);
        });
    {
        PcmDevice dev(sdpcm);
        dev.readLine(la);
        PcmDevice::WritePlan plan;
        dev.planCorrectionInto(plan, la, cells);
        unsigned set = 0;
        for (const unsigned cell : cells) {
            set += corrected.getBit(cell);
            EXPECT_EQ(plan.masks.resetMask.getBit(cell),
                      corrected.getBit(cell));
        }
        EXPECT_EQ(plan.masks.resetCount(), set);
        EXPECT_GT(set, 0u);
    }

    // An ECP park overlays the parked cells on the read content.
    const LineData parked_read = expectChangeStartsFromReadContent(
        sdpcm, la, [&](PcmDevice& dev) {
            EXPECT_TRUE(dev.recordWdInEcp(la, {5, 6}));
            EXPECT_EQ(dev.ecpWdCells(la), (std::vector<unsigned>{5, 6}));
        });
    {
        PcmDevice dev(sdpcm);
        dev.readLine(la);
        dev.recordWdInEcp(la, {5, 6});
        LineData expected = parked_read;
        expected.setBit(5, false);
        expected.setBit(6, false);
        EXPECT_EQ(dev.readLine(la), expected);
    }

    // A WD flip lands on the read content of a bit-line neighbour.
    const LineAddr victim{3, 39, 7};
    DeviceConfig hot = sdpcm;
    hot.rates = WdRates{0.0, 1.0};
    const LineData victim_read = expectChangeStartsFromReadContent(
        hot, victim, [&](PcmDevice& dev) {
            PcmDevice::WritePlan plan;
            dev.planWriteInto(plan, la, LineData::randomFromKey(9));
            runPlan(dev, plan);
            EXPECT_GT(dev.stats().blDisturbances, 0u);
        });
    {
        PcmDevice dev(hot);
        dev.readLine(victim);
        PcmDevice::WritePlan plan;
        dev.planWriteInto(plan, la, LineData::randomFromKey(9));
        runPlan(dev, plan);
        std::vector<unsigned> flipped;
        dev.verifyLineInto(victim, victim_read, flipped);
        EXPECT_EQ(flipped.size(), plan.blHitsUpper);
        for (const unsigned cell : flipped)
            EXPECT_FALSE(victim_read.getBit(cell)) << cell;
    }
}

TEST(Device, CounterSamplesListReadOnlyLinesWithZeroCounters)
{
    DeviceConfig dc = quietConfig();
    dc.lineCounters = true;
    PcmDevice dev(dc);
    const LineAddr read_only{2, 10, 4};
    const LineAddr written{2, 10, 5};
    dev.readLine(read_only);
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, written, LineData::randomFromKey(3));
    runPlan(dev, plan);
    dev.readLine(LineAddr{0, 1, 63});

    const std::vector<LineCounterSample> samples = dev.lineCounterSamples();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].addr, (LineAddr{0, 1, 63}));
    EXPECT_EQ(samples[1].addr, read_only);
    EXPECT_EQ(samples[2].addr, written);
    for (const std::size_t i : {0u, 1u}) {
        const LineCounters& c = samples[i].counters;
        for (const std::uint32_t v : {c.writes, c.wdFlips, c.wdAbsorbed,
                                      c.wdCorrected, c.ecpHighWater,
                                      c.cellWrites}) {
            EXPECT_EQ(v, 0u) << i;
        }
    }
    EXPECT_EQ(samples[2].counters.writes, 1u);
    EXPECT_EQ(dev.recordedLines(), 1u);
}

// --- Line store ------------------------------------------------------

struct StoreProbe
{
    std::uint64_t value = 0;
    LineData line;
};

TEST(LineStore, EntriesStayPutAcrossIndexDoublings)
{
    LineTable<StoreProbe> table;
    EXPECT_EQ(table.find(0), nullptr);
    constexpr std::uint64_t kEarly = 1000;
    constexpr std::uint64_t kLate = 100000;
    // Distinct line indices over the whole 32-bit range: an odd
    // multiplier permutes them, and first reaches kNoLine at i ~ 4e9.
    const auto key_of = [](std::uint64_t i) {
        return static_cast<LineIndex>(i * 0x9e3779b1u);
    };

    std::vector<StoreProbe*> early;
    for (std::uint64_t i = 0; i < kEarly; ++i) {
        const auto found = table.findOrInsert(key_of(i));
        ASSERT_TRUE(found.inserted) << i;
        StoreProbe& p = found.entry;
        p.value = i;
        p.line = LineData::randomFromKey(i);
        early.push_back(&p);
    }
    // 10^5 more insertions double the index seven more times.
    for (std::uint64_t i = kEarly; i < kEarly + kLate; ++i) {
        const auto found = table.findOrInsert(key_of(i));
        ASSERT_TRUE(found.inserted) << i;
        found.entry.value = i;
    }

    ASSERT_EQ(table.size(), kEarly + kLate);
    for (std::uint64_t i = 0; i < kEarly; ++i) {
        ASSERT_EQ(table.find(key_of(i)), early[i]) << i;
        EXPECT_EQ(early[i]->value, i);
        EXPECT_EQ(early[i]->line, LineData::randomFromKey(i));
    }
    for (std::uint64_t i = kEarly; i < kEarly + kLate; ++i)
        ASSERT_EQ(table.find(key_of(i))->value, i) << i;
    EXPECT_EQ(table.find(key_of(kEarly + kLate)), nullptr);

    std::uint64_t visited = 0;
    std::uint64_t value_sum = 0;
    table.forEach([&](LineIndex key, const StoreProbe& p) {
        EXPECT_EQ(key, key_of(p.value));
        visited += 1;
        value_sum += p.value;
    });
    const std::uint64_t n = kEarly + kLate;
    EXPECT_EQ(visited, n);
    EXPECT_EQ(value_sum, n * (n - 1) / 2);
}

TEST(LineStore, SubscriptInsertsOnceThenFinds)
{
    // The highest line index, and its neighbour.
    constexpr LineIndex kLast = kNoLine - 1;
    constexpr LineIndex kNext = kLast - 1;
    LineTable<StoreProbe> table;
    StoreProbe& first = table[kLast];
    first.value = 7;
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(&table[kLast], &first);
    EXPECT_EQ(table[kLast].value, 7u);
    EXPECT_EQ(table.size(), 1u);

    const LineTable<StoreProbe>& view = table;
    EXPECT_EQ(view.find(kLast), &first);
    EXPECT_EQ(view.find(kNext), nullptr);
    EXPECT_EQ(table[kNext].value, 0u);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(&table[kLast], &first);
}

/** Lines at the geometry's corners: first and last bank, row and line,
 *  plus their inner neighbours. */
std::vector<LineAddr>
cornerLines(const DimmGeometry& g)
{
    std::vector<LineAddr> lines;
    for (const unsigned bank : {0u, 1u, g.banks() - 1})
        for (const std::uint64_t row : {std::uint64_t{0}, std::uint64_t{1},
                                        g.rowsPerBank - 2,
                                        g.rowsPerBank - 1})
            for (const unsigned line : {0u, 1u, g.linesPerRow() - 1})
                lines.push_back(LineAddr{bank, row, line});
    return lines;
}

TEST(LineStore, EncodeDecodeRoundTripsCornerLines)
{
    const AddressMap map{DimmGeometry{}};
    for (const LineAddr& la : cornerLines(map.geometry())) {
        EXPECT_EQ(map.decode(map.encode(la)), la)
            << la.bank << "/" << la.row << "/" << la.line;
    }
}

TEST(LineStore, LineIndexRoundTripsCornerLines)
{
    DimmGeometry largest;
    // The most rows whose lines still have 32-bit indices.
    largest.rowsPerBank = (std::uint64_t{1} << 32) / (16 * 64) - 1;
    for (const DimmGeometry& g : {DimmGeometry{}, largest}) {
        const AddressMap map{g};
        for (const LineAddr& la : cornerLines(g)) {
            const LineIndex index = map.lineIndex(la);
            EXPECT_EQ(index, map.encode(la) / g.lineBytes)
                << la.bank << "/" << la.row << "/" << la.line;
            EXPECT_EQ(map.lineAt(index), la)
                << la.bank << "/" << la.row << "/" << la.line;
        }
        const LineAddr top{g.banks() - 1, g.rowsPerBank - 1,
                           g.linesPerRow() - 1};
        EXPECT_EQ(std::uint64_t{map.lineIndex(top)} + 1,
                  g.capacityBytes() / g.lineBytes);
    }
}

TEST(LineStoreDeath, TwoToThe32LinesIsFatal)
{
    DeviceConfig dc = quietConfig();
    dc.geometry.rowsPerBank = (std::uint64_t{1} << 32) / (16 * 64);
    EXPECT_EXIT(PcmDevice{dc}, ::testing::ExitedWithCode(1),
                "fatal: a DIMM of 16 banks x 4194304 rows x 64 lines has "
                "2\\^32 or more lines");
}

TEST(LineStore, SortedVisitsBankRowLineOrder)
{
    const AddressMap map{DimmGeometry{}};
    // cornerLines lists lines in (bank, row, line) order, which is not
    // the order of their line indices (row-major across banks).
    const std::vector<LineAddr> lines = cornerLines(map.geometry());
    ASSERT_TRUE(std::is_sorted(lines.begin(), lines.end()));
    std::vector<LineAddr> shuffled = lines;
    Rng rng(3);
    for (std::size_t i = shuffled.size() - 1; i > 0; --i)
        std::swap(shuffled[i], shuffled[rng.below(i + 1)]);

    LineTable<StoreProbe> table;
    for (const LineAddr& la : shuffled)
        table[map.lineIndex(la)].value = la.line;
    const auto sorted = table.sorted(map);
    ASSERT_EQ(sorted.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(sorted[i].first, lines[i]) << i;
        EXPECT_EQ(sorted[i].second, table.find(map.lineIndex(lines[i])))
            << i;
    }
}

TEST(LineStore, TouchedLinesAndCounterSamplesAreExact)
{
    DeviceConfig dc = quietConfig();
    dc.lineCounters = true;
    PcmDevice dev(dc);
    Rng rng(21);
    // 60k random reads over 16 x 64 x 64 lines: about 40k distinct
    // lines, many of them read more than once.
    std::vector<LineAddr> reference;
    for (unsigned i = 0; i < 60000; ++i) {
        const LineAddr la{static_cast<unsigned>(rng.below(16)), rng.below(64),
                          static_cast<unsigned>(rng.below(64))};
        dev.readLine(la);
        reference.push_back(la);
    }
    std::sort(reference.begin(), reference.end(),
              [](const LineAddr& a, const LineAddr& b) {
                  return std::tie(a.bank, a.row, a.line) <
                      std::tie(b.bank, b.row, b.line);
              });
    reference.erase(std::unique(reference.begin(), reference.end()),
                    reference.end());
    EXPECT_EQ(dev.touchedLines(), reference.size());

    const std::vector<LineCounterSample> samples = dev.lineCounterSamples();
    ASSERT_EQ(samples.size(), reference.size());
    for (std::size_t i = 0; i < samples.size(); ++i)
        ASSERT_EQ(samples[i].addr, reference[i]) << i;
}

TEST(LineStore, BanksNeverAlias)
{
    // All 16 banks see the same (row, line) pattern; each bank's line
    // is a line of its own.
    PcmDevice dev(quietConfig());
    for (const LineAddr pattern : {LineAddr{0, 0, 0}, LineAddr{0, 7, 63},
                                   LineAddr{0, 131071, 5}}) {
        for (unsigned bank = 0; bank < 16; ++bank) {
            LineAddr la = pattern;
            la.bank = bank;
            PcmDevice::WritePlan plan;
            dev.planWriteInto(
                plan, la, LineData::randomFromKey(pattern.row * 100 + bank));
            runPlan(dev, plan);
        }
        for (unsigned bank = 0; bank < 16; ++bank) {
            LineAddr la = pattern;
            la.bank = bank;
            EXPECT_EQ(dev.readLine(la),
                      LineData::randomFromKey(pattern.row * 100 + bank))
                << "bank " << bank << " row " << pattern.row;
        }
    }
    EXPECT_EQ(dev.touchedLines(), 3u * 16u);
}

// --- Differential digests ---------------------------------------------
//
// A fixed script drives the device through every write-path entry point
// the controller uses and hashes everything it can observe. The recorded
// digests pin the order of first touches, of the device RNG
// stream (hard-cell draws included) and of every disturbance, so a
// host-side change to the device must reproduce them exactly. A change
// meant to alter simulated behaviour re-records them and says so.

/** FNV-1a fold of one 64-bit value. */
void
mix(std::uint64_t& h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i, v >>= 8) {
        h ^= v & 0xff;
        h *= 0x100000001b3ULL;
    }
}

void
mixDouble(std::uint64_t& h, double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(h, bits);
}

void
mixLine(std::uint64_t& h, const LineData& line)
{
    for (const std::uint64_t word : line.words)
        mix(h, word);
}

void
mixStats(std::uint64_t& h, const DeviceStats& s)
{
    for (const std::uint64_t v :
         {s.lineReads, s.lineWrites, s.correctionWrites, s.dataCellWrites,
          s.normalCellWrites, s.correctionCellWrites, s.wlDisturbances,
          s.blDisturbances, s.ecpWdRecorded, s.ecpOverflows,
          s.ecpBitsWritten, s.ecpWdReleased, s.hardErrors,
          s.ecpSaturatedLines, s.injectedStuckCells}) {
        mix(h, v);
    }
    for (const RunningStat* r :
         {&s.wlErrorsPerWrite, &s.blErrorsPerAdjacentLine}) {
        mix(h, r->count());
        mixDouble(h, r->sum());
        mixDouble(h, r->min());
        mixDouble(h, r->max());
    }
    mix(h, s.blErrorHistogram.total());
    mix(h, s.blErrorHistogram.overflow());
    for (std::size_t v = 0; v < s.blErrorHistogram.numBuckets(); ++v)
        mix(h, s.blErrorHistogram.bucket(v));
}

struct ScriptResult
{
    std::uint64_t digest = 0;
    DeviceStats stats;
    std::uint64_t cancels = 0;
    std::uint64_t forcedFlips = 0;
};

/** The script's mix of steps. */
struct ScriptMix
{
    /** Of every ten steps, how many write and how many correct; of the
     *  rest, one queries the ECP and the others read. */
    unsigned writeSteps = 6;
    unsigned correctSteps = 1;
    /** A read step reads a run of up to 16 lines anywhere in the row
     *  instead of one edge line, so many lines are only ever read. */
    bool streamReads = false;
    /** A correction names cells at word edges (offsets 0 and 63), so
     *  each one it RESETs looks up a word-line neighbour line. */
    bool edgeCorrections = false;
    /** The step before which the injector is attached. */
    unsigned injectFromStep = 0;
};

/**
 * Run the scripted sequence: data writes with VnC-style neighbour
 * clean-up (ECP parking or correction) or none (blind writes, whose
 * neighbours are first recorded inside the WD scan), cancelled writes
 * that repair their in-row damage and resume, stand-alone corrections,
 * reads and ECP queries. All of it stays in a 2-bank x 24-row window
 * (fewer rows when the geometry has fewer) whose written lines sit at
 * the row edges, so word-line, bit-line and edge neighbours keep
 * interacting.
 */
ScriptResult
runDeviceScript(DeviceConfig dc, const FaultSpec& faults,
                const ScriptMix& script = {})
{
    dc.geometry.rowsPerBank =
        std::min<std::uint64_t>(dc.geometry.rowsPerBank, 24);
    PcmDevice dev(dc);
    std::unique_ptr<FaultInjector> inject;
    if (faults.any())
        inject = std::make_unique<FaultInjector>(faults);
    EventQueue events;
    WdLedger ledger(events, dc.geometry);
    dev.observe({.ledger = &ledger});

    const AddressMap& map = dev.addressMap();
    Rng rng(0x5eedULL);
    ScriptResult result;
    std::uint64_t& h = result.digest;
    h = 0xcbf29ce484222325ULL;
    // Recycled like the controller's plan pools.
    PcmDevice::WritePlan plan;
    PcmDevice::WritePlan fix;
    PcmDevice::RoundOutcome round;
    std::vector<unsigned> diffs;

    auto apply = [&](PcmDevice::WritePlan& p, unsigned max_rounds) {
        for (unsigned n = 0; n < max_rounds && dev.applyNextRound(p, round);
             ++n) {
            mix(h, round.isReset);
            mix(h, round.latency);
            mix(h, round.wlErrors);
            mix(h, round.blErrors);
        }
    };
    auto finish = [&](PcmDevice::WritePlan& p) {
        const PcmDevice::FinishOutcome out = dev.finishWrite(p);
        mix(h, out.wlErrorsFixed);
        mix(h, out.ecpWdReleased);
    };
    auto correct = [&](const LineAddr& la, const std::vector<unsigned>& cells) {
        ledger.beginOp(0, 1);
        dev.planCorrectionInto(fix, la, cells);
        mix(h, fix.totalRounds());
        apply(fix, ~0u);
        finish(fix);
    };
    // Compare a neighbour with its pre-write content, then park the
    // damage in ECP (LazyCorrection) or correct it (VnC).
    auto settle = [&](const LineAddr& la, const LineData& before) {
        dev.verifyLineInto(la, before, diffs);
        mix(h, diffs.size());
        if (diffs.empty())
            return;
        const bool park = rng.chance(0.5);
        if (park && dev.recordWdInEcp(la, diffs))
            return;
        correct(la, diffs);
    };

    const unsigned ecp_step = 9 - script.correctSteps;
    for (unsigned step = 0; step < 1500; ++step) {
        if (inject && step == script.injectFromStep)
            dev.setFaultInjector(inject.get());
        const unsigned line = rng.chance(0.5)
            ? static_cast<unsigned>(rng.below(4))
            : 60 + static_cast<unsigned>(rng.below(4));
        const LineAddr la{static_cast<unsigned>(rng.below(2)),
                          rng.below(dc.geometry.rowsPerBank), line};
        const unsigned action = static_cast<unsigned>(rng.below(10));
        if (action < script.writeSteps) {
            const bool vnc = rng.chance(0.6);
            const std::optional<LineAddr> upper =
                vnc ? map.upperNeighbor(la) : std::nullopt;
            const std::optional<LineAddr> lower =
                vnc ? map.lowerNeighbor(la) : std::nullopt;
            const LineData upper_before =
                upper ? dev.readLine(*upper) : LineData{};
            const LineData lower_before =
                lower ? dev.readLine(*lower) : LineData{};
            LineData data = dev.peekLine(la);
            constexpr unsigned kFlips[] = {4, 30, 120, 256};
            const unsigned flips = kFlips[rng.below(4)];
            for (unsigned i = 0; i < flips; ++i)
                data.flipBit(static_cast<unsigned>(rng.below(kLineBits)));

            ledger.beginOp(0, 0);
            dev.planWriteInto(plan, la, data);
            mix(h, plan.totalRounds());
            if (plan.totalRounds() > 1 && rng.chance(0.3)) {
                // Cancel part-way: unwind the in-row damage, then resume.
                apply(plan, 1 + static_cast<unsigned>(
                                    rng.below(plan.totalRounds() - 1)));
                ledger.beginCancelRepair();
                mix(h, dev.repairWlHits(plan));
                ledger.endCancelRepair();
                ledger.noteCancel(la);
                result.cancels += 1;
                dev.planWriteInto(plan, la, data);
                mix(h, plan.totalRounds());
            }
            apply(plan, ~0u);
            finish(plan);
            if (upper)
                settle(*upper, upper_before);
            if (lower)
                settle(*lower, lower_before);
            mixLine(h, dev.readLine(la));
        } else if (action < ecp_step && script.streamReads) {
            const unsigned first = static_cast<unsigned>(rng.below(64));
            const unsigned run = 1 + static_cast<unsigned>(rng.below(16));
            for (unsigned l = first; l < std::min(64u, first + run); ++l)
                mixLine(h, dev.readLine(LineAddr{la.bank, la.row, l}));
        } else if (action < ecp_step) {
            mixLine(h, dev.readLine(la));
        } else if (action == ecp_step) {
            mix(h, dev.ecpUsed(la));
            mix(h, dev.ecpFree(la));
            for (const unsigned cell : dev.ecpWdCells(la))
                mix(h, cell);
            mixLine(h, dev.uncorrectableMask(la));
        } else {
            std::vector<unsigned> cells(1 + rng.below(8));
            for (unsigned& cell : cells) {
                if (!script.edgeCorrections) {
                    cell = static_cast<unsigned>(rng.below(kLineBits));
                    continue;
                }
                // A word's first or last cell, drawn in this order.
                const auto word = static_cast<unsigned>(rng.below(kLineWords));
                const bool last = rng.chance(0.5);
                cell = word << 6 | (last ? 63 : 0);
            }
            correct(la, cells);
        }
    }

    mixStats(h, dev.stats());
    mix(h, dev.lineStateDigest());
    mix(h, dev.touchedLines());
    mix(h, dev.maxLineCellWrites());
    const WdLedgerSummary s = ledger.summarize();
    for (const std::uint64_t v : {s.flipsWl, s.flipsBl,
                                  s.flipsFromCorrection, s.outstanding,
                                  s.cancels}) {
        mix(h, v);
    }
    for (unsigned o = 0; o < kNumWdOutcomes; ++o) {
        mix(h, s.outcomes[o]);
        mix(h, s.lateFixes[o]);
    }
    if (inject) {
        result.forcedFlips = inject->forcedFlips();
        mix(h, result.forcedFlips);
    }
    result.stats = dev.stats();
    return result;
}

struct DiffCase
{
    const char* name;
    DeviceConfig config;
    FaultSpec faults; //!< no injector unless faults.any()
    std::uint64_t digest; //!< recorded
    ScriptMix script = {};
};

void
PrintTo(const DiffCase& c, std::ostream* os)
{
    *os << c.name;
}

std::vector<DiffCase>
diffCases()
{
    // The sdpcm device: DIN on, Table 1 4F^2 rates, ECP-6.
    const DeviceConfig sdpcm;

    DeviceConfig fnw = sdpcm;
    fnw.dinEnabled = false;
    fnw.fnwEnabled = true;

    DeviceConfig din8f2 = sdpcm;
    din8f2.rates.bitLine = 0.0;

    DeviceConfig aged = sdpcm;
    aged.aging.ageFraction = 0.6;

    FaultSpec storm;
    storm.stuckPerLine = 0.3;
    storm.ecpSteal = 1;
    storm.wdBoost = 0.05;
    storm.seed = 5;

    DeviceConfig pooled = sdpcm;
    pooled.timing.windowed = false;

    DeviceConfig counted = sdpcm;
    counted.lineCounters = true;

    // Rows 0 and 3 (half the script's rows) lack one bit-line neighbour.
    DeviceConfig edge_rows = sdpcm;
    edge_rows.geometry.rowsPerBank = 4;

    // Poisson(2) stuck cells against ECP-2: about a third of the lines
    // hold more stuck cells than entries, the rest keep entries free
    // for WD parking.
    DeviceConfig saturated = sdpcm;
    saturated.aging.ageFraction = 1.0;
    saturated.ecpEntries = 2;

    DeviceConfig ecp_max = sdpcm;
    ecp_max.ecpEntries = kMaxEcpEntries;

    // No ECP at all: every stuck cell is beyond its line's entries.
    DeviceConfig ecp_none = aged;
    ecp_none.ecpEntries = 0;

    DeviceConfig wl_aged = aged;
    wl_aged.rates.bitLine = 0.0;

    DeviceConfig aged_counted = aged;
    aged_counted.lineCounters = true;

    const ScriptMix read_mostly{.writeSteps = 1, .streamReads = true};
    const ScriptMix wl_storm{
        .writeSteps = 3, .correctSteps = 5, .edgeCorrections = true};
    ScriptMix late_injector = read_mostly;
    late_injector.injectFromStep = 750;

    // Digests recorded with the per-bank std::unordered_map line store.
    return {
        {"sdpcm", sdpcm, FaultSpec{}, 0xd876b677d10d9e51ULL},
        {"fnw", fnw, FaultSpec{}, 0x9fb59ac699faa85dULL},
        {"din8F2", din8f2, FaultSpec{}, 0xa344f38446f1b9bbULL},
        {"aged", aged, FaultSpec{}, 0x479d6989890aa8d5ULL},
        {"injected", sdpcm, storm, 0xfe3cc4950f58b1e8ULL},
        {"pooled", pooled, FaultSpec{}, 0x4c23bf56eed6ee5fULL},
        {"lineCounters", counted, FaultSpec{}, 0x8bbd2b8b032a5cddULL},
        // Recorded with the per-cell WD scan.
        {"edgeRows", edge_rows, FaultSpec{}, 0x5fc3e1ddb4373301ULL},
        // Recorded with per-line ECP, stuck-cell and slot-image vectors.
        {"saturated", saturated, FaultSpec{}, 0xefa9632a25ce70eeULL},
        {"ecpMax", ecp_max, FaultSpec{}, 0x0bd895eb1a0f5a4dULL},
        {"ecpNone", ecp_none, FaultSpec{}, 0xbab2c42998a1955bULL},
        // Recorded with a record for every touched line. One step in
        // ten writes, seven stream reads; most lines are only read, and
        // some are written, pinned, parked or corrected after it. The
        // late injector leaves the lines touched before it without
        // injected stuck cells, however late they are first written.
        {"readMostly", counted, FaultSpec{}, 0xf4e2a3523475c3b6ULL, read_mostly},
        {"readMostlyLateInjector", sdpcm, storm, 0x98685fe091ba6844ULL,
         late_injector},
        // Recorded with a record for every line an aged device touched:
        // most lines are only read, and about a third of the lines draw
        // a stuck cell at their first touch.
        {"readMostlyAged", aged, FaultSpec{}, 0x47d6a8654d40dc24ULL,
         read_mostly},
        // Recorded with a record for every neighbour the WD scan looked
        // up. No bit-line disturbance, and half the steps correct cells
        // at word edges: corrections look up word-line neighbours
        // (drawing their stuck cells if they are fresh) and, at DIN's
        // residual rate, seldom land a flip on one.
        {"wordLineStorm", wl_aged, FaultSpec{}, 0x021960cbed7c49f5ULL,
         wl_storm},
        // Recorded with the counters in the line record. Aged and
        // injected, so first touches draw stuck cells, and each line
        // that draws a hard entry starts its ECP high-water mark there.
        {"agedCounters", aged_counted, storm, 0x31e59cd7af07f86fULL},
    };
}

class DeviceDifferential : public ::testing::TestWithParam<DiffCase>
{};

TEST_P(DeviceDifferential, ScriptMatchesRecordedDigest)
{
    const DiffCase& c = GetParam();
    const ScriptResult r = runDeviceScript(c.config, c.faults, c.script);
    EXPECT_EQ(r.digest, c.digest) << std::hex << "0x" << r.digest;

    // The script must reach the paths it guards.
    EXPECT_GT(r.stats.wlDisturbances, 0u);
    EXPECT_GT(r.stats.correctionWrites, 0u);
    EXPECT_GT(r.cancels, 0u);
    if (c.config.rates.bitLine > 0.0) {
        EXPECT_GT(r.stats.blDisturbances, 0u);
    }
    if (c.config.rates.bitLine > 0.0 && c.config.ecpEntries > 0) {
        EXPECT_GT(r.stats.ecpWdRecorded, 0u);
        EXPECT_GT(r.stats.ecpWdReleased, 0u);
    }
    if (c.config.aging.ageFraction > 0.0) {
        EXPECT_GT(r.stats.hardErrors, 0u);
    }
    if (std::string_view(c.name) == "saturated" ||
        std::string_view(c.name) == "ecpNone") {
        EXPECT_GT(r.stats.ecpSaturatedLines, 0u);
    }
    if (c.faults.any()) {
        EXPECT_GT(r.stats.injectedStuckCells, 0u);
        EXPECT_GT(r.forcedFlips, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DeviceDifferential, ::testing::ValuesIn(diffCases()),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace sdpcm
