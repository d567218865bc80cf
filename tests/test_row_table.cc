/**
 * @file
 * Tests for the device's row table (pcm/row_table.hh): record lists in
 * rank order through every capacity, records that keep their address
 * while the lists move, the memory a touched row costs, and the (bank,
 * row, line) walk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/column.hh"
#include "common/rng.hh"
#include "pcm/row_table.hh"

namespace sdpcm {
namespace {

/** A record as the device keeps one: a payload at a fixed address. */
struct Probe
{
    std::uint64_t line = 0;
    std::uint64_t payload[12] = {};
};

/** A row table with its records, numbered alike. */
struct Store
{
    RowTable rows;
    Column<Probe> records;
    std::vector<const Probe*> addresses; //!< by entry number

    /** Record `line` and fill its record. */
    void
    record(LineIndex line)
    {
        const RowTable::Recorded r = rows.record(line);
        ASSERT_TRUE(r.inserted) << line;
        ASSERT_EQ(r.entry, records.push()) << line;
        Probe& p = records[r.entry];
        p.line = line;
        std::fill(std::begin(p.payload), std::end(p.payload), line * 3 + 1);
        addresses.push_back(&p);
    }

    /** Check that `line` holds the record made for it, at its address. */
    void
    expectRecord(LineIndex line)
    {
        const RowTable::Touch t = rows.touch(line);
        EXPECT_FALSE(t.first) << line;
        ASSERT_NE(t.entry, RowTable::kNoEntry) << line;
        const Probe& p = records[t.entry];
        EXPECT_EQ(&p, addresses[t.entry]) << line;
        EXPECT_EQ(p.line, line);
        EXPECT_EQ(p.payload[11], line * 3 + 1);
    }
};

TEST(RowTable, InsertsAtEveryRankOfEveryListLength)
{
    // One row per (length n, rank k): lines 0..n are recorded, all but
    // line k from the top down, so each insertion lands at the front of
    // its list, and line k last, at rank k. On the way each list passes
    // through every capacity up to n's, moving at each, and the blocks
    // they leave behind serve the rows after them.
    Store store;
    constexpr unsigned kRowLines = 64;
    std::uint32_t frame = 0;
    std::vector<std::pair<std::uint32_t, unsigned>> rows; // frame, n
    for (unsigned n = 0; n < kRowLines; ++n) {
        for (unsigned k = 0; k <= n; ++k, ++frame) {
            const LineIndex base = frame * kRowLines;
            for (unsigned line = n + 1; line-- > 0;) {
                if (line != k)
                    store.record(base + line);
            }
            store.record(base + k);
            rows.emplace_back(frame, n);
            // Every line of the row still finds its own record.
            for (unsigned line = 0; line <= n; ++line)
                store.expectRecord(base + line);
            if (HasFatalFailure() || HasNonfatalFailure())
                return;
        }
    }
    EXPECT_EQ(store.rows.recordedLines(), store.records.size());
    EXPECT_EQ(store.rows.touchedLines(), store.records.size());
    // Every record, after all rows are done moving.
    for (const auto& [f, n] : rows) {
        for (unsigned line = 0; line <= n; ++line)
            store.expectRecord(f * kRowLines + line);
    }
}

TEST(RowTable, TouchAndRecordReportFirstTouches)
{
    RowTable rows;
    EXPECT_EQ(rows.bytes(), 0u); // nothing allocated before a touch
    const RowTable::Touch first = rows.touch(7);
    EXPECT_TRUE(first.first);
    EXPECT_EQ(first.entry, RowTable::kNoEntry);
    const RowTable::Touch again = rows.touch(7);
    EXPECT_FALSE(again.first);
    EXPECT_EQ(again.entry, RowTable::kNoEntry);

    // A touched line recorded: not a first touch.
    const RowTable::Recorded touched = rows.record(7);
    EXPECT_EQ(touched.entry, 0u);
    EXPECT_TRUE(touched.inserted);
    EXPECT_FALSE(touched.firstTouch);
    // An untouched line recorded: its first touch too.
    const RowTable::Recorded fresh = rows.record(kNoLine - 1);
    EXPECT_EQ(fresh.entry, 1u);
    EXPECT_TRUE(fresh.inserted);
    EXPECT_TRUE(fresh.firstTouch);
    // Recorded again: found.
    const RowTable::Recorded found = rows.record(7);
    EXPECT_EQ(found.entry, 0u);
    EXPECT_FALSE(found.inserted);
    EXPECT_FALSE(found.firstTouch);
    EXPECT_EQ(rows.touch(kNoLine - 1).entry, 1u);
    EXPECT_EQ(rows.touchedLines(), 2u);
    EXPECT_EQ(rows.recordedLines(), 2u);
}

TEST(RowTable, MemoryPerTouchedRowIsBounded)
{
    const DimmGeometry g;
    const std::uint64_t frames = g.pageFrames();
    constexpr std::uint32_t kRows = 20000;
    // Rows all over the DIMM: each in a leaf of its own, so a row costs
    // its leaf (kLeafRows 24-byte slots) plus its share of a directory
    // that spans the DIMM, 8 bytes per leaf; here under 512 bytes.
    {
        RowTable rows;
        for (std::uint32_t i = 0; i < kRows; ++i) {
            const std::uint64_t frame = i * (frames / kRows);
            rows.record(static_cast<LineIndex>(frame * 64 + i % 64));
        }
        EXPECT_EQ(rows.touchedLines(), kRows);
        EXPECT_LE(rows.bytes(), 512u * kRows) << rows.bytes() / kRows;
    }
    // Dense rows, as a run's compact frames are: a row costs its slot, a
    // list word and its share of a leaf pointer, under 32 bytes.
    {
        RowTable rows;
        for (std::uint32_t frame = 0; frame < kRows; ++frame)
            rows.record(frame * 64 + frame % 64);
        EXPECT_EQ(rows.recordedLines(), kRows);
        EXPECT_LE(rows.bytes(), 32u * kRows) << rows.bytes() / kRows;
    }
}

TEST(RowTable, WalkVisitsBankRowLineOrder)
{
    // Lines at the geometry's corners and random ones, touched in a
    // random order, a third of them recorded: the walk visits them in
    // (bank, row, line) order, which is not the order of their line
    // indices (row-major across banks), each with its entry.
    DimmGeometry g;
    g.rowsPerBank = 4096;
    const AddressMap map(g);
    Rng rng(5);
    std::vector<LineAddr> lines;
    for (const unsigned bank : {0u, 1u, g.banks() - 1})
        for (const std::uint64_t row : {std::uint64_t{0}, g.rowsPerBank - 1})
            for (const unsigned line : {0u, 1u, g.linesPerRow() - 1})
                lines.push_back(LineAddr{bank, row, line});
    for (unsigned i = 0; i < 3000; ++i) {
        lines.push_back(LineAddr{static_cast<unsigned>(rng.below(16)),
                                 rng.below(g.rowsPerBank),
                                 static_cast<unsigned>(rng.below(64))});
    }
    RowTable rows;
    std::map<LineAddr, std::uint32_t> expected;
    for (const LineAddr& la : lines) {
        if (rng.below(3) == 0)
            expected[la] = rows.record(map.lineIndex(la)).entry;
        else if (rows.touch(map.lineIndex(la)).first)
            expected.emplace(la, RowTable::kNoEntry);
    }
    ASSERT_EQ(rows.touchedLines(), expected.size());

    std::vector<std::pair<LineAddr, std::uint32_t>> walked;
    rows.forEach(map, [&](const LineAddr& la, std::uint32_t entry) {
        walked.emplace_back(la, entry);
    });
    const std::vector<std::pair<LineAddr, std::uint32_t>> sorted(
        expected.begin(), expected.end());
    EXPECT_EQ(walked, sorted);
}

} // namespace
} // namespace sdpcm
