/**
 * @file
 * Tests for line data, address mapping, geometry analytics, the fixed
 * configuration values and ECP metadata.
 */

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "pcm/address.hh"
#include "pcm/device.hh"
#include "pcm/ecp.hh"
#include "pcm/geometry.hh"
#include "pcm/line.hh"
#include "pcm/timing.hh"
#include "thermal/wd_model.hh"

namespace sdpcm {
namespace {

TEST(LineData, BitAccess)
{
    LineData line;
    EXPECT_FALSE(line.getBit(0));
    line.setBit(0, true);
    line.setBit(511, true);
    EXPECT_TRUE(line.getBit(0));
    EXPECT_TRUE(line.getBit(511));
    EXPECT_EQ(line.popcount(), 2u);
    line.flipBit(0);
    EXPECT_FALSE(line.getBit(0));
    EXPECT_EQ(line.popcount(), 1u);
}

TEST(LineData, DiffFindsAllMismatches)
{
    LineData a = LineData::randomFromKey(1);
    LineData b = a;
    b.flipBit(3);
    b.flipBit(77);
    b.flipBit(400);
    const LineData d = a.diff(b);
    EXPECT_EQ(d.popcount(), 3u);
    std::set<unsigned> positions;
    forEachSetBit(d, [&](unsigned pos) { positions.insert(pos); });
    EXPECT_EQ(positions, (std::set<unsigned>{3, 77, 400}));
}

TEST(LineData, RandomFromKeyDeterministic)
{
    EXPECT_EQ(LineData::randomFromKey(42), LineData::randomFromKey(42));
    EXPECT_FALSE(LineData::randomFromKey(42) ==
                 LineData::randomFromKey(43));
}

TEST(LineData, RandomContentRoughlyBalanced)
{
    unsigned ones = 0;
    for (std::uint64_t k = 0; k < 64; ++k)
        ones += LineData::randomFromKey(k).popcount();
    const double frac = ones / (64.0 * 512.0);
    EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(Geometry, Table2Defaults)
{
    DimmGeometry g;
    EXPECT_EQ(g.banks(), 16u);
    EXPECT_EQ(g.linesPerRow(), 64u);
    EXPECT_EQ(g.cellsPerChipRow(), 4096u);
    EXPECT_EQ(g.lineBitsPerChip(), 64u);
    EXPECT_EQ(g.capacityBytes(), 8ULL << 30);
    EXPECT_EQ(g.pageFrames(), 2097152u);
    EXPECT_EQ(g.framesPerStrip(), 16u);
    EXPECT_EQ(g.stripsPer64MB(), 1024u);
}

TEST(ConfigSurface, FixedFactsAreConstants)
{
    // A run may vary the row count (tests shrink the DIMM), the program
    // rounds' layout (the ablation bench) and the DIMM's age; the rest
    // of Tables 1 and 2 is constant, so a settable field that came back
    // would grow one of these types.
    EXPECT_EQ(sizeof(DimmGeometry), sizeof(std::uint64_t));
    EXPECT_TRUE(std::is_empty_v<ThermalConfig>);
    EXPECT_EQ(sizeof(PcmTiming), sizeof(bool));
    EXPECT_EQ(sizeof(AgingConfig), sizeof(double));
}

TEST(Geometry, CapacityAnalysisMatchesSection61)
{
    DensityAnalysis a;
    EXPECT_NEAR(a.sdCapacityGB(), 4.0, 1e-9);
    EXPECT_NEAR(a.dinCapacityGB(), 2.222, 1e-3);
    EXPECT_NEAR(a.capacityImprovement(), 0.80, 0.01);
    EXPECT_NEAR(a.chipCountReductionEqualChips(), 0.38, 0.02);
    EXPECT_NEAR(a.chipSizeReductionBigChips(), 0.20, 0.01);
}

TEST(AddressMap, DecodeEncodeRoundTrip)
{
    const DimmGeometry g;
    const AddressMap map(g);
    for (const PhysAddr addr :
         {PhysAddr(0), PhysAddr(4096), PhysAddr(64), PhysAddr(12345664),
          PhysAddr(8ULL << 30) - 64}) {
        const LineAddr la = map.decode(addr);
        EXPECT_EQ(map.encode(la), addr - addr % 64);
    }
}

TEST(AddressMap, PageInterleavingAcrossBanks)
{
    // Consecutive page frames land in consecutive banks (Figure 6).
    const DimmGeometry g;
    const AddressMap map(g);
    for (unsigned f = 0; f < 32; ++f) {
        const LineAddr la = map.decode(static_cast<PhysAddr>(f) * 4096);
        EXPECT_EQ(la.bank, f % 16);
        EXPECT_EQ(la.row, f / 16);
    }
}

TEST(AddressMap, AdjacentRowsAre16FramesApart)
{
    const DimmGeometry g;
    const AddressMap map(g);
    const LineAddr la = map.decode(4096ULL * 35 + 128); // frame 35
    const auto upper = map.upperNeighbor(la);
    const auto lower = map.lowerNeighbor(la);
    ASSERT_TRUE(upper && lower);
    // Same bank, rows +-1, same line: 16 page frames away.
    EXPECT_EQ(map.encode(*upper) + 16 * 4096, map.encode(la));
    EXPECT_EQ(map.encode(*lower), map.encode(la) + 16 * 4096);
}

TEST(AddressMap, EdgeRowsHaveOneNeighbor)
{
    const DimmGeometry g;
    const AddressMap map(g);
    const LineAddr first{0, 0, 0};
    EXPECT_FALSE(map.upperNeighbor(first).has_value());
    EXPECT_TRUE(map.lowerNeighbor(first).has_value());
    const LineAddr last{0, g.rowsPerBank - 1, 0};
    EXPECT_TRUE(map.upperNeighbor(last).has_value());
    EXPECT_FALSE(map.lowerNeighbor(last).has_value());
}

TEST(Ecp, RecordAndApplyWd)
{
    EcpLine ecp(6);
    LineData data;
    data.setBit(10, true); // disturbed: physically 1, should be 0
    EXPECT_TRUE(ecp.recordWd(10));
    ecp.apply(data);
    EXPECT_FALSE(data.getBit(10));
    EXPECT_EQ(ecp.wdCount(), 1u);
    EXPECT_EQ(ecp.freeEntries(), 5u);
}

TEST(Ecp, DuplicateRecordIsIdempotent)
{
    EcpLine ecp(2);
    EXPECT_TRUE(ecp.recordWd(5));
    EXPECT_TRUE(ecp.recordWd(5));
    EXPECT_EQ(ecp.wdCount(), 1u);
}

TEST(Ecp, OverflowReturnsFalse)
{
    EcpLine ecp(2);
    EXPECT_TRUE(ecp.recordWd(1));
    EXPECT_TRUE(ecp.recordWd(2));
    EXPECT_FALSE(ecp.recordWd(3));
    EXPECT_EQ(ecp.wdCount(), 2u);
}

TEST(Ecp, HardErrorsEvictWdEntries)
{
    EcpLine ecp(2);
    EXPECT_TRUE(ecp.recordWd(1));
    EXPECT_TRUE(ecp.recordWd(2));
    // Hard errors have allocation priority.
    EXPECT_TRUE(ecp.recordHard(9, true));
    EXPECT_EQ(ecp.hardCount(), 1u);
    EXPECT_EQ(ecp.wdCount(), 1u);
}

TEST(Ecp, SaturatedWithHardErrors)
{
    EcpLine ecp(1);
    EXPECT_TRUE(ecp.recordHard(1, false));
    EXPECT_FALSE(ecp.recordHard(2, true));
}

TEST(Ecp, ClearWdKeepsHardEntries)
{
    EcpLine ecp(4);
    ecp.recordHard(7, true);
    ecp.recordWd(1);
    ecp.recordWd(2);
    EXPECT_EQ(ecp.clearWd(), 2u);
    EXPECT_EQ(ecp.hardCount(), 1u);
    EXPECT_EQ(ecp.wdCount(), 0u);
    LineData data;
    ecp.apply(data);
    EXPECT_TRUE(data.getBit(7));
}

TEST(Ecp, UpdateHardValue)
{
    EcpLine ecp(2);
    ecp.recordHard(3, false);
    LineData intended;
    intended.setBit(3, true);
    ecp.updateHardValues(intended);
    LineData data;
    ecp.apply(data);
    EXPECT_TRUE(data.getBit(3));
    EXPECT_FALSE(ecp.entries()[0].stuck());
}

TEST(Ecp, ZeroCapacityRejectsEverything)
{
    EcpLine ecp(0);
    EXPECT_FALSE(ecp.recordWd(0));
    EXPECT_FALSE(ecp.recordHard(0, true));
}

} // namespace
} // namespace sdpcm
