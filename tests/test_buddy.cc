/**
 * @file
 * Tests for the WD-aware buddy allocator: standard buddy behaviour for
 * (1:1), no-use strip parking/reclaiming for partial ratios, the size
 * adjustment rule, fragment handling, and allocation/free round trips.
 */

#include <gtest/gtest.h>

#include <set>

#include "os/buddy.hh"

namespace sdpcm {
namespace {

DimmGeometry
smallGeometry()
{
    // 1GB instead of 8GB to keep exhaustive sweeps fast; still 1024
    // strips (64KB each) per 64MB block.
    DimmGeometry g;
    g.rowsPerBank = 16384;
    return g;
}

TEST(Buddy, BasePageAllocationUnique)
{
    PageAllocatorSystem sys(smallGeometry());
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        auto frame = sys.allocatePage(NmRatio{1, 1});
        ASSERT_TRUE(frame.has_value());
        EXPECT_TRUE(seen.insert(*frame).second) << "duplicate frame";
    }
}

TEST(Buddy, BaseAllocFreeCoalesces)
{
    PageAllocatorSystem sys(smallGeometry());
    auto& base = sys.allocatorFor(NmRatio{1, 1});
    const std::uint64_t before = base.freeFrames();
    std::vector<FrameBlock> blocks;
    for (int i = 0; i < 64; ++i) {
        auto blk = base.allocate(3); // 8 pages
        ASSERT_TRUE(blk.has_value());
        blocks.push_back(*blk);
    }
    EXPECT_EQ(base.freeFrames(), before - 64 * 8);
    for (const auto& blk : blocks)
        base.free(blk);
    EXPECT_EQ(base.freeFrames(), before);
}

TEST(Buddy, BlocksAreAligned)
{
    PageAllocatorSystem sys(smallGeometry());
    auto& base = sys.allocatorFor(NmRatio{1, 1});
    for (unsigned order = 0; order <= 10; ++order) {
        auto blk = base.allocate(order);
        ASSERT_TRUE(blk.has_value());
        EXPECT_EQ(blk->start % blk->frames(), 0u);
    }
}

TEST(Buddy, AllocationTakesTheLowestFreeBlock)
{
    // Pages freed while their buddies stay allocated do not merge, so
    // the order-0 free list holds them all; each allocation takes the
    // lowest, whatever order they were freed in.
    PageAllocatorSystem sys(smallGeometry());
    auto& base = sys.allocatorFor(NmRatio{1, 1});
    for (std::uint64_t page = 0; page < 16; ++page)
        ASSERT_EQ(base.allocatePage(), page);
    for (const std::uint64_t page : {12, 2, 8, 6})
        base.free(FrameBlock{page, 0});
    for (const std::uint64_t page : {2, 6, 8, 12})
        EXPECT_EQ(base.allocatePage(), page);
    EXPECT_EQ(base.allocatePage(), 16u);
}

TEST(Buddy, FullRatiosShareTheBaseArray)
{
    // (2:2) uses every strip, as (1:1) does: its pages come from the
    // (1:1) array and go back to it.
    PageAllocatorSystem sys(smallGeometry());
    auto& base = sys.allocatorFor(NmRatio{1, 1});
    EXPECT_EQ(&sys.allocatorFor(NmRatio{2, 2}), &base);
    const std::uint64_t before = base.freeFrames();
    const auto page = sys.allocatePage(NmRatio{2, 2});
    ASSERT_TRUE(page.has_value());
    EXPECT_EQ(base.freeFrames(), before - 1);
    sys.free(NmRatio{2, 2}, FrameBlock{*page, 0});
    EXPECT_EQ(base.freeFrames(), before);
}

TEST(Buddy, PartialRatioAllocatesUsedStripsOnly)
{
    PageAllocatorSystem sys(smallGeometry());
    const NmRatio half{1, 2};
    const NmPolicy policy(half);
    for (int i = 0; i < 500; ++i) {
        auto frame = sys.allocatePage(half);
        ASSERT_TRUE(frame.has_value());
        EXPECT_TRUE(policy.stripInUse(*frame / 16))
            << "frame " << *frame << " lies in a no-use strip";
    }
}

TEST(Buddy, PartialRatioParksNoUseStrips)
{
    PageAllocatorSystem sys(smallGeometry());
    sys.allocatePage(NmRatio{1, 2});
    EXPECT_GT(sys.allocatorFor(NmRatio{1, 2}).parkedStrips(), 0u);
}

TEST(Buddy, SizeAdjustmentOneTwo)
{
    // Section 4.4: under (1:2) a 16-page request is adjusted to 32
    // pages, a 32-page request to 64 pages.
    PageAllocatorSystem sys(smallGeometry());
    auto& arr = sys.allocatorFor(NmRatio{1, 2});
    EXPECT_EQ(arr.adjustedOrder(4), 5u);
    EXPECT_EQ(arr.adjustedOrder(5), 6u);
    // Sub-strip requests are not adjusted.
    EXPECT_EQ(arr.adjustedOrder(0), 0u);
    EXPECT_EQ(arr.adjustedOrder(3), 3u);
}

TEST(Buddy, SizeAdjustmentTwoThree)
{
    PageAllocatorSystem sys(smallGeometry());
    auto& arr = sys.allocatorFor(NmRatio{2, 3});
    // A 4-strip block guarantees 2 used strips in any alignment.
    EXPECT_EQ(arr.adjustedOrder(5), 6u);
}

TEST(Buddy, MultiStripAllocationProvidesEnoughUsableFrames)
{
    PageAllocatorSystem sys(smallGeometry());
    for (const auto ratio : {NmRatio{1, 2}, NmRatio{2, 3},
                             NmRatio{3, 4}}) {
        auto block = sys.allocate(ratio, 5); // 32 usable pages
        ASSERT_TRUE(block.has_value()) << ratio.toString();
        const auto frames = sys.usedFramesIn(ratio, *block);
        EXPECT_GE(frames.size(), 32u) << ratio.toString();
        const NmPolicy policy(ratio);
        for (const auto f : frames)
            EXPECT_TRUE(policy.stripInUse(f / 16));
    }
}

TEST(Buddy, MultiStripAllocationKeepsNoUseInternal)
{
    // Section 4.4: a 32-page request under (1:2) receives a 64-page
    // block whose no-use strips are internal fragments, not parked.
    PageAllocatorSystem sys(smallGeometry());
    auto& arr = sys.allocatorFor(NmRatio{1, 2});
    auto block = sys.allocate(NmRatio{1, 2}, 5);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(block->order, 6u); // size-adjusted
    EXPECT_EQ(arr.parkedStrips(), 0u);
    EXPECT_EQ(arr.usablePages(*block), 32u);
}

TEST(Buddy, FreeingReclaimsNoUseBuddy)
{
    // A sub-strip allocation splits down to strip granularity and parks
    // the no-use buddy strip; freeing the allocation reabsorbs it
    // ("freeing a 16-page block automatically forms a 32-page block
    // after reclaiming its no-use buddy", Section 4.4).
    PageAllocatorSystem sys(smallGeometry());
    auto& arr = sys.allocatorFor(NmRatio{1, 2});
    auto block = sys.allocate(NmRatio{1, 2}, 0);
    ASSERT_TRUE(block.has_value());
    const std::size_t parked_before = arr.parkedStrips();
    ASSERT_GT(parked_before, 0u);
    arr.free(*block);
    EXPECT_LT(arr.parkedStrips(), parked_before);
}

TEST(Buddy, FullCycleReturnsBlockToBase)
{
    PageAllocatorSystem sys(smallGeometry());
    auto& arr = sys.allocatorFor(NmRatio{1, 2});
    std::vector<FrameBlock> blocks;
    for (int i = 0; i < 32; ++i) {
        auto blk = sys.allocate(NmRatio{1, 2}, 0);
        ASSERT_TRUE(blk.has_value());
        blocks.push_back(*blk);
    }
    for (const auto& blk : blocks)
        arr.free(blk);
    // Everything freed: the donated 64MB block coalesces and can be
    // reclaimed for the (1:1) array.
    auto reclaimed = arr.reclaimBlock();
    ASSERT_TRUE(reclaimed.has_value());
    EXPECT_EQ(reclaimed->order, NmBuddyAllocator::kBlockOrder);
    EXPECT_EQ(arr.parkedStrips(), 0u);
}

TEST(Buddy, IndependentFreeListsPerRatio)
{
    PageAllocatorSystem sys(smallGeometry());
    auto f12 = sys.allocatePage(NmRatio{1, 2});
    auto f23 = sys.allocatePage(NmRatio{2, 3});
    auto f11 = sys.allocatePage(NmRatio{1, 1});
    ASSERT_TRUE(f12 && f23 && f11);
    // Different 64MB blocks entirely.
    const std::uint64_t frames_per_block = 16384;
    std::set<std::uint64_t> blocks = {*f12 / frames_per_block,
                                      *f23 / frames_per_block,
                                      *f11 / frames_per_block};
    EXPECT_EQ(blocks.size(), 3u);
}

TEST(Buddy, ExhaustionReturnsNullopt)
{
    DimmGeometry tiny;
    tiny.rowsPerBank = 1024; // 64MB total = exactly one block
    PageAllocatorSystem sys(tiny);
    // Consume the single 64MB block under (1:2): 512 usable strips * 16.
    std::uint64_t got = 0;
    while (sys.allocatePage(NmRatio{1, 2}))
        got += 1;
    EXPECT_EQ(got, 512u * 16u);
    EXPECT_FALSE(sys.allocatePage(NmRatio{1, 1}).has_value());
}

TEST(Buddy, DoubleFreePanics)
{
    PageAllocatorSystem sys(smallGeometry());
    auto& base = sys.allocatorFor(NmRatio{1, 1});
    auto blk = base.allocate(0);
    ASSERT_TRUE(blk.has_value());
    base.free(*blk);
    EXPECT_DEATH(base.free(*blk), "double free|linking");
}

TEST(Buddy, FreeAtWrongOrderPanics)
{
    PageAllocatorSystem sys(smallGeometry());
    auto& base = sys.allocatorFor(NmRatio{1, 1});
    auto blk = base.allocate(0);
    ASSERT_TRUE(blk.has_value());
    EXPECT_DEATH(base.free(FrameBlock{blk->start, 1}),
                 "double free or bad block");
    base.free(*blk);
}

class BuddyRatioSweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(BuddyRatioSweep, AllocFreeRoundTripPreservesFreeFrames)
{
    const auto [n, m] = GetParam();
    const NmRatio ratio{n, m};
    PageAllocatorSystem sys(smallGeometry());
    auto& arr = sys.allocatorFor(ratio);

    std::vector<FrameBlock> blocks;
    for (unsigned order : {0u, 0u, 2u, 3u, 4u, 5u, 0u, 1u}) {
        auto blk = sys.allocate(ratio, order);
        ASSERT_TRUE(blk.has_value());
        blocks.push_back(*blk);
    }
    const std::uint64_t mid = arr.freeFrames();
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it)
        arr.free(*it);
    EXPECT_GT(arr.freeFrames(), mid);
    // After freeing everything the donated blocks fully coalesce.
    std::uint64_t reclaimed = 0;
    while (arr.reclaimBlock())
        reclaimed += 1;
    if (!ratio.isFull()) {
        EXPECT_GE(reclaimed, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, BuddyRatioSweep,
    ::testing::Values(std::pair{1u, 1u}, std::pair{1u, 2u},
                      std::pair{2u, 3u}, std::pair{3u, 4u},
                      std::pair{7u, 8u}));

} // namespace
} // namespace sdpcm
