/**
 * @file
 * Tests for the TLB, the per-process MMU (demand paging + allocator tag)
 * and the WD-aware DMA controller.
 */

#include <gtest/gtest.h>

#include <list>
#include <set>
#include <unordered_map>

#include "common/rng.hh"
#include "os/dma.hh"
#include "os/page_table.hh"

namespace sdpcm {
namespace {

DimmGeometry
smallGeometry()
{
    DimmGeometry g;
    g.rowsPerBank = 16384; // 1GB
    return g;
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb(4);
    EXPECT_FALSE(tlb.lookup(1).has_value());
    tlb.insert(1, 100);
    auto hit = tlb.lookup(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 100u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2);
    tlb.insert(1, 10);
    tlb.insert(2, 20);
    tlb.lookup(1);      // 1 becomes MRU
    tlb.insert(3, 30);  // evicts 2
    EXPECT_TRUE(tlb.lookup(1).has_value());
    EXPECT_FALSE(tlb.lookup(2).has_value());
    EXPECT_TRUE(tlb.lookup(3).has_value());
}

TEST(Tlb, ReinsertUpdatesFrame)
{
    Tlb tlb(2);
    tlb.insert(1, 10);
    tlb.insert(1, 11);
    EXPECT_EQ(*tlb.lookup(1), 11u);
}

TEST(Tlb, RejectsMoreEntriesThanItHolds)
{
    EXPECT_DEATH(Tlb(0), "1 to 64 entries");
    EXPECT_DEATH(Tlb(kMaxTlbEntries + 1), "1 to 64 entries");
}

/** The list-and-map LRU a Tlb replaced: the reference it must match. */
class ListLru
{
  public:
    explicit ListLru(unsigned capacity) : capacity_(capacity) {}

    std::optional<std::uint64_t>
    lookup(std::uint64_t vpage)
    {
        auto it = map_.find(vpage);
        if (it == map_.end())
            return std::nullopt;
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
        return it->second.frame;
    }

    void
    insert(std::uint64_t vpage, std::uint64_t frame)
    {
        auto it = map_.find(vpage);
        if (it != map_.end()) {
            it->second.frame = frame;
            lru_.splice(lru_.begin(), lru_, it->second.lruPos);
            return;
        }
        if (map_.size() >= capacity_) {
            map_.erase(lru_.back());
            lru_.pop_back();
        }
        lru_.push_front(vpage);
        map_[vpage] = Entry{frame, lru_.begin()};
    }

  private:
    struct Entry
    {
        std::uint64_t frame;
        std::list<std::uint64_t>::iterator lruPos;
    };
    unsigned capacity_;
    std::list<std::uint64_t> lru_; //!< most recent at front
    std::unordered_map<std::uint64_t, Entry> map_;
};

TEST(Tlb, MatchesListLruReference)
{
    // Pages from a set 1.5x the capacity (so hits, misses and
    // evictions all happen), refilled on a miss as an Mmu does, with
    // reinserts of present and absent pages under fresh frames.
    for (const unsigned capacity : {1u, 2u, 7u, kMaxTlbEntries}) {
        Tlb tlb(capacity);
        ListLru ref(capacity);
        Rng rng(capacity);
        const std::uint64_t pages = capacity + capacity / 2 + 2;
        std::uint64_t hits = 0;
        for (int i = 0; i < 100000; ++i) {
            const std::uint64_t vpage = rng.below(pages) << 20;
            const std::uint64_t frame = rng.next64();
            if (rng.chance(0.1)) {
                tlb.insert(vpage, frame);
                ref.insert(vpage, frame);
                continue;
            }
            const auto got = tlb.lookup(vpage);
            ASSERT_EQ(got, ref.lookup(vpage))
                << "capacity " << capacity << " step " << i;
            if (got) {
                hits += 1;
            } else {
                tlb.insert(vpage, frame);
                ref.insert(vpage, frame);
            }
        }
        EXPECT_EQ(tlb.hits(), hits) << "capacity " << capacity;
        EXPECT_GT(tlb.hits(), 0u);
        EXPECT_GT(tlb.misses(), 0u);
    }
}

TEST(Mmu, DemandPagingAllocatesOnFirstTouch)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{1, 1});
    const Translation t1 = mmu.translate(0x1234);
    EXPECT_TRUE(t1.pageFault);
    EXPECT_FALSE(t1.tlbHit);
    const Translation t2 = mmu.translate(0x1000);
    EXPECT_FALSE(t2.pageFault);
    EXPECT_TRUE(t2.tlbHit);
    EXPECT_EQ(t1.paddr - 0x234, t2.paddr - 0x000);
    EXPECT_EQ(mmu.pageFaults(), 1u);
    EXPECT_EQ(mmu.mappedPages(), 1u);
}

TEST(Mmu, OffsetPreserved)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{1, 1});
    const Translation t = mmu.translate(7 * 4096 + 321);
    EXPECT_EQ(t.paddr % 4096, 321u);
}

TEST(Mmu, TagTravelsWithTranslation)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{2, 3});
    const Translation t = mmu.translate(0);
    EXPECT_EQ(t.tag, (NmRatio{2, 3}));
}

TEST(Mmu, PartialTagAllocatesUsedStripsOnly)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{1, 2});
    const NmPolicy policy(NmRatio{1, 2});
    for (std::uint64_t page = 0; page < 300; ++page) {
        const Translation t = mmu.translate(page * 4096);
        EXPECT_TRUE(policy.stripInUse(t.paddr / 4096 / 16));
    }
}

TEST(Mmu, DistinctSpacesGetDistinctFrames)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu a(sys, NmRatio{1, 1});
    Mmu b(sys, NmRatio{1, 1});
    std::set<std::uint64_t> frames;
    for (std::uint64_t page = 0; page < 50; ++page) {
        frames.insert(a.translate(page * 4096).paddr / 4096);
        frames.insert(b.translate(page * 4096).paddr / 4096);
    }
    EXPECT_EQ(frames.size(), 100u);
}

TEST(Mmu, ReleaseAllReturnsFrames)
{
    PageAllocatorSystem sys(smallGeometry());
    auto& base = sys.allocatorFor(NmRatio{1, 1});
    const std::uint64_t before = base.freeFrames();
    {
        Mmu mmu(sys, NmRatio{1, 1});
        for (std::uint64_t page = 0; page < 64; ++page)
            mmu.translate(page * 4096);
        EXPECT_EQ(base.freeFrames(), before - 64);
        mmu.releaseAll();
    }
    EXPECT_EQ(base.freeFrames(), before);
}

TEST(Dma, FullRatioIsContiguous)
{
    DmaController dma(smallGeometry());
    const auto frames = dma.framesForTransfer(NmRatio{1, 1}, 100, 10);
    ASSERT_EQ(frames.size(), 10u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(frames[i], 100u + i);
}

TEST(Dma, OneTwoSkipsAlternateStrips)
{
    DmaController dma(smallGeometry());
    // Start at frame 0 (strip 0, used); strips are 16 frames.
    const auto frames = dma.framesForTransfer(NmRatio{1, 2}, 0, 40);
    ASSERT_EQ(frames.size(), 40u);
    const NmPolicy policy(NmRatio{1, 2});
    for (const auto f : frames)
        EXPECT_TRUE(policy.stripInUse(f / 16));
    // First 16 frames contiguous, then the skip.
    EXPECT_EQ(frames[15], 15u);
    EXPECT_EQ(frames[16], 32u);
}

TEST(Dma, RejectsUnsupportedTag)
{
    DmaController dma(smallGeometry());
    EXPECT_FALSE(DmaController::tagSupported(NmRatio{2, 3}));
    EXPECT_DEATH(dma.framesForTransfer(NmRatio{2, 3}, 0, 1),
                 "DMA supports only");
}

TEST(Dma, RejectsStartInNoUseStrip)
{
    DmaController dma(smallGeometry());
    EXPECT_DEATH(dma.framesForTransfer(NmRatio{1, 2}, 16, 1),
                 "no-use strip");
}

} // namespace
} // namespace sdpcm
