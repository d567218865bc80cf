/**
 * @file
 * WD-aware buddy page allocation (Section 4.4).
 *
 * The OS maintains one free-block-list array per (n:m) allocator. The
 * (1:1) array is the default buddy system owning all page frames; an
 * (n:m) allocator (n != m) acquires 64MB blocks from (1:1) on demand and
 * manages them with no-use strips carved out per NmPolicy. A strip (16
 * frames, one per bank) and a 64MB block (kStripsPerBlock strips) are
 * constants of the DIMM geometry, so every array shares their orders:
 *
 *  - blocks smaller than one strip (16 pages) always lie inside a used
 *    strip;
 *  - splitting a multi-strip block parks fully-no-use halves instead of
 *    linking them (they become unreachable fragments);
 *  - requests of one strip or more have their size adjusted upward so the
 *    no-use strips inside the returned block become internal fragments;
 *  - freeing merges with free buddies as usual and additionally reclaims
 *    parked no-use buddies, so freeing a 16-page block in (1:2)
 *    automatically reforms the 32-page block;
 *  - a fully coalesced 64MB block can be returned to the (1:1) array.
 */

#ifndef SDPCM_OS_BUDDY_HH
#define SDPCM_OS_BUDDY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bitops.hh"
#include "common/flat_map.hh"
#include "os/nm_policy.hh"
#include "pcm/geometry.hh"

namespace sdpcm {

/** A block of 2^order page frames starting at `start`. */
struct FrameBlock
{
    std::uint64_t start = 0;
    unsigned order = 0;

    std::uint64_t
    frames() const
    {
        return 1ULL << order;
    }
};

/** Buddy free-list array for one (n:m) allocator. */
class NmBuddyAllocator
{
    static constexpr unsigned kFramesPerStrip = DimmGeometry::framesPerStrip();
    static_assert(isPowerOfTwo(kFramesPerStrip),
                  "frames per strip must be a power of two");
    static_assert(isPowerOfTwo(kStripsPerBlock),
                  "strips per block must be a power of two");

  public:
    /** Orders of one strip and of one 64MB block. */
    static constexpr unsigned kStripOrder = log2Exact(kFramesPerStrip);
    static constexpr unsigned kBlockOrder =
        kStripOrder + log2Exact(kStripsPerBlock);

    /**
     * @param ratio allocator ratio
     * @param max_order largest block order this array may hold
     */
    NmBuddyAllocator(const NmRatio& ratio, unsigned max_order);

    const NmRatio& ratio() const { return policy_.ratio(); }
    const NmPolicy& policy() const { return policy_; }

    /** Hand this array a free block (e.g. a 64MB block from (1:1)). */
    void donate(const FrameBlock& block);

    /** Seed the array with an initially-free region (construction only). */
    void
    seedFree(const FrameBlock& block)
    {
        link(block);
    }

    /**
     * Allocate a block of 2^order usable frames. For requests of a strip
     * or more under a partial ratio the returned block is larger than
     * requested (size adjustment); usedFramesIn() enumerates its usable
     * frames.
     */
    std::optional<FrameBlock> allocate(unsigned order);

    /** Single page-frame fast path. */
    std::optional<std::uint64_t> allocatePage();

    /** Free a previously allocated block (same start/order pair). */
    void free(const FrameBlock& block);

    /** Pop a fully coalesced 64MB block for return to (1:1), if any. */
    std::optional<FrameBlock> reclaimBlock();

    /** Size adjustment rule for a requested order (Section 4.4). */
    unsigned adjustedOrder(unsigned requested_order) const;

    /** Usable (used-strip) frames within a block, in ascending order. */
    std::vector<std::uint64_t> usedFramesIn(const FrameBlock& block) const;

    /** Count of usable frames within a block. */
    std::uint64_t usablePages(const FrameBlock& block) const;

    /** Free frames currently linked (excluding parked no-use strips). */
    std::uint64_t freeFrames() const;
    /** Number of parked no-use strips. */
    std::size_t parkedStrips() const { return parkedNoUse_.size(); }

  private:
    bool stripUsedByFrame(std::uint64_t frame) const;
    /** True if the block overlaps at least one used strip. */
    bool hasUsablePages(const FrameBlock& block) const;
    /** True if the block lies entirely in no-use strips. */
    bool fullyNoUse(const FrameBlock& block) const;
    void link(const FrameBlock& block);

    NmPolicy policy_;
    /** Free block starts, one list per order, each sorted ascending: an
     *  allocation takes the front, the lowest start. */
    std::vector<std::vector<std::uint64_t>> freeLists_;
    /** Parked no-use strips' starts, sorted ascending. */
    std::vector<std::uint64_t> parkedNoUse_;
    /** Outstanding allocations (start -> order): double-free detection. */
    FlatMap<std::uint64_t> live_;
};

/**
 * The system-wide page allocator: the (1:1) base array plus on-demand
 * per-ratio arrays fed with 64MB blocks.
 */
class PageAllocatorSystem
{
  public:
    explicit PageAllocatorSystem(const DimmGeometry& geometry);

    /** Allocate one page frame under the given ratio. */
    std::optional<std::uint64_t> allocatePage(const NmRatio& ratio);

    /** Allocate 2^order usable frames under the given ratio. */
    std::optional<FrameBlock> allocate(const NmRatio& ratio,
                                       unsigned order);

    /** Free a block back to its ratio's array. */
    void free(const NmRatio& ratio, const FrameBlock& block);

    /** The per-ratio allocator (created on demand); every full ratio
     *  (n == m) gets the (1:1) array. */
    NmBuddyAllocator& allocatorFor(const NmRatio& ratio);

    /** Usable frames of a block under its ratio. */
    std::vector<std::uint64_t> usedFramesIn(const NmRatio& ratio,
                                            const FrameBlock& block);

  private:
    std::map<NmRatio, std::unique_ptr<NmBuddyAllocator>> arrays_;
};

} // namespace sdpcm

#endif // SDPCM_OS_BUDDY_HH
