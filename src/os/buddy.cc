#include "os/buddy.hh"

#include <algorithm>

namespace sdpcm {

namespace {

using SortedStarts = std::vector<std::uint64_t>;

/** Insert `start` in order; false when it is listed already. */
bool
insertSorted(SortedStarts& list, std::uint64_t start)
{
    const auto it = std::lower_bound(list.begin(), list.end(), start);
    if (it != list.end() && *it == start)
        return false;
    list.insert(it, start);
    return true;
}

bool
containsSorted(const SortedStarts& list, std::uint64_t start)
{
    return std::binary_search(list.begin(), list.end(), start);
}

/** Remove `start`; false when it was not listed. */
bool
eraseSorted(SortedStarts& list, std::uint64_t start)
{
    const auto it = std::lower_bound(list.begin(), list.end(), start);
    if (it == list.end() || *it != start)
        return false;
    list.erase(it);
    return true;
}

/** Remove and return the lowest start of a non-empty list. */
std::uint64_t
popLowest(SortedStarts& list)
{
    const std::uint64_t start = list.front();
    list.erase(list.begin());
    return start;
}

} // namespace

NmBuddyAllocator::NmBuddyAllocator(const NmRatio& ratio, unsigned max_order)
    : policy_(ratio),
      freeLists_(max_order + 1)
{
    SDPCM_ASSERT(max_order >= kBlockOrder,
                 "allocator must at least hold one 64MB block");
}

bool
NmBuddyAllocator::stripUsedByFrame(std::uint64_t frame) const
{
    return policy_.stripInUse(frame / kFramesPerStrip);
}

bool
NmBuddyAllocator::hasUsablePages(const FrameBlock& block) const
{
    if (policy_.ratio().isFull())
        return true;
    if (block.order < kStripOrder)
        return stripUsedByFrame(block.start);
    const std::uint64_t first = block.start / kFramesPerStrip;
    const std::uint64_t count = block.frames() / kFramesPerStrip;
    for (std::uint64_t s = first; s < first + count; ++s) {
        if (policy_.stripInUse(s))
            return true;
    }
    return false;
}

bool
NmBuddyAllocator::fullyNoUse(const FrameBlock& block) const
{
    return !hasUsablePages(block);
}

std::uint64_t
NmBuddyAllocator::usablePages(const FrameBlock& block) const
{
    if (policy_.ratio().isFull())
        return block.frames();
    if (block.order < kStripOrder)
        return stripUsedByFrame(block.start) ? block.frames() : 0;
    const std::uint64_t first = block.start / kFramesPerStrip;
    const std::uint64_t count = block.frames() / kFramesPerStrip;
    std::uint64_t used = 0;
    for (std::uint64_t s = first; s < first + count; ++s)
        used += policy_.stripInUse(s) ? 1 : 0;
    return used * kFramesPerStrip;
}

std::vector<std::uint64_t>
NmBuddyAllocator::usedFramesIn(const FrameBlock& block) const
{
    std::vector<std::uint64_t> frames;
    frames.reserve(block.frames());
    for (std::uint64_t f = block.start; f < block.start + block.frames();
         ++f) {
        if (policy_.ratio().isFull() || stripUsedByFrame(f))
            frames.push_back(f);
    }
    return frames;
}

void
NmBuddyAllocator::link(const FrameBlock& block)
{
    SDPCM_ASSERT(hasUsablePages(block),
                 "linking a fully no-use block at frame ", block.start);
    SDPCM_ASSERT(block.start % block.frames() == 0,
                 "unaligned block at frame ", block.start);
    const bool inserted = insertSorted(freeLists_[block.order], block.start);
    SDPCM_ASSERT(inserted, "double free of block at frame ", block.start);
}

void
NmBuddyAllocator::donate(const FrameBlock& block)
{
    SDPCM_ASSERT(block.order == kBlockOrder,
                 "donations must be 64MB blocks");
    link(block);
}

unsigned
NmBuddyAllocator::adjustedOrder(unsigned requested_order) const
{
    if (policy_.ratio().isFull() || requested_order < kStripOrder)
        return requested_order;
    const std::uint64_t need = 1ULL << requested_order;
    for (unsigned cand = requested_order; cand <= kBlockOrder; ++cand) {
        // Worst-case usable frames over all aligned offsets of an order-
        // `cand` block within the (64MB-periodic) strip pattern.
        const std::uint64_t block_frames = 1ULL << kBlockOrder;
        const std::uint64_t cand_frames = 1ULL << cand;
        std::uint64_t worst = ~0ULL;
        for (std::uint64_t off = 0; off < block_frames;
             off += cand_frames) {
            worst = std::min(worst,
                             usablePages(FrameBlock{off, cand}));
        }
        if (worst >= need)
            return cand;
    }
    return kBlockOrder + 1; // unsatisfiable within one 64MB block
}

std::optional<FrameBlock>
NmBuddyAllocator::allocate(unsigned order)
{
    const bool multi_strip =
        !policy_.ratio().isFull() && order >= kStripOrder;
    const unsigned effective = adjustedOrder(order);
    if (effective >= freeLists_.size())
        return std::nullopt;
    const std::uint64_t need = 1ULL << order;

    // Find the smallest block that can serve the request.
    unsigned found_order = effective;
    while (found_order < freeLists_.size() &&
           freeLists_[found_order].empty()) {
        ++found_order;
    }
    if (found_order >= freeLists_.size())
        return std::nullopt;

    FrameBlock cur{popLowest(freeLists_[found_order]), found_order};

    // Split down to the effective order, linking or parking the halves we
    // do not descend into.
    while (cur.order > effective) {
        const unsigned child = cur.order - 1;
        FrameBlock lower{cur.start, child};
        FrameBlock upper{cur.start + lower.frames(), child};

        // Pick the half to keep descending into.
        FrameBlock keep = lower;
        FrameBlock other = upper;
        if (multi_strip) {
            if (usablePages(keep) < need) {
                std::swap(keep, other);
                SDPCM_ASSERT(usablePages(keep) >= need,
                             "size adjustment failed to guarantee fit");
            }
        } else if (!hasUsablePages(keep)) {
            std::swap(keep, other);
            SDPCM_ASSERT(hasUsablePages(keep),
                         "split produced no usable half");
        }

        // Dispose of the other half: park fully-no-use regions at strip
        // granularity, link everything else.
        if (other.order >= kStripOrder && fullyNoUse(other)) {
            for (std::uint64_t f = other.start;
                 f < other.start + other.frames();
                 f += kFramesPerStrip) {
                const bool parked = insertSorted(parkedNoUse_, f);
                SDPCM_ASSERT(parked, "strip parked twice at frame ", f);
            }
        } else {
            link(other);
        }
        cur = keep;
    }

    SDPCM_ASSERT(hasUsablePages(cur), "allocated a no-use block");
    live_.findOrInsert(cur.start).value = cur.order;
    return cur;
}

std::optional<std::uint64_t>
NmBuddyAllocator::allocatePage()
{
    auto block = allocate(0);
    if (!block)
        return std::nullopt;
    return block->start;
}

void
NmBuddyAllocator::free(const FrameBlock& block)
{
    const std::uint64_t* live = live_.find(block.start);
    SDPCM_ASSERT(live && *live == block.order,
                 "double free or bad block at frame ", block.start,
                 " order ", block.order);
    live_.erase(block.start);

    // Transactionally check whether a buddy region is entirely available
    // (free-listed blocks and/or parked no-use strips), then consume it.
    auto can_absorb = [&](auto&& self, const FrameBlock& b) -> bool {
        if (containsSorted(freeLists_[b.order], b.start))
            return true;
        if (b.order == kStripOrder && containsSorted(parkedNoUse_, b.start))
            return true;
        if (b.order > kStripOrder) {
            const FrameBlock lower{b.start, b.order - 1};
            const FrameBlock upper{b.start + lower.frames(), b.order - 1};
            return self(self, lower) && self(self, upper);
        }
        return false;
    };
    auto absorb = [&](auto&& self, const FrameBlock& b) -> void {
        if (eraseSorted(freeLists_[b.order], b.start))
            return;
        if (b.order == kStripOrder && eraseSorted(parkedNoUse_, b.start))
            return;
        SDPCM_ASSERT(b.order > kStripOrder, "absorb bookkeeping error");
        const FrameBlock lower{b.start, b.order - 1};
        const FrameBlock upper{b.start + lower.frames(), b.order - 1};
        self(self, lower);
        self(self, upper);
    };

    FrameBlock cur = block;
    while (cur.order < freeLists_.size() - 1 && cur.order < kBlockOrder) {
        const std::uint64_t buddy_start =
            cur.start ^ (1ULL << cur.order);
        const FrameBlock buddy{buddy_start, cur.order};
        if (!can_absorb(can_absorb, buddy))
            break;
        absorb(absorb, buddy);
        cur.start = std::min(cur.start, buddy_start);
        cur.order += 1;
    }

    // Also merge above block order for the (1:1) array (no parking there).
    if (policy_.ratio().isFull()) {
        while (cur.order < freeLists_.size() - 1) {
            const std::uint64_t buddy_start =
                cur.start ^ (1ULL << cur.order);
            if (!eraseSorted(freeLists_[cur.order], buddy_start))
                break;
            cur.start = std::min(cur.start, buddy_start);
            cur.order += 1;
        }
    }
    link(cur);
}

std::optional<FrameBlock>
NmBuddyAllocator::reclaimBlock()
{
    if (policy_.ratio().isFull())
        return std::nullopt; // base array keeps its own blocks
    auto& list = freeLists_[kBlockOrder];
    if (list.empty())
        return std::nullopt;
    return FrameBlock{popLowest(list), kBlockOrder};
}

std::uint64_t
NmBuddyAllocator::freeFrames() const
{
    std::uint64_t total = 0;
    for (unsigned order = 0; order < freeLists_.size(); ++order) {
        for (const std::uint64_t start : freeLists_[order]) {
            total += usablePages(FrameBlock{start, order});
        }
    }
    return total;
}

PageAllocatorSystem::PageAllocatorSystem(const DimmGeometry& geometry)
{
    const std::uint64_t total_frames = geometry.pageFrames();
    SDPCM_ASSERT(isPowerOfTwo(total_frames),
                 "total frame count must be a power of two");
    const unsigned top_order = log2Exact(total_frames);

    auto base =
        std::make_unique<NmBuddyAllocator>(NmRatio{1, 1}, top_order);
    base->seedFree(FrameBlock{0, top_order}); // seed the whole memory
    arrays_[NmRatio{1, 1}] = std::move(base);
}

NmBuddyAllocator&
PageAllocatorSystem::allocatorFor(const NmRatio& ratio)
{
    // A full ratio (n == m) parks no strip: it shares the (1:1) array.
    std::unique_ptr<NmBuddyAllocator>& arr =
        arrays_[ratio.isFull() ? NmRatio{1, 1} : ratio];
    if (!arr) {
        arr = std::make_unique<NmBuddyAllocator>(
            ratio, NmBuddyAllocator::kBlockOrder);
    }
    return *arr;
}

std::optional<FrameBlock>
PageAllocatorSystem::allocate(const NmRatio& ratio, unsigned order)
{
    NmBuddyAllocator& base = allocatorFor(NmRatio{1, 1});
    if (ratio.isFull())
        return base.allocate(order);

    NmBuddyAllocator& arr = allocatorFor(ratio);
    if (auto block = arr.allocate(order))
        return block;
    // Refill with a 64MB block from the (1:1) array and retry.
    auto donation = base.allocate(NmBuddyAllocator::kBlockOrder);
    if (!donation)
        return std::nullopt;
    arr.donate(*donation);
    return arr.allocate(order);
}

std::optional<std::uint64_t>
PageAllocatorSystem::allocatePage(const NmRatio& ratio)
{
    auto block = allocate(ratio, 0);
    if (!block)
        return std::nullopt;
    return block->start;
}

void
PageAllocatorSystem::free(const NmRatio& ratio, const FrameBlock& block)
{
    allocatorFor(ratio).free(block);
}

std::vector<std::uint64_t>
PageAllocatorSystem::usedFramesIn(const NmRatio& ratio,
                                  const FrameBlock& block)
{
    return allocatorFor(ratio).usedFramesIn(block);
}

} // namespace sdpcm
