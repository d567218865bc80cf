#include "os/buddy.hh"

#include <algorithm>

#include "common/bitops.hh"

namespace sdpcm {

NmBuddyAllocator::NmBuddyAllocator(const NmRatio& ratio,
                                   unsigned frames_per_strip,
                                   std::uint64_t strips_per_block,
                                   unsigned max_order)
    : policy_(ratio, strips_per_block),
      framesPerStrip_(frames_per_strip),
      freeLists_(max_order + 1)
{
    SDPCM_ASSERT(isPowerOfTwo(frames_per_strip),
                 "frames per strip must be a power of two");
    SDPCM_ASSERT(isPowerOfTwo(strips_per_block),
                 "strips per block must be a power of two");
    stripOrder_ = log2Exact(frames_per_strip);
    blockOrder_ = stripOrder_ + log2Exact(strips_per_block);
    SDPCM_ASSERT(max_order >= blockOrder_,
                 "allocator must at least hold one 64MB block");
}

bool
NmBuddyAllocator::stripUsedByFrame(std::uint64_t frame) const
{
    return policy_.stripInUse(frame / framesPerStrip_);
}

bool
NmBuddyAllocator::hasUsablePages(const FrameBlock& block) const
{
    if (policy_.ratio().isFull())
        return true;
    if (block.order < stripOrder_)
        return stripUsedByFrame(block.start);
    const std::uint64_t first = block.start / framesPerStrip_;
    const std::uint64_t count = block.frames() / framesPerStrip_;
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
    if (block.order < stripOrder_)
        return stripUsedByFrame(block.start) ? block.frames() : 0;
    const std::uint64_t first = block.start / framesPerStrip_;
    const std::uint64_t count = block.frames() / framesPerStrip_;
    std::uint64_t used = 0;
    for (std::uint64_t s = first; s < first + count; ++s)
        used += policy_.stripInUse(s) ? 1 : 0;
    return used * framesPerStrip_;
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
    const bool inserted =
        freeLists_[block.order].insert(block.start).second;
    SDPCM_ASSERT(inserted, "double free of block at frame ", block.start);
}

void
NmBuddyAllocator::donate(const FrameBlock& block)
{
    SDPCM_ASSERT(block.order == blockOrder_,
                 "donations must be 64MB blocks");
    link(block);
}

unsigned
NmBuddyAllocator::adjustedOrder(unsigned requested_order) const
{
    if (policy_.ratio().isFull() || requested_order < stripOrder_)
        return requested_order;
    const std::uint64_t need = 1ULL << requested_order;
    for (unsigned cand = requested_order; cand <= blockOrder_; ++cand) {
        // Worst-case usable frames over all aligned offsets of an order-
        // `cand` block within the (64MB-periodic) strip pattern.
        const std::uint64_t block_frames = 1ULL << blockOrder_;
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
    return blockOrder_ + 1; // unsatisfiable within one 64MB block
}

std::optional<FrameBlock>
NmBuddyAllocator::allocate(unsigned order)
{
    const bool multi_strip =
        !policy_.ratio().isFull() && order >= stripOrder_;
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

    FrameBlock cur{*freeLists_[found_order].begin(), found_order};
    freeLists_[found_order].erase(freeLists_[found_order].begin());

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
        if (other.order >= stripOrder_ && fullyNoUse(other)) {
            for (std::uint64_t f = other.start;
                 f < other.start + other.frames();
                 f += framesPerStrip_) {
                const bool parked = parkedNoUse_.insert(f).second;
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
        if (freeLists_[b.order].count(b.start))
            return true;
        if (b.order == stripOrder_ && parkedNoUse_.count(b.start))
            return true;
        if (b.order > stripOrder_) {
            const FrameBlock lower{b.start, b.order - 1};
            const FrameBlock upper{b.start + lower.frames(), b.order - 1};
            return self(self, lower) && self(self, upper);
        }
        return false;
    };
    auto absorb = [&](auto&& self, const FrameBlock& b) -> void {
        if (freeLists_[b.order].erase(b.start))
            return;
        if (b.order == stripOrder_ && parkedNoUse_.erase(b.start))
            return;
        SDPCM_ASSERT(b.order > stripOrder_, "absorb bookkeeping error");
        const FrameBlock lower{b.start, b.order - 1};
        const FrameBlock upper{b.start + lower.frames(), b.order - 1};
        self(self, lower);
        self(self, upper);
    };

    FrameBlock cur = block;
    while (cur.order < freeLists_.size() - 1 && cur.order < blockOrder_) {
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
            if (!freeLists_[cur.order].erase(buddy_start))
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
    auto& list = freeLists_[blockOrder_];
    if (list.empty())
        return std::nullopt;
    FrameBlock block{*list.begin(), blockOrder_};
    list.erase(list.begin());
    return block;
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
    : geometry_(geometry)
{
    const unsigned frames_per_strip = geometry.framesPerStrip();
    const std::uint64_t strips_per_block = geometry.stripsPer64MB();
    blockOrder_ = log2Exact(frames_per_strip) +
                  log2Exact(strips_per_block);

    const std::uint64_t total_frames = geometry.pageFrames();
    SDPCM_ASSERT(isPowerOfTwo(total_frames),
                 "total frame count must be a power of two");
    const unsigned top_order = log2Exact(total_frames);

    auto base = std::make_unique<NmBuddyAllocator>(
        NmRatio{1, 1}, frames_per_strip, strips_per_block, top_order);
    base->seedFree(FrameBlock{0, top_order}); // seed the whole memory
    arrays_[NmRatio{1, 1}] = std::move(base);
}

NmBuddyAllocator&
PageAllocatorSystem::allocatorFor(const NmRatio& ratio)
{
    auto it = arrays_.find(ratio);
    if (it != arrays_.end())
        return *it->second;
    auto arr = std::make_unique<NmBuddyAllocator>(
        ratio, geometry_.framesPerStrip(), geometry_.stripsPer64MB(),
        blockOrder_);
    auto [ins, ok] = arrays_.emplace(ratio, std::move(arr));
    SDPCM_ASSERT(ok, "allocator array insert failed");
    return *ins->second;
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
    auto donation = base.allocate(blockOrder_);
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
