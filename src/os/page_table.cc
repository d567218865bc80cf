#include "os/page_table.hh"

#include "common/logging.hh"

namespace sdpcm {

Tlb::Tlb(unsigned entries)
    : capacity_(entries)
{
    SDPCM_ASSERT(entries > 0, "TLB needs at least one entry");
}

std::optional<std::uint64_t>
Tlb::lookup(std::uint64_t vpage)
{
    auto it = map_.find(vpage);
    if (it == map_.end()) {
        misses_ += 1;
        return std::nullopt;
    }
    hits_ += 1;
    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    return it->second.frame;
}

void
Tlb::insert(std::uint64_t vpage, std::uint64_t frame)
{
    auto it = map_.find(vpage);
    if (it != map_.end()) {
        it->second.frame = frame;
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
        return;
    }
    if (map_.size() >= capacity_) {
        const std::uint64_t victim = lru_.back();
        lru_.pop_back();
        map_.erase(victim);
    }
    lru_.push_front(vpage);
    map_[vpage] = Entry{frame, lru_.begin()};
}

/** A page is one bank row. */
constexpr unsigned kPageBytes = DimmGeometry::rowBytes;

Mmu::Mmu(PageAllocatorSystem& allocator, const NmRatio& tag)
    : allocator_(allocator),
      tag_(tag)
{
    static_assert(isPowerOfTwo(kPageBytes), "page size must be 2^k");
}

Translation
Mmu::translate(std::uint64_t vaddr)
{
    Translation tr;
    tr.tag = tag_;
    const std::uint64_t vpage = vaddr / kPageBytes;
    const std::uint64_t offset = vaddr % kPageBytes;

    if (auto frame = tlb_.lookup(vpage)) {
        tr.tlbHit = true;
        tr.paddr = *frame * kPageBytes + offset;
        return tr;
    }

    auto it = table_.find(vpage);
    std::uint64_t frame;
    if (it != table_.end()) {
        frame = it->second;
    } else {
        auto allocated = allocator_.allocatePage(tag_);
        if (!allocated) {
            SDPCM_FATAL("out of physical memory under allocator ",
                        tag_.toString());
        }
        frame = *allocated;
        table_[vpage] = frame;
        pageFaults_ += 1;
        tr.pageFault = true;
    }
    tlb_.insert(vpage, frame);
    tr.paddr = frame * kPageBytes + offset;
    return tr;
}

void
Mmu::releaseAll()
{
    for (const auto& [vpage, frame] : table_)
        allocator_.free(tag_, FrameBlock{frame, 0});
    table_.clear();
}

} // namespace sdpcm
