#include "os/page_table.hh"

#include "common/logging.hh"

namespace sdpcm {

Tlb::Tlb(unsigned entries)
    : capacity_(entries)
{
    SDPCM_ASSERT(entries > 0 && entries <= kMaxTlbEntries,
                 "a TLB holds 1 to ", kMaxTlbEntries, " entries, not ",
                 entries);
}

unsigned
Tlb::slotOf(std::uint64_t vpage) const
{
    unsigned i = 0;
    while (i < size_ && vpages_[i] != vpage)
        ++i;
    return i;
}

void
Tlb::touch(unsigned i)
{
    stamps_[i] = ++clock_;
    mru_ = i;
}

std::optional<std::uint64_t>
Tlb::lookup(std::uint64_t vpage)
{
    // The entry used last is already the most recent: a hit on it
    // changes no stamp.
    if (size_ > 0 && vpages_[mru_] == vpage) {
        hits_ += 1;
        return frames_[mru_];
    }
    const unsigned i = slotOf(vpage);
    if (i == size_) {
        misses_ += 1;
        return std::nullopt;
    }
    hits_ += 1;
    touch(i);
    return frames_[i];
}

void
Tlb::insert(std::uint64_t vpage, std::uint64_t frame)
{
    unsigned i = slotOf(vpage);
    if (i == size_) {
        if (size_ < capacity_) {
            size_ += 1;
        } else {
            // Evict the least recently used entry: the smallest stamp.
            i = 0;
            for (unsigned j = 1; j < size_; ++j) {
                if (stamps_[j] < stamps_[i])
                    i = j;
            }
        }
        vpages_[i] = vpage;
    }
    frames_[i] = frame;
    touch(i);
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

    auto [frame, inserted] = table_.findOrInsert(vpage);
    if (inserted) {
        auto allocated = allocator_.allocatePage(tag_);
        if (!allocated) {
            SDPCM_FATAL("out of physical memory under allocator ",
                        tag_.toString());
        }
        frame = *allocated;
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
    table_.forEach([&](std::uint64_t, std::uint64_t frame) {
        allocator_.free(tag_, FrameBlock{frame, 0});
    });
    table_.clear();
}

} // namespace sdpcm
