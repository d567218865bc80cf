/**
 * @file
 * Per-process address translation with the (n:m) allocator tag.
 *
 * Section 4.4: the page table gains an allocator-tag field which is loaded
 * into the TLB on a fill and travels with every memory request to the
 * memory controller, which uses it to decide which adjacent lines of a
 * write need verification. Each core runs one process in its own virtual
 * address space (the paper's multi-programmed setup), so the MMU here
 * bundles a private page table, a small LRU TLB, and demand paging from
 * the WD-aware page allocator.
 */

#ifndef SDPCM_OS_PAGE_TABLE_HH
#define SDPCM_OS_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <optional>

#include "common/flat_map.hh"
#include "os/buddy.hh"
#include "os/nm_policy.hh"
#include "pcm/address.hh"

namespace sdpcm {

/** Result of one address translation. */
struct Translation
{
    PhysAddr paddr = 0;
    NmRatio tag;
    bool tlbHit = false;
    bool pageFault = false; //!< first touch: a frame was allocated
};

/** The most entries a Tlb holds (an Mmu's has this many). */
constexpr unsigned kMaxTlbEntries = 64;

/**
 * Small fully-associative LRU TLB in fixed arrays: it never allocates.
 * Each entry carries the stamp of its last use, so the least recently
 * used entry is the one with the smallest stamp, and the entry used
 * last is checked before the others.
 */
class Tlb
{
  public:
    explicit Tlb(unsigned entries = kMaxTlbEntries);

    /** Look up a virtual page; returns the frame on a hit. */
    std::optional<std::uint64_t> lookup(std::uint64_t vpage);

    /** Install a translation (evicts LRU if full). */
    void insert(std::uint64_t vpage, std::uint64_t frame);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /** The slot holding `vpage`, or size_ when none does. */
    unsigned slotOf(std::uint64_t vpage) const;
    /** Make slot `i` the most recently used. */
    void touch(unsigned i);

    unsigned capacity_;
    unsigned size_ = 0;      //!< slots [0, size_) hold entries
    unsigned mru_ = 0;       //!< slot used last (when size_ > 0)
    std::uint64_t clock_ = 0; //!< stamp of the latest use
    std::array<std::uint64_t, kMaxTlbEntries> vpages_{};
    std::array<std::uint64_t, kMaxTlbEntries> frames_{};
    std::array<std::uint64_t, kMaxTlbEntries> stamps_{};
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * One process's view of memory: page table + TLB + demand allocation
 * under a fixed (n:m) allocator tag (the paper assumes one allocator per
 * application for simplicity).
 */
class Mmu
{
  public:
    Mmu(PageAllocatorSystem& allocator, const NmRatio& tag);

    const NmRatio& tag() const { return tag_; }

    /** Translate a virtual byte address, allocating on first touch. */
    Translation translate(std::uint64_t vaddr);

    /** Release every frame the process owns (process exit). */
    void releaseAll();

    std::uint64_t pageFaults() const { return pageFaults_; }
    std::uint64_t mappedPages() const { return table_.size(); }
    const Tlb& tlb() const { return tlb_; }

  private:
    PageAllocatorSystem& allocator_;
    NmRatio tag_;
    Tlb tlb_;
    FlatMap<std::uint64_t> table_; //!< virtual page -> frame
    std::uint64_t pageFaults_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_OS_PAGE_TABLE_HH
