/**
 * @file
 * The per-line store of a run: a flat hash table from a line's physical
 * address (`AddressMap::encode`, inverted by `decode`) to an entry of
 * type T. The device keeps its line states in one, the WD ledger its
 * pending flips and blame, the integrity oracle its shadow lines, so
 * what identifies a line is decided once, by the address map.
 */

#ifndef SDPCM_PCM_LINE_TABLE_HH
#define SDPCM_PCM_LINE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "pcm/address.hh"

namespace sdpcm {

/**
 * A flat hash table from a 64-bit line key to an entry of type T.
 * Entries are never erased.
 *
 * Pointer-stability rule: entries live in fixed-capacity chunks that are
 * never moved or freed before the table is, so a pointer or reference to
 * an entry stays valid for the table's whole lifetime, however many
 * entries are inserted after it.
 *
 * Lookups go through one open-addressing index of {key, entry*} slots
 * with linear probing. A probe compares the key held in the slot, so it
 * reads one cache line and no entry. The index starts small and doubles
 * before its load passes 3/4.
 */
template <typename T>
class LineTable
{
  public:
    /** The entry for `key`, or null when there is none. */
    const T*
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Slot& slot = slots_[i];
            if (!slot.entry || slot.key == key)
                return slot.entry;
        }
    }

    T*
    find(std::uint64_t key)
    {
        return const_cast<T*>(std::as_const(*this).find(key));
    }

    /** Add a default-constructed entry for `key`, which must be absent. */
    T&
    insert(std::uint64_t key)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        if (size_ % kChunkEntries == 0)
            chunks_.push_back(std::make_unique<T[]>(kChunkEntries));
        T* entry = &chunks_.back()[size_ % kChunkEntries];
        place(key, entry);
        size_ += 1;
        return *entry;
    }

    /** The entry for `key`, inserted default-constructed if absent. */
    T&
    operator[](std::uint64_t key)
    {
        if (T* entry = find(key))
            return *entry;
        return insert(key);
    }

    std::size_t size() const { return size_; }

    /** Call fn(key, entry) for every entry, in no particular order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const Slot& slot : slots_) {
            if (slot.entry)
                fn(slot.key, static_cast<const T&>(*slot.entry));
        }
    }

    /** Every entry with its line, keys decoded by `map`, in (bank, row,
     *  line) order. */
    std::vector<std::pair<LineAddr, const T*>>
    sorted(const AddressMap& map) const
    {
        std::vector<std::pair<LineAddr, const T*>> lines;
        lines.reserve(size_);
        forEach([&](std::uint64_t key, const T& entry) {
            lines.emplace_back(map.decode(key), &entry);
        });
        std::sort(lines.begin(), lines.end(),
                  [](const auto& a, const auto& b) {
                      return a.first < b.first;
                  });
        return lines;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        T* entry = nullptr; //!< null marks an empty slot
    };

    static constexpr std::size_t kChunkEntries = 512;
    static constexpr std::size_t kMinSlots = 64;

    /**
     * Fibonacci hashing: the top bits of key * 2^64/phi depend on every
     * key bit, so keys differing only in their low bits still spread
     * over the whole index.
     */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

    void
    place(std::uint64_t key, T* entry)
    {
        std::size_t i = home(key);
        for (; slots_[i].entry; i = (i + 1) & mask_)
            SDPCM_ASSERT(slots_[i].key != key, "line key inserted twice");
        slots_[i] = Slot{key, entry};
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t n = old.empty() ? kMinSlots : 2 * old.size();
        slots_.assign(n, Slot{});
        mask_ = n - 1;
        shift_ = 64 - log2Exact(n);
        for (const Slot& slot : old) {
            if (slot.entry)
                place(slot.key, slot.entry);
        }
    }

    std::vector<Slot> slots_;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace sdpcm

#endif // SDPCM_PCM_LINE_TABLE_HH
