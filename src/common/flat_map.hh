/**
 * @file
 * A flat hash map from a 64-bit key to a 64-bit value: an MMU's page
 * table (virtual page -> frame) and a buddy array's live blocks (start
 * frame -> order).
 *
 * Node containers pay an allocation per insertion and a pointer chase
 * per lookup. A FlatMap keeps {key, value} pairs in one vector with
 * open addressing: a Fibonacci hash of the key picks the home slot and
 * linear probing walks on from there. Erasing shifts the entries behind
 * the hole back, so no tombstone ever lengthens a probe. The vector is
 * allocated at the first insertion and doubles before its load passes
 * 3/4, as LineTable's index does. LineTable (pcm/line_table.hh) fits
 * neither user: its keys are 32-bit, it never erases, and it keeps its
 * entries in pointer-stable chunks, while a replayed trace's pages can
 * exceed 32 bits.
 */

#ifndef SDPCM_COMMON_FLAT_MAP_HH
#define SDPCM_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sdpcm {

/**
 * An open-addressing u64 -> u64 hash map. Every key but kNoKey may be
 * stored. A reference or pointer to a value stays valid only until the
 * next insertion or erasure.
 */
class FlatMap
{
  public:
    /** The one key that names no entry (it marks an empty slot). */
    static constexpr std::uint64_t kNoKey = ~0ULL;

    /** The value stored under `key`, or null when there is none. */
    const std::uint64_t*
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot& s = slots_[probe(key)];
        return s.key == key ? &s.value : nullptr;
    }

    /** findOrInsert's result: the key's value, and whether this call
     *  inserted it as 0. */
    struct Found
    {
        std::uint64_t& value;
        bool inserted;
    };

    /**
     * The value under `key`, inserted as 0 if absent. One probe either
     * finds the key or ends at the empty slot it claims; only a
     * doubling probes again.
     */
    Found
    findOrInsert(std::uint64_t key)
    {
        if (!slots_.empty()) {
            const std::size_t i = probe(key);
            if (slots_[i].key == key)
                return {slots_[i].value, false};
            if (!full())
                return {claim(i, key), true};
        }
        grow();
        return {claim(probe(key), key), true};
    }

    /** Remove `key`; false when it was not stored. */
    bool
    erase(std::uint64_t key)
    {
        if (slots_.empty())
            return false;
        std::size_t hole = probe(key);
        if (slots_[hole].key != key)
            return false;
        // Backward shift: an entry whose probe path crosses the hole
        // moves into it, which leaves a new hole behind, until the run
        // of occupied slots ends.
        for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kNoKey;
             j = (j + 1) & mask_) {
            const std::size_t home_to_j = (j - home(slots_[j].key)) & mask_;
            if (((j - hole) & mask_) <= home_to_j) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        size_ -= 1;
        return true;
    }

    std::size_t size() const { return size_; }

    /** Remove every entry (the storage is kept). */
    void
    clear()
    {
        slots_.assign(slots_.size(), Slot{});
        size_ = 0;
    }

    /** Call fn(key, value) for every entry, in no particular order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const Slot& slot : slots_) {
            if (slot.key != kNoKey)
                fn(slot.key, slot.value);
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = kNoKey;
        std::uint64_t value = 0;
    };

    static constexpr std::size_t kMinSlots = 64;

    /** Fibonacci hashing: the top bits of key * 2^64/phi depend on every
     *  bit of the key, so consecutive pages spread over the table. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

    /** The slot holding `key`, or the empty slot its probe ends at. */
    std::size_t
    probe(std::uint64_t key) const
    {
        SDPCM_ASSERT(key != kNoKey, "FlatMap::kNoKey names no entry");
        std::size_t i = home(key);
        while (slots_[i].key != key && slots_[i].key != kNoKey)
            i = (i + 1) & mask_;
        return i;
    }

    /** True when one more entry would pass the 3/4 load. */
    bool
    full() const
    {
        return (size_ + 1) * 4 > (mask_ + 1) * 3;
    }

    std::uint64_t&
    claim(std::size_t i, std::uint64_t key)
    {
        slots_[i] = Slot{key, 0};
        size_ += 1;
        return slots_[i].value;
    }

    void
    grow()
    {
        const std::vector<Slot> old = std::move(slots_);
        const std::size_t n = old.empty() ? kMinSlots : 2 * old.size();
        slots_.assign(n, Slot{});
        mask_ = n - 1;
        shift_ = 64 - log2Exact(n);
        for (const Slot& slot : old) {
            if (slot.key != kNoKey)
                slots_[probe(slot.key)] = slot;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace sdpcm

#endif // SDPCM_COMMON_FLAT_MAP_HH
