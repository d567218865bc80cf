/**
 * @file
 * The one open-addressing hash table of the simulator: an MMU's page
 * table (virtual page -> frame), a buddy array's live blocks (start
 * frame -> order) and the index of every LineTable (line index ->
 * entry index, pcm/line_table.hh).
 *
 * Node containers pay an allocation per insertion and a pointer chase
 * per lookup. A FlatMap keeps {key, value} pairs in one vector with
 * open addressing: a Fibonacci hash of the key picks the home slot and
 * linear probing walks on from there. Erasing shifts the entries behind
 * the hole back, so no tombstone ever lengthens a probe. The vector is
 * allocated at the first insertion and doubles before its load passes
 * 3/4. Slot placement follows from the sequence of insertions and
 * erasures alone, so forEach's slot order is the same on every run.
 */

#ifndef SDPCM_COMMON_FLAT_MAP_HH
#define SDPCM_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sdpcm {

/**
 * An open-addressing Key -> Value hash map, Key an unsigned integer and
 * Value trivially copyable. Every key but kNoKey may be stored. A
 * reference or pointer to a value stays valid only until the next
 * insertion or erasure.
 */
template <typename Key, typename Value = Key>
class FlatMap
{
    static_assert(std::is_unsigned_v<Key>, "a key is an unsigned integer");
    static_assert(std::is_trivially_copyable_v<Value>,
                  "a value is trivially copyable");

  public:
    /** The one key that names no entry (it marks an empty slot). */
    static constexpr Key kNoKey = ~Key{0};

    /** Bytes per slot: one key and one value. */
    static constexpr std::size_t slotBytes() { return sizeof(Slot); }

    /** The value stored under `key`, or null when there is none. */
    const Value*
    find(Key key) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot& s = slots_[probe(key)];
        return s.key == key ? &s.value : nullptr;
    }

    /** findOrInsert's result: the key's value, and whether this call
     *  inserted it value-initialised. */
    struct Found
    {
        Value& value;
        bool inserted;
    };

    /**
     * The value under `key`, inserted value-initialised if absent. One
     * probe either finds the key or ends at the empty slot it claims;
     * only a doubling probes again.
     */
    Found
    findOrInsert(Key key)
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
    erase(Key key)
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

    /** Call fn(key, value) for every entry, in slot order. */
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
        Key key = kNoKey;
        Value value{};
    };

    static constexpr std::size_t kMinSlots = 64;

    /** Fibonacci hashing: the top bits of key * 2^64/phi depend on every
     *  bit of the key (widened to 64 bits), so keys differing only in
     *  their low bits still spread over the whole table. */
    std::size_t
    home(Key key) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
            shift_);
    }

    /** The slot holding `key`, or the empty slot its probe ends at. */
    std::size_t
    probe(Key key) const
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

    Value&
    claim(std::size_t i, Key key)
    {
        slots_[i] = Slot{key, Value{}};
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
