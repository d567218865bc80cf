/**
 * @file
 * The per-line store of a run: a flat hash table from a line's index
 * (`AddressMap::lineIndex`, inverted by `lineAt`) to an entry of type T.
 * The device keeps its line states in one, the WD ledger its pending
 * flips and blame, the integrity oracle its shadow lines, so what
 * identifies a line is decided once, by the address map.
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
 * A flat hash table from a 32-bit line index to an entry of type T.
 * Entries are never erased.
 *
 * Pointer-stability rule: entries live in fixed-capacity chunks that are
 * never moved or freed before the table is, so a pointer or reference to
 * an entry stays valid for the table's whole lifetime, however many
 * entries are inserted after it.
 *
 * Lookups go through one open-addressing index of 8-byte {line index,
 * entry index} slots with linear probing. A probe compares the index
 * held in the slot, so it reads no entry. The index is allocated at the
 * first insertion and doubles before its load passes 3/4.
 */
template <typename T>
class LineTable
{
  public:
    /** The entry for `line`, or null when there is none. */
    const T*
    find(LineIndex line) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot& s = slots_[probe(line)];
        return s.line == line ? &entry(s.entry) : nullptr;
    }

    T*
    find(LineIndex line)
    {
        return const_cast<T*>(std::as_const(*this).find(line));
    }

    /** findOrInsert's result: the line's entry, and whether this call
     *  inserted it default-constructed. */
    struct Found
    {
        T& entry;
        bool inserted;
    };

    /**
     * The entry for `line`, inserted default-constructed if absent. One
     * probe either finds the line or ends at the empty slot it claims;
     * only an index doubling probes again.
     */
    Found
    findOrInsert(LineIndex line)
    {
        if (!slots_.empty()) {
            const std::size_t i = probe(line);
            if (slots_[i].line == line)
                return {entry(slots_[i].entry), false};
            if (!full())
                return {claim(i, line), true};
        }
        grow();
        return {claim(probe(line), line), true};
    }

    /** The entry for `line`, inserted default-constructed if absent. */
    T&
    operator[](LineIndex line)
    {
        return findOrInsert(line).entry;
    }

    std::size_t size() const { return size_; }

    /** Call fn(line index, entry) for every entry, in no particular
     *  order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const Slot& slot : slots_) {
            if (slot.line != kNoLine)
                fn(slot.line, entry(slot.entry));
        }
    }

    /** Every entry with its line, indices decoded by `map`, in (bank,
     *  row, line) order. */
    std::vector<std::pair<LineAddr, const T*>>
    sorted(const AddressMap& map) const
    {
        std::vector<std::pair<LineAddr, const T*>> lines;
        lines.reserve(size_);
        forEach([&](LineIndex line, const T& e) {
            lines.emplace_back(map.lineAt(line), &e);
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
        LineIndex line = kNoLine;  //!< kNoLine marks an empty slot
        std::uint32_t entry = 0;   //!< the entry's place in the chunks
    };
    static_assert(sizeof(Slot) == 8, "an index slot is 8 bytes");

    static constexpr std::size_t kChunkEntries = 512;
    static constexpr std::size_t kMinSlots = 64;

    T&
    entry(std::uint32_t e) const
    {
        return chunks_[e / kChunkEntries][e % kChunkEntries];
    }

    /**
     * Fibonacci hashing: the top bits of line * 2^64/phi depend on every
     * bit of the line index, so lines differing only in their low bits
     * still spread over the whole index.
     */
    std::size_t
    home(LineIndex line) const
    {
        return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

    /** The slot holding `line`, or the empty slot its probe ends at. */
    std::size_t
    probe(LineIndex line) const
    {
        SDPCM_ASSERT(line != kNoLine, "kNoLine names no line");
        std::size_t i = home(line);
        while (slots_[i].line != line && slots_[i].line != kNoLine)
            i = (i + 1) & mask_;
        return i;
    }

    /** True when one more entry would pass the 3/4 load. */
    bool
    full() const
    {
        return (size_ + 1) * 4 > (mask_ + 1) * 3;
    }

    /** Store a new default entry for `line` in the empty slot `i`. */
    T&
    claim(std::size_t i, LineIndex line)
    {
        if (size_ % kChunkEntries == 0)
            chunks_.push_back(std::make_unique<T[]>(kChunkEntries));
        const auto e = static_cast<std::uint32_t>(size_);
        slots_[i] = Slot{line, e};
        size_ += 1;
        return entry(e);
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
            if (slot.line != kNoLine)
                slots_[probe(slot.line)] = slot;
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
