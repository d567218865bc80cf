/**
 * @file
 * A hashed per-line store: entries of type T in a Column
 * (common/column.hh), found through a FlatMap (common/flat_map.hh) from
 * a line's index (`AddressMap::lineIndex`, inverted by `lineAt`) to the
 * entry's number. The WD ledger keeps its pending flips and blame in
 * one, the integrity oracle its shadow lines and the device its
 * saturated lines' stuck-cell overflow, so what identifies a line is
 * decided once, by the address map. The device finds its line records
 * through its row table instead (pcm/row_table.hh).
 */

#ifndef SDPCM_PCM_LINE_TABLE_HH
#define SDPCM_PCM_LINE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/column.hh"
#include "common/flat_map.hh"
#include "pcm/address.hh"

namespace sdpcm {

/**
 * A flat hash table from a 32-bit line index to an entry of type T.
 * Entries are never erased, and keep their address for the table's
 * whole lifetime (the Column's pointer-stability rule).
 *
 * Lookups go through a FlatMap index of 8-byte {line index, entry index}
 * slots. A probe compares the index held in the slot, so it reads no
 * entry; the n-th line inserted gets entry n.
 */
template <typename T>
class LineTable
{
  public:
    /** The entry for `line`, or null when there is none. */
    const T*
    find(LineIndex line) const
    {
        const std::uint32_t* e = index_.find(line);
        return e ? &entries_[*e] : nullptr;
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

    /** The entry for `line`, inserted default-constructed if absent, in
     *  one index probe (two when the index doubles). */
    Found
    findOrInsert(LineIndex line)
    {
        auto [e, inserted] = index_.findOrInsert(line);
        if (inserted)
            e = entries_.push();
        return {entries_[e], inserted};
    }

    /** The entry for `line`, inserted default-constructed if absent. */
    T&
    operator[](LineIndex line)
    {
        return findOrInsert(line).entry;
    }

    std::size_t size() const { return index_.size(); }

    /** Call fn(line index, entry) for every entry, in no particular
     *  order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        index_.forEach(
            [&](LineIndex line, std::uint32_t e) { fn(line, entries_[e]); });
    }

    /** Every entry with its line, indices decoded by `map`, in (bank,
     *  row, line) order. */
    std::vector<std::pair<LineAddr, const T*>>
    sorted(const AddressMap& map) const
    {
        std::vector<std::pair<LineAddr, const T*>> lines;
        lines.reserve(size());
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
    using Index = FlatMap<LineIndex, std::uint32_t>;
    static_assert(Index::slotBytes() == 8, "an index slot is 8 bytes");
    static_assert(Index::kNoKey == kNoLine, "kNoLine names no line");

    Index index_;
    Column<T> entries_;
};

} // namespace sdpcm

#endif // SDPCM_PCM_LINE_TABLE_HH
