/**
 * @file
 * The device's line index: one slot per device row (a page frame, line
 * index / 64), found by direct indexing, holding the row's touched mask,
 * its recorded mask and the place of its record list. Looking a line up
 * reads its row's slot, and, for a line with a record, one word of the
 * row's list; nothing is hashed.
 *
 * The OS layer hands out frames compactly, so the rows a run touches
 * are nearly dense (write-mcf touches 30,482 frames, all below 31,344;
 * read-bwaves 29,933, all below 38,698). Slots therefore sit in small
 * leaves of consecutive rows behind a directory of leaf pointers that
 * grows only up to the highest row touched, and a run that touches rows
 * all over the DIMM pays one small leaf per row.
 */

#ifndef SDPCM_PCM_ROW_TABLE_HH
#define SDPCM_PCM_ROW_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/column.hh"
#include "pcm/address.hh"

namespace sdpcm {

/**
 * Which lines a device touched and which of them hold a record, with
 * each record's entry number (the n-th line recorded gets entry n; the
 * records themselves live in the caller's Columns, so they keep their
 * address however the lists move).
 *
 * A row's list holds its records' entry numbers in rank order, a line's
 * rank being the number of recorded lines below it in the row. Its
 * capacity is the next power of two of its length; a full list moves to
 * a block twice its size, and a free list per size hands the old block
 * to the next list that needs one. Leaves and list blocks are cut from
 * fixed-size slabs, so neither a lookup nor a new line allocates, only
 * a new slab or a longer directory does. Nothing is allocated before the
 * first touch.
 */
class RowTable
{
  public:
    /** The entry number of a line without a record. */
    static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};

    /** Rows per leaf: a run's one-off rows cost a leaf each. */
    static constexpr std::uint32_t kLeafRows = 16;
    /** Rows per leaf slab (48 KB), and words per list slab (16 KB). */
    static constexpr std::uint32_t kSlabRows = 2048;
    static constexpr std::uint32_t kSlabWords = 4096;

    /** touch's result: whether this call touched the line first, and
     *  its entry number (kNoEntry without a record). */
    struct Touch
    {
        bool first;
        std::uint32_t entry;
    };

    /** Mark the line touched. */
    Touch
    touch(LineIndex line)
    {
        Row& r = row(line / kRowLines);
        const std::uint64_t bit = 1ULL << (line % kRowLines);
        if (r.touched & bit)
            return {false, entryOf(r, bit)};
        r.touched |= bit;
        touchedLines_ += 1;
        return {true, kNoEntry};
    }

    /** record's result: the line's entry number, whether this call
     *  recorded it, and whether it also touched it first. */
    struct Recorded
    {
        std::uint32_t entry;
        bool inserted;
        bool firstTouch;
    };

    /** The line's entry number, recording the line (and touching it)
     *  under the next number if it has none. */
    Recorded
    record(LineIndex line)
    {
        Row& r = row(line / kRowLines);
        const std::uint64_t bit = 1ULL << (line % kRowLines);
        if (r.recorded & bit)
            return {entryOf(r, bit), false, false};
        const bool first = !(r.touched & bit);
        r.touched |= bit;
        touchedLines_ += first;
        insert(r, bit, recordedLines_);
        return {recordedLines_++, true, first};
    }

    std::size_t touchedLines() const { return touchedLines_; }
    std::size_t recordedLines() const { return recordedLines_; }

    /** Bytes held: the directory, the leaf slabs and the list slabs. */
    std::size_t
    bytes() const
    {
        return dir_.capacity() * sizeof(Row*) + rows_.chunkBytes() +
            lists_.chunkBytes();
    }

    /** Call fn(address, entry number or kNoEntry) for every touched
     *  line, in (bank, row, line) order: `map`'s frames interleave the
     *  banks, so each bank's rows are every banks()-th frame. */
    template <typename Fn>
    void
    forEach(const AddressMap& map, Fn&& fn) const
    {
        const std::uint64_t frames = std::uint64_t{dir_.size()} * kLeafRows;
        const unsigned banks = map.geometry().banks();
        for (unsigned bank = 0; bank < banks; ++bank) {
            for (std::uint64_t f = bank; f < frames; f += banks) {
                const Row* leaf = dir_[f / kLeafRows];
                if (leaf)
                    walkRow(map, f, leaf[f % kLeafRows], fn);
            }
        }
    }

  private:
    static constexpr unsigned kRowLines = DimmGeometry::linesPerRow();
    static_assert(kRowLines == 64, "a row's masks are one word each");

    /** One device row's slot. */
    struct Row
    {
        std::uint64_t touched = 0;  //!< lines touched
        std::uint64_t recorded = 0; //!< lines holding a record
        std::uint32_t list = 0;     //!< first word of its record list
    };

    static_assert(kSlabRows % kLeafRows == 0, "a leaf fits in one slab");
    static_assert(sizeof(Row) == 24, "a row's slot is 24 bytes");

    /** List sizes: 1, 2, 4, ..., 64 entries. */
    static constexpr unsigned kListSizes = std::bit_width(kRowLines);

    /** Call fn(address, entry number or kNoEntry) for every touched
     *  line of `r`, the slot of `frame`, in line order. */
    template <typename Fn>
    void
    walkRow(const AddressMap& map, std::uint64_t frame, const Row& r,
            Fn& fn) const
    {
        if (r.touched == 0)
            return;
        const LineAddr start =
            map.lineAt(static_cast<LineIndex>(frame * kRowLines));
        std::uint32_t rank = 0;
        for (std::uint64_t m = r.touched; m; m &= m - 1) {
            const auto line = static_cast<unsigned>(std::countr_zero(m));
            const bool recorded = (r.recorded >> line) & 1;
            fn(LineAddr{start.bank, start.row, line},
               recorded ? lists_[r.list + rank++] : kNoEntry);
        }
    }

    /** The slot of `frame`, its leaf created on first use. */
    Row&
    row(std::uint32_t frame)
    {
        const std::uint32_t d = frame / kLeafRows;
        if (d >= dir_.size())
            dir_.resize(d + 1);
        if (!dir_[d])
            dir_[d] = &rows_[rows_.push(kLeafRows)];
        return dir_[d][frame % kLeafRows];
    }

    /** The entry number of the line `bit` marks in `r`, or kNoEntry. */
    std::uint32_t
    entryOf(const Row& r, std::uint64_t bit) const
    {
        if (!(r.recorded & bit))
            return kNoEntry;
        return lists_[r.list + popcount64(r.recorded & (bit - 1))];
    }

    /** Put entry `e` into `r`'s list at the rank of the line `bit`
     *  marks, and mark it recorded. */
    void
    insert(Row& r, std::uint64_t bit, std::uint32_t e)
    {
        const auto n = static_cast<unsigned>(popcount64(r.recorded));
        const auto k =
            static_cast<unsigned>(popcount64(r.recorded & (bit - 1)));
        if (n == 0) {
            r.list = allocate(0);
        } else if (isPowerOfTwo(n)) {
            // Full: move to a block twice the size, opening the gap.
            const std::uint32_t old = r.list;
            const unsigned size = log2Exact(n);
            r.list = allocate(size + 1);
            const std::uint32_t* from = &lists_[old];
            std::uint32_t* to = &lists_[r.list];
            std::copy(from, from + k, to);
            std::copy(from + k, from + n, to + k + 1);
            release(old, size);
        } else {
            std::uint32_t* list = &lists_[r.list];
            std::copy_backward(list + k, list + n, list + n + 1);
        }
        lists_[r.list + k] = e;
        r.recorded |= bit;
    }

    /** A block of 2^size words: a freed one, or the next in the list
     *  slabs (a block never crosses into the next slab). */
    std::uint32_t
    allocate(unsigned size)
    {
        if (const std::uint32_t head = free_[size]) {
            free_[size] = lists_[head - 1];
            return head - 1;
        }
        const std::uint32_t words = 1u << size;
        const std::uint32_t used = lists_.size() % kSlabWords;
        if (used != 0 && used + words > kSlabWords)
            lists_.push(kSlabWords - used);
        return lists_.push(words);
    }

    /** Hand the block of 2^size words at `block` to its free list,
     *  whose link its first word holds. */
    void
    release(std::uint32_t block, unsigned size)
    {
        lists_[block] = free_[size];
        free_[size] = block + 1;
    }

    /** The leaf of every kLeafRows rows up to the highest row touched;
     *  null for a leaf never touched. */
    std::vector<Row*> dir_;
    // Slabs at their types' own alignment: a cache-line start buys a
    // 24-byte slot or a list word nothing.
    Column<Row, kSlabRows, alignof(Row)> rows_;
    Column<std::uint32_t, kSlabWords, alignof(std::uint32_t)> lists_;
    /** Per list size, the first free block + 1 (0: none). */
    std::array<std::uint32_t, kListSizes> free_{};
    std::size_t touchedLines_ = 0;
    std::uint32_t recordedLines_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_PCM_ROW_TABLE_HH
