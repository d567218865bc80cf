/**
 * @file
 * A column of entries numbered in the order they were appended, kept in
 * fixed-capacity chunks that never move: the entry store behind every
 * LineTable (pcm/line_table.hh), the device's line records and counters
 * (pcm/device.hh), and the slabs its row table cuts leaves and record
 * lists from (pcm/row_table.hh).
 */

#ifndef SDPCM_COMMON_COLUMN_HH
#define SDPCM_COMMON_COLUMN_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sdpcm {

/**
 * Entries of type T, numbered 0, 1, ... as they are appended; entries
 * are never removed.
 *
 * Pointer-stability rule: entries live in chunks of kChunkEntries that
 * are never moved or freed before the column is, so a pointer or
 * reference to an entry stays valid for the column's whole lifetime,
 * however many entries are appended after it. Each chunk is allocated
 * at once with every entry default-constructed, and starts on a kAlign
 * boundary: at 64, which cache lines an entry spans does not depend on
 * where the heap places its chunk.
 */
template <typename T, std::size_t kChunkEntries = 512,
          std::size_t kAlign = 64>
class Column
{
  public:
    T&
    operator[](std::uint32_t e)
    {
        return chunks_[e / kChunkEntries]->entries[e % kChunkEntries];
    }

    const T&
    operator[](std::uint32_t e) const
    {
        return chunks_[e / kChunkEntries]->entries[e % kChunkEntries];
    }

    /** Append `n` default-constructed entries; the first one's number.
     *  They share a chunk when `n` divides kChunkEntries and the size
     *  is a multiple of `n`. */
    std::uint32_t
    push(std::uint32_t n = 1)
    {
        const std::uint32_t first = size_;
        size_ += n;
        while (chunks_.size() * kChunkEntries < size_)
            chunks_.push_back(std::make_unique<Chunk>());
        return first;
    }

    std::uint32_t size() const { return size_; }

    /** Bytes of the chunks allocated so far. */
    std::size_t chunkBytes() const { return chunks_.size() * sizeof(Chunk); }

  private:
    struct alignas(T) alignas(kAlign) Chunk
    {
        T entries[kChunkEntries];
    };

    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::uint32_t size_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_COMMON_COLUMN_HH
