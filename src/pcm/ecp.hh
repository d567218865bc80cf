/**
 * @file
 * Error-Correcting Pointers (ECP, Schechter et al. ISCA'10) metadata for
 * one 64B line.
 *
 * Each line owns N pointer entries; an entry names one of the 512 cells
 * (9-bit address) and stores its correct value (1 bit). ECP was designed
 * for hard (stuck-at) failures; SD-PCM's LazyCorrection additionally parks
 * write-disturbance errors in the *unused* entries. Hard errors claim
 * entries permanently and with priority; WD entries are released whenever
 * the line is rewritten or corrected.
 *
 * The ECP region lives on a separate low-density (8F^2) chip, so updating
 * it can never itself trigger disturbance (Figure 7).
 *
 * A line's table is a fixed array of packed 16-bit entries, so it sits
 * inline in the device's per-line record and never allocates.
 */

#ifndef SDPCM_PCM_ECP_HH
#define SDPCM_PCM_ECP_HH

#include <array>
#include <cstdint>
#include <span>

#include "common/logging.hh"
#include "pcm/line.hh"

namespace sdpcm {

/** Bits written into the ECP chip per recorded entry (9 addr + 1 value). */
inline constexpr unsigned kEcpBitsPerEntry = 10;

/** Most ECP entries a line can hold: every line keeps this many slots
 *  inline. The benches sweep 0-10 and the fuzzer draws from 0-10. */
inline constexpr unsigned kMaxEcpEntries = 10;

/** One ECP pointer entry, packed into 16 bits. */
class EcpEntry
{
  public:
    EcpEntry() = default;

    /** A WD entry: the cell's correct value is '0'. */
    static EcpEntry
    wd(unsigned cell)
    {
        return EcpEntry(cell);
    }

    /** A hard entry for a cell stuck at `stuck`, which starts out as its
     *  correct value: the cell reads back right until a write wants the
     *  other one. */
    static EcpEntry
    hardAt(unsigned cell, bool stuck)
    {
        return EcpEntry(cell | kHard | (stuck ? kValue | kStuck : 0));
    }

    unsigned cell() const { return bits_ & kCellMask; }
    /** Correct (physical) value of the cell. */
    bool value() const { return bits_ & kValue; }
    /** Entry pinned by a stuck-at failure. */
    bool hard() const { return bits_ & kHard; }
    /** The value a hard entry's cell is stuck at. */
    bool stuck() const { return bits_ & kStuck; }

    void
    setValue(bool value)
    {
        bits_ = static_cast<std::uint16_t>(value ? bits_ | kValue
                                                 : bits_ & ~kValue);
    }

  private:
    static constexpr unsigned kCellMask = kLineBits - 1;
    static constexpr unsigned kValue = 1u << 9;
    static constexpr unsigned kHard = 1u << 10;
    static constexpr unsigned kStuck = 1u << 11;

    explicit EcpEntry(unsigned bits)
        : bits_(static_cast<std::uint16_t>(bits))
    {}

    std::uint16_t bits_ = 0;
};

/** Per-line ECP table: up to kMaxEcpEntries entries, held inline. */
class EcpLine
{
  public:
    /** Total capacity N (ECP-N); 0 disables ECP. */
    explicit EcpLine(unsigned capacity = 0)
        : capacity_(static_cast<std::uint8_t>(capacity))
    {
        SDPCM_ASSERT(capacity <= kMaxEcpEntries, "ECP-", capacity,
                     " exceeds the inline slots");
    }

    unsigned capacity() const { return capacity_; }
    unsigned size() const { return size_; }

    unsigned
    hardCount() const
    {
        unsigned n = 0;
        for (const EcpEntry& e : entries())
            n += e.hard() ? 1 : 0;
        return n;
    }

    unsigned wdCount() const { return size_ - hardCount(); }
    unsigned freeEntries() const { return capacity_ - size_; }

    /** The live entries, in slot order. */
    std::span<const EcpEntry>
    entries() const
    {
        return {slots_.data(), size_};
    }

    /**
     * Overlay the recorded correct values onto raw physical data
     * (performed by the read datapath, in parallel with the data access).
     */
    void
    apply(LineData& data) const
    {
        for (const EcpEntry& e : entries())
            data.setBit(e.cell(), e.value());
    }

    /**
     * Record one disturbed cell (correct physical value is always '0':
     * disturbance partially SETs an amorphous cell).
     *
     * @return false if no free entry remains (caller must fall back to a
     *         correction write).
     */
    bool
    recordWd(unsigned cell)
    {
        for (const EcpEntry& e : entries()) {
            if (e.cell() == cell) {
                // Already covered (hard or previously recorded WD).
                return true;
            }
        }
        if (size_ >= capacity_)
            return false;
        slots_[size_++] = EcpEntry::wd(cell);
        return true;
    }

    /**
     * Pin an entry for a cell stuck at `stuck`. Evicts one WD entry if
     * the table is full (hard errors have allocation priority).
     *
     * @return false if the table is saturated with hard entries
     *         (unrecoverable line; callers treat it as ECP exhaustion).
     */
    bool
    recordHard(unsigned cell, bool stuck)
    {
        const EcpEntry entry = EcpEntry::hardAt(cell, stuck);
        for (EcpEntry& e : live()) {
            if (e.cell() == cell) {
                e = entry;
                return true;
            }
        }
        if (size_ >= capacity_) {
            for (EcpEntry& e : live()) {
                if (!e.hard()) {
                    e = entry;
                    return true;
                }
            }
            return false;
        }
        slots_[size_++] = entry;
        return true;
    }

    /** Refresh every hard entry's correct value from the content a line
     *  write intended (its stuck cells cannot hold it). */
    void
    updateHardValues(const LineData& intended)
    {
        for (EcpEntry& e : live()) {
            if (e.hard())
                e.setValue(intended.getBit(e.cell()));
        }
    }

    /**
     * Release all WD entries (the line was rewritten or corrected). The
     * hard entries keep their order.
     * @return number of entries released.
     */
    unsigned
    clearWd()
    {
        unsigned keep = 0;
        for (const EcpEntry& e : entries()) {
            if (e.hard())
                slots_[keep++] = e;
        }
        const unsigned released = size_ - keep;
        size_ = static_cast<std::uint8_t>(keep);
        return released;
    }

  private:
    std::span<EcpEntry>
    live()
    {
        return {slots_.data(), size_};
    }

    std::array<EcpEntry, kMaxEcpEntries> slots_{};
    std::uint8_t size_ = 0;
    std::uint8_t capacity_;
};

} // namespace sdpcm

#endif // SDPCM_PCM_ECP_HH
