/**
 * @file
 * Heap-allocation regression tests.
 *
 * This executable replaces the global operator new with one that counts
 * calls while a test has counting switched on, so it is built apart from
 * sdpcm_tests. Events are plain records (sim/event_queue.hh): scheduling
 * and dispatching one must not allocate, and a whole run must allocate
 * far less than once per event. A line's device state is one fixed-size
 * record (pcm/device.hh): touching or recording a line must not allocate
 * beyond the storage of the device's row table and record column,
 * reading a line nothing changed records nothing, and per-line counters
 * take storage only when they are on.
 * The TLB lives in fixed arrays and the page
 * table in a flat map (os/page_table.hh): translating mapped pages must
 * not allocate, hit or miss.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "os/page_table.hh"
#include "pcm/device.hh"
#include "sim/event_queue.hh"
#include "sim/system.hh"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;
std::uint64_t g_alignedAllocations = 0; //!< of g_allocations

/** Counts the operator new calls made during its lifetime. */
class AllocationCounter
{
  public:
    AllocationCounter()
    {
        g_allocations = 0;
        g_alignedAllocations = 0;
        g_counting = true;
    }
    ~AllocationCounter() { g_counting = false; }

    std::uint64_t count() const { return g_allocations; }
    std::uint64_t aligned() const { return g_alignedAllocations; }
};

} // namespace

namespace {

void*
countedNew(std::size_t size)
{
    if (g_counting)
        g_allocations += 1;
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// The over-aligned form (a Column's cache-line-aligned chunks: the
// device's records and counters) bypasses the plain one, so it is
// counted apart as well.
void*
countedAlignedNew(std::size_t size, std::align_val_t align)
{
    const auto a = static_cast<std::size_t>(align);
    if (g_counting) {
        g_allocations += 1;
        g_alignedAllocations += 1;
    }
    if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

// The array forms are replaced too: a sanitizer runtime supplies its
// own, which would not reach the counting ones above.
void* operator new(std::size_t size) { return countedNew(size); }
void* operator new[](std::size_t size) { return countedNew(size); }

void*
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedNew(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedNew(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace sdpcm {
namespace {

/** A target that reschedules itself until `budget` events have been
 *  scheduled, keeping several in flight like the simulator's cores. */
class Ticker : public EventTarget
{
  public:
    Ticker(EventQueue& events, std::uint64_t budget)
        : events_(events), budget_(budget)
    {}

    /** Put `n` events in flight. */
    void
    start(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            next(i);
    }

    void
    fire(std::uint64_t arg) override
    {
        fired += 1;
        if (scheduled_ < budget_)
            next(arg * 31 + 7);
    }

    std::uint64_t fired = 0;

  private:
    void
    next(std::uint64_t arg)
    {
        events_.scheduleAfter(arg % 97, *this, arg);
        scheduled_ += 1;
    }

    EventQueue& events_;
    std::uint64_t budget_;
    std::uint64_t scheduled_ = 0;
};

TEST(Allocations, EventQueueDispatchAllocatesNothing)
{
    constexpr std::uint64_t kEvents = 10000;
    EventQueue events;
    // Warm-up: the heap's storage grows to its high-water mark.
    Ticker warm(events, kEvents);
    warm.start(64);
    events.run();
    ASSERT_EQ(warm.fired, kEvents);

    Ticker ticker(events, kEvents);
    std::uint64_t allocations = 0;
    {
        const AllocationCounter counter;
        ticker.start(64);
        events.run();
        allocations = counter.count();
    }
    EXPECT_EQ(ticker.fired, kEvents);
    EXPECT_EQ(events.processed(), 2 * kEvents);
    EXPECT_EQ(allocations, 0u);
}

TEST(Allocations, SystemRunAllocatesLessThanOncePerTenEvents)
{
    // sdpcm/bwaves, 2 cores x 2000 refs, seed 7: 8,566 events. Counted
    // inside run() only, it made 16,347 allocations (1.91 per event)
    // when every event was a heap-allocated closure, and 2,970 (0.35
    // per event) with event records. Fixed-size line records left it
    // at 2,970: this run writes no line to the device, and reading one
    // never allocated ECP state. A TLB in fixed arrays, a flat page
    // table and a flat live-block set took it to 713 (0.083 per
    // event), and sorted buddy free lists in place of their set nodes
    // to 135. What remains is the growth of the flat tables and the
    // lists, none per event.
    SystemConfig sc;
    sc.scheme = SchemeConfig::sdpcm();
    sc.cores = 2;
    sc.refsPerCore = 2000;
    sc.seed = 7;
    System sys(sc, workloadFromProfile("bwaves"));
    std::uint64_t allocations = 0;
    {
        const AllocationCounter counter;
        sys.run();
        allocations = counter.count();
    }
    const std::uint64_t events = sys.events().processed();
    EXPECT_EQ(events, 8566u);
    EXPECT_LT(10 * allocations, events)
        << allocations << " allocations for " << events << " events";
}

TEST(Allocations, WarmTranslationAllocatesNothing)
{
    // 200 mapped pages cycle through the 64-entry TLB: every page
    // misses, refills and evicts; repeating a page hits.
    DimmGeometry geometry;
    geometry.rowsPerBank = 16384;
    PageAllocatorSystem allocator(geometry);
    Mmu mmu(allocator, NmRatio{1, 2});
    constexpr std::uint64_t kPages = 200;
    constexpr std::uint64_t kPageBytes = DimmGeometry::rowBytes;
    for (std::uint64_t page = 0; page < kPages; ++page)
        mmu.translate(page * kPageBytes);
    const std::uint64_t faults = mmu.pageFaults();
    const std::uint64_t hits = mmu.tlb().hits();
    const std::uint64_t misses = mmu.tlb().misses();

    std::uint64_t allocations = 0;
    {
        const AllocationCounter counter;
        for (unsigned round = 0; round < 5; ++round) {
            for (std::uint64_t page = 0; page < kPages; ++page) {
                mmu.translate(page * kPageBytes + 64 * round);
                mmu.translate(page * kPageBytes + 64 * round + 64);
            }
        }
        allocations = counter.count();
    }
    EXPECT_EQ(mmu.pageFaults(), faults);
    EXPECT_EQ(mmu.tlb().misses() - misses, 5 * kPages);
    EXPECT_EQ(mmu.tlb().hits() - hits, 5 * kPages);
    EXPECT_EQ(allocations, 0u);
}

TEST(Allocations, FirstTouchPagesAllocateOnlyListGrowth)
{
    // sdpcm's (2:3) tag: each page fault takes the lowest free page,
    // splitting a block when none is left, which links the halves it
    // does not keep and parks the no-use strips.
    PageAllocatorSystem allocator{DimmGeometry{}};
    constexpr unsigned kPages = 25000;
    unsigned mapped = 0;
    std::uint64_t allocations = 0;
    {
        const AllocationCounter counter;
        for (unsigned i = 0; i < kPages; ++i)
            mapped += allocator.allocatePage(NmRatio{2, 3}).has_value();
        allocations = counter.count();
    }
    EXPECT_EQ(mapped, kPages);
    // Storage growth only: the (2:3) array, its free lists, its parked
    // strips and its live blocks (48 allocations; 25,810 when every
    // linked block and parked strip was a set node).
    EXPECT_LT(allocations, 64u) << allocations;
}

/** Reallocations of storage that doubles as it grows from `from` to
 *  `to` entries, counting a first allocation at `from`. */
std::uint64_t
doublings(std::size_t from, std::size_t to)
{
    return std::bit_width(to) - std::bit_width(from) + 1;
}

/** The i-th line the device tests touch: line 0 of every 8th row, so
 *  its bit-line neighbours are lines of their own. */
LineAddr
spreadLine(unsigned i)
{
    return LineAddr{i % 16, 8 * (i / 16 % 4096), i / 16 / 4096};
}

/** The device rows (bank, row) the lines spreadLine(0 .. n-1) and their
 *  bit-line neighbours lie in. */
std::size_t
spreadRows(const AddressMap& map, unsigned n)
{
    std::set<std::pair<unsigned, std::uint64_t>> rows;
    for (unsigned i = 0; i < n; ++i) {
        const LineAddr la = spreadLine(i);
        for (const std::optional<LineAddr> row :
             {std::optional<LineAddr>(la), map.upperNeighbor(la),
              map.lowerNeighbor(la)}) {
            if (row)
                rows.emplace(row->bank, row->row);
        }
    }
    return rows.size();
}

/** The lines spreadLine(0 .. n-1), and with `neighbours` their bit-line
 *  neighbours. */
std::vector<LineAddr>
spreadLines(const AddressMap& map, unsigned n, bool neighbours)
{
    std::vector<LineAddr> lines;
    for (unsigned i = 0; i < n; ++i) {
        const LineAddr la = spreadLine(i);
        lines.push_back(la);
        for (const std::optional<LineAddr> nbr :
             {map.upperNeighbor(la), map.lowerNeighbor(la)}) {
            if (neighbours && nbr)
                lines.push_back(*nbr);
        }
    }
    return lines;
}

/**
 * Allocations the device's row table makes, from empty, to touch the
 * rows of `touched` and record `records` lines: its leaf slabs, its list
 * slabs (a record's list takes under 4 words over its list's moves, and
 * a slab wastes under 64 at its end), each with its slab list's
 * doublings, and its directory's doublings.
 */
std::uint64_t
rowTableAllocations(const AddressMap& map,
                    const std::vector<LineAddr>& touched,
                    std::size_t records)
{
    std::set<std::uint64_t> leaves;
    for (const LineAddr& la : touched)
        leaves.insert(map.lineIndex(la) / 64 / RowTable::kLeafRows);
    const std::uint64_t leaf_slabs =
        ceilDiv(leaves.size(), RowTable::kSlabRows / RowTable::kLeafRows);
    const std::uint64_t list_slabs =
        ceilDiv(4 * records, RowTable::kSlabWords - 64);
    return leaf_slabs + doublings(0, leaf_slabs) + list_slabs +
        doublings(0, list_slabs) + doublings(0, *leaves.rbegin() + 1);
}

/**
 * The write-heavy device script: write a fresh line, verify its
 * bit-line neighbours against their content before the write and park
 * what the write disturbed. On the sdpcm device every write disturbs
 * its bit-line neighbours, which the scan records where a flip lands,
 * and VnC parks their errors in ECP. Its plan and scratch vectors are
 * reserved up front to their high-water marks.
 */
class FreshLineWriter
{
  public:
    explicit FreshLineWriter(PcmDevice& dev) : dev_(dev)
    {
        plan_.rounds.reserve(2 * kLineBits);
        plan_.wlHits.reserve(3 * kLineBits);
        diffs_.reserve(kLineBits);
    }

    void
    operator()(const LineAddr& la)
    {
        const AddressMap& map = dev_.addressMap();
        const std::optional<LineAddr> nbrs[] = {map.upperNeighbor(la),
                                                map.lowerNeighbor(la)};
        LineData before[2];
        for (unsigned i = 0; i < 2; ++i) {
            if (nbrs[i])
                before[i] = dev_.readLine(*nbrs[i]);
        }
        LineData data = dev_.peekLine(la);
        for (unsigned i = 0; i < 128; ++i)
            data.flipBit(static_cast<unsigned>(rng_.below(kLineBits)));
        dev_.planWriteInto(plan_, la, data);
        while (dev_.applyNextRound(plan_, round_)) {
        }
        dev_.finishWrite(plan_);
        for (unsigned i = 0; i < 2; ++i) {
            if (!nbrs[i])
                continue;
            dev_.verifyLineInto(*nbrs[i], before[i], diffs_);
            if (!diffs_.empty())
                dev_.recordWdInEcp(*nbrs[i], diffs_);
        }
    }

  private:
    PcmDevice& dev_;
    PcmDevice::WritePlan plan_;
    PcmDevice::RoundOutcome round_;
    std::vector<unsigned> diffs_;
    Rng rng_{5};
};

TEST(Allocations, FreshLinesAllocateOnlyTableStorage)
{
    DeviceConfig dc;
    dc.seed = 11;
    PcmDevice dev(dc);
    const AddressMap& map = dev.addressMap();
    FreshLineWriter touch(dev);
    // Every 8th row, so each written line's neighbours are fresh too.
    const auto line = spreadLine;

    // Warm-up: the counted lines join tables that already hold some.
    for (unsigned i = 0; i < 64; ++i)
        touch(line(i));

    constexpr unsigned kLines = 2000;
    constexpr std::size_t kChunk = 512; // Column entries per chunk
    const std::size_t lines_before = dev.recordedLines();
    const std::uint64_t parked_before = dev.stats().ecpWdRecorded;
    std::uint64_t allocations = 0;
    std::uint64_t chunks = 0;
    {
        const AllocationCounter counter;
        for (unsigned i = 64; i < 64 + kLines; ++i)
            touch(line(i));
        allocations = counter.count();
        chunks = counter.aligned();
    }
    const std::size_t lines_after = dev.recordedLines();
    ASSERT_GE(lines_after - lines_before, kLines);
    ASSERT_GT(dev.stats().ecpWdRecorded - parked_before, kLines / 2);

    // The record column's chunks are the only over-aligned allocations.
    const std::size_t chunks_before = (lines_before + kChunk - 1) / kChunk;
    const std::size_t chunks_after = (lines_after + kChunk - 1) / kChunk;
    EXPECT_EQ(chunks, chunks_after - chunks_before);
    // Everything else is table storage: the record column's chunk list
    // doubling, and the row table's slabs and directory.
    EXPECT_LE(allocations - chunks,
              doublings(chunks_before, chunks_after) +
                  rowTableAllocations(
                      map, spreadLines(map, 64 + kLines, true), lines_after))
        << allocations << " allocations for "
        << lines_after - lines_before << " fresh lines";
}

TEST(Allocations, LineCountersOffAllocateNoCounterStorage)
{
    // The same write-heavy script from a fresh device, with per-line
    // counters off and on. Off, it allocates the record column's chunks
    // and the row table's storage only; on, the counters' own column
    // adds its chunks (one counters entry per record).
    constexpr unsigned kLines = 2000;
    constexpr std::size_t kChunk = 512; // Column entries per chunk
    struct Counted
    {
        std::uint64_t allocations = 0;
        std::uint64_t chunks = 0;
        std::size_t lines = 0;
    };
    auto run = [](bool line_counters) {
        DeviceConfig dc;
        dc.seed = 11;
        dc.lineCounters = line_counters;
        PcmDevice dev(dc);
        FreshLineWriter touch(dev);
        Counted c;
        {
            const AllocationCounter counter;
            for (unsigned i = 0; i < kLines; ++i)
                touch(spreadLine(i));
            c.allocations = counter.count();
            c.chunks = counter.aligned();
        }
        c.lines = dev.recordedLines();
        return c;
    };
    const Counted off = run(false);
    const Counted on = run(true);
    ASSERT_GE(off.lines, kLines);
    ASSERT_EQ(on.lines, off.lines);

    const std::size_t record_chunks = (off.lines + kChunk - 1) / kChunk;
    EXPECT_EQ(off.chunks, record_chunks);
    EXPECT_EQ(on.chunks, 2 * record_chunks);
    // Everything else is table storage, from empty: the record column's
    // chunk list doubling, and the row table's slabs and directory.
    const AddressMap map{DeviceConfig{}.geometry};
    EXPECT_LE(off.allocations - off.chunks,
              doublings(0, record_chunks) +
                  rowTableAllocations(map, spreadLines(map, kLines, true),
                                      off.lines))
        << off.allocations << " allocations for " << off.lines
        << " recorded lines";
}

TEST(Allocations, ScanThatLandsNothingAllocatesNoChunk)
{
    // Without DIN, and with every bit-line draw a hit, each RESET cell
    // looks up both bit-line neighbours; each write RESETs only cells
    // they hold crystalline, so no flip lands and a neighbour is only
    // marked in its row's touched mask.
    DeviceConfig dc;
    dc.seed = 11;
    dc.dinEnabled = false;
    PcmDevice dev(dc);
    const AddressMap& map = dev.addressMap();
    PcmDevice::WritePlan plan;
    PcmDevice::RoundOutcome round;
    plan.rounds.reserve(2 * kLineBits);
    LineData all_set;
    all_set.words.fill(~0ULL);

    constexpr unsigned kLines = 2000;
    std::size_t neighbours = 0;
    std::uint64_t allocations = 0;
    std::uint64_t chunks = 0;
    for (unsigned i = 0; i < kLines; ++i) {
        const LineAddr la = spreadLine(i);
        // Every cell crystalline first, at rates that look nothing up.
        dev.setRates(WdRates{0.0, 0.0});
        dev.planWriteInto(plan, la, all_set);
        while (dev.applyNextRound(plan, round)) {
        }
        dev.finishWrite(plan);

        LineData resets = all_set;
        for (const std::optional<LineAddr> n :
             {map.upperNeighbor(la), map.lowerNeighbor(la)}) {
            if (!n)
                continue;
            neighbours += 1;
            const LineData seed = dev.seedContent(*n);
            for (unsigned w = 0; w < kLineWords; ++w)
                resets.words[w] &= seed.words[w];
        }
        LineData data;
        for (unsigned w = 0; w < kLineWords; ++w)
            data.words[w] = ~resets.words[w];
        dev.setRates(WdRates{0.0, 1.0});
        dev.planWriteInto(plan, la, data);
        {
            const AllocationCounter counter;
            while (dev.applyNextRound(plan, round)) {
            }
            allocations += counter.count();
            chunks += counter.aligned();
        }
        dev.finishWrite(plan);
    }
    EXPECT_EQ(dev.stats().blDisturbances, 0u);
    EXPECT_EQ(dev.touchedLines(), kLines + neighbours);
    EXPECT_EQ(dev.recordedLines(), kLines);
    EXPECT_EQ(chunks, 0u);
    // Only the touched-mask table grows: its rows' doublings.
    EXPECT_LE(allocations, doublings(0, spreadRows(map, kLines)))
        << allocations;
}

TEST(Allocations, ReadOnlyLinesAllocateNoRecord)
{
    // The sdpcm device has no stuck cells, so a line nothing changed is
    // only marked in its row's touched mask and read from its seed.
    DeviceConfig dc;
    dc.seed = 11;
    PcmDevice dev(dc);
    std::vector<unsigned> diffs;
    diffs.reserve(kLineBits);

    constexpr unsigned kLines = 2000;
    std::size_t mismatches = 0;
    std::uint64_t allocations = 0;
    std::uint64_t chunks = 0;
    {
        const AllocationCounter counter;
        for (unsigned i = 0; i < kLines; ++i) {
            const LineData data = dev.readLine(spreadLine(i));
            dev.verifyLineInto(spreadLine(i), data, diffs);
            mismatches += diffs.size();
        }
        allocations = counter.count();
        chunks = counter.aligned();
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(dev.touchedLines(), kLines);
    EXPECT_EQ(dev.recordedLines(), 0u);
    EXPECT_EQ(chunks, 0u);
    // Only the row table's storage for the rows touched: no list slab.
    EXPECT_LE(allocations,
              rowTableAllocations(dev.addressMap(),
                                  spreadLines(dev.addressMap(), kLines, false),
                                  0))
        << allocations;
}

TEST(Allocations, AgedReadOnlyLinesRecordOnlyStuckLines)
{
    // An aged device draws a line's stuck cells at its first touch and
    // records only the lines that drew one.
    DeviceConfig dc;
    dc.seed = 11;
    dc.aging.ageFraction = 0.3;
    PcmDevice dev(dc);
    std::vector<unsigned> diffs;
    diffs.reserve(kLineBits);

    constexpr unsigned kLines = 2000;
    constexpr std::size_t kChunk = 512; // Column entries per chunk
    std::size_t mismatches = 0;
    std::uint64_t allocations = 0;
    std::uint64_t chunks = 0;
    {
        const AllocationCounter counter;
        for (unsigned i = 0; i < kLines; ++i) {
            const LineData data = dev.readLine(spreadLine(i));
            dev.verifyLineInto(spreadLine(i), data, diffs);
            mismatches += diffs.size();
        }
        allocations = counter.count();
        chunks = counter.aligned();
    }
    std::size_t stuck_lines = 0;
    for (unsigned i = 0; i < kLines; ++i)
        stuck_lines += dev.ecpUsed(spreadLine(i)) > 0;
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(dev.touchedLines(), kLines);
    EXPECT_EQ(dev.recordedLines(), stuck_lines);
    EXPECT_GT(stuck_lines, 0u);
    EXPECT_LT(stuck_lines, kLines / 10);
    EXPECT_EQ(chunks, (stuck_lines + kChunk - 1) / kChunk);
    // Everything else is table storage: the record column's chunk list
    // doubling, and the row table's slabs and directory.
    EXPECT_LE(allocations - chunks,
              doublings(0, chunks) +
                  rowTableAllocations(dev.addressMap(),
                                      spreadLines(dev.addressMap(), kLines,
                                                  false),
                                      stuck_lines))
        << allocations;
}

} // namespace
} // namespace sdpcm
