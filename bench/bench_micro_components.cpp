/**
 * @file
 * Component micro-benchmarks (google-benchmark): encoder throughput,
 * disturbance-injecting writes, reads, the device's WD scan over warm
 * and cold neighbours, line lookup and first touch, the buddy
 * allocator, the cache model and the event queue.
 * These guard the simulator's own speed — the experiment harnesses run
 * millions of these operations.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "cpu/cache.hh"
#include "encoding/din.hh"
#include "os/buddy.hh"
#include "pcm/device.hh"
#include "sim/event_queue.hh"

using namespace sdpcm;

static void
BM_DinEncode(benchmark::State& state)
{
    DinEncoder din;
    Rng rng(1);
    LineData old = LineData::randomFromKey(1);
    for (auto _ : state) {
        LineData logical = old;
        for (int f = 0; f < 60; ++f)
            logical.flipBit(static_cast<unsigned>(rng.below(kLineBits)));
        benchmark::DoNotOptimize(din.encode(logical, old));
    }
}
BENCHMARK(BM_DinEncode);

/**
 * DIN decode, the last step of every sdpcm read: lines and flag words
 * drawn at run time, so no decode folds to a constant.
 */
static void
BM_DinDecode(benchmark::State& state)
{
    DinEncoder din;
    Rng rng(7);
    constexpr unsigned kInputs = 1024;
    const std::uint64_t flag_mask = din.numGroups() == 64
        ? ~0ULL : (1ULL << din.numGroups()) - 1;
    std::vector<LineData> lines;
    std::vector<std::uint64_t> flags;
    for (unsigned i = 0; i < kInputs; ++i) {
        lines.push_back(LineData::randomFromKey(rng.next64()));
        flags.push_back(rng.next64() & flag_mask);
    }
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(din.decode(lines[next], flags[next]));
        next = (next + 1) % kInputs;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DinDecode);

/** Flip-N-Write: DIN's weight-0 constant (the fnw scheme's encoder). */
static void
BM_FnwEncode(benchmark::State& state)
{
    const DinEncoder fnw(DinConfig::flipNWrite());
    Rng rng(1);
    LineData old = LineData::randomFromKey(1);
    for (auto _ : state) {
        LineData logical = old;
        for (int f = 0; f < 60; ++f)
            logical.flipBit(static_cast<unsigned>(rng.below(kLineBits)));
        benchmark::DoNotOptimize(fnw.encode(logical, old));
    }
}
BENCHMARK(BM_FnwEncode);

static void
BM_DeviceWrite(benchmark::State& state)
{
    DeviceConfig dc;
    dc.seed = 3;
    PcmDevice dev(dc);
    Rng rng(2);
    std::uint64_t row = 10;
    for (auto _ : state) {
        const LineAddr la{static_cast<unsigned>(rng.below(16)), row,
                          static_cast<unsigned>(rng.below(64))};
        PcmDevice::WritePlan plan;
        dev.planWriteInto(plan, la,
                          LineData::randomFromKey(rng.next64()));
        PcmDevice::RoundOutcome outcome;
        while (dev.applyNextRound(plan, outcome)) {
        }
        dev.finishWrite(plan);
        row = 10 + (row + 1) % 1000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceWrite);

static void
BM_DeviceRead(benchmark::State& state)
{
    DeviceConfig dc;
    dc.seed = 3;
    PcmDevice dev(dc);
    Rng rng(4);
    for (auto _ : state) {
        const LineAddr la{static_cast<unsigned>(rng.below(16)),
                          rng.below(512),
                          static_cast<unsigned>(rng.below(64))};
        benchmark::DoNotOptimize(dev.readLine(la));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceRead);

/** Record a line by writing `data` to it once. */
static void
writeOnce(PcmDevice& dev, const LineAddr& la, const LineData& data)
{
    PcmDevice::WritePlan plan;
    dev.planWriteInto(plan, la, data);
    PcmDevice::RoundOutcome outcome;
    while (dev.applyNextRound(plan, outcome)) {
    }
    dev.finishWrite(plan);
}

/** The four neighbours of a line: bit-line above and below, word-line
 *  left and right. */
static std::array<LineAddr, 4>
neighboursOf(const LineAddr& la)
{
    return {LineAddr{la.bank, la.row - 1, la.line},
            LineAddr{la.bank, la.row + 1, la.line},
            LineAddr{la.bank, la.row, la.line - 1},
            LineAddr{la.bank, la.row, la.line + 1}};
}

/** Write fresh random content to `la` (about a quarter of the cells
 *  RESET) and return the seconds its RESET rounds took. */
static double
timedResetRounds(PcmDevice& dev, PcmDevice::WritePlan& plan,
                 const LineAddr& la, Rng& rng, std::uint64_t& reset_cells)
{
    PcmDevice::RoundOutcome outcome;
    dev.planWriteInto(plan, la, LineData::randomFromKey(rng.next64()));
    reset_cells += plan.masks.resetCount();
    double timed_s = 0.0;
    for (PcmDevice::RoundPeek peek = dev.peekNextRound(plan); peek.valid;
         peek = dev.peekNextRound(plan)) {
        const auto t0 = std::chrono::steady_clock::now();
        dev.applyNextRound(plan, outcome);
        const auto t1 = std::chrono::steady_clock::now();
        if (peek.isReset)
            timed_s += std::chrono::duration<double>(t1 - t0).count();
    }
    benchmark::DoNotOptimize(outcome);
    dev.finishWrite(plan);
    return timed_s;
}

/**
 * Device layer, WD scan: the RESET rounds of sdpcm writes to warm lines
 * (each written line and its four neighbours already recorded, by a
 * write of their own content).
 * Only the RESET rounds' applyNextRound calls are timed — their pulse
 * plus the neighbour probes — so items/s is RESET cells per second.
 */
static void
BM_DeviceWdScan(benchmark::State& state)
{
    DeviceConfig dc;
    dc.seed = 3;
    PcmDevice dev(dc);
    constexpr unsigned kLines = 4096;
    Rng rng(6);
    std::vector<LineAddr> lines;
    for (unsigned i = 0; i < kLines; ++i) {
        lines.push_back({static_cast<unsigned>(rng.below(16)),
                         1 + rng.below(510),
                         1 + static_cast<unsigned>(rng.below(62))});
    }
    for (const LineAddr& la : lines) {
        writeOnce(dev, la, dev.peekLine(la));
        for (const LineAddr& n : neighboursOf(la))
            writeOnce(dev, n, dev.peekLine(n));
    }

    PcmDevice::WritePlan plan;
    std::uint64_t reset_cells = 0;
    std::size_t next = 0;
    for (auto _ : state) {
        const LineAddr& la = lines[next];
        next = (next + 1) % kLines;
        state.SetIterationTime(
            timedResetRounds(dev, plan, la, rng, reset_cells));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(reset_cells));
}
BENCHMARK(BM_DeviceWdScan)->UseManualTime();

/**
 * Device layer, WD scan over cold neighbours: as BM_DeviceWdScan, but
 * each written line's four neighbours were read and hold no record, the
 * case 97,404 of a write-mcf run's 104,035 scan lookups hit. 32,000
 * written lines (every third line of every third row) and their 128,000
 * neighbours make a 160k-line store; no two written lines share a
 * neighbour, and each is written once per device, so every neighbour is
 * still without a record when its write looks it up. The next device is
 * built untimed, without disturbance.
 */
static void
BM_DeviceWdScanCold(benchmark::State& state)
{
    DeviceConfig dc;
    dc.seed = 3;
    constexpr std::size_t kLines = 32000;
    std::vector<LineAddr> lines;
    for (std::uint64_t row = 1; lines.size() < kLines; row += 3) {
        for (unsigned bank = 0; bank < 16; ++bank) {
            for (unsigned line = 1; line < 63; line += 3)
                lines.push_back({bank, row, line});
        }
    }
    lines.resize(kLines);
    Rng rng(6);
    for (std::size_t i = kLines - 1; i > 0; --i)
        std::swap(lines[i], lines[rng.below(i + 1)]);
    auto build = [&] {
        auto dev = std::make_unique<PcmDevice>(dc);
        dev->setRates(WdRates{0.0, 0.0});
        for (const LineAddr& la : lines) {
            writeOnce(*dev, la, dev->peekLine(la));
            for (const LineAddr& n : neighboursOf(la))
                benchmark::DoNotOptimize(dev->peekLine(n).words[0]);
        }
        dev->setRates(dc.rates);
        return dev;
    };

    std::unique_ptr<PcmDevice> dev = build();
    PcmDevice::WritePlan plan;
    std::uint64_t reset_cells = 0;
    std::size_t next = 0;
    for (auto _ : state) {
        if (next == kLines) {
            dev = build();
            next = 0;
        }
        state.SetIterationTime(
            timedResetRounds(*dev, plan, lines[next++], rng, reset_cells));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(reset_cells));
}
BENCHMARK(BM_DeviceWdScanCold)->UseManualTime();

/**
 * Device layer, line lookup: readLine over a working set of warm lines
 * in random order. With `written` each line was written once, so every
 * read finds its record; otherwise each was only read, so every read
 * finds its row's touched mask and no record.
 */
static void
lineLookup(benchmark::State& state, bool written)
{
    DeviceConfig dc;
    dc.seed = 3;
    // No disturbance: the warm-up records exactly the warm lines.
    dc.rates = WdRates{0.0, 0.0};
    PcmDevice dev(dc);
    const auto warm = static_cast<unsigned>(state.range(0));
    Rng rng(7);
    std::vector<LineAddr> lines;
    lines.reserve(warm);
    for (unsigned i = 0; i < warm; ++i) {
        // 16 banks x 64 lines per row, rows spread over the bank.
        const unsigned row_slot = i / (16 * 64);
        lines.push_back({i % 16, row_slot * 37, (i / 16) % 64});
        if (written)
            writeOnce(dev, lines.back(), LineData::randomFromKey(i));
        else
            dev.peekLine(lines.back());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dev.readLine(lines[rng.below(warm)]).words[0]);
    }
    state.SetItemsProcessed(state.iterations());
}

static void
BM_LineLookup(benchmark::State& state)
{
    lineLookup(state, /*written=*/true);
}

static void
BM_LineLookupReadOnly(benchmark::State& state)
{
    lineLookup(state, /*written=*/false);
}
// Warm lines: a small working set, one a few MB deep, and write-mcf's
// 160k touched lines.
BENCHMARK(BM_LineLookup)->Arg(1024)->Arg(16384)->Arg(160000);
BENCHMARK(BM_LineLookupReadOnly)->Arg(1024)->Arg(16384)->Arg(160000);

/**
 * Device layer, first touch: readLine of lines no read has touched, in
 * runs of consecutive line indices drawn like the trace generator's
 * bwaves runs: each starts at a random line and has a geometric length
 * of mean 8 (a run also ends at a line an earlier run took). Every call
 * finds a line no access touched. Each device, of the given age, takes
 * state.range(0) lines; its replacement is built untimed. The
 * `recorded` counter is the share of its touched lines the last device
 * recorded.
 */
static void
lineFirstTouch(benchmark::State& state, double age)
{
    DeviceConfig dc;
    dc.seed = 3;
    dc.aging.ageFraction = age;
    const AddressMap map(dc.geometry);
    const auto per_device = static_cast<std::size_t>(state.range(0));
    const std::uint64_t dimm_lines =
        dc.geometry.capacityBytes() / dc.geometry.lineBytes;
    Rng rng(11);
    std::unordered_set<std::uint64_t> taken;
    std::vector<LineAddr> lines;
    lines.reserve(per_device);
    while (lines.size() < per_device) {
        std::uint64_t line = rng.below(dimm_lines);
        std::uint64_t run = 1 + rng.geometric(1.0 / 8.0);
        while (run-- > 0 && lines.size() < per_device &&
               taken.insert(line).second) {
            lines.push_back(map.lineAt(static_cast<LineIndex>(line)));
            line = (line + 1) % dimm_lines;
        }
    }
    auto dev = std::make_unique<PcmDevice>(dc);
    std::size_t next = 0;
    for (auto _ : state) {
        if (next == per_device) {
            state.PauseTiming();
            dev = std::make_unique<PcmDevice>(dc);
            next = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(dev->readLine(lines[next++]).words[0]);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["recorded"] = static_cast<double>(dev->recordedLines()) /
        static_cast<double>(dev->touchedLines());
}

static void
BM_LineFirstTouch(benchmark::State& state)
{
    lineFirstTouch(state, 0.0);
}
BENCHMARK(BM_LineFirstTouch)->Arg(160000);

/** The same on an aged DIMM (range(1): percent of its lifetime used),
 *  where every first touch draws the line's stuck cells. */
static void
BM_LineFirstTouchAged(benchmark::State& state)
{
    lineFirstTouch(state, static_cast<double>(state.range(1)) / 100.0);
}
BENCHMARK(BM_LineFirstTouchAged)->Args({160000, 30})->Args({160000, 60});

static void
BM_BuddyAllocFree(benchmark::State& state)
{
    DimmGeometry g;
    g.rowsPerBank = 16384;
    PageAllocatorSystem sys(g);
    const NmRatio ratio{2, 3};
    std::vector<FrameBlock> blocks;
    blocks.reserve(256);
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            blocks.push_back(*sys.allocate(ratio, 0));
        for (const auto& b : blocks)
            sys.free(ratio, b);
        blocks.clear();
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_BuddyAllocFree);

static void
BM_CacheHierarchy(benchmark::State& state)
{
    auto h = CacheHierarchy::makeTable2();
    Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            h.access(rng.below(64ULL << 20) & ~63ULL, rng.chance(0.3)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchy);

/** An event target that only counts the events it gets. */
struct CountingTarget : EventTarget
{
    std::uint64_t fired = 0;
    void fire(std::uint64_t) override { fired += 1; }
};

static void
BM_EventQueue(benchmark::State& state)
{
    for (auto _ : state) {
        EventQueue q;
        CountingTarget target;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Tick>(i * 7 % 997), target);
        q.run();
        benchmark::DoNotOptimize(target.fired);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

BENCHMARK_MAIN();
