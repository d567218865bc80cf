/**
 * @file
 * Property-style test sweeps: invariants that must hold for arbitrary
 * data, addresses and scheme combinations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "controller/memctrl.hh"
#include "event_adapters.hh"
#include "os/buddy.hh"
#include "pcm/device.hh"
#include "sim/event_queue.hh"

namespace sdpcm {
namespace {

// --- Device round-trip across schemes/dimensions -------------------------

// gtest_discover_tests names each case after the bytes gtest prints for
// its parameter, padding included. `nameTag` fills the slot that was
// padding, so the names no longer vary with uninitialised stack bytes;
// its values keep the names the cases were first listed under.
struct RoundTripParam
{
    bool din;
    bool windowed;
    std::uint16_t nameTag;
    unsigned ecp;
    double age;
};
static_assert(sizeof(RoundTripParam) == 2 * sizeof(bool) +
                                            sizeof(std::uint16_t) +
                                            sizeof(unsigned) + sizeof(double),
              "RoundTripParam must have no padding bytes");

class DeviceRoundTrip : public ::testing::TestWithParam<RoundTripParam>
{};

TEST_P(DeviceRoundTrip, RandomWritesAlwaysReadBack)
{
    const auto p = GetParam();
    DeviceConfig dc;
    dc.rates = WdRates{0.099, 0.115};
    dc.dinEnabled = p.din;
    dc.timing.windowed = p.windowed;
    // Aged cases take every ECP entry a line holds, so that no sampled
    // line has more stuck cells than entries (a saturated line cannot
    // hold every value).
    dc.ecpEntries = p.age > 0 ? kMaxEcpEntries : p.ecp;
    dc.aging.ageFraction = p.age;
    dc.seed = 17;
    PcmDevice dev(dc);

    Rng rng(31);
    for (int i = 0; i < 120; ++i) {
        const LineAddr la{static_cast<unsigned>(rng.below(16)),
                          1 + rng.below(100),
                          static_cast<unsigned>(rng.below(64))};
        const LineData data = LineData::randomFromKey(rng.next64());
        PcmDevice::WritePlan plan;
        dev.planWriteInto(plan, la, data);
        PcmDevice::RoundOutcome outcome;
        while (dev.applyNextRound(plan, outcome)) {
        }
        dev.finishWrite(plan);
        ASSERT_EQ(dev.readLine(la), data)
            << "din=" << p.din << " windowed=" << p.windowed
            << " iter=" << i;
    }
    EXPECT_EQ(dev.stats().ecpSaturatedLines, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, DeviceRoundTrip,
    ::testing::Values(RoundTripParam{true, true, 0, 6, 0.0},
                      RoundTripParam{false, true, 0xD4FB, 6, 0.0},
                      RoundTripParam{true, false, 0, 6, 0.0},
                      RoundTripParam{true, true, 0, 0, 0.0},
                      RoundTripParam{true, true, 0xD4FB, 6, 0.5},
                      RoundTripParam{false, false, 0xD4FB, 2, 1.0}));

// --- Round decomposition conservation ------------------------------------

TEST(DeviceProperty, RoundsPartitionTheProgramMasks)
{
    DeviceConfig dc;
    dc.rates = WdRates{0.0, 0.0};
    PcmDevice dev(dc);
    Rng rng(5);
    for (int i = 0; i < 60; ++i) {
        const LineAddr la{0, 1 + rng.below(50),
                          static_cast<unsigned>(rng.below(64))};
        PcmDevice::WritePlan plan;
        dev.planWriteInto(plan, la,
                          LineData::randomFromKey(rng.next64()));
        // Every programmed cell appears in exactly one round, and each
        // round is homogeneous and within the parallelism budget.
        LineData seen{};
        for (const auto& round : plan.rounds) {
            EXPECT_LE(round.mask.popcount(),
                      dev.config().timing.writeParallelism);
            for (unsigned w = 0; w < kLineWords; ++w) {
                EXPECT_EQ(seen.words[w] & round.mask.words[w], 0u);
                seen.words[w] |= round.mask.words[w];
                const auto& kind_mask = round.isReset
                    ? plan.masks.resetMask : plan.masks.setMask;
                EXPECT_EQ(round.mask.words[w] & ~kind_mask.words[w], 0u);
            }
        }
        EXPECT_EQ(seen.diff(plan.writtenMask).popcount(), 0u);
    }
}

// --- ECP fallback when hard errors saturate the table --------------------

TEST(FailureInjection, SaturatedEcpFallsBackToCorrection)
{
    // Paper, Section 4.2: if hard errors use up all ECP entries, WD
    // mitigation rolls back to basic VnC for that line. With a heavily
    // aged device and a tiny table, LazyC must keep lines correct via
    // correction writes.
    DeviceConfig dc;
    dc.rates = WdRates{0.0, 0.115};
    dc.ecpEntries = 2;
    dc.aging.ageFraction = 1.0;
    dc.seed = 23;
    PcmDevice device(dc);

    SchemeConfig scheme = SchemeConfig::lazyC(2);
    scheme.idleWriteDrain = true;
    EventQueue events;
    MemoryController ctrl(events, device, scheme, 23);

    const LineAddr la{1, 40, 5};
    const LineAddr upper{1, 39, 5};
    const LineAddr lower{1, 41, 5};
    const LineData up_before = device.readLine(upper);
    const LineData low_before = device.readLine(lower);

    for (unsigned i = 0; i < 10; ++i) {
        ASSERT_TRUE(ctrl.submitWriteData(
            device.addressMap().encode(la), NmRatio{1, 1}, 0,
            LineData::randomFromKey(900 + i)));
        events.run();
    }
    EXPECT_GT(ctrl.stats().correctionWrites, 0u);
    EXPECT_EQ(ctrl.stats().cascadeDropped, 0u);
    EXPECT_EQ(device.readLine(upper), up_before);
    EXPECT_EQ(device.readLine(lower), low_before);
}

// --- Buddy allocator conservation under random traffic --------------------

class BuddyTorture
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(BuddyTorture, RandomAllocFreeConservesFrames)
{
    const auto [n, m] = GetParam();
    const NmRatio ratio{n, m};
    DimmGeometry g;
    g.rowsPerBank = 16384; // 1GB
    PageAllocatorSystem sys(g);
    auto& arr = sys.allocatorFor(ratio);
    auto& base = sys.allocatorFor(NmRatio{1, 1});
    const std::uint64_t total_before =
        base.freeFrames() + arr.freeFrames();

    Rng rng(n * 31 + m);
    std::vector<FrameBlock> live;
    for (int step = 0; step < 800; ++step) {
        if (live.empty() || rng.chance(0.6)) {
            const unsigned order =
                static_cast<unsigned>(rng.below(7));
            auto blk = sys.allocate(ratio, order);
            if (blk)
                live.push_back(*blk);
        } else {
            const std::size_t idx = rng.below(live.size());
            sys.free(ratio, live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (const auto& blk : live)
        sys.free(ratio, blk);
    while (auto blk = arr.reclaimBlock())
        base.free(*blk);

    EXPECT_EQ(base.freeFrames() + arr.freeFrames(), total_before);
    EXPECT_EQ(arr.parkedStrips(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, BuddyTorture,
    ::testing::Values(std::pair{1u, 1u}, std::pair{1u, 2u},
                      std::pair{2u, 3u}, std::pair{3u, 4u}));

// --- Controller invariant under every scheme ------------------------------

class SchemeInvariant : public ::testing::TestWithParam<int>
{};

TEST_P(SchemeInvariant, CompletedWritesAreDurable)
{
    SchemeConfig scheme;
    switch (GetParam()) {
      case 0: scheme = SchemeConfig::baselineVnc(); break;
      case 1: scheme = SchemeConfig::lazyC(); break;
      case 2: scheme = SchemeConfig::lazyCPreRead(); break;
      case 3: scheme = SchemeConfig::lazyCNm(NmRatio{2, 3}); break;
      case 4: scheme = SchemeConfig::nmOnly(NmRatio{1, 2}); break;
      case 5:
        scheme = SchemeConfig::lazyC();
        scheme.writeCancellation = true;
        break;
      default: scheme = SchemeConfig::din8F2(); break;
    }
    scheme.idleWriteDrain = true;

    DeviceConfig dc;
    dc.rates = scheme.superDense ? WdRates{0.099, 0.115}
                                 : WdRates{0.099, 0.0};
    dc.ecpEntries = scheme.ecpEntries;
    dc.seed = 77;
    PcmDevice device(dc);
    EventQueue events;
    MemoryController ctrl(events, device, scheme, 77);

    // Data pages live in used strips only (rows chosen per the tag).
    const NmPolicy policy(scheme.defaultTag);
    Rng rng(123);
    std::map<std::uint64_t, LineData> expected;
    ReadCallback ignore;
    for (int i = 0; i < 150; ++i) {
        std::uint64_t row = 50 + rng.below(8);
        while (!policy.stripInUse(row))
            row += 1;
        const LineAddr la{static_cast<unsigned>(rng.below(16)), row,
                          static_cast<unsigned>(rng.below(4))};
        const PhysAddr addr = device.addressMap().encode(la);
        const LineData payload = LineData::randomFromKey(rng.next64());
        if (ctrl.submitWriteData(addr, scheme.defaultTag, 0, payload))
            expected[addr] = payload;
        if (i % 10 == 0) {
            // Interleave reads (exercises forwarding + cancellation).
            ctrl.submitRead(addr, 0, ignore);
            events.run();
        }
    }
    events.run();
    ASSERT_TRUE(ctrl.quiescent());
    for (const auto& [addr, payload] : expected) {
        EXPECT_EQ(device.readLine(device.addressMap().decode(addr)),
                  payload);
    }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeInvariant,
                         ::testing::Range(0, 7));

} // namespace
} // namespace sdpcm
