/**
 * @file
 * Tests for the memory controller: queueing, the VnC state machine and
 * its reliability invariant, LazyCorrection, PreRead (buffers and
 * forwarding), (n:m) adjacency filtering and write cancellation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <set>

#include "controller/memctrl.hh"
#include "event_adapters.hh"
#include "sim/event_queue.hh"
#include "sim/system.hh"
#include "verify/oracle.hh"

namespace sdpcm {
namespace {

struct Harness
{
    explicit Harness(SchemeConfig scheme, WdRates rates = {0.099, 0.115})
    {
        DeviceConfig dc;
        dc.rates = scheme.superDense ? rates : WdRates{rates.wordLine, 0.0};
        dc.ecpEntries = scheme.ecpEntries;
        dc.seed = 7;
        device = std::make_unique<PcmDevice>(dc);
        ctrl = std::make_unique<MemoryController>(events, *device, scheme,
                                                  7);
    }

    PhysAddr
    addrOf(unsigned bank, std::uint64_t row, unsigned line) const
    {
        return device->addressMap().encode(LineAddr{bank, row, line});
    }

    void
    drain()
    {
        events.run();
    }

    EventQueue events;
    std::unique_ptr<PcmDevice> device;
    std::unique_ptr<MemoryController> ctrl;
};

SchemeConfig
eagerScheme(SchemeConfig base)
{
    // Service writes as soon as the bank idles so single-write tests
    // complete without filling the queue.
    base.idleWriteDrain = true;
    return base;
}

TEST(Controller, ReadTakesArrayLatency)
{
    Harness h(SchemeConfig::din8F2());
    bool done = false;
    Tick completion = 0;
    ReadCallback on_read([&](const LineData&) {
        done = true;
        completion = h.events.now();
    });
    h.ctrl->submitRead(h.addrOf(0, 10, 0), 0, on_read);
    h.drain();
    EXPECT_TRUE(done);
    EXPECT_EQ(completion, 400u);
    EXPECT_EQ(h.ctrl->stats().readsServiced, 1u);
}

TEST(Controller, WriteCommitsPayload)
{
    Harness h(eagerScheme(SchemeConfig::baselineVnc()));
    const PhysAddr addr = h.addrOf(1, 20, 3);
    const LineData payload = LineData::randomFromKey(5);
    ASSERT_TRUE(h.ctrl->submitWriteData(addr, NmRatio{1, 1}, 0, payload));
    h.drain();
    EXPECT_EQ(h.ctrl->stats().writesCompleted, 1u);
    EXPECT_EQ(h.device->peekLine(LineAddr{1, 20, 3}), payload);
}

TEST(Controller, DinSchemeSkipsVerification)
{
    Harness h(eagerScheme(SchemeConfig::din8F2()));
    ASSERT_TRUE(h.ctrl->submitWriteData(h.addrOf(0, 30, 0), NmRatio{1, 1},
                                        0, LineData::randomFromKey(1)));
    h.drain();
    EXPECT_EQ(h.ctrl->stats().writesCompleted, 1u);
    EXPECT_EQ(h.ctrl->stats().verifyReads, 0u);
    EXPECT_EQ(h.ctrl->stats().correctionWrites, 0u);
}

TEST(Controller, BaselineVncIssuesFourVerifyReads)
{
    // Zero disturbance rates: pure VnC skeleton = 2 pre + 2 post reads,
    // no corrections.
    Harness h(eagerScheme(SchemeConfig::baselineVnc()),
              WdRates{0.0, 0.0});
    ASSERT_TRUE(h.ctrl->submitWriteData(h.addrOf(2, 40, 5), NmRatio{1, 1},
                                        0, LineData::randomFromKey(2)));
    h.drain();
    EXPECT_EQ(h.ctrl->stats().verifyReads, 4u);
    EXPECT_EQ(h.ctrl->stats().correctionWrites, 0u);
}

TEST(Controller, VncLeavesAdjacentLinesCorrect)
{
    // The reliability invariant: after a write service completes, both
    // adjacent lines read back their pre-write logical content under the
    // physical bit-line disturbance rate. (At a pathological rate of 1.0
    // corrections ping-pong forever and hit the cascade cap; the Table 1
    // rate converges.)
    Harness h(eagerScheme(SchemeConfig::baselineVnc()),
              WdRates{0.0, 0.115});
    const LineAddr la{3, 50, 7};
    const LineAddr upper{3, 49, 7};
    const LineAddr lower{3, 51, 7};
    const LineData up_before = h.device->peekLine(upper);
    const LineData low_before = h.device->peekLine(lower);

    // Several writes so disturbance occurs with near-certainty.
    for (unsigned i = 0; i < 8; ++i) {
        ASSERT_TRUE(h.ctrl->submitWriteData(
            h.device->addressMap().encode(la), NmRatio{1, 1}, 0,
            LineData::randomFromKey(100 + i)));
        h.drain();
    }
    EXPECT_GT(h.device->stats().blDisturbances, 0u);
    EXPECT_GT(h.ctrl->stats().correctionWrites, 0u);
    EXPECT_EQ(h.ctrl->stats().cascadeDropped, 0u);
    EXPECT_EQ(h.device->peekLine(upper), up_before);
    EXPECT_EQ(h.device->peekLine(lower), low_before);
}

TEST(Controller, LazyCorrectionKeepsLinesLogicallyCorrect)
{
    Harness h(eagerScheme(SchemeConfig::lazyC()), WdRates{0.0, 0.115});
    const LineAddr la{3, 60, 7};
    const LineAddr upper{3, 59, 7};
    const LineData up_before = h.device->readLine(upper);

    ASSERT_TRUE(h.ctrl->submitWriteData(h.device->addressMap().encode(la),
                                        NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(4)));
    h.drain();
    // Parked in ECP (or corrected on overflow): logical value intact.
    EXPECT_EQ(h.device->readLine(upper), up_before);
}

TEST(Controller, LazyCorrectionReducesCorrections)
{
    const LineData payloads[6] = {
        LineData::randomFromKey(10), LineData::randomFromKey(11),
        LineData::randomFromKey(12), LineData::randomFromKey(13),
        LineData::randomFromKey(14), LineData::randomFromKey(15),
    };
    auto run = [&](SchemeConfig scheme) {
        Harness h(eagerScheme(std::move(scheme)));
        for (unsigned i = 0; i < 6; ++i) {
            h.ctrl->submitWriteData(h.addrOf(0, 100 + 2 * i, i),
                                    NmRatio{1, 1}, 0, payloads[i]);
            h.drain();
        }
        return h.ctrl->stats().correctionWrites;
    };
    EXPECT_LE(run(SchemeConfig::lazyC()),
              run(SchemeConfig::baselineVnc()));
}

TEST(Controller, NmTagSkipsNoUseNeighbors)
{
    Harness h(eagerScheme(SchemeConfig::nmOnly(NmRatio{1, 2})));
    // Strip (row) 20 is used under (1:2); rows 19/21 are no-use.
    ASSERT_TRUE(h.ctrl->submitWriteData(h.addrOf(0, 20, 0), NmRatio{1, 2},
                                        0, LineData::randomFromKey(6)));
    h.drain();
    EXPECT_EQ(h.ctrl->stats().verifyReads, 0u);
    EXPECT_EQ(h.ctrl->stats().adjacentsSkippedNm, 2u);
}

TEST(Controller, NmTwoThreeVerifiesOneNeighbor)
{
    Harness h(eagerScheme(SchemeConfig::nmOnly(NmRatio{2, 3})),
              WdRates{0.0, 0.0});
    // Row 3 (mod 3 == 0): verify upper only per the marking.
    ASSERT_TRUE(h.ctrl->submitWriteData(h.addrOf(0, 3, 0), NmRatio{2, 3},
                                        0, LineData::randomFromKey(7)));
    h.drain();
    EXPECT_EQ(h.ctrl->stats().verifyReads, 2u); // 1 pre + 1 post
    EXPECT_EQ(h.ctrl->stats().adjacentsSkippedNm, 1u);
}

TEST(Controller, ReadForwardsFromWriteQueue)
{
    SchemeConfig scheme = SchemeConfig::baselineVnc(); // no idle drain
    Harness h(scheme);
    const PhysAddr addr = h.addrOf(4, 70, 1);
    const LineData payload = LineData::randomFromKey(8);
    ASSERT_TRUE(h.ctrl->submitWriteData(addr, NmRatio{1, 1}, 0, payload));

    LineData got;
    bool done = false;
    Tick when = 0;
    ReadCallback on_read([&](const LineData& data) {
        got = data;
        done = true;
        when = h.events.now();
    });
    h.ctrl->submitRead(addr, 0, on_read);
    h.drain();
    EXPECT_TRUE(done);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(when, 0u); // forwarded, no array access
    EXPECT_EQ(h.ctrl->stats().readsForwarded, 1u);
}

TEST(Controller, WriteCoalescing)
{
    Harness h(SchemeConfig::baselineVnc());
    const PhysAddr addr = h.addrOf(4, 71, 0);
    ASSERT_TRUE(h.ctrl->submitWriteData(addr, NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(1)));
    const LineData latest = LineData::randomFromKey(2);
    ASSERT_TRUE(h.ctrl->submitWriteData(addr, NmRatio{1, 1}, 0, latest));
    EXPECT_EQ(h.ctrl->stats().writesCoalesced, 1u);
    EXPECT_EQ(h.ctrl->pendingWrites(), 1u);

    LineData got;
    ReadCallback on_read([&](const LineData& d) { got = d; });
    h.ctrl->submitRead(addr, 0, on_read);
    h.drain();
    EXPECT_EQ(got, latest);
}

TEST(Controller, QueueFullTriggersDrainAndRecovers)
{
    SchemeConfig scheme = SchemeConfig::baselineVnc();
    scheme.writeQueueEntries = 4;
    Harness h(scheme);
    const unsigned bank = 5;
    for (unsigned i = 0; i < 4; ++i) {
        ASSERT_TRUE(h.ctrl->submitWriteData(
            h.addrOf(bank, 100 + 2 * i, 0), NmRatio{1, 1}, 0,
            LineData::randomFromKey(i)));
    }
    // The fill triggered a drain (the first entry moved to service
    // synchronously, freeing one slot).
    EXPECT_EQ(h.ctrl->stats().writeDrains, 1u);
    EXPECT_EQ(h.ctrl->pendingWrites(), 4u);
    h.drain();
    // Drained to the watermark: accepts again, work completed.
    EXPECT_TRUE(h.ctrl->canAcceptWrite(h.addrOf(bank, 200, 0)));
    EXPECT_GE(h.ctrl->stats().writesCompleted, 2u);
    EXPECT_LE(h.ctrl->pendingWrites(),
              static_cast<std::uint64_t>(scheme.writeQueueEntries / 2));
}

TEST(Controller, PreReadFillsBuffersDuringIdle)
{
    SchemeConfig scheme = SchemeConfig::lazyCPreRead(); // no idle drain
    Harness h(scheme, WdRates{0.0, 0.0});
    const unsigned bank = 6;
    ASSERT_TRUE(h.ctrl->submitWriteData(h.addrOf(bank, 100, 0),
                                        NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(1)));
    h.drain(); // idle time: pre-reads issue, write stays queued
    EXPECT_EQ(h.ctrl->stats().preReadsIssued, 2u);
    EXPECT_EQ(h.ctrl->pendingWrites(), 1u);

    // Force service by filling the queue.
    SchemeConfig probe = scheme;
    for (unsigned i = 1; i < scheme.writeQueueEntries; ++i) {
        ASSERT_TRUE(h.ctrl->submitWriteData(
            h.addrOf(bank, 100 + 2 * i, 0), NmRatio{1, 1}, 0,
            LineData::randomFromKey(i)));
    }
    h.drain();
    // The first write's in-service pre-reads were skipped.
    EXPECT_GE(h.ctrl->stats().preReadsUseful, 2u);
}

TEST(Controller, PreReadForwardsFromEarlierQueuedWrite)
{
    SchemeConfig scheme = SchemeConfig::lazyCPreRead();
    Harness h(scheme, WdRates{0.0, 0.0});
    const unsigned bank = 7;
    // Write to row 100 queued first; the write to row 101 has row 100 as
    // its upper adjacent line -> its pre-read forwards from the queue.
    ASSERT_TRUE(h.ctrl->submitWriteData(h.addrOf(bank, 100, 4),
                                        NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(1)));
    ASSERT_TRUE(h.ctrl->submitWriteData(h.addrOf(bank, 101, 4),
                                        NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(2)));
    h.drain();
    EXPECT_GE(h.ctrl->stats().preReadsForwarded, 1u);
}

TEST(Controller, WriteCancellationServesReadQuickly)
{
    SchemeConfig wc = SchemeConfig::baselineVnc();
    wc.writeCancellation = true;
    wc.idleWriteDrain = true;
    Harness h(wc, WdRates{0.0, 0.0});
    const unsigned bank = 8;
    ASSERT_TRUE(h.ctrl->submitWriteData(h.addrOf(bank, 100, 0),
                                        NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(1)));
    // Let the write start its first operation.
    while (!h.events.empty() && h.events.now() < 100)
        h.events.runNext();
    Tick read_done = 0;
    ReadCallback on_read(
        [&](const LineData&) { read_done = h.events.now(); });
    h.ctrl->submitRead(h.addrOf(bank, 500, 0), 0, on_read);
    h.drain();
    EXPECT_GE(h.ctrl->stats().writeCancellations, 1u);
    // The read arrived at tick 400 mid-operation, cancelled it, and was
    // served immediately (400 cycles); without cancellation it would
    // have waited for the in-flight operation first (done at 1200).
    EXPECT_EQ(read_done, 800u);
    // ... and the cancelled write still completed afterwards.
    EXPECT_EQ(h.ctrl->stats().writesCompleted, 1u);
}

TEST(Controller, TortureManyWritesStayFunctionallyCorrect)
{
    // Functional invariant under random traffic: after everything
    // drains, memory returns exactly the last payload written to each
    // line, and all adjacent collateral was corrected or parked.
    SchemeConfig scheme = eagerScheme(SchemeConfig::lazyC());
    Harness h(scheme);
    Rng rng(99);
    std::map<std::uint64_t, LineData> expected;
    std::map<std::uint64_t, LineData> untouched;

    for (int i = 0; i < 300; ++i) {
        const unsigned bank = static_cast<unsigned>(rng.below(16));
        const std::uint64_t row = 100 + rng.below(6);
        const unsigned line = static_cast<unsigned>(rng.below(4));
        const LineData payload = LineData::randomFromKey(rng.next64());
        const PhysAddr addr = h.addrOf(bank, row, line);
        if (!h.ctrl->submitWriteData(addr, NmRatio{1, 1}, 0, payload))
            h.drain();
        else
            expected[addr] = payload;
        if (i % 16 == 0)
            h.drain();
    }
    h.drain();

    for (const auto& [addr, payload] : expected) {
        EXPECT_EQ(h.device->readLine(h.device->addressMap().decode(addr)),
                  payload);
    }
    // Untouched-but-adjacent rows (99 and 106) must be logically intact:
    // every disturbance there was parked or corrected.
    for (unsigned bank = 0; bank < 16; ++bank) {
        for (const std::uint64_t row : {99ULL, 106ULL}) {
            for (unsigned line = 0; line < 4; ++line) {
                const LineAddr la{bank, row, line};
                const LineData content = h.device->readLine(la);
                const LineData again = h.device->readLine(la);
                EXPECT_EQ(content, again);
            }
        }
    }
    EXPECT_TRUE(h.ctrl->quiescent());
}

// ---------------------------------------------------------------------
// Regressions for the bugs the shadow-memory oracle surfaced
// ---------------------------------------------------------------------

TEST(Controller, CoalesceAfterCancellationKeepsNewestWrite)
{
    // Write cancellation can leave TWO queue entries for one line: the
    // cancelled write re-queued at the front plus a later-accepted one.
    // A subsequent coalesce must merge into the entry that commits LAST
    // (the back one) — merging into the front entry lets the final array
    // state revert to the middle payload.
    SchemeConfig wc = eagerScheme(SchemeConfig::baselineVnc());
    wc.writeCancellation = true;
    Harness h(wc, WdRates{0.0, 0.0});
    const unsigned bank = 2;
    const PhysAddr x = h.addrOf(bank, 50, 0);
    const LineData p1 = LineData::randomFromKey(1);
    const LineData p2 = LineData::randomFromKey(2);
    const LineData p3 = LineData::randomFromKey(3);

    ASSERT_TRUE(h.ctrl->submitWriteData(x, NmRatio{1, 1}, 0, p1));
    // Let the write go active and start its first (cancellable) op.
    while (!h.events.empty() && h.events.now() < 100)
        h.events.runNext();
    // Second write to the same line: the first is active, so this
    // becomes a separate queue entry.
    ASSERT_TRUE(h.ctrl->submitWriteData(x, NmRatio{1, 1}, 0, p2));
    // A read to the same bank cancels the active write, re-queueing it
    // at the FRONT — now two entries for line x exist.
    ReadCallback ignore;
    h.ctrl->submitRead(h.addrOf(bank, 500, 0), 0, ignore);
    ASSERT_GE(h.ctrl->stats().writeCancellations, 1u);
    // Third write: must coalesce into the BACK (newest) entry.
    ASSERT_TRUE(h.ctrl->submitWriteData(x, NmRatio{1, 1}, 0, p3));
    EXPECT_GE(h.ctrl->stats().writesCoalesced, 1u);
    h.drain();
    EXPECT_EQ(h.device->peekLine(LineAddr{bank, 50, 0}), p3);
}

TEST(Controller, ReadObservesNewestDataAtServiceTime)
{
    // A read that found no same-line write at SUBMIT time can be passed
    // by one accepted while the read waits for the bank. At service time
    // the read must re-check the queue and forward the pending payload
    // instead of returning the stale array content.
    SchemeConfig scheme = eagerScheme(SchemeConfig::baselineVnc());
    Harness h(scheme, WdRates{0.0, 0.0});
    const unsigned bank = 4;
    const PhysAddr x = h.addrOf(bank, 60, 1);
    const LineData p = LineData::randomFromKey(42);

    // Occupy the bank with an unrelated write.
    ASSERT_TRUE(h.ctrl->submitWriteData(h.addrOf(bank, 200, 0),
                                        NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(7)));
    while (!h.events.empty() && h.events.now() < 100)
        h.events.runNext();
    // Read to x queues behind the busy bank; no write to x exists yet.
    LineData observed;
    bool read_done = false;
    ReadCallback on_read([&](const LineData& d) {
        observed = d;
        read_done = true;
    });
    h.ctrl->submitRead(x, 0, on_read);
    // Write to x is accepted while the read is still waiting.
    ASSERT_TRUE(h.ctrl->submitWriteData(x, NmRatio{1, 1}, 0, p));
    h.drain();
    ASSERT_TRUE(read_done);
    EXPECT_EQ(observed, p);
    EXPECT_GE(h.ctrl->stats().readsForwardedAtService, 1u);
}

TEST(Controller, CoalesceRefreshesLaterPreReadBuffers)
{
    // A queued write whose pre-read buffer was filled (by capture or
    // forwarding) for adjacent line A must see its buffer refreshed when
    // a later submit coalesces new data into A's queue entry — otherwise
    // it verifies against A's superseded content.
    SchemeConfig scheme = SchemeConfig::lazyCPreRead();
    Harness h(scheme, WdRates{0.0, 0.0});
    ShadowOracle oracle(h.events, *h.device);
    h.ctrl->observe({.oracle = &oracle});
    const unsigned bank = 6;
    // B at row 71 has upper adjacent A at row 70 (same line index).
    const PhysAddr a = h.addrOf(bank, 70, 0);
    const PhysAddr b = h.addrOf(bank, 71, 0);
    ASSERT_TRUE(h.ctrl->submitWriteData(a, NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(1)));
    ASSERT_TRUE(h.ctrl->submitWriteData(b, NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(2)));
    // Idle bank: pre-reads fire, B's upper buffer fills from A's pending
    // payload (forwarding) or the array.
    h.drain();
    ASSERT_GT(h.ctrl->stats().preReadsForwarded +
                  h.ctrl->stats().preReadsIssued,
              0u);
    // Coalesce new data into A's entry; B's buffer must be refreshed.
    ASSERT_TRUE(h.ctrl->submitWriteData(a, NmRatio{1, 1}, 0,
                                        LineData::randomFromKey(3)));
    EXPECT_GE(h.ctrl->stats().writesCoalesced, 1u);
    EXPECT_GE(h.ctrl->stats().preReadsRefreshed, 1u);
    EXPECT_TRUE(oracle.clean());
}

TEST(Controller, CancellationStressStaysClean)
{
    // Torture the duplicate-entry / cancellation / pre-read-relocation
    // machinery with the oracle attached: repeated same-line writes with
    // cancelling reads must never commit stale data or verify against a
    // stale buffer. (Covers the monotonic-id relocation: same-tick
    // duplicate entries for one line are only distinguishable by id.)
    SchemeConfig scheme = eagerScheme(SchemeConfig::lazyCPreRead());
    scheme.writeCancellation = true;
    Harness h(scheme, WdRates{0.099, 0.115});
    ShadowOracle oracle(h.events, *h.device);
    h.ctrl->observe({.oracle = &oracle});
    Rng rng(4242);
    const unsigned bank = 9;
    LineData last[4];
    bool have_last[4] = {false, false, false, false};
    ReadCallback ignore;

    for (int i = 0; i < 120; ++i) {
        const unsigned line = static_cast<unsigned>(rng.below(4));
        const std::uint64_t row = 80 + rng.below(2);
        const LineData payload = LineData::randomFromKey(rng.next64());
        if (h.ctrl->submitWriteData(h.addrOf(bank, row, line),
                                    NmRatio{1, 1}, 0, payload)) {
            if (row == 80) {
                last[line] = payload;
                have_last[line] = true;
            }
        }
        // Interleave cancelling reads while ops are in flight.
        if (rng.chance(0.5)) {
            while (!h.events.empty() && rng.chance(0.6))
                h.events.runNext();
            h.ctrl->submitRead(h.addrOf(bank, 700 + rng.below(4), 0), 0,
                               ignore);
        }
        if (i % 20 == 19)
            h.drain();
    }
    h.drain();
    EXPECT_GE(h.ctrl->stats().writeCancellations, 1u);
    for (unsigned line = 0; line < 4; ++line) {
        if (have_last[line]) {
            EXPECT_EQ(h.device->readLine(LineAddr{bank, 80, line}),
                      last[line]);
        }
    }
    if (!oracle.clean()) {
        oracle.report(std::cerr);
        ADD_FAILURE() << "oracle reported mismatches";
    }
}

TEST(Controller, PendingCountsForwardExactlyThePendingLines)
{
    // One bank queues more distinct lines than it has pending-count
    // buckets, so lines share buckets; then a drain retires half of them.
    SchemeConfig scheme = SchemeConfig::lazyCPreRead(); // no idle drain
    scheme.writeQueueEntries = 600;
    scheme.drainBurstWrites = 300;
    Harness h(scheme);
    const unsigned bank = 3;
    const auto addr_of = [&](unsigned i) {
        return h.addrOf(bank, 100 + i / 64, i % 64);
    };
    for (unsigned i = 0; i < 600; ++i) {
        ASSERT_TRUE(h.ctrl->submitWriteData(addr_of(i), NmRatio{1, 1}, 0,
                                            LineData::randomFromKey(i)));
    }
    // The 600th entry filled the queue: one burst retires the first 300
    // in queue order, and nothing else services a write.
    h.drain();
    ASSERT_EQ(h.ctrl->stats().writesCompleted, 300u);
    std::set<PhysAddr> pending; // the brute-force list
    for (unsigned i = 300; i < 600; ++i)
        pending.insert(addr_of(i));

    // Read every written line and as many never-written ones.
    unsigned delivered = 0;
    ReadCallback count([&](const LineData&) { delivered += 1; });
    for (unsigned i = 0; i < 1200; ++i) {
        const std::uint64_t before = h.ctrl->stats().readsForwarded;
        h.ctrl->submitRead(addr_of(i), 0, count);
        EXPECT_EQ(h.ctrl->stats().readsForwarded - before,
                  pending.count(addr_of(i)))
            << "line " << i;
    }
    h.drain();
    EXPECT_EQ(delivered, 1200u);
    EXPECT_EQ(h.ctrl->stats().readsForwardedAtService, 0u);
    EXPECT_EQ(h.ctrl->stats().writesCompleted, 300u);
    EXPECT_EQ(h.ctrl->pendingWrites(), 300u);
}

TEST(ControllerDeath, WriteQueueBeyondTheBoundIsFatal)
{
    SchemeConfig scheme = SchemeConfig::baselineVnc();
    scheme.writeQueueEntries = kMaxWriteQueueEntries;
    const Harness at_bound(scheme);
    scheme.writeQueueEntries = kMaxWriteQueueEntries + 1;
    EXPECT_EXIT(Harness{scheme}, ::testing::ExitedWithCode(1),
                "fatal: a write queue of 1025 entries exceeds the 1024 "
                "entries a bank queues");
}


// ---------------------------------------------------------------------
// Controller differential: whole-system digests that pin the VnC engine
// ---------------------------------------------------------------------

/** FNV-1a step over the 8 bytes of `v`. */
void
mix(std::uint64_t& h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i, v >>= 8) {
        h ^= v & 0xff;
        h *= 0x100000001b3ULL;
    }
}

void
mixText(std::uint64_t& h, const std::string& text)
{
    for (const char ch : text) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ULL;
    }
}

struct CtrlDiffCase
{
    const char* name;
    SchemeConfig scheme;
    const char* workload;
    FaultSpec faults;
    bool oracle = false;
    /** Snapshot counters the run must drive above zero (the path the
     *  case guards), and counters that must stay zero. */
    std::vector<const char*> positive;
    std::vector<const char*> zero;
    std::uint64_t digest; //!< recorded
};

void
PrintTo(const CtrlDiffCase& c, std::ostream* os)
{
    *os << c.name;
}

std::vector<CtrlDiffCase>
ctrlDiffCases()
{
    SchemeConfig wc = SchemeConfig::sdpcm();
    wc.writeCancellation = true;
    wc.maxCancelsPerWrite = 2;

    SchemeConfig small_queue = SchemeConfig::baselineVnc();
    small_queue.writeQueueEntries = 4;
    small_queue.drainBurstWrites = 1;
    small_queue.idleWriteDrain = true;

    // Figure 5's verify-only bar: corrections run but cost no cycles.
    SchemeConfig verify_only = SchemeConfig::baselineVnc();
    verify_only.chargeCorrectionOps = false;

    SchemeConfig ecp_cost = SchemeConfig::lazyC();
    ecp_cost.ecpUpdateCycles = 400;

    SchemeConfig storm_wc = SchemeConfig::sdpcm();
    storm_wc.writeCancellation = true;
    FaultSpec storm;
    storm.stuckPerLine = 0.3;
    storm.ecpSteal = 2;
    storm.wdBoost = 0.02;
    storm.seed = 5;

    // Digests recorded with the controller's mirrored upper/lower
    // stage bodies, before each VnC step existed once.
    const FaultSpec none;
    return {
        {"baseline", SchemeConfig::baselineVnc(), "mcf", none, false,
         {"ctrl.verifyReads", "ctrl.correctionWrites",
          "ctrl.cascadeVerifies", "ctrl.cycles.verify",
          "ctrl.cycles.correction"},
         {"ctrl.ecpUpdates"}, 0xe33bc9ba429e8b86ULL},
        {"lazyC2", SchemeConfig::lazyC(2), "mcf", none, false,
         {"ctrl.ecpUpdates", "device.ecpOverflows", "ctrl.correctionWrites",
          "ctrl.cascadeVerifies"},
         {"ctrl.cycles.ecp"}, 0x38222203f6ba9b6dULL},
        {"lazyCPreRead", SchemeConfig::lazyCPreRead(), "qstress", none,
         false,
         {"ctrl.preReadsIssued", "ctrl.preReadsForwarded",
          "ctrl.preReadsUseful", "ctrl.preReadsRefreshed",
          "ctrl.cycles.preRead"},
         {}, 0xac6d126e7359425fULL},
        {"sdpcm", SchemeConfig::sdpcm(), "lbm", none, false,
         {"ctrl.adjacentsSkippedNm", "ctrl.preReadsUseful",
          "ctrl.ecpUpdates"},
         {}, 0x0a811e56882ed759ULL},
        {"nm12", SchemeConfig::nmOnly(NmRatio{1, 2}), "mcf", none, false,
         {"ctrl.adjacentsSkippedNm"}, {}, 0x9fc943608924175bULL},
        {"sdpcmCancel", wc, "qstress", none, false,
         {"ctrl.writeCancellations", "ctrl.cancelStallCycles",
          "ctrl.preReadsUseful"},
         {}, 0x142d100bdee42fafULL},
        {"smallQueue", small_queue, "mcf", none, false,
         {"ctrl.writeDrains", "ctrl.writesCompleted", "ctrl.verifyReads"},
         {}, 0x4a8829cc57dafbafULL},
        {"verifyOnly", verify_only, "mcf", none, false,
         {"ctrl.correctionWrites", "ctrl.cascadeVerifies",
          "ctrl.cycles.verify"},
         {"ctrl.cycles.correction"}, 0x7b40810128bf2ea0ULL},
        {"ecpCost", ecp_cost, "mcf", none, false,
         {"ctrl.ecpUpdates", "ctrl.cycles.ecp"}, {},
         0x7d0ad5e7d199f01cULL},
        {"fnw", SchemeConfig::fnwVnc(), "mcf", none, false,
         {"ctrl.verifyReads", "ctrl.correctionWrites",
          "ctrl.cascadeVerifies"},
         {}, 0xf4468cf793fd1980ULL},
        {"din", SchemeConfig::din8F2(), "mcf", none, false,
         {"ctrl.writesCompleted"},
         {"ctrl.verifyReads", "ctrl.correctionWrites",
          "ctrl.cycles.verify"},
         0x0db23381c6160f25ULL},
        {"stormOracle", storm_wc, "qstress", storm, true,
         {"ctrl.writeCancellations", "device.injectedStuckCells",
          "ctrl.preReadsUseful", "ctrl.correctionWrites",
          "oracle.readsChecked"},
         {"oracle.mismatches"}, 0xd9a45e49d96640b5ULL},
    };
}

class ControllerDifferential
    : public ::testing::TestWithParam<CtrlDiffCase>
{};

/**
 * Every simulated statistic, the final line states and the Chrome trace
 * bytes of one small run hash to a recorded digest. The cases cover the
 * controller paths the golden report never runs (write cancellation,
 * ECP overflow and update cost, uncharged corrections, small drain
 * bursts), so reordering the VnC steps changes several digests.
 */
TEST_P(ControllerDifferential, RunMatchesRecordedDigest)
{
    const CtrlDiffCase& c = GetParam();
    const std::string trace =
        ::testing::TempDir() + "sdpcm_ctrl_diff_" + c.name + ".trace.json";
    SystemConfig sc;
    sc.cores = 2;
    sc.refsPerCore = 600;
    sc.seed = 11;
    sc.spans = true;
    sc.wdLedger = true;
    sc.tracePath = trace;
    sc.verifyOracle = c.oracle;
    sc.faults = c.faults;
    sc.scheme = c.scheme;
    System sys(sc, workloadFromProfile(c.workload));
    sys.run();
    const StatSnapshot snap = sys.metrics().toSnapshot();

    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [name, value] : snap.values()) {
        mixText(h, name);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        mix(h, bits);
    }
    mix(h, sys.device().lineStateDigest());
    std::ifstream is(trace, std::ios::binary);
    ASSERT_TRUE(is) << trace;
    const std::string bytes{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
    is.close();
    std::remove(trace.c_str());
    EXPECT_GT(bytes.size(), 0u);
    mixText(h, bytes);
    EXPECT_EQ(h, c.digest) << std::hex << "0x" << h;

    for (const char* name : c.positive)
        EXPECT_GT(snap.get(name), 0.0) << name;
    for (const char* name : c.zero)
        EXPECT_EQ(snap.get(name), 0.0) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ControllerDifferential, ::testing::ValuesIn(ctrlDiffCases()),
    [](const ::testing::TestParamInfo<CtrlDiffCase>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace sdpcm
