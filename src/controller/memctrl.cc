#include "controller/memctrl.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"
#include "obs/ledger.hh"
#include "verify/oracle.hh"

namespace sdpcm {

namespace {

/** Trace name and billed CtrlStats cycle counter of each bank-op kind,
 *  in MemoryController::OpKind order (completeOp() finishes each). A
 *  cancel refunds the same counter. */
struct OpInfo
{
    const char* name;
    std::uint64_t CtrlStats::*cycles;
};

constexpr OpInfo kOpInfo[] = {
    {"Read", &CtrlStats::cyclesRead},
    {"PreRead", &CtrlStats::cyclesPreRead},
    {"VerifyRead", &CtrlStats::cyclesVerify},      // WritePreRead
    {"WriteRound", &CtrlStats::cyclesWrite},
    {"VerifyRead", &CtrlStats::cyclesVerify},      // WriteVerify
    {"EcpUpdate", &CtrlStats::cyclesEcp},
    {"CascadeRead", &CtrlStats::cyclesCorrection}, // CorrPreRead
    {"CorrectionRound", &CtrlStats::cyclesCorrection},
    {"CascadeRead", &CtrlStats::cyclesCorrection}, // CorrVerify
};

/** Span phases of a write's in-service pre-read and verify reads, by
 *  side (upper, lower). */
constexpr SpanPhase kPreReadPhase[] = {SpanPhase::PreReadUp,
                                       SpanPhase::PreReadLow};
constexpr SpanPhase kVerifyPhase[] = {SpanPhase::VerifyUp,
                                      SpanPhase::VerifyLow};

/** The stage after `s`: both service machines step through their
 *  stages in declaration order. */
template <typename Stage>
Stage
nextStage(Stage s)
{
    return static_cast<Stage>(static_cast<int>(s) + 1);
}

} // namespace

MemoryController::MemoryController(EventQueue& events, PcmDevice& device,
                                   const SchemeConfig& scheme,
                                   std::uint64_t seed)
    : events_(events),
      device_(device),
      scheme_(scheme),
      rng_(seed ^ 0xc0117011e5ULL)
{
    SDPCM_ASSERT(scheme_.writeQueueEntries >= 1, "write queue too small");
    if (scheme_.writeQueueEntries > kMaxWriteQueueEntries) {
        SDPCM_FATAL("a write queue of ", scheme_.writeQueueEntries,
                    " entries exceeds the ", kMaxWriteQueueEntries,
                    " entries a bank queues");
    }
    // A drain burst never exceeds half the queue: small queues must not
    // block reads for a whole-queue flush. The lower bound matters too:
    // a zero burst would start a drain that can never retire a write,
    // tripping the "drain state out of sync" assert on the first kick.
    scheme_.drainBurstWrites = std::clamp(
        scheme_.drainBurstWrites, 1u,
        std::max(1u, scheme_.writeQueueEntries / 2));
    static_assert(DimmGeometry::banks() <= kBankMask,
                  "too many banks for the event bank field");
    banks_.resize(DimmGeometry::banks());
}

MemoryController::Adjacents
MemoryController::adjacentsOf(const LineAddr& la, const NmRatio& tag,
                              std::uint64_t* skipped) const
{
    Adjacents adj;
    if (!scheme_.superDense)
        return adj;
    const AddressMap& map = device_.addressMap();
    const NmPolicy pol(tag);
    const std::uint64_t strip = map.stripOfRow(la.row);
    const std::optional<LineAddr> lines[] = {map.upperNeighbor(la),
                                             map.lowerNeighbor(la)};
    const bool used[] = {pol.verifyUpper(strip), pol.verifyLower(strip)};
    for (unsigned side = 0; side < 2; ++side) {
        if (!lines[side])
            continue;
        if (used[side]) {
            adj[side].need = true;
            adj[side].addr = *lines[side];
        } else if (skipped) {
            *skipped += 1;
        }
    }
    return adj;
}

const LineData*
MemoryController::pendingPayload(unsigned bank, const LineAddr& la) const
{
    const Bank& b = banks_[bank];
    if (b.pendingByBucket[pendingBucket(la)] == 0)
        return nullptr;
    for (auto it = b.writeQueue.rbegin(); it != b.writeQueue.rend();
         ++it) {
        if (it->la == la)
            return &it->payload;
    }
    if (b.active && b.active->w.la == la)
        return &b.active->w.payload;
    return nullptr;
}

LineData
MemoryController::mutatePayload(const LineData& base, double density)
{
    LineData out = base;
    if (density <= 0.0)
        return out;
    const unsigned flips = static_cast<unsigned>(
        density * kLineBits + 0.5);
    for (unsigned i = 0; i < flips; ++i)
        out.flipBit(static_cast<unsigned>(rng_.below(kLineBits)));
    return out;
}

void
MemoryController::submitRead(PhysAddr addr, unsigned core_id,
                             ReadClient& client)
{
    const LineAddr la = device_.addressMap().decode(addr);
    Bank& b = banks_[la.bank];

    // Forward from pending writes (they hold the newest data).
    if (const LineData* pending = pendingPayload(la.bank, la)) {
        stats_.readsForwarded += 1;
        if (obs_.oracle)
            obs_.oracle->noteForwardedRead(la, *pending);
        // Deliveries are all due now, so they fire in FIFO order.
        forwards_.push_back(ForwardedRead{&client, *pending});
        events_.scheduleAfter(0, *this, kForwardArg);
        return;
    }

    PendingRead pr{la, core_id, events_.now(), &client,
                   SpanRecorder::kNull, 0};
    if (obs_.spans) {
        pr.span = obs_.spans->open(/*is_write=*/false, events_.now());
        pr.drainSnap = drainCumNow(b);
    }
    b.readQueue.push_back(pr);

    // Write cancellation: abort a cancellable in-flight write operation
    // so the read can be served immediately.
    if (scheme_.writeCancellation)
        maybeCancelForRead(la.bank);
    kick(la.bank);
}

void
MemoryController::maybeCancelForRead(unsigned bank)
{
    Bank& b = banks_[bank];
    if (!b.busy || !b.opCancellable || !b.active)
        return;
    if (b.active->w.cancels >= scheme_.maxCancelsPerWrite)
        return;

    // Refund the unelapsed cycles of the aborted operation.
    const Tick elapsed = events_.now() - b.opStart;
    stats_.*kOpInfo[static_cast<unsigned>(b.opKind)].cycles -=
        b.opLatency - elapsed;

    if (obs_.trace) {
        // Close the op's duration event early and mark the abort.
        obs_.trace->end(bank, events_.now(), {{"cancelled", 1.0}});
        if (b.opSpanTraced)
            obs_.trace->end(bank, events_.now(), {{"cancelled", 1.0}});
        obs_.trace->instant(bank, "write_cancel", "ctrl", events_.now(),
                             {{"elapsed", static_cast<double>(elapsed)}});
    }
    b.opSpanTraced = false;
    b.opGen += 1; // the scheduled completion becomes a no-op
    b.busy = false;
    b.opCancellable = false;
    // The cancelling read gets served before the drain resumes.
    b.wcReadGrace += 1;
    cancelActive(bank);
}

bool
MemoryController::canAcceptWrite(PhysAddr addr) const
{
    const LineAddr la = device_.addressMap().decode(addr);
    return banks_[la.bank].writeQueue.size() < scheme_.writeQueueEntries;
}

bool
MemoryController::submitWrite(PhysAddr addr, const NmRatio& tag,
                              unsigned core_id, double flip_density)
{
    const LineAddr la = device_.addressMap().decode(addr);
    const LineData* pending = pendingPayload(la.bank, la);
    const LineData base = pending ? *pending : device_.peekLine(la);
    return submitWriteData(addr, tag, core_id,
                           mutatePayload(base, flip_density));
}

bool
MemoryController::submitWriteData(PhysAddr addr, const NmRatio& tag,
                                  unsigned core_id,
                                  const LineData& payload)
{
    const LineAddr la = device_.addressMap().decode(addr);
    Bank& b = banks_[la.bank];

    // Coalesce into an already-queued write to the same line. Scan
    // backward: write cancellation can leave two entries for one line
    // (the cancelled write re-queued at the front plus a later-accepted
    // one), and only the back entry commits last — merging new data into
    // an earlier entry would let the final array state revert to the
    // older payload when the back entry commits over it.
    for (std::size_t idx = b.writeQueue.size(); idx-- > 0;) {
        QueuedWrite& entry = b.writeQueue[idx];
        if (!(entry.la == la))
            continue;
        entry.payload = payload;
        stats_.writesCoalesced += 1;
        // Entries behind the coalesce target may have forwarded its old
        // payload into their pre-read buffers; refresh them so VnC does
        // not verify against data that will never be in the array.
        refreshBuffers(la.bank, idx + 1, la, payload);
        if (obs_.oracle)
            obs_.oracle->noteWriteSubmitted(la, payload, /*new_entry=*/false);
        return true;
    }

    if (b.writeQueue.size() >= scheme_.writeQueueEntries)
        return false;

    QueuedWrite w;
    w.la = la;
    w.tag = tag;
    w.coreId = core_id;
    w.id = nextWriteId_++;
    w.enqueueTick = events_.now();
    w.payload = payload;
    w.adj = adjacentsOf(la, tag, &stats_.adjacentsSkippedNm);
    if (obs_.spans)
        w.span = obs_.spans->open(/*is_write=*/true, events_.now());
    b.writeQueue.push_back(std::move(w));
    b.pendingByBucket[pendingBucket(la)] += 1;
    b.capturesSettled = false; // the new entry may need captures
    stats_.writesAccepted += 1;
    if (obs_.oracle)
        obs_.oracle->noteWriteSubmitted(la, payload, /*new_entry=*/true);

    drainIfFull(la.bank);
    kick(la.bank);
    return true;
}

void
MemoryController::drainIfFull(unsigned bank)
{
    Bank& b = banks_[bank];
    if (b.draining || b.writeQueue.size() < scheme_.writeQueueEntries)
        return;
    b.draining = true;
    b.drainStart = events_.now();
    b.drainRemaining = scheme_.drainBurstWrites;
    stats_.writeDrains += 1;
    if (obs_.trace) {
        obs_.trace->instant(bank, "drain_start", "ctrl", events_.now(),
                             {{"queued", static_cast<double>(
                                   b.writeQueue.size())}});
    }
}

Tick
MemoryController::drainCumNow(const Bank& b) const
{
    return b.drainCum +
           (b.draining ? events_.now() - b.drainStart : Tick(0));
}

void
MemoryController::onWriteSpace(PhysAddr addr, EventTarget& target,
                               std::uint64_t arg)
{
    const LineAddr la = device_.addressMap().decode(addr);
    banks_[la.bank].spaceWaiters.push_back(SpaceWaiter{&target, arg});
}

void
MemoryController::notifySpace(unsigned bank)
{
    // Defer through the event queue: waiters re-enter submitWrite/kick,
    // which must not run in the middle of a service-state transition.
    std::vector<SpaceWaiter>& waiters = banks_[bank].spaceWaiters;
    for (const SpaceWaiter& w : waiters)
        events_.scheduleAfter(0, *w.target, w.arg);
    waiters.clear();
}

bool
MemoryController::quiescent() const
{
    for (const auto& b : banks_) {
        if (b.busy || b.active || !b.readQueue.empty() ||
            !b.writeQueue.empty()) {
            return false;
        }
    }
    return true;
}

std::uint64_t
MemoryController::pendingWrites() const
{
    std::uint64_t n = 0;
    for (const auto& b : banks_)
        n += b.writeQueue.size() + (b.active ? 1 : 0);
    return n;
}

std::uint64_t
MemoryController::inFlightWrites() const
{
    std::uint64_t n = 0;
    for (const auto& b : banks_)
        n += b.active ? 1 : 0;
    return n;
}

std::size_t
MemoryController::readQueueDepth(unsigned bank) const
{
    return banks_[bank].readQueue.size();
}

std::size_t
MemoryController::writeQueueDepth(unsigned bank) const
{
    return banks_[bank].writeQueue.size();
}

std::uint64_t
MemoryController::pendingCorrections() const
{
    std::uint64_t n = 0;
    for (const auto& b : banks_) {
        if (b.active)
            n += b.active->tasks.size() + (b.active->corr ? 1 : 0);
    }
    return n;
}

void
MemoryController::occupy(unsigned bank, Tick latency, OpKind kind,
                         bool cancellable, SpanRecorder::Handle span,
                         SpanPhase span_phase)
{
    Bank& b = banks_[bank];
    SDPCM_ASSERT(!b.busy, "bank ", bank, " double-occupied");
    b.busy = true;
    b.opGen += 1;
    b.opCancellable = cancellable;
    b.opKind = kind;
    b.opStart = events_.now();
    b.opLatency = latency;
    static_assert(std::size(kOpInfo) ==
                  static_cast<std::size_t>(OpKind::CorrVerify) + 1);
    const OpInfo& op = kOpInfo[static_cast<unsigned>(kind)];
    stats_.*op.cycles += latency;
    const bool spanned = obs_.spans && span != SpanRecorder::kNull;
    b.opSpan = spanned ? span : SpanRecorder::kNull;
    if (spanned)
        obs_.spans->transition(span, span_phase, b.opStart);
    // Phase event first so the op's duration nests inside it.
    b.opSpanTraced = obs_.trace && spanned;
    if (b.opSpanTraced)
        obs_.trace->begin(bank, spanPhaseName(span_phase), "span", b.opStart);
    if (obs_.trace)
        obs_.trace->begin(bank, op.name, "bank", b.opStart);
    events_.scheduleAfter(latency, *this, opArg(b, bank));
}

void
MemoryController::fire(std::uint64_t arg)
{
    if (arg == kForwardArg) {
        // Copy the entry out first: the client may submit another read.
        const ForwardedRead fwd = forwards_.front();
        forwards_.pop_front();
        fwd.client->readDone(fwd.data);
        return;
    }
    const unsigned bank = static_cast<unsigned>(arg & kBankMask);
    Bank& b = banks_[bank];
    if (arg != opArg(b, bank))
        return; // operation was cancelled
    b.busy = false;
    b.opCancellable = false;
    if (obs_.trace)
        obs_.trace->end(bank, events_.now());
    if (b.opSpanTraced) {
        obs_.trace->end(bank, events_.now());
        b.opSpanTraced = false;
    }
    // The op's client may occupy this bank again before completeOp()
    // returns, so keep the span to release first. A read closes its
    // span itself.
    const SpanRecorder::Handle release =
        b.opKind != OpKind::Read ? b.opSpan : SpanRecorder::kNull;
    completeOp(bank);
    if (release != SpanRecorder::kNull)
        obs_.spans->transition(release, SpanPhase::QueueWait,
                               events_.now());
    kick(bank);
}

void
MemoryController::completeOp(unsigned bank)
{
    Bank& b = banks_[bank];
    const unsigned side = b.opSide;
    switch (b.opKind) {
      case OpKind::Read: {
        // Re-validate forwarding at service time: a write to this line
        // may have been accepted — or gone into service and be
        // partially programmed — since the read queued (e.g. a
        // cancellation's read grace fires mid-drain). The array would
        // return torn or stale data; the pending payload is the line's
        // architecturally current value.
        PROF_SCOPE(obs_.prof, ReadService);
        const PendingRead req = b.opRead;
        const LineData* fwd = pendingPayload(bank, req.la);
        if (fwd)
            stats_.readsForwardedAtService += 1;
        const LineData data = fwd ? *fwd : device_.readLine(req.la);
        stats_.readsServiced += 1;
        stats_.readLatency.record(
            static_cast<double>(events_.now() - req.enqueueTick));
        if (obs_.oracle) {
            PROF_SCOPE(obs_.prof, OracleCheck);
            if (fwd)
                obs_.oracle->noteForwardedRead(req.la, data);
            else
                obs_.oracle->noteArrayRead(req.la, data);
        }
        if (obs_.spans && req.span != SpanRecorder::kNull)
            obs_.spans->close(req.span, events_.now());
        req.client->readDone(data);
        return;
      }
      case OpKind::PreRead: {
        // Pre-read captures feed the write's verify stage, so their
        // host cost bills there.
        PROF_SCOPE(obs_.prof, VerifyScan);
        const LineData data = device_.readLine(b.opTarget);
        stats_.preReadsIssued += 1;
        if (obs_.oracle) {
            PROF_SCOPE(obs_.prof, OracleCheck);
            obs_.oracle->notePreReadCapture(b.opTarget, data);
        }
        // Re-locate the entry by id; it may have moved (or gained a
        // same-line twin via cancellation).
        for (auto& entry : b.writeQueue) {
            if (entry.id == b.opWriteId) {
                entry.adj[side].data = data;
                entry.adj[side].have = true;
                return;
            }
        }
        // Entry already in service or gone; drop the data.
        return;
      }
      case OpKind::WritePreRead: {
        PROF_SCOPE(obs_.prof, VerifyScan);
        ActiveWrite& a = *b.active;
        Adjacent& buf = a.w.adj[side];
        buf.data = device_.readLine(buf.addr);
        buf.have = true;
        stats_.verifyReads += 1;
        a.stage = nextStage(a.stage);
        return;
      }
      case OpKind::WriteRound: {
        PROF_SCOPE(obs_.prof, WriteRound);
        ActiveWrite& a = *b.active;
        if (obs_.ledger)
            obs_.ledger->beginOp(a.w.coreId, 0);
        PcmDevice::RoundOutcome outcome;
        const bool applied = device_.applyNextRound(b.writePlan, outcome);
        SDPCM_ASSERT(applied, "round vanished");
        return;
      }
      case OpKind::WriteVerify: {
        PROF_SCOPE(obs_.prof, VerifyScan);
        ActiveWrite& a = *b.active;
        const Adjacent& n = a.w.adj[side];
        device_.verifyLineInto(n.addr, n.data, diffScratch_);
        stats_.verifyReads += 1;
        a.stage = nextStage(a.stage);
        if (obs_.oracle) {
            PROF_SCOPE(obs_.prof, OracleCheck);
            obs_.oracle->noteVerifyBuffer(n.addr, n.data, a.w.id);
        }
        handleVerifyErrors(bank, n.addr, diffScratch_, 1);
        return;
      }
      case OpKind::EcpUpdate:
        return;
      case OpKind::CorrPreRead: {
        PROF_SCOPE(obs_.prof, Correction);
        ActiveCorrection& c = *b.active->corr;
        Adjacent& buf = c.adj[side];
        buf.data = device_.readLine(buf.addr);
        buf.have = true;
        c.stage = nextStage(c.stage);
        return;
      }
      case OpKind::CorrectionRound: {
        PROF_SCOPE(obs_.prof, Correction);
        ActiveWrite& a = *b.active;
        ActiveCorrection& c = *a.corr;
        if (obs_.ledger)
            obs_.ledger->beginOp(a.w.coreId, c.task.depth);
        PcmDevice::RoundOutcome outcome;
        const bool applied = device_.applyNextRound(b.corrPlan, outcome);
        SDPCM_ASSERT(applied, "round vanished");
        return;
      }
      case OpKind::CorrVerify: {
        PROF_SCOPE(obs_.prof, Correction);
        ActiveCorrection& c = *b.active->corr;
        const Adjacent& n = c.adj[side];
        device_.verifyLineInto(n.addr, n.data, diffScratch_);
        stats_.cascadeVerifies += 1;
        c.stage = nextStage(c.stage);
        handleVerifyErrors(bank, n.addr, diffScratch_, c.task.depth + 1);
        return;
      }
    }
}

void
MemoryController::kick(unsigned bank)
{
    Bank& b = banks_[bank];
    if (b.busy)
        return;
    // Scheduler pass: drain bookkeeping and issue decisions bill to
    // CtrlKick; the service bodies run later in their own scopes, and
    // inline round planning opens nested WriteRound/Correction scopes.
    PROF_SCOPE(obs_.prof, CtrlKick);

    // Close out an exhausted drain burst before deciding anything else.
    if (b.draining && !b.active &&
        (b.drainRemaining == 0 || b.writeQueue.empty())) {
        b.draining = false;
        b.drainCum += events_.now() - b.drainStart;
    }
    // A (still) full queue immediately triggers the next burst.
    drainIfFull(bank);

    // Write cancellation lets the cancelling read cut in before the
    // write burst resumes (one read per cancellation).
    if (b.wcReadGrace > 0 && !b.readQueue.empty()) {
        b.wcReadGrace -= 1;
        serviceRead(bank);
        return;
    }
    b.wcReadGrace = 0;

    // Bursty drain: writes (and their VnC) run back to back, blocking
    // reads, for a bounded burst (Table 2 policy with a latency cap).
    if (b.draining) {
        if (b.active) {
            advanceWrite(bank);
            return;
        }
        SDPCM_ASSERT(b.drainRemaining > 0 && !b.writeQueue.empty(),
                     "drain state out of sync");
        b.drainRemaining -= 1;
        startWriteService(bank);
        return;
    }

    // Reads preempt a suspended write service at operation boundaries.
    if (!b.readQueue.empty()) {
        serviceRead(bank);
        return;
    }

    if (b.active) {
        advanceWrite(bank);
        return;
    }

    if (scheme_.idleWriteDrain && !b.writeQueue.empty()) {
        startWriteService(bank);
        return;
    }

    if (scheme_.preRead && !b.writeQueue.empty())
        tryIssuePreRead(bank);
}

void
MemoryController::serviceRead(unsigned bank)
{
    Bank& b = banks_[bank];
    const PendingRead req = b.readQueue.front();
    b.readQueue.pop_front();
    const SpanRecorder::Handle span = req.span;
    if (obs_.spans && span != SpanRecorder::kNull) {
        // Carve the drain-burst overlap out of the read's queue wait:
        // that slice is the bursty-write policy's fault, not generic
        // contention.
        obs_.spans->transitionSplit(span, SpanPhase::Drain,
                                     drainCumNow(b) - req.drainSnap,
                                     SpanPhase::QueueWait, events_.now());
    }
    b.opRead = req;
    occupy(bank, device_.config().timing.readCycles, OpKind::Read,
           /*cancellable=*/false, span, SpanPhase::ReadService);
}

void
MemoryController::tryIssuePreRead(unsigned bank)
{
    Bank& b = banks_[bank];
    // kick() advances a write in service before it gets here, so every
    // line a capture could forward from is still in the queue.
    SDPCM_ASSERT(!b.active, "pre-read during a write service");
    // A cancelled, partially-programmed write parked at the queue front
    // has disturbed its bit-line neighbours without having verified them
    // yet (that happens when it resumes). An array capture taken in this
    // idle window would buffer the un-corrected flips and go stale the
    // moment the resumed write's verify repairs them — so hold all
    // captures until the aborted write retires. Payload forwarding would
    // be safe, but the window is a few reads long; skipping it entirely
    // keeps the rule simple.
    if (!b.writeQueue.empty() && b.writeQueue.front().cancels > 0)
        return;
    // A scan that issued nothing left every queued entry's neighbours
    // captured or forwarded. An entry's `need` is fixed when it is
    // queued and its `have` only ever turns true, so until another
    // entry is queued a new scan would find nothing either.
    if (b.capturesSettled)
        return;
    const Tick read_lat = device_.config().timing.readCycles;
    for (std::size_t i = 0; i < b.writeQueue.size(); ++i) {
        QueuedWrite& w = b.writeQueue[i];
        for (unsigned side = 0; side < 2; ++side) {
            Adjacent& n = w.adj[side];
            if (!n.need || n.have)
                continue;
            // Forward from an earlier pending write to the adjacent line
            // (it will have committed by the time this write services).
            // Scan backward: with duplicate entries for one line (a
            // cancellation artefact) the later one commits last, so only
            // its payload is the value this write will find in the array.
            for (std::size_t j = i; j-- > 0;) {
                if (b.writeQueue[j].la == n.addr) {
                    n.data = b.writeQueue[j].payload;
                    n.have = true;
                    stats_.preReadsForwarded += 1;
                    break;
                }
            }
            if (n.have)
                continue; // no bank op needed
            // Issue the pre-read against the array.
            if (obs_.spans && w.span != SpanRecorder::kNull) {
                // The capture burns bank cycles but the write it serves
                // keeps queue-waiting: hidden, not critical, cycles.
                obs_.spans->hidden(w.span, kPreReadPhase[side], read_lat);
            }
            b.opTarget = n.addr;
            b.opWriteId = w.id;
            b.opSide = side;
            occupy(bank, read_lat, OpKind::PreRead);
            return;
        }
    }
    b.capturesSettled = true;
}

void
MemoryController::startWriteService(unsigned bank)
{
    Bank& b = banks_[bank];
    SDPCM_ASSERT(!b.active, "write service while another is active");
    SDPCM_ASSERT(!b.writeQueue.empty(), "write service on empty queue");

    ActiveWrite aw;
    aw.w = std::move(b.writeQueue.front());
    b.writeQueue.pop_front();
    aw.serviceStart = events_.now();
    if (obs_.spans && aw.w.span != SpanRecorder::kNull)
        obs_.spans->beginAttempt(aw.w.span, events_.now());
    b.active.emplace(std::move(aw));
    notifySpace(bank);
    advanceWrite(bank);
}

void
MemoryController::cancelActive(unsigned bank)
{
    Bank& b = banks_[bank];
    SDPCM_ASSERT(b.active, "cancel without active write");
    // Only pre-read and program-round ops are cancellable: nothing has
    // been verified, so no correction can be queued yet.
    SDPCM_ASSERT(b.active->tasks.empty() && !b.active->corr,
                 "cancelled a write with corrections queued");
    PROF_SCOPE(obs_.prof, Cancel);
    QueuedWrite w = std::move(b.active->w);
    const Tick serviceStart = b.active->serviceStart;
    if (b.active->planned) {
        // Rounds already applied keep their programming effects.
        // Bit-line damage is covered by the kept pre-read buffers +
        // verify on the next attempt, and same-line damage by the
        // re-plan diff — but in-row (word-line) hits on ADJACENT lines
        // are repaired only by the commit path, and the re-plan clears
        // the hit list. Repair them NOW: until this entry recommits the
        // bank is read-idle, so a demand read or pre-read capture of
        // those neighbours would otherwise observe (and buffer) the
        // aborted attempt's damage.
        if (obs_.ledger)
            obs_.ledger->beginCancelRepair();
        device_.repairWlHits(b.writePlan);
        if (obs_.ledger)
            obs_.ledger->endCancelRepair();
    }
    b.active.reset();
    w.cancels += 1;
    if (obs_.ledger)
        obs_.ledger->noteCancel(w.la);
    stats_.writeCancellations += 1;
    // The whole aborted attempt is sunk cost: its work will be re-done
    // when the entry resumes from the queue front.
    stats_.cancelStallCycles += events_.now() - serviceStart;
    if (obs_.spans && w.span != SpanRecorder::kNull)
        obs_.spans->cancelAttempt(w.span, events_.now());
    // The write still pends, so its bucket count stays. Nor does the
    // requeue unsettle captures: the entry waits at the queue front
    // with cancels > 0, which holds every capture until it leaves the
    // queue again for service.
    b.writeQueue.push_front(std::move(w));
}

void
MemoryController::completeWrite(unsigned bank)
{
    Bank& b = banks_[bank];
    SDPCM_ASSERT(b.active, "complete without active write");
    SDPCM_ASSERT(b.active->tasks.empty() && !b.active->corr,
                 "write completed with corrections outstanding");
    stats_.writesCompleted += 1;
    stats_.writeServiceLatency.record(
        static_cast<double>(events_.now() - b.active->serviceStart));
    stats_.cascadeDepth.record(
        static_cast<double>(b.active->maxDepthSeen));
    if (obs_.oracle)
        obs_.oracle->noteServiceEnd(b.active->w.id);
    if (obs_.spans && b.active->w.span != SpanRecorder::kNull)
        obs_.spans->close(b.active->w.span, events_.now());
    std::uint16_t& pending =
        b.pendingByBucket[pendingBucket(b.active->w.la)];
    SDPCM_ASSERT(pending > 0, "pending-write count out of sync");
    pending -= 1;
    b.active.reset();
}

void
MemoryController::refreshBuffers(unsigned bank, std::size_t first,
                                 const LineAddr& la, const LineData& data)
{
    auto& queue = banks_[bank].writeQueue;
    for (std::size_t k = first; k < queue.size(); ++k) {
        for (Adjacent& n : queue[k].adj) {
            if (n.have && n.addr == la) {
                n.data = data;
                stats_.preReadsRefreshed += 1;
            }
        }
    }
}

void
MemoryController::handleVerifyErrors(unsigned bank, const LineAddr& addr,
                                     const std::vector<unsigned>& errors,
                                     unsigned depth)
{
    if (errors.empty())
        return;
    Bank& b = banks_[bank];
    SDPCM_ASSERT(b.active, "verify errors without active write");
    ActiveWrite& a = *b.active;

    std::vector<unsigned> cells;
    if (scheme_.lazyCorrection) {
        if (device_.recordWdInEcp(addr, errors)) {
            // All parked: correction demand consolidated into ECP.
            stats_.ecpUpdates += 1;
            a.pendingEcpCycles += scheme_.ecpUpdateCycles;
            return;
        }
        // Overflow: correct everything parked plus the new errors.
        cells = device_.ecpWdCells(addr);
        cells.insert(cells.end(), errors.begin(), errors.end());
        std::sort(cells.begin(), cells.end());
        cells.erase(std::unique(cells.begin(), cells.end()),
                    cells.end());
        if (obs_.trace) {
            obs_.trace->instant(bank, "ecp_overflow", "ctrl", events_.now(),
                                 {{"cells", static_cast<double>(
                                       cells.size())}});
        }
    } else {
        cells = errors;
    }

    if (depth > kMaxCascadeDepth) {
        stats_.cascadeDropped += 1;
        if (obs_.oracle)
            obs_.oracle->noteUncorrectedDrop(addr);
        SDPCM_WARN("cascade depth cap hit at bank ", bank,
                   " row ", addr.row);
        return;
    }
    if (obs_.trace && depth >= kCascadeSpikeDepth) {
        obs_.trace->instant(bank, "cascade_spike", "ctrl", events_.now(),
                             {{"depth", static_cast<double>(depth)}});
    }
    a.maxDepthSeen = std::max(a.maxDepthSeen, depth);
    a.tasks.push_back(CorrectionTask{addr, std::move(cells), depth});
}

void
MemoryController::advanceWrite(unsigned bank)
{
    Bank& b = banks_[bank];
    SDPCM_ASSERT(b.active, "advance without active write");
    ActiveWrite& a = *b.active;
    const Tick read_lat = device_.config().timing.readCycles;

    while (true) {
        switch (a.stage) {
          case ActiveWrite::Stage::PreUpper:
          case ActiveWrite::Stage::PreLower: {
            const unsigned side = a.stage == ActiveWrite::Stage::PreLower;
            const Adjacent& n = a.w.adj[side];
            if (!n.need || n.have) {
                if (n.have)
                    stats_.preReadsUseful += 1;
                a.stage = nextStage(a.stage);
                break;
            }
            b.opSide = side;
            occupy(bank, read_lat, OpKind::WritePreRead,
                   /*cancellable=*/true, a.w.span, kPreReadPhase[side]);
            return;
          }
          case ActiveWrite::Stage::Rounds: {
            if (!a.planned) {
                PROF_SCOPE(obs_.prof, WriteRound);
                device_.planWriteInto(b.writePlan, a.w.la, a.w.payload);
                a.planned = true;
                if (obs_.oracle) {
                    PROF_SCOPE(obs_.prof, OracleCheck);
                    obs_.oracle->noteRoundsStart(a.w.id, a.w.la);
                }
            }
            const auto peek = device_.peekNextRound(b.writePlan);
            if (peek.valid) {
                occupy(bank, peek.latency, OpKind::WriteRound,
                       /*cancellable=*/true, a.w.span,
                       SpanPhase::WriteRounds);
                return;
            }
            {
                PROF_SCOPE(obs_.prof, WriteRound);
                device_.finishWrite(b.writePlan);
                refreshBuffers(bank, 0, a.w.la, a.w.payload);
                if (obs_.oracle) {
                    PROF_SCOPE(obs_.prof, OracleCheck);
                    obs_.oracle->noteWriteCommitted(a.w.la, a.w.payload);
                }
            }
            a.stage = ActiveWrite::Stage::VerUpper;
            break;
          }
          case ActiveWrite::Stage::VerUpper:
          case ActiveWrite::Stage::VerLower: {
            const unsigned side = a.stage == ActiveWrite::Stage::VerLower;
            if (!a.w.adj[side].need) {
                a.stage = nextStage(a.stage);
                break;
            }
            b.opSide = side;
            occupy(bank, read_lat, OpKind::WriteVerify,
                   /*cancellable=*/false, a.w.span, kVerifyPhase[side]);
            return;
          }
          case ActiveWrite::Stage::Corrections: {
            if (a.pendingEcpCycles > 0) {
                const Tick lat = a.pendingEcpCycles;
                a.pendingEcpCycles = 0;
                occupy(bank, lat, OpKind::EcpUpdate,
                       /*cancellable=*/false, a.w.span,
                       SpanPhase::LazyCorrect);
                return;
            }
            if (a.corr) {
                advanceCorrection(bank);
                return;
            }
            if (a.tasks.empty()) {
                completeWrite(bank);
                kick(bank);
                return;
            }
            ActiveCorrection c;
            c.task = std::move(a.tasks.front());
            a.tasks.pop_front();
            c.adj = adjacentsOf(c.task.addr, a.w.tag);
            for (Adjacent& n : c.adj) {
                if (n.need && n.addr == a.w.la) {
                    // The just-written line: its value is known.
                    n.data = a.w.payload;
                    n.have = true;
                }
            }
            a.corr.emplace(std::move(c));
            advanceCorrection(bank);
            return;
          }
        }
    }
}

void
MemoryController::advanceCorrection(unsigned bank)
{
    Bank& b = banks_[bank];
    SDPCM_ASSERT(b.active && b.active->corr,
                 "advanceCorrection without task");
    ActiveWrite& a = *b.active;
    ActiveCorrection& c = *a.corr;
    const Tick read_lat = scheme_.chargeCorrectionOps
        ? device_.config().timing.readCycles : 0;

    while (true) {
        switch (c.stage) {
          case ActiveCorrection::Stage::PreUp:
          case ActiveCorrection::Stage::PreLow: {
            const unsigned side = c.stage == ActiveCorrection::Stage::PreLow;
            const Adjacent& n = c.adj[side];
            if (!n.need || n.have) {
                c.stage = nextStage(c.stage);
                break;
            }
            b.opSide = side;
            occupy(bank, read_lat, OpKind::CorrPreRead,
                   /*cancellable=*/false, a.w.span, SpanPhase::LazyCorrect);
            return;
          }
          case ActiveCorrection::Stage::Rounds: {
            if (!c.planned) {
                PROF_SCOPE(obs_.prof, Correction);
                device_.planCorrectionInto(b.corrPlan, c.task.addr,
                                           c.task.cells);
                c.planned = true;
                stats_.correctionWrites += 1;
                // Correction rounds RESET cells too: their neighbourhood
                // becomes transiently dirty under the same writer.
                if (obs_.oracle) {
                    PROF_SCOPE(obs_.prof, OracleCheck);
                    obs_.oracle->noteRoundsStart(a.w.id, c.task.addr);
                }
            }
            const auto peek = device_.peekNextRound(b.corrPlan);
            if (peek.valid) {
                const Tick lat = scheme_.chargeCorrectionOps
                    ? peek.latency : 0;
                occupy(bank, lat, OpKind::CorrectionRound,
                       /*cancellable=*/false, a.w.span,
                       SpanPhase::LazyCorrect);
                return;
            }
            {
                PROF_SCOPE(obs_.prof, Correction);
                device_.finishWrite(b.corrPlan);
            }
            c.stage = ActiveCorrection::Stage::VerUp;
            break;
          }
          case ActiveCorrection::Stage::VerUp:
          case ActiveCorrection::Stage::VerLow: {
            const unsigned side = c.stage == ActiveCorrection::Stage::VerLow;
            if (!c.adj[side].need) {
                c.stage = nextStage(c.stage);
                break;
            }
            b.opSide = side;
            occupy(bank, read_lat, OpKind::CorrVerify,
                   /*cancellable=*/false, a.w.span, SpanPhase::LazyCorrect);
            return;
          }
          case ActiveCorrection::Stage::Done: {
            a.corr.reset();
            advanceWrite(bank);
            return;
          }
        }
    }
}

} // namespace sdpcm
