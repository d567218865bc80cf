#include "verify/oracle.hh"

#include <algorithm>
#include <ostream>

#include "obs/trace_sink.hh"

namespace sdpcm {

ShadowOracle::ShadowOracle(EventQueue& events, PcmDevice& device)
    : events_(events),
      device_(device)
{
    counts_.enabled = true;
}

bool
ShadowOracle::isDirty(LineIndex k) const
{
    const std::vector<std::uint64_t>* writers = dirtyBy_.find(k);
    return writers && !writers->empty();
}

bool
ShadowOracle::isDirtyByOther(LineIndex k, std::uint64_t writer) const
{
    const std::vector<std::uint64_t>* writers = dirtyBy_.find(k);
    if (!writers)
        return false;
    for (const std::uint64_t w : *writers) {
        if (w != writer)
            return true;
    }
    return false;
}

void
ShadowOracle::markVictim(std::uint64_t writer, const LineAddr& victim)
{
    const LineIndex k = key(victim);
    auto& writers = dirtyBy_[k];
    if (std::find(writers.begin(), writers.end(), writer) != writers.end())
        return;
    writers.push_back(writer);
    victimsOf_[writer].push_back(k);
}

bool
ShadowOracle::check(const char* kind, const LineAddr& la,
                    const LineData& expect, const LineData& actual,
                    bool mask_hard)
{
    LineData diff = expect.diff(actual);
    if (mask_hard) {
        const LineData dead = device_.uncorrectableMask(la);
        bool masked = false;
        for (unsigned w = 0; w < kLineWords; ++w) {
            masked |= (diff.words[w] & dead.words[w]) != 0;
            diff.words[w] &= ~dead.words[w];
        }
        if (masked)
            counts_.maskedUncorrectable += 1;
    }
    const unsigned bits = diff.popcount();
    if (bits == 0)
        return true;

    mismatchCount_ += 1;
    counts_.mismatches = mismatchCount_;
    if (mismatches_.size() < kMaxStoredMismatches) {
        OracleMismatch m;
        m.kind = kind;
        m.addr = la;
        m.tick = events_.now();
        m.diffBits = bits;
        m.diffMask = diff;
        m.expected = expect;
        m.actual = actual;
        mismatches_.push_back(std::move(m));
    }
    if (obs_.trace) {
        obs_.trace->instant(
            la.bank, "oracle_mismatch", "oracle", events_.now(),
            {{"row", static_cast<double>(la.row)},
             {"line", static_cast<double>(la.line)},
             {"diffBits", static_cast<double>(bits)}});
    }
    return false;
}

void
ShadowOracle::noteWriteSubmitted(const LineAddr& la, const LineData& payload,
                                 bool new_entry)
{
    LineInfo& li = info(la);
    li.expected = payload;
    li.haveExpected = true;
    if (new_entry)
        li.pending += 1;
}

void
ShadowOracle::noteWriteCommitted(const LineAddr& la, const LineData& payload)
{
    LineInfo& li = info(la);
    counts_.commitsChecked += 1;
    // A full data write replaces every cell, so any taint from a dropped
    // correction is gone after this commit.
    li.tainted = false;
    li.committed = payload;
    li.haveCommitted = true;
    if (li.pending > 0)
        li.pending -= 1;
    check("commit", la, payload, device_.peekLine(la), /*mask_hard=*/true);
}

void
ShadowOracle::noteForwardedRead(const LineAddr& la, const LineData& data)
{
    LineInfo& li = info(la);
    counts_.forwardsChecked += 1;
    // A forwarded read must observe the newest submitted payload — that is
    // the whole point of forwarding.
    if (li.haveExpected)
        check("forwarded_read", la, li.expected, data, /*mask_hard=*/false);
}

void
ShadowOracle::noteArrayRead(const LineAddr& la, const LineData& data)
{
    LineInfo& li = info(la);
    counts_.readsChecked += 1;
    const LineIndex k = key(la);
    if (isDirty(k)) {
        counts_.skippedDirty += 1;
        return;
    }
    if (li.tainted) {
        counts_.skippedTainted += 1;
        return;
    }
    if (!li.haveCommitted) {
        // First observation of a line we never wrote: adopt the device
        // content as the committed baseline (workload-synthesised initial
        // state).
        li.committed = data;
        li.haveCommitted = true;
        return;
    }
    check("array_read", la, li.committed, data, /*mask_hard=*/true);
}

void
ShadowOracle::notePreReadCapture(const LineAddr& la, const LineData& data)
{
    LineInfo& li = info(la);
    counts_.preReadsChecked += 1;
    const LineIndex k = key(la);
    if (isDirty(k)) {
        counts_.skippedDirty += 1;
        return;
    }
    if (li.tainted) {
        counts_.skippedTainted += 1;
        return;
    }
    if (!li.haveCommitted) {
        li.committed = data;
        li.haveCommitted = true;
        return;
    }
    check("preread_capture", la, li.committed, data, /*mask_hard=*/true);
}

void
ShadowOracle::noteVerifyBuffer(const LineAddr& la, const LineData& buffer,
                               std::uint64_t writer_id)
{
    LineInfo& li = info(la);
    counts_.buffersChecked += 1;
    const LineIndex k = key(la);
    // The adjacent line may legitimately carry another in-flight write's
    // disturbance; only this writer's own damage is expected to be absent
    // from the baseline buffer.
    if (isDirtyByOther(k, writer_id)) {
        counts_.skippedDirty += 1;
        return;
    }
    if (li.tainted) {
        counts_.skippedTainted += 1;
        return;
    }
    if (!li.haveCommitted) {
        li.committed = buffer;
        li.haveCommitted = true;
        return;
    }
    // This is THE stale-PreRead-buffer check: the baseline the controller
    // is about to verify/correct against must equal the adjacent line's
    // last committed logical value.
    check("verify_buffer", la, li.committed, buffer, /*mask_hard=*/true);
}

void
ShadowOracle::noteRoundsStart(std::uint64_t writer_id,
                              const LineAddr& written)
{
    const AddressMap& map = device_.addressMap();
    if (const auto up = map.upperNeighbor(written))
        markVictim(writer_id, *up);
    if (const auto down = map.lowerNeighbor(written))
        markVictim(writer_id, *down);
    // RESET heat also spreads along the word line inside the written row
    // (DIN narrows but does not eliminate it; FNW not at all).
    if (written.line > 0) {
        markVictim(writer_id,
                   LineAddr{written.bank, written.row, written.line - 1});
    }
    if (written.line + 1 < map.geometry().linesPerRow()) {
        markVictim(writer_id,
                   LineAddr{written.bank, written.row, written.line + 1});
    }
    // The written line itself is in flux until its commit.
    markVictim(writer_id, written);
}

void
ShadowOracle::noteServiceEnd(std::uint64_t writer_id)
{
    const auto it = victimsOf_.find(writer_id);
    if (it == victimsOf_.end())
        return;
    for (const LineIndex k : it->second)
        std::erase(dirtyBy_[k], writer_id);
    victimsOf_.erase(it);
}

void
ShadowOracle::noteUncorrectedDrop(const LineAddr& la)
{
    info(la).tainted = true;
}

void
ShadowOracle::finalCheck()
{
    // Deterministic order for reporting: (bank, row, line).
    for (const auto& [la, li] : lines_.sorted(device_.addressMap())) {
        if (!li->haveExpected)
            continue;
        if (li->pending > 0) {
            // A queued write never reached the device (e.g. still parked
            // at run end): the array legitimately holds older data.
            counts_.finalSkippedPending += 1;
            continue;
        }
        if (isDirty(key(la))) {
            counts_.finalSkippedDirty += 1;
            continue;
        }
        if (li->tainted) {
            counts_.skippedTainted += 1;
            continue;
        }
        counts_.finalLinesChecked += 1;
        check("final", la, li->expected, device_.peekLine(la),
              /*mask_hard=*/true);
    }
}

OracleSummary
ShadowOracle::summary() const
{
    return counts_;
}

void
ShadowOracle::report(std::ostream& os) const
{
    os << "oracle: " << mismatchCount_ << " mismatch(es)\n";
    for (const auto& m : mismatches_) {
        os << "  [" << m.kind << "] bank " << m.addr.bank << " row "
           << m.addr.row << " line " << m.addr.line << " tick " << m.tick
           << ": " << m.diffBits << " differing bit(s) at";
        unsigned listed = 0;
        forEachSetBit(m.diffMask, [&](unsigned bit) {
            if (listed < 8)
                os << ' ' << bit;
            listed += 1;
        });
        if (listed > 8)
            os << " ...";
        os << "\n";
    }
    if (mismatchCount_ > mismatches_.size()) {
        os << "  ... " << (mismatchCount_ - mismatches_.size())
           << " further mismatches not stored\n";
    }
}

} // namespace sdpcm
