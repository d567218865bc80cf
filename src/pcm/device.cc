#include "pcm/device.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <span>

#include "common/logging.hh"
#include "obs/ledger.hh"
#include "verify/faultinject.hh"

namespace sdpcm {

namespace {

/** Valid-flagged packed image of one ECP entry (for the wear model). */
std::uint16_t
packEcpEntry(const EcpEntry& entry)
{
    return static_cast<std::uint16_t>(0x8000u |
                                      (entry.cell() << 1) |
                                      (entry.value() ? 1u : 0u));
}

/** The ECP chip's image of `slot`: its packed entry, or 0 when free. */
std::uint16_t
slotImage(std::span<const EcpEntry> entries, unsigned slot)
{
    return slot < entries.size() ? packEcpEntry(entries[slot]) : 0;
}

/** Fold one integer (or bool) into an FNV-1a hash, as its 64-bit value. */
template <typename T>
void
fnvMix(std::uint64_t& h, T value)
{
    std::uint64_t v = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i, v >>= 8) {
        h ^= v & 0xff;
        h *= 0x100000001b3ULL;
    }
}

} // namespace

PcmDevice::PcmDevice(const DeviceConfig& config)
    : config_(config),
      map_(config.geometry),
      encoder_(config.fnwEnabled ? DinConfig::flipNWrite() : config.din),
      rng_(config.seed)
{
    SDPCM_ASSERT(config_.aging.ageFraction >= 0.0 &&
                 config_.aging.ageFraction <= 1.0,
                 "age fraction must be in [0,1]");
    SDPCM_ASSERT(!(config_.dinEnabled && config_.fnwEnabled),
                 "DIN and FNW encoding are mutually exclusive");
    if (config_.ecpEntries > kMaxEcpEntries) {
        SDPCM_FATAL("ECP-", config_.ecpEntries, " exceeds the ",
                    kMaxEcpEntries, " ECP entries a line holds");
    }
    hardErrorMean_ = config_.aging.meanHardPerLineAtEol *
        std::pow(config_.aging.ageFraction, config_.aging.exponent);
}

std::uint64_t
PcmDevice::lineKey(const LineAddr& addr) const
{
    return addr.row * config_.geometry.linesPerRow() + addr.line;
}

std::uint64_t
PcmDevice::seedKey(const LineAddr& addr) const
{
    return mix64(config_.seed ^
                 (static_cast<std::uint64_t>(addr.bank) << 58) ^
                 lineKey(addr));
}

LineData
PcmDevice::seedContent(const LineAddr& addr) const
{
    return LineData::randomFromKey(seedKey(addr));
}

std::uint64_t
PcmDevice::seedWord(const LineAddr& addr, unsigned w) const
{
    return LineData::wordFromKey(seedKey(addr), w);
}

LineIndex
PcmDevice::indexOf(const LineAddr& addr) const
{
    SDPCM_ASSERT(addr.bank < config_.geometry.banks(), "bank out of range");
    SDPCM_ASSERT(addr.line < config_.geometry.linesPerRow(),
                 "line out of range");
    return map_.lineIndex(addr);
}

PcmDevice::WritePlan::Pin
PcmDevice::pinOf(std::uint32_t entry)
{
    return {.record = &records_[entry],
            .counters = config_.lineCounters ? &counters_[entry] : nullptr,
            .touched = true};
}

PcmDevice::WritePlan::Pin
PcmDevice::state(const LineAddr& addr, const LineState* drawn)
{
    const auto [entry, fresh, first] = rows_.record(indexOf(addr));
    if (fresh) {
        // The n-th record, and its counters, are entry n of their columns.
        records_.push();
        LineState& ls = records_[entry];
        if (drawn) {
            ls = *drawn;
        } else {
            seed(ls, addr);
            if (first)
                drawStuckCells(ls, addr);
        }
        if (config_.lineCounters) {
            counters_.push();
            // A first touch's hard entries start its ECP high-water mark.
            counters_[entry].ecpHighWater = ls.ecp.size();
        }
    }
    return pinOf(entry);
}

PcmDevice::LineState*
PcmDevice::readState(const LineAddr& addr)
{
    const auto [first, entry] = rows_.touch(indexOf(addr));
    if (!first)
        return entry == RowTable::kNoEntry ? nullptr : &records_[entry];
    if (!canStick())
        return nullptr;
    return firstTouchRecord(addr).record;
}

PcmDevice::WritePlan::Pin
PcmDevice::firstTouchRecord(const LineAddr& addr)
{
    // Stuck cells are drawn from the device RNG at a line's first
    // touch; only a line that drew one differs from its seed content.
    LineState drawn;
    seed(drawn, addr);
    drawStuckCells(drawn, addr);
    if (drawn.ecp.size() == 0 && !drawn.saturated)
        return {};
    return state(addr, &drawn);
}

void
PcmDevice::seed(LineState& ls, const LineAddr& addr) const
{
    ls.physical = seedContent(addr);
    ls.ecp = EcpLine(config_.ecpEntries);
}

void
PcmDevice::drawStuckCells(LineState& ls, const LineAddr& addr)
{
    // An aged DIMM's sampled population of stuck-at cells. A new stuck
    // cell takes a hard ECP entry while one is free; past that, the
    // line is saturated and the cell goes to the overflow. False for a
    // cell that is stuck already.
    auto pin_stuck = [&](unsigned pos) {
        if (isHardCell(ls, addr, pos))
            return false;
        const bool stuck = ls.physical.getBit(pos);
        if (!ls.ecp.recordHard(pos, stuck)) {
            stuckOverflow_[map_.lineIndex(addr)].push_back(
                EcpEntry::hardAt(pos, stuck));
            ls.saturated = true;
            stats_.ecpSaturatedLines += 1;
        }
        return true;
    };

    if (hardErrorMean_ > 0.0) {
        const unsigned count = rng_.poisson(hardErrorMean_);
        for (unsigned i = 0; i < count; ++i) {
            if (pin_stuck(static_cast<unsigned>(rng_.below(kLineBits))))
                stats_.hardErrors += 1;
        }
    }

    // Fault-injected stuck cells stack on top of the aging population.
    // They come from the injector's per-line stateless stream, so the
    // device RNG sequence (and hence every natural-fault draw) is
    // identical with and without injection.
    if (inject_) {
        injectScratch_.clear();
        inject_->stuckCellsFor(addr.bank, lineKey(addr), injectScratch_);
        for (const unsigned pos : injectScratch_) {
            if (pin_stuck(pos))
                stats_.injectedStuckCells += 1;
        }
    }
}

template <typename Fn>
void
PcmDevice::forEachStuckCell(const LineState& ls, const LineAddr& addr,
                            Fn&& fn) const
{
    for (const EcpEntry& e : ls.ecp.entries()) {
        if (e.hard())
            fn(e.cell(), e.stuck());
    }
    if (ls.saturated) {
        for (const EcpEntry& e : *stuckOverflow_.find(map_.lineIndex(addr)))
            fn(e.cell(), e.stuck());
    }
}

bool
PcmDevice::isHardCell(const LineState& ls, const LineAddr& addr,
                      unsigned pos) const
{
    bool hard = false;
    forEachStuckCell(ls, addr,
                     [&](unsigned cell, bool) { hard |= cell == pos; });
    return hard;
}

LineData
PcmDevice::readLine(const LineAddr& addr)
{
    PROF_SCOPE(obs_.prof, DeviceRead);
    stats_.lineReads += 1;
    return peekLine(addr);
}

LineData
PcmDevice::peekLine(const LineAddr& addr)
{
    const LineState* ls = readState(addr);
    LineData data = ls ? ls->physical : seedContent(addr);
    std::uint64_t flags = 0;
    if (ls) {
        ls->ecp.apply(data);
        flags = ls->dinFlags;
    }
    if (config_.dinEnabled || config_.fnwEnabled)
        return encoder_.decode(data, flags);
    return data;
}

void
PcmDevice::resetPlan(WritePlan& plan, const LineAddr& addr,
                     const WritePlan::Pin& line)
{
    plan.addr = addr;
    plan.targetPhysical = LineData{};
    plan.intendedPhysical = LineData{};
    plan.targetFlags = 0;
    plan.masks = WriteMasks{};
    plan.writtenMask = LineData{};
    plan.rounds.clear(); // keeps capacity for the next write's rounds
    plan.nextRound = 0;
    plan.isCorrection = false;
    plan.wlHits.clear();
    plan.blHitsUpper = 0;
    plan.blHitsLower = 0;
    plan.line_ = line;
    plan.left_ = {};
    plan.right_ = {};
    plan.upper_ = {};
    plan.lower_ = {};
}

void
PcmDevice::sealPlan(WritePlan& plan, const LineState& ls)
{
    plan.masks = diffWrite(ls.physical, plan.targetPhysical);
    for (unsigned w = 0; w < kLineWords; ++w) {
        plan.writtenMask.words[w] =
            plan.masks.resetMask.words[w] | plan.masks.setMask.words[w];
    }
    buildRounds(plan);
}

void
PcmDevice::planWriteInto(WritePlan& plan, const LineAddr& addr,
                         const LineData& new_logical)
{
    resetPlan(plan, addr, state(addr));
    LineState& ls = *plan.line_.record;

    if (config_.dinEnabled || config_.fnwEnabled) {
        const auto enc = encoder_.encode(new_logical, ls.physical);
        plan.intendedPhysical = enc.physical;
        plan.targetFlags = enc.flags;
    } else {
        plan.intendedPhysical = new_logical;
        plan.targetFlags = 0;
    }

    // Stuck-at cells cannot be programmed; the intended value is kept in
    // the ECP entry instead (refreshed in finishWrite).
    plan.targetPhysical = plan.intendedPhysical;
    forEachStuckCell(ls, addr, [&](unsigned cell, bool stuck) {
        plan.targetPhysical.setBit(cell, stuck);
    });

    sealPlan(plan, ls);
}

void
PcmDevice::planCorrectionInto(WritePlan& plan, const LineAddr& addr,
                              const std::vector<unsigned>& cells)
{
    resetPlan(plan, addr, state(addr));
    LineState& ls = *plan.line_.record;
    plan.isCorrection = true;
    plan.targetFlags = ls.dinFlags;

    // Disturbed cells were amorphous '0' cells partially SET by heat; the
    // correction RESETs them back. Cells already correct are skipped.
    plan.targetPhysical = ls.physical;
    for (const unsigned pos : cells) {
        SDPCM_ASSERT(pos < kLineBits, "correction cell out of range");
        if (!isHardCell(ls, addr, pos))
            plan.targetPhysical.setBit(pos, false);
    }
    plan.intendedPhysical = plan.targetPhysical;
    sealPlan(plan, ls);
    SDPCM_ASSERT(plan.masks.setCount() == 0,
                 "correction write must be RESET-only");
}

void
PcmDevice::buildRounds(WritePlan& plan)
{
    plan.rounds.clear();
    plan.nextRound = 0;
    constexpr unsigned par = PcmTiming::writeParallelism;
    static_assert(par > 0 && par % 64 == 0 && kLineBits % par == 0,
                  "windowed mode needs word-aligned windows");

    if (config_.timing.windowed) {
        // Fixed per-position drivers: the line divides into contiguous
        // windows of `par` cells; each window with changed cells pays its
        // own RESET and/or SET pulse.
        const unsigned words_per_window = par / 64;
        for (unsigned base = 0; base < kLineWords;
             base += words_per_window) {
            ProgramRound reset_round;
            ProgramRound set_round;
            bool any_reset = false;
            bool any_set = false;
            for (unsigned w = base; w < base + words_per_window; ++w) {
                reset_round.mask.words[w] = plan.masks.resetMask.words[w];
                set_round.mask.words[w] = plan.masks.setMask.words[w];
                any_reset |= reset_round.mask.words[w] != 0;
                any_set |= set_round.mask.words[w] != 0;
            }
            if (any_reset) {
                reset_round.isReset = true;
                plan.rounds.push_back(std::move(reset_round));
            }
            if (any_set) {
                set_round.isReset = false;
                plan.rounds.push_back(std::move(set_round));
            }
        }
        return;
    }

    // Pooled drivers: any `par` cells may program together.
    auto emit_chunks = [&](const LineData& mask, bool is_reset) {
        ProgramRound round;
        round.isReset = is_reset;
        unsigned count = 0;
        forEachSetBit(mask, [&](unsigned pos) {
            round.mask.setBit(pos, true);
            if (++count == par) {
                plan.rounds.push_back(round);
                round.mask = LineData{};
                count = 0;
            }
        });
        if (count)
            plan.rounds.push_back(round);
    };
    emit_chunks(plan.masks.resetMask, true);
    emit_chunks(plan.masks.setMask, false);
}

void
PcmDevice::injectDisturbance(const LineData& resets, WritePlan& plan,
                             RoundOutcome& outcome)
{
    const LineAddr& addr = plan.addr;
    const LineState& ls = *plan.line_.record;

    // Constants of the round, out of the cell loop. DIN encoding
    // suppresses most vulnerable patterns along the word-line.
    const double wl_rate = config_.rates.wordLine *
        (config_.dinEnabled ? config_.din.modeledResidualFactor : 1.0);
    const double bl_rate = config_.rates.bitLine;
    const bool wl = wl_rate > 0.0;
    const bool has_left = wl && addr.line > 0;
    const bool has_right =
        wl && addr.line + 1 < config_.geometry.linesPerRow();
    const LineAddr left{addr.bank, addr.row, addr.line - 1};
    const LineAddr right{addr.bank, addr.row, addr.line + 1};
    const bool bl = bl_rate > 0.0;
    const std::optional<LineAddr> upper =
        bl ? map_.upperNeighbor(addr) : std::nullopt;
    const std::optional<LineAddr> lower =
        bl ? map_.lowerNeighbor(addr) : std::nullopt;
    if (!wl && !upper && !lower)
        return;

    // Each neighbour line is looked up where its first probe falls: the
    // word-line probe of the first RESET edge cell (before its idleness
    // is known), or a successful bit-line draw. A lookup touches the
    // line and pins its record if it has one (a recorded line is
    // touched already); a first touch on a device that can have stuck
    // cells draws them from the device RNG, as a read's does, so the
    // scan's local copy of that RNG is handed back around it.
    Rng rng = rng_;
    auto look_up = [&](WritePlan::Pin& pin,
                       const LineAddr& n_addr) -> const LineState* {
        if (!pin.touched) {
            const auto [first, entry] = rows_.touch(indexOf(n_addr));
            if (entry != RowTable::kNoEntry) {
                pin = pinOf(entry);
            } else if (first && canStick()) {
                rng_ = rng;
                pin = firstTouchRecord(n_addr);
                rng = rng_;
            }
            pin.touched = true;
        }
        return pin.record;
    };
    // A flip lands only on an amorphous cell that is not stuck. A
    // neighbour without a record holds its seed content and no stuck
    // cell, so only the probed word of that content is computed.
    auto vulnerable = [&](const LineState* ns, const LineAddr& n_addr,
                          unsigned n_pos) {
        if (!ns)
            return ((seedWord(n_addr, n_pos / 64) >> (n_pos % 64)) & 1) == 0;
        return !ns->physical.getBit(n_pos) && !isHardCell(*ns, n_addr, n_pos);
    };
    // The natural draw always runs first so the device RNG stream is
    // injection-independent; the injector may then force the flip
    // through the same vulnerability filter.
    const Rng::Chance wl_chance(wl_rate);
    const Rng::Chance bl_chance(bl_rate);
    auto hit = [&](const Rng::Chance& chance) {
        return chance(rng) || (inject_ && inject_->forceWdFlip());
    };
    // A landed flip on a neighbour without a record yet records it, as
    // it stands: the lookup touched it already, so nothing is drawn.
    auto flip = [&](WritePlan::Pin& victim, const LineAddr& n_addr,
                    unsigned n_pos, bool word_line) {
        if (!victim.record)
            victim = state(n_addr);
        victim.record->physical.setBit(n_pos, true);
        if (config_.lineCounters)
            victim.counters->wdFlips += 1;
        if (obs_.ledger) {
            obs_.ledger->recordFlip(addr, plan.isCorrection, n_addr, n_pos,
                                    word_line);
        }
    };
    // Word-line probe of an idle cell (same device row, adjacent cells
    // on the shared word-line; oxide isolation between bit-lines).
    auto probe_wl = [&](WritePlan::Pin& victim, const LineAddr& n_addr,
                        unsigned n_pos) {
        if (!hit(wl_chance))
            return false;
        flip(victim, n_addr, n_pos, /*word_line=*/true);
        outcome.wlErrors += 1;
        stats_.wlDisturbances += 1;
        plan.wlHits.push_back((n_addr.line << 9) | n_pos);
        return true;
    };
    // Word-line probe of a neighbour line's edge cell.
    auto probe_edge = [&](WritePlan::Pin& pin, const LineAddr& n_addr,
                          unsigned n_pos) {
        if (vulnerable(look_up(pin, n_addr), n_addr, n_pos))
            probe_wl(pin, n_addr, n_pos);
    };
    // Bit-line probe (adjacent device rows on the shared GST rail; always
    // idle since a write touches a single row). The neighbour is only
    // needed when the thermal draw succeeds; the flip lands iff the cell
    // is vulnerable.
    auto probe_bl = [&](WritePlan::Pin& pin, const LineAddr& n_addr,
                        unsigned pos, unsigned& hits) {
        if (!hit(bl_chance) || !vulnerable(look_up(pin, n_addr), n_addr, pos))
            return;
        flip(pin, n_addr, pos, /*word_line=*/false);
        outcome.blErrors += 1;
        stats_.blDisturbances += 1;
        hits += 1;
    };

    LineData hard; // the written line's stuck cells
    forEachStuckCell(ls, addr,
                     [&](unsigned cell, bool) { hard.setBit(cell, true); });
    const std::uint64_t edges =
        (has_left ? 1ULL : 0) | (has_right ? 1ULL << 63 : 0);

    for (unsigned w = 0; w < kLineWords; ++w) {
        // Idle cells of the written line in this word: not programmed by
        // this write, amorphous and not stuck. A landed flip makes its
        // cell crystalline, so it leaves the mask at once.
        std::uint64_t idle = ~plan.writtenMask.words[w] &
            ~ls.physical.words[w] & ~hard.words[w];
        // Every RESET cell draws its bit-line chances. Without those, a
        // cell matters only with an idle in-word neighbour or an edge
        // neighbour line to pin; idleness only ever shrinks, so the
        // mask taken here covers every later candidate.
        std::uint64_t cells = resets.words[w];
        if (!upper && !lower)
            cells &= (idle << 1) | (idle >> 1) | edges;
        for (; cells; cells &= cells - 1) {
            const unsigned offset =
                static_cast<unsigned>(std::countr_zero(cells));
            const unsigned pos = (w << 6) | offset;
            if (wl) {
                // Left neighbour, then right.
                if (offset > 0) {
                    const std::uint64_t bit = 1ULL << (offset - 1);
                    if ((idle & bit) && probe_wl(plan.line_, addr, pos - 1))
                        idle &= ~bit;
                } else if (has_left) {
                    probe_edge(plan.left_, left, pos | 63);
                }
                if (offset < 63) {
                    const std::uint64_t bit = 1ULL << (offset + 1);
                    if ((idle & bit) && probe_wl(plan.line_, addr, pos + 1))
                        idle &= ~bit;
                } else if (has_right) {
                    probe_edge(plan.right_, right, w << 6);
                }
            }
            if (upper)
                probe_bl(plan.upper_, *upper, pos, plan.blHitsUpper);
            if (lower)
                probe_bl(plan.lower_, *lower, pos, plan.blHitsLower);
        }
    }
    rng_ = rng;
}

PcmDevice::RoundPeek
PcmDevice::peekNextRound(const WritePlan& plan) const
{
    RoundPeek peek;
    if (!plan.roundsRemaining())
        return peek;
    peek.valid = true;
    peek.isReset = plan.rounds[plan.nextRound].isReset;
    peek.latency = peek.isReset ? config_.timing.resetCycles
                                : config_.timing.setCycles;
    return peek;
}

bool
PcmDevice::applyNextRound(WritePlan& plan, RoundOutcome& outcome)
{
    outcome = RoundOutcome();
    if (!plan.roundsRemaining())
        return false;

    LineState& ls = *plan.line_.record;
    const ProgramRound& round = plan.rounds[plan.nextRound];
    plan.nextRound += 1;
    const bool is_reset = round.isReset;

    outcome.isReset = is_reset;
    outcome.latency = is_reset ? config_.timing.resetCycles
                               : config_.timing.setCycles;

    unsigned programmed = 0;
    {
        PROF_SCOPE(obs_.prof, DevicePulse);
        for (unsigned w = 0; w < kLineWords; ++w) {
            const std::uint64_t mask = round.mask.words[w];
            std::uint64_t& cells = ls.physical.words[w];
            cells = is_reset ? cells & ~mask : cells | mask;
            programmed += static_cast<unsigned>(popcount64(mask));
        }
    }

    stats_.dataCellWrites += programmed;
    if (plan.isCorrection)
        stats_.correctionCellWrites += programmed;
    else
        stats_.normalCellWrites += programmed;
    if (config_.lineCounters) {
        LineCounters& counters = *plan.line_.counters;
        counters.cellWrites += programmed;
        if (counters.cellWrites > maxLineCellWrites_)
            maxLineCellWrites_ = counters.cellWrites;
    }

    // Only RESET pulses disseminate enough heat to disturb (SET current is
    // about half, i.e. ~4x lower temperature rise; Section 2.2.1). The
    // whole round is programmed before any neighbour is probed.
    if (is_reset) {
        PROF_SCOPE(obs_.prof, DeviceWdScan);
        injectDisturbance(round.mask, plan, outcome);
    }
    return true;
}

unsigned
PcmDevice::repairWlHits(WritePlan& plan)
{
    // DIN check-and-rewrite: the disturbances a write causes within its
    // own device row are repaired as part of the write operation (the
    // disturbed cells were idle '0' cells, so the repair is a RESET).
    // Every hit lies on the written line or a word-line neighbour whose
    // record (and counters) the scan pinned when it flipped the cell.
    unsigned fixed = 0;
    for (const unsigned key : plan.wlHits) {
        const unsigned line = key >> 9;
        const unsigned pos = key & 511;
        const WritePlan::Pin& fs = line == plan.addr.line ? plan.line_
            : line < plan.addr.line                       ? plan.left_
                                                          : plan.right_;
        if (fs.record->physical.getBit(pos)) {
            fs.record->physical.setBit(pos, false);
            fixed += 1;
            stats_.dataCellWrites += 1;
            stats_.correctionCellWrites += 1;
            if (config_.lineCounters) {
                LineCounters& counters = *fs.counters;
                counters.wdCorrected += 1;
                counters.cellWrites += 1;
                if (counters.cellWrites > maxLineCellWrites_)
                    maxLineCellWrites_ = counters.cellWrites;
            }
            if (obs_.ledger) {
                obs_.ledger->flipRepaired(
                    LineAddr{plan.addr.bank, plan.addr.row, line}, pos);
            }
        }
    }
    return fixed;
}

PcmDevice::FinishOutcome
PcmDevice::finishWrite(WritePlan& plan)
{
    SDPCM_ASSERT(!plan.roundsRemaining(),
                 "finishWrite with rounds still pending");
    SDPCM_ASSERT(plan.line_.record,
                 "finishWrite on a plan that was never planned");
    FinishOutcome out;
    out.wlErrorsFixed = repairWlHits(plan);

    LineState& ls = *plan.line_.record;
    const EcpLine ecp_before = ls.ecp;

    if (!plan.isCorrection) {
        ls.dinFlags = plan.targetFlags;
        ls.writeCount += 1;
        stats_.lineWrites += 1;
        if (config_.lineCounters)
            plan.line_.counters->writes += 1;
        // Refresh stuck-cell intended values held in ECP.
        ls.ecp.updateHardValues(plan.intendedPhysical);
        // Figure 4 bookkeeping (normal data writes only).
        stats_.wlErrorsPerWrite.record(
            static_cast<double>(plan.wlHits.size()));
        stats_.blErrorsPerAdjacentLine.record(
            static_cast<double>(plan.blHitsUpper));
        stats_.blErrorsPerAdjacentLine.record(
            static_cast<double>(plan.blHitsLower));
        stats_.blErrorHistogram.record(plan.blHitsUpper);
        stats_.blErrorHistogram.record(plan.blHitsLower);
        // The write rewrote the full line content, so its remaining
        // pending flips (bit-line hits from earlier neighbour writes)
        // resolve as overwritten. After repairWlHits: this write's own
        // in-row hits resolve as repaired first.
        if (obs_.ledger)
            obs_.ledger->noteLineWritten(plan.addr);
    } else {
        stats_.correctionWrites += 1;
        // Every cell a correction RESETs was a disturbed (or re-disturbed)
        // victim cell on this line.
        if (config_.lineCounters) {
            plan.line_.counters->wdCorrected += static_cast<std::uint32_t>(
                plan.masks.resetCount());
        }
        if (obs_.ledger) {
            forEachSetBit(plan.masks.resetMask, [&](unsigned pos) {
                obs_.ledger->flipCorrected(plan.addr, pos);
            });
        }
    }

    // Any write to the line leaves its data cells correct, so the parked
    // WD entries are released (LazyCorrection consolidation).
    const unsigned released = ls.ecp.clearWd();
    out.ecpWdReleased = released;
    stats_.ecpWdReleased += released;

    // Wear accounting for the (disturbance-free) ECP chip.
    chargeEcp(ls, ecp_before);
    return out;
}

void
PcmDevice::verifyLineInto(const LineAddr& addr, const LineData& expected,
                          std::vector<unsigned>& out)
{
    out.clear();
    const LineData current = readLine(addr);
    const LineData delta = current.diff(expected);
    forEachSetBit(delta, [&](unsigned pos) { out.push_back(pos); });
}

bool
PcmDevice::recordWdInEcp(const LineAddr& addr,
                         const std::vector<unsigned>& cells)
{
    const WritePlan::Pin line = state(addr);
    LineState& ls = *line.record;
    LineCounters* counters = line.counters;
    const EcpLine ecp_before = ls.ecp;
    bool all_fit = true;
    for (const unsigned pos : cells) {
        SDPCM_ASSERT(pos < kLineBits, "ECP cell out of range");
        if (ls.ecp.recordWd(pos)) {
            stats_.ecpWdRecorded += 1;
            if (counters)
                counters->wdAbsorbed += 1;
            if (obs_.ledger)
                obs_.ledger->flipAbsorbed(addr, pos);
        } else {
            all_fit = false;
        }
    }
    if (!all_fit)
        stats_.ecpOverflows += 1;
    if (counters) {
        counters->ecpHighWater =
            std::max<std::uint32_t>(counters->ecpHighWater, ls.ecp.size());
    }
    chargeEcp(ls, ecp_before);
    return all_fit;
}

unsigned
PcmDevice::ecpUsed(const LineAddr& addr)
{
    const LineState* ls = readState(addr);
    return ls ? ls->ecp.size() : 0;
}

unsigned
PcmDevice::ecpFree(const LineAddr& addr)
{
    const LineState* ls = readState(addr);
    return ls ? ls->ecp.freeEntries() : config_.ecpEntries;
}

LineData
PcmDevice::uncorrectableMask(const LineAddr& addr)
{
    // Every stuck cell but a saturated line's overflow has a hard entry.
    LineData mask;
    const LineState* ls = readState(addr);
    if (ls && ls->saturated) {
        for (const EcpEntry& e : *stuckOverflow_.find(map_.lineIndex(addr)))
            mask.setBit(e.cell(), true);
    }
    return mask;
}

std::vector<unsigned>
PcmDevice::ecpWdCells(const LineAddr& addr)
{
    std::vector<unsigned> cells;
    if (const LineState* ls = readState(addr)) {
        for (const EcpEntry& e : ls->ecp.entries()) {
            if (!e.hard())
                cells.push_back(e.cell());
        }
    }
    return cells;
}

std::size_t
PcmDevice::touchedLines() const
{
    return rows_.touchedLines();
}

std::size_t
PcmDevice::recordedLines() const
{
    return records_.size();
}

std::vector<LineCounterSample>
PcmDevice::lineCounterSamples() const
{
    std::vector<LineCounterSample> samples;
    if (!config_.lineCounters)
        return samples;
    samples.reserve(rows_.touchedLines());
    rows_.forEach(map_, [&](const LineAddr& addr, std::uint32_t entry) {
        samples.push_back(LineCounterSample{
            addr, entry == RowTable::kNoEntry ? LineCounters{}
                                              : counters_[entry]});
    });
    return samples;
}

std::uint64_t
PcmDevice::lineStateDigest() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    rows_.forEach(map_, [&](const LineAddr& addr, std::uint32_t entry) {
        // A line without a record hashes as its seeded record, with zero
        // counters.
        const bool recorded = entry != RowTable::kNoEntry;
        LineState seeded;
        if (!recorded)
            seed(seeded, addr);
        const LineState* ls = recorded ? &records_[entry] : &seeded;
        fnvMix(h, addr.bank);
        fnvMix(h, addr.row);
        fnvMix(h, addr.line);
        for (const std::uint64_t word : ls->physical.words)
            fnvMix(h, word);
        fnvMix(h, ls->dinFlags);
        const auto entries = ls->ecp.entries();
        fnvMix(h, entries.size());
        for (const EcpEntry& e : entries) {
            fnvMix(h, e.cell());
            fnvMix(h, e.value());
            fnvMix(h, e.hard());
        }
        // The stuck cells as a counted list, in draw order.
        std::size_t stuck_cells = 0;
        forEachStuckCell(*ls, addr, [&](unsigned, bool) { ++stuck_cells; });
        fnvMix(h, stuck_cells);
        forEachStuckCell(*ls, addr, [&](unsigned cell, bool stuck) {
            fnvMix(h, cell);
            fnvMix(h, stuck);
        });
        // The slot image: no slots before the first charge, then one per
        // entry of capacity.
        const unsigned slots = ls->ecpCharged ? ls->ecp.capacity() : 0;
        fnvMix(h, slots);
        for (unsigned slot = 0; slot < slots; ++slot)
            fnvMix(h, slotImage(entries, slot));
        fnvMix(h, ls->writeCount);
        const LineCounters c = recorded && config_.lineCounters
            ? counters_[entry] : LineCounters{};
        for (const std::uint32_t v : {c.writes, c.wdFlips, c.wdAbsorbed,
                                      c.wdCorrected, c.ecpHighWater,
                                      c.cellWrites}) {
            fnvMix(h, v);
        }
    });
    return h;
}

void
PcmDevice::chargeEcp(LineState& ls, const EcpLine& before)
{
    // Every slot is rewritten with its entry's packed image. The chip
    // holds what the last charge wrote, the entries as they stood when
    // this call began; before the first charge it holds zeros.
    const std::span<const EcpEntry> old_entries =
        ls.ecpCharged ? before.entries() : std::span<const EcpEntry>{};
    const std::span<const EcpEntry> new_entries = ls.ecp.entries();
    for (unsigned slot = 0; slot < ls.ecp.capacity(); ++slot) {
        const std::uint16_t diff = slotImage(old_entries, slot) ^
            slotImage(new_entries, slot);
        stats_.ecpBitsWritten += static_cast<unsigned>(popcount64(diff));
    }
    ls.ecpCharged = true;
}

} // namespace sdpcm
