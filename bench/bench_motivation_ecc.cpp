/**
 * @file
 * Section 3.2 motivation: why classic ECC cannot handle bit-line write
 * disturbance.
 *
 * Three pieces of evidence, each computed with the real machinery:
 *  - the BCH overhead needed for the observed worst case (~9 errors per
 *    64B adjacent line): 82 check bits, ~16% (paper's figures);
 *  - error accumulation: writing a line repeatedly piles errors into
 *    its untouched neighbour (paper: ten writes -> ~20 errors),
 *    measured on the device model and against the analytic model;
 *  - SECDED(72,64) failure rate per write on the device model.
 */

#include <iostream>

#include "analysis/wd_analytic.hh"
#include "common/args.hh"
#include "common/table.hh"
#include "encoding/ecc.hh"
#include "pcm/device.hh"

using namespace sdpcm;

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    const auto trials = args.get<unsigned>("trials", 400, 1);
    const double flip_density = args.get<double>("flip", 0.15, 0.0, 1.0);
    args.finishParsing();

    std::cout << "=== Section 3.2: VnC is needed because ECC cannot keep "
                 "up ===\n\n--- BCH cost for t-error correction of a 64B "
                 "line ---\n\n";
    TablePrinter t({"correctable errors t", "check bits", "overhead"});
    for (const unsigned t_err : {1u, 2u, 4u, 9u, 20u}) {
        const auto code = BchCode::forErrors(t_err);
        t.addRow({std::to_string(t_err),
                  std::to_string(code.checkBits()),
                  TablePrinter::pct(code.overhead())});
    }
    t.print(std::cout);
    std::cout << "\n(paper: 9 errors need 82 bits = 16% space "
                 "overhead)\n\n";

    // --- accumulation: repeated writes vs one untouched neighbour.
    DeviceConfig dc;
    dc.dinEnabled = false; // isolate the bit-line mechanism
    dc.rates = WdRates{0.0, 0.115};
    dc.ecpEntries = 0;
    dc.seed = 11;
    PcmDevice dev(dc);
    Rng rng(13);

    const unsigned max_writes = 10;
    std::vector<RunningStat> accumulated(max_writes + 1);
    RunningStat resets_stat;
    RunningStat secded_fail;
    for (unsigned trial = 0; trial < trials; ++trial) {
        const LineAddr la{static_cast<unsigned>(trial % 16),
                          10 + 4 * (trial / 16), 3};
        const LineAddr victim{la.bank, la.row + 1, la.line};
        const LineData victim_before = dev.peekLine(victim);
        LineData data = dev.peekLine(la);
        for (unsigned w = 1; w <= max_writes; ++w) {
            const unsigned flips =
                static_cast<unsigned>(flip_density * kLineBits);
            for (unsigned f = 0; f < flips; ++f)
                data.flipBit(static_cast<unsigned>(rng.below(kLineBits)));
            PcmDevice::WritePlan plan;
            dev.planWriteInto(plan, la, data);
            resets_stat.record(plan.masks.resetCount());
            PcmDevice::RoundOutcome outcome;
            while (dev.applyNextRound(plan, outcome)) {
            }
            dev.finishWrite(plan);
            const LineData victim_now = dev.peekLine(victim);
            accumulated[w].record(
                victim_now.diff(victim_before).popcount());
            if (w == 1) {
                secded_fail.record(secdedUncorrectableWords(
                    victim_before, victim_now) > 0 ? 1.0 : 0.0);
            }
        }
        // Restore the victim for the next trial's baseline.
        std::vector<unsigned> cells;
        forEachSetBit(dev.peekLine(victim).diff(victim_before),
                      [&](unsigned pos) { cells.push_back(pos); });
        PcmDevice::WritePlan fix;
        dev.planCorrectionInto(fix, victim, cells);
        PcmDevice::RoundOutcome outcome;
        while (dev.applyNextRound(fix, outcome)) {
        }
        dev.finishWrite(fix);
    }

    const WdAnalytic analytic(resets_stat.mean());
    std::cout << "--- error accumulation in one adjacent line "
              << "(avg RESETs/write: "
              << TablePrinter::fmt(resets_stat.mean(), 1) << ") ---\n\n";
    TablePrinter t2({"writes", "measured errors", "analytic errors",
                     "worst measured"});
    for (const unsigned w : {1u, 2u, 5u, 10u}) {
        t2.addRow({std::to_string(w),
                   TablePrinter::fmt(accumulated[w].mean(), 2),
                   TablePrinter::fmt(analytic.expectedAccumulated(w), 2),
                   TablePrinter::fmt(accumulated[w].max(), 0)});
    }
    t2.print(std::cout);

    std::cout << "\nSECDED(72,64) fails on "
              << TablePrinter::pct(secded_fail.mean())
              << " of single writes — and a correctable word today is "
                 "uncorrectable after accumulation.\n"
              << "(paper: writing a line ten times may leave ~20 errors "
                 "in its adjacent line)\n";
    return 0;
}
