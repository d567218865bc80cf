/**
 * @file
 * Quickstart: build an SD-PCM system, run a write-heavy workload under
 * the basic VnC baseline and under the full SD-PCM stack (LazyCorrection
 * + PreRead + (2:3)-Alloc), and compare against the WD-free DIN design.
 *
 * Usage: quickstart [--refs=N] [--seed=N]
 */

#include <iostream>

#include "common/args.hh"
#include "common/table.hh"
#include "sim/runner.hh"

using namespace sdpcm;

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    RunnerConfig cfg;
    cfg.refsPerCore =
        args.get<std::uint64_t>("refs", 20000, kMinRefsPerCore);
    cfg.seed = args.get<std::uint64_t>("seed", 1);
    args.finishParsing();

    const WorkloadSpec workload = workloadFromProfile("mcf");

    std::cout << "SD-PCM quickstart: 8 cores x " << cfg.refsPerCore
              << " memory references of '" << workload.name << "'\n\n";

    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::din8F2(),
        SchemeConfig::baselineVnc(),
        SchemeConfig::lazyC(),
        SchemeConfig::lazyCPreReadNm(NmRatio{2, 3}),
    };

    std::vector<RunMetrics> results;
    for (const auto& scheme : schemes) {
        results.push_back(runOne(scheme, workload, cfg));
        std::cout << "ran " << scheme.name << "...\n";
    }
    std::cout << "\n";

    const double base_cpi = results[1].meanCpi; // baseline VnC

    TablePrinter table({"scheme", "CPI", "speedup vs baseline",
                        "corrections/write", "WD errors (BL)",
                        "ECP-parked"});
    for (const auto& m : results) {
        table.addRow({
            m.scheme,
            TablePrinter::fmt(m.meanCpi, 3),
            TablePrinter::fmt(m.speedupOver(base_cpi), 3),
            TablePrinter::fmt(m.correctionsPerWrite(), 3),
            std::to_string(m.device.blDisturbances),
            std::to_string(m.device.ecpWdRecorded),
        });
    }
    table.print(std::cout);

    std::cout << "\nThe super dense array doubles cell-array density; the "
                 "SD-PCM mechanisms\nrecover most of the verify-and-"
                 "correct slowdown the baseline suffers.\n";
    return 0;
}
