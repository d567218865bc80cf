/**
 * @file
 * Table 3 calibration: measured RPKI/WPKI of the synthetic trace
 * generators against the published values, plus the behavioural knobs
 * (footprint, locality, bit-flip density) each profile uses.
 */

#include "bench_common.hh"

#include "workload/generators.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    const auto samples = args.get<std::uint64_t>("refs", 300000, 1);
    args.finishParsing();

    std::cout << "=== Table 3: simulated applications (generator "
                 "calibration over " << samples << " refs) ===\n\n";

    TablePrinter t({"benchmark", "RPKI (paper)", "RPKI (measured)",
                    "WPKI (paper)", "WPKI (measured)", "footprint",
                    "flip density"});
    for (const auto& p : table3Profiles()) {
        std::unique_ptr<TraceStream> gen;
        if (p.name == "stream") {
            gen = std::make_unique<StreamTraceGenerator>(
                p.footprintBytes / 3, p.apki(), 42);
        } else {
            gen = std::make_unique<SyntheticTraceGenerator>(p, 42);
        }
        std::uint64_t instructions = 0, reads = 0, writes = 0;
        double flip = 0.0;
        TraceRecord rec;
        for (std::uint64_t i = 0; i < samples; ++i) {
            gen->next(rec);
            instructions += rec.gap + 1;
            (rec.isWrite ? writes : reads) += 1;
            flip += rec.flipDensity;
        }
        t.addRow({p.name, TablePrinter::fmt(p.rpki, 2),
                  TablePrinter::fmt(reads * 1000.0 / instructions, 2),
                  TablePrinter::fmt(p.wpki, 2),
                  TablePrinter::fmt(writes * 1000.0 / instructions, 2),
                  TablePrinter::fmt(p.footprintBytes / double(1 << 20),
                                    0) + " MB",
                  TablePrinter::fmt(flip / (reads + writes) *
                                    (reads + writes) /
                                    std::max<std::uint64_t>(writes, 1),
                                    3)});
    }
    t.print(std::cout);

    std::cout << "\n(RPKI/WPKI = reads/writes per thousand instructions "
                 "at the main-memory interface)\n";
    return 0;
}
