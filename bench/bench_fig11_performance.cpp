/**
 * @file
 * Figure 11: system performance under the compared schemes of Section
 * 5.3, normalised to the basic-VnC baseline (bigger is better), with the
 * DIN-relative view as a second table.
 *
 * Paper reference (averages, normalised to baseline): DIN ~1.45 (i.e.
 * baseline loses ~31% from DIN), LazyC ~1.21, LazyC+PreRead ~1.30,
 * LazyC+(2:3) ~1.31, LazyC+PreRead+(2:3) ~1.37 (~5% from DIN), and
 * (1:2) eliminates VnC entirely.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Figure 11: system performance under different schemes");

    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::din8F2(),
        SchemeConfig::baselineVnc(),
        SchemeConfig::lazyC(),
        SchemeConfig::lazyCPreRead(),
        SchemeConfig::lazyCNm(NmRatio{2, 3}),
        SchemeConfig::lazyCPreReadNm(NmRatio{2, 3}),
        SchemeConfig::nmOnly(NmRatio{1, 2}),
    };
    const auto results = runMatrix(schemes, cfg);
    const auto& baseline = results[1];

    for (const bool vs_din : {false, true}) {
        const auto& ref = vs_din ? results[0] : baseline;
        std::cout << (vs_din
                          ? "\n--- normalised to DIN (8F^2 comparator) ---"
                          : "--- normalised to baseline (basic VnC) ---")
                  << "\n\n";
        speedupTable(ref, results).print(std::cout);
    }

    // Tail latency view: the mean hides how much of VnC's cost lands on
    // the few reads stuck behind verify/correction bursts.
    std::cout << "\n--- p99 read latency (cycles; p50 in parens) ---\n\n";
    {
        std::vector<std::string> headers = {"workload"};
        for (const auto& s : schemes)
            headers.push_back(s.name);
        TablePrinter t(headers);
        for (const auto& name : workloadNames()) {
            std::vector<std::string> row = {name};
            for (const auto& r : results) {
                const auto& lat = r.at(name).ctrl.readLatency;
                row.push_back(TablePrinter::fmt(lat.percentile(0.99), 0) +
                              " (" +
                              TablePrinter::fmt(lat.percentile(0.50), 0) +
                              ")");
            }
            t.addRow(row);
        }
        t.print(std::cout);
    }

    std::cout << "\nShape check: baseline << LazyC < LazyC+PreRead ~ "
                 "LazyC+(2:3) < all-three <= DIN; (1:2) ~ DIN.\n";
    return finish(out, "bench_fig11", cfg, results, "REPORT_fig11.json");
}
