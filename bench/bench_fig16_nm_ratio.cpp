/**
 * @file
 * Figure 16: performance under different (n:m) allocators (on top of
 * basic VnC), plus the capacity each ratio gives up.
 *
 * Paper reference: (1:2) reaches DIN-level performance by inserting a
 * thermal-band strip between any two data strips; from 3:4 to 2:3 to 1:2
 * performance rises monotonically, trading memory capacity.
 */

#include "bench_common.hh"

#include "os/nm_policy.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] = start(args, "Figure 16: (n:m) allocator ratios");

    const std::vector<NmRatio> ratios = {
        {1, 2}, {2, 3}, {3, 4}, {7, 8}, {1, 1}};
    std::vector<SchemeConfig> schemes = {SchemeConfig::din8F2()};
    for (const auto& r : ratios)
        schemes.push_back(r.isFull() ? SchemeConfig::baselineVnc()
                                     : SchemeConfig::nmOnly(r));
    const auto results = runMatrix(schemes, cfg);
    std::vector<std::string> headers;
    for (const auto& r : ratios)
        headers.push_back(r.toString());
    TablePrinter t =
        speedupTable(results[0], std::span(results).subspan(1), headers);

    std::vector<std::string> crow = {"usable capacity"};
    std::vector<std::string> vrow = {"verified adjacents"};
    for (const auto& r : ratios) {
        const NmPolicy p(r);
        crow.push_back(TablePrinter::pct(p.usableFraction(), 1));
        vrow.push_back(TablePrinter::fmt(p.averageVerifiedNeighbors(),
                                         2));
    }
    t.addRow(crow);
    t.addRow(vrow);
    t.print(std::cout);

    std::cout << "\n(performance normalised to DIN; paper: (1:2) shows "
                 "no degradation, monotone from 3:4 to 1:2)\n";
    return finish(out, "bench_fig16", cfg, results);
}
