/**
 * @file
 * Figure 13: system performance (normalised to the basic-VnC baseline)
 * as the ECP entry count grows.
 *
 * Paper reference: ECP-6 captures the benefit (~21% over baseline);
 * larger tables add almost nothing.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Figure 13: ECP entries vs system performance");

    const std::vector<unsigned> entries = {0, 2, 4, 6, 8, 10};
    std::vector<SchemeConfig> schemes = {SchemeConfig::baselineVnc()};
    for (const unsigned n : entries) {
        SchemeConfig s = SchemeConfig::lazyC(n);
        s.name = "ECP-" + std::to_string(n);
        schemes.push_back(s);
    }
    const auto results = runMatrix(schemes, cfg);
    speedupTable(results[0], std::span(results).subspan(1))
        .print(std::cout);

    std::cout << "\n(speedup over baseline VnC; paper: +21% at ECP-6, "
                 "flat beyond)\n";
    return finish(out, "bench_fig13", cfg, results, "REPORT_fig13.json");
}
