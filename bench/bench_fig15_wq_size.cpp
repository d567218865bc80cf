/**
 * @file
 * Figure 15: sensitivity of LazyC+PreRead to the per-bank write queue
 * size. A deeper queue gives PreRead more residency time and more idle
 * slots to prefetch adjacent lines into the entry buffers.
 *
 * Paper reference: 32 entries per bank suffice — within ~10% of DIN.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Figure 15: write queue size under LazyC+PreRead");

    const std::vector<unsigned> sizes = {8, 16, 32, 64};
    std::vector<SchemeConfig> schemes = {SchemeConfig::din8F2()};
    for (const unsigned q : sizes) {
        SchemeConfig s = SchemeConfig::lazyCPreRead();
        s.name = "WQ-" + std::to_string(q);
        s.writeQueueEntries = q;
        schemes.push_back(s);
    }
    const auto results = runMatrix(schemes, cfg);
    const ExtraColumn useful_at_32{
        "preReads useful @32", [&](const std::string& name) {
            const auto& m32 = results[3].at(name); // WQ-32
            const double useful =
                m32.ctrl.verifyReads + m32.ctrl.preReadsUseful
                ? static_cast<double>(m32.ctrl.preReadsUseful) /
                      (m32.ctrl.preReadsUseful + m32.ctrl.verifyReads)
                : 0.0;
            return TablePrinter::pct(useful);
        }};
    speedupTable(results[0], std::span(results).subspan(1), {},
                 useful_at_32)
        .print(std::cout);

    std::cout << "\n(performance normalised to DIN; paper: 32 entries "
                 "keep LazyC+PreRead within ~10% of DIN)\n";
    return finish(out, "bench_fig15", cfg, results);
}
