/**
 * @file
 * Figure 19: integrating SD-PCM with write cancellation (Qureshi et al.,
 * HPCA'10). A real read may cancel an in-flight write or pre-write read;
 * the partially programmed line re-queues and its disturbance stays.
 *
 * Paper reference: WC alone improves basic VnC only modestly (VnC writes
 * are long and repeats add disturbance); WC+LazyC lifts LazyC's ~21%
 * gain to ~31% — the two exploit different effects.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Figure 19: LazyC with write cancellation");

    SchemeConfig wc = SchemeConfig::baselineVnc();
    wc.name = "WC";
    wc.writeCancellation = true;

    SchemeConfig wc_lazy = SchemeConfig::lazyC();
    wc_lazy.name = "WC+LazyC";
    wc_lazy.writeCancellation = true;

    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::baselineVnc(), wc, SchemeConfig::lazyC(), wc_lazy};
    const auto results = runMatrix(schemes, cfg);
    const ExtraColumn cancels{
        "cancels (WC+LazyC)", [&](const std::string& name) {
            return std::to_string(
                results[3].at(name).ctrl.writeCancellations);
        }};
    speedupTable(results[0], results, {}, cancels).print(std::cout);

    std::cout << "\n(normalised to basic VnC; paper: VnC 1.0, WC a bit "
                 "above, LazyC ~1.21, WC+LazyC ~1.31)\n";
    return finish(out, "bench_fig19", cfg, results);
}
