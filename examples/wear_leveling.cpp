/**
 * @file
 * Start-Gap wear leveling under a write-hot line.
 *
 * SD-PCM's lifetime discussion (Section 6.7) leans on the PCM wear-
 * leveling literature; this example shows the mechanism the paper
 * references (Start-Gap, MICRO'09) spreading the wear of a hot line
 * over a whole region, and how the gap interval trades write overhead
 * against levelling quality.
 *
 * Usage: wear_leveling [--lines=256] [--writes=500000]
 */

#include <algorithm>
#include <iostream>

#include "common/args.hh"
#include "common/table.hh"
#include "pcm/geometry.hh"
#include "pcm/startgap.hh"

using namespace sdpcm;

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    // A Start-Gap region spans at most every line of the DIMM.
    const DimmGeometry dimm;
    const auto lines = args.get<std::uint64_t>(
        "lines", 256, 1, dimm.capacityBytes() / dimm.lineBytes);
    const auto writes = args.get<std::uint64_t>("writes", 500000, 1);
    args.finishParsing();

    std::cout << "Start-Gap over " << lines << " lines, " << writes
              << " writes to one hot line\n\n";

    TablePrinter t({"gap interval", "max slot wear", "vs unlevelled",
                    "slots touched", "copy overhead"});
    t.addRow({"(none)", std::to_string(writes), "1.00x", "1", "0.0%"});
    for (const unsigned interval : {10u, 100u, 1000u}) {
        StartGap sg(lines, interval);
        const auto wear = sg.simulateHotLine(writes);
        const std::uint64_t max_wear =
            *std::max_element(wear.begin(), wear.end());
        std::uint64_t touched = 0;
        for (const auto w : wear)
            touched += w > 0 ? 1 : 0;
        t.addRow({std::to_string(interval), std::to_string(max_wear),
                  TablePrinter::fmt(
                      static_cast<double>(writes) / max_wear, 2) + "x",
                  std::to_string(touched),
                  TablePrinter::pct(
                      static_cast<double>(sg.gapMovements()) / writes)});
    }
    t.print(std::cout);

    std::cout << "\nSmaller gap intervals level faster (the hot line "
                 "migrates sooner) at the cost\nof more gap-movement "
                 "copy writes; psi=100 is the original paper's "
                 "setting.\n";
    return 0;
}
