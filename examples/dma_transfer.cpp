/**
 * @file
 * WD-aware DMA (Section 4.4, "DMA support").
 *
 * A DMA engine addresses physical memory directly, so the (n:m) tag must
 * be communicated to it. This example allocates a buffer under (1:2),
 * performs a DMA write into it (the controller skips every other strip
 * automatically), and shows that the transfer touched only used strips —
 * and therefore that none of the DMA writes needed any verification.
 *
 * Usage: dma_transfer [--pages=64]
 */

#include <iostream>

#include "common/args.hh"
#include "common/table.hh"
#include "controller/memctrl.hh"
#include "os/buddy.hh"
#include "os/dma.hh"
#include "sim/event_queue.hh"
#include "thermal/wd_model.hh"

using namespace sdpcm;

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    const auto pages = args.get<std::uint64_t>("pages", 64, 1);
    args.finishParsing();

    const DimmGeometry geometry;
    PageAllocatorSystem allocator(geometry);
    DmaController dma(geometry);

    std::cout << "DMA into a (1:2) buffer of " << pages << " pages\n\n";

    // The OS allocates a physically contiguous-by-policy region.
    const unsigned order = log2Exact(ceilPowerOfTwo(pages));
    auto block = allocator.allocate(NmRatio{1, 2}, order);
    if (!block) {
        std::cerr << "allocation failed\n";
        return 1;
    }
    const auto frames =
        dma.framesForTransfer(NmRatio{1, 2}, block->start, pages);

    TablePrinter t({"", "value"});
    t.addRow({"block start frame", std::to_string(block->start)});
    t.addRow({"block order (size-adjusted)",
              std::to_string(block->order)});
    t.addRow({"frames transferred", std::to_string(frames.size())});
    t.addRow({"strips skipped",
              std::to_string((frames.back() - frames.front() + 1 -
                              frames.size()) / 16)});
    t.print(std::cout);

    // Drive the actual writes through the memory controller and verify
    // that (1:2) data placement eliminated VnC entirely.
    EventQueue events;
    DeviceConfig dc;
    const WdModel model;
    dc.rates = WdRates{model.wordLineErrorRate(kLayoutSuperDense),
                       model.bitLineErrorRate(kLayoutSuperDense)};
    PcmDevice device(dc);
    SchemeConfig scheme = SchemeConfig::nmOnly(NmRatio{1, 2});
    scheme.idleWriteDrain = true;
    MemoryController ctrl(events, device, scheme, 7);

    for (const auto frame : frames) {
        for (unsigned line = 0; line < 64; ++line) {
            while (!ctrl.submitWrite(frame * 4096 + line * 64,
                                     NmRatio{1, 2}, 0, 0.5)) {
                events.run();
            }
        }
        events.run();
    }
    events.run();

    std::cout << "\nDMA wrote " << ctrl.stats().writesCompleted
              << " lines; verify reads issued: "
              << ctrl.stats().verifyReads
              << " (no-use thermal bands make VnC unnecessary; "
              << ctrl.stats().adjacentsSkippedNm
              << " adjacent lines skipped)\n";
    return 0;
}
