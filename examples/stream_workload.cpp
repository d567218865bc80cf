/**
 * @file
 * STREAM through the full cache hierarchy.
 *
 * Unlike the bench harnesses (which replay post-cache traces), this
 * example generates CPU-level loads/stores for the four STREAM kernels,
 * filters them through the Table 2 L1/L2/DRAM-L3 hierarchy, and feeds
 * the resulting misses and dirty writebacks to an SD-PCM memory system —
 * the same capture-then-replay structure the paper built with PIN.
 *
 * Usage: stream_workload [--mb=8] [--passes=2] [--seed=N]
 */

#include <iostream>
#include <memory>

#include "common/args.hh"
#include "common/table.hh"
#include "cpu/cache.hh"
#include "os/buddy.hh"
#include "os/page_table.hh"
#include "sim/system.hh"

using namespace sdpcm;

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    // Three arrays must overflow the 32MB DRAM L3 for any traffic to
    // reach PCM at all.
    const std::uint64_t array_bytes =
        args.get<std::uint64_t>("mb", 16, 1, ~std::uint64_t{0} >> 20) << 20;
    const auto passes = args.get<unsigned>("passes", 2, 1);
    args.finishParsing();
    const std::uint64_t lines = array_bytes / 64;

    std::cout << "STREAM behind the Table 2 cache hierarchy: 3 arrays x "
              << (array_bytes >> 20) << "MB, " << passes
              << " kernel passes\n\n";

    TablePrinter t({"scheme", "elapsed Mcycles", "mem reads",
                    "mem writes", "corrections", "BL WD errors"});

    for (const auto& scheme :
         {SchemeConfig::din8F2(), SchemeConfig::baselineVnc(),
          SchemeConfig::lazyCPreRead(),
          SchemeConfig::lazyCPreReadNm(NmRatio{2, 3})}) {
        // Assemble the memory side only: this drives the controller.
        EventQueue events;
        DeviceConfig dc;
        dc.rates = System::ratesFor(scheme);
        dc.ecpEntries = scheme.ecpEntries;
        dc.seed = 42;
        PcmDevice device(dc);
        MemoryController ctrl(events, device, scheme, 42);
        PageAllocatorSystem allocator(dc.geometry);
        Mmu mmu(allocator, scheme.defaultTag);
        auto hierarchy = CacheHierarchy::makeTable2();

        std::uint64_t reads = 0, writes = 0;
        /** Counts the reads still waiting for their data. */
        struct Outstanding : ReadClient
        {
            std::uint64_t n = 0;
            void readDone(const LineData&) override { n -= 1; }
        } outstanding;
        auto issue_memory = [&](std::uint64_t vaddr, bool is_write) {
            const Translation tr = mmu.translate(vaddr);
            if (is_write) {
                while (!ctrl.submitWrite(tr.paddr, tr.tag, 0, 0.2))
                    events.run(); // drain and retry
                writes += 1;
            } else {
                outstanding.n += 1;
                ctrl.submitRead(tr.paddr, 0, outstanding);
                reads += 1;
            }
        };

        auto touch = [&](std::uint64_t vaddr, bool is_write) {
            const auto r = hierarchy.access(vaddr, is_write);
            if (r.memoryRead)
                issue_memory(vaddr, false);
            for (const auto wb : r.memoryWrites)
                issue_memory(wb, true);
        };

        const std::uint64_t a = 0;
        const std::uint64_t b = array_bytes;
        const std::uint64_t c = 2 * array_bytes;
        for (unsigned pass = 0; pass < passes; ++pass) {
            for (std::uint64_t i = 0; i < lines; ++i) { // copy: c = a
                touch(a + i * 64, false);
                touch(c + i * 64, true);
            }
            for (std::uint64_t i = 0; i < lines; ++i) { // scale: b = s*c
                touch(c + i * 64, false);
                touch(b + i * 64, true);
            }
            for (std::uint64_t i = 0; i < lines; ++i) { // add: c = a+b
                touch(a + i * 64, false);
                touch(b + i * 64, false);
                touch(c + i * 64, true);
            }
            for (std::uint64_t i = 0; i < lines; ++i) { // triad: a = b+s*c
                touch(b + i * 64, false);
                touch(c + i * 64, false);
                touch(a + i * 64, true);
            }
            events.run();
        }
        events.run();

        t.addRow({scheme.name,
                  TablePrinter::fmt(events.now() / 1e6, 1),
                  std::to_string(reads), std::to_string(writes),
                  std::to_string(ctrl.stats().correctionWrites),
                  std::to_string(device.stats().blDisturbances)});
    }
    t.print(std::cout);

    std::cout << "\nDirty L3 evictions are the only writes that reach "
                 "PCM; the caches absorb all reuse.\n";
    return 0;
}
