/**
 * @file
 * Mixed-priority (n:m) allocation.
 *
 * The paper's motivation for (n:m)-Alloc: a high-priority, write-
 * intensive application buys predictable performance by spending memory
 * capacity, while background applications run under (1:1) on the same
 * DIMM. Here core 0 runs mcf under a chosen allocator while the other
 * seven cores run zeusmp under (1:1), all sharing one memory system —
 * per-core tags travel through each core's own MMU.
 *
 * Usage: priority_alloc [--refs=N] [--seed=N]
 */

#include <iostream>

#include "common/args.hh"
#include "common/table.hh"
#include "sim/runner.hh"
#include "workload/generators.hh"

using namespace sdpcm;

namespace {

/** Build a system manually so cores can differ in tag and workload. */
double
runMixed(const NmRatio& priority_tag, std::uint64_t refs,
         std::uint64_t seed, double& background_cpi)
{
    SchemeConfig scheme = SchemeConfig::lazyC();
    scheme.name = "mixed";

    EventQueue events;
    DeviceConfig dc;
    dc.rates = System::ratesFor(scheme);
    dc.ecpEntries = scheme.ecpEntries;
    dc.seed = seed;
    PcmDevice device(dc);
    MemoryController ctrl(events, device, scheme, seed);
    PageAllocatorSystem allocator(dc.geometry);

    std::vector<std::unique_ptr<Mmu>> mmus;
    std::vector<std::unique_ptr<TraceStream>> streams;
    std::vector<std::unique_ptr<TraceCore>> cores;
    for (unsigned c = 0; c < 8; ++c) {
        const bool high_priority = c < 4;
        const NmRatio tag = high_priority ? priority_tag : NmRatio{1, 1};
        mmus.push_back(std::make_unique<Mmu>(allocator, tag));
        // A light background keeps the priority group's own writes on
        // its critical path (with heavy co-runners the shared banks
        // dominate and no per-application knob can help).
        streams.push_back(std::make_unique<SyntheticTraceGenerator>(
            profileByName(high_priority ? "mcf" : "leslie3d"),
            seed ^ (0x9e3779b9ULL * (c + 1))));
        cores.push_back(std::make_unique<TraceCore>(
            c, events, ctrl, *mmus[c], *streams[c], refs));
    }
    for (auto& core : cores)
        core->start();
    events.run();

    double bg = 0.0, fg = 0.0;
    for (unsigned c = 0; c < 8; ++c)
        (c < 4 ? fg : bg) += cores[c]->cpi();
    background_cpi = bg / 4.0;
    return fg / 4.0;
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    const auto refs =
        args.get<std::uint64_t>("refs", 8000, kMinRefsPerCore);
    const auto seed = args.get<std::uint64_t>("seed", 1);
    args.finishParsing();

    std::cout << "Priority allocation: cores 0-3 run mcf under an (n:m) "
                 "allocator,\ncores 4-7 run leslie3d under (1:1), sharing "
                 "one LazyC memory system.\n\n";

    TablePrinter t({"mcf allocator", "mcf CPI",
                    "speedup vs (1:1)", "background CPI (leslie3d)",
                    "mcf capacity cost"});
    double ref_cpi = 0.0;
    for (const auto& tag :
         {NmRatio{1, 1}, NmRatio{3, 4}, NmRatio{2, 3}, NmRatio{1, 2}}) {
        double bg = 0.0;
        const double cpi = runMixed(tag, refs, seed, bg);
        if (tag.isFull())
            ref_cpi = cpi;
        const double waste =
            1.0 - static_cast<double>(tag.n) / tag.m;
        t.addRow({tag.toString(), TablePrinter::fmt(cpi, 2),
                  TablePrinter::fmt(ref_cpi / cpi, 3),
                  TablePrinter::fmt(bg, 2), TablePrinter::pct(waste, 0)});
    }
    t.print(std::cout);

    std::cout << "\nThe allocator tag gives the high-priority "
                 "application a knob: trade its own\nmemory capacity for "
                 "fewer adjacent-line verifications on its writes.\n";
    return 0;
}
