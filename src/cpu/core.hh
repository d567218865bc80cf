/**
 * @file
 * Trace-driven in-order core (Table 2: 8-core single-issue in-order CMP
 * at 4GHz).
 *
 * The core replays a main-memory reference stream: it retires the gap
 * instructions at 1 IPC, blocks on memory reads (an in-order core with a
 * blocking L3 miss), and posts writes to the memory controller's write
 * queue, stalling only when that queue is full. The (n:m) allocator tag
 * travels with each request via the MMU translation.
 *
 * A core has at most one reference in flight, so it keeps that record
 * itself: each event it schedules names only the next step (`arg`), and
 * a read's data comes back through ReadClient::readDone().
 */

#ifndef SDPCM_CPU_CORE_HH
#define SDPCM_CPU_CORE_HH

#include <cstdint>
#include <memory>

#include "controller/memctrl.hh"
#include "obs/observers.hh"
#include "os/page_table.hh"
#include "sim/event_queue.hh"
#include "workload/trace.hh"

namespace sdpcm {

/** Per-core statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t readsIssued = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t writeStalls = 0; //!< write-queue-full occurrences
    Tick startTick = 0;
    Tick finishTick = 0;
};

/** One trace-driven in-order core (bills its translations and trace
 *  draws to the bundle's profiler). */
class TraceCore : public EventTarget, public ReadClient, public Observed
{
  public:
    TraceCore(unsigned id, EventQueue& events, MemoryController& ctrl,
              Mmu& mmu, TraceStream& stream, std::uint64_t max_refs);

    /** Begin replaying the trace. */
    void start();

    bool done() const { return done_; }
    const CoreStats& stats() const { return stats_; }

    /** Cycles per instruction over the replayed trace. */
    double
    cpi() const
    {
        if (stats_.instructions == 0)
            return 0.0;
        return static_cast<double>(stats_.finishTick - stats_.startTick) /
               static_cast<double>(stats_.instructions);
    }

    void fire(std::uint64_t step) override;
    void readDone(const LineData& data) override;

  private:
    /** The steps a core schedules on itself (its events' `arg`). */
    enum Step : std::uint64_t
    {
        kPerform,   //!< the gap has retired: translate and access memory
        kTlbRetry,  //!< the page-table walk is done: access memory with
                    //!< the translation the miss produced (the core's
                    //!< TLB cannot change while it waits)
        kWriteRetry //!< the write queue has space: submit the write again
    };

    void issueNext();
    /** Draw the next record into record_; false when the trace ends. */
    bool draw();
    /** Translate record_ into paddr_; false on a TLB miss. */
    bool translate();
    void perform();
    void performTranslated();
    void finish();

    unsigned id_;
    EventQueue& events_;
    MemoryController& ctrl_;
    Mmu& mmu_;
    TraceStream& stream_;
    std::uint64_t maxRefs_;
    std::uint64_t refsIssued_ = 0;
    TraceRecord record_; //!< the reference in flight
    PhysAddr paddr_ = 0; //!< its physical address, once translated
    bool done_ = false;
    CoreStats stats_;
};

} // namespace sdpcm

#endif // SDPCM_CPU_CORE_HH
