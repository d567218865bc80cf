#include "cpu/core.hh"

namespace sdpcm {

/** TLB miss penalty in cycles (page-table walk). */
constexpr Tick kTlbMissCycles = 30;

TraceCore::TraceCore(unsigned id, EventQueue& events,
                     MemoryController& ctrl, Mmu& mmu, TraceStream& stream,
                     std::uint64_t max_refs)
    : id_(id),
      events_(events),
      ctrl_(ctrl),
      mmu_(mmu),
      stream_(stream),
      maxRefs_(max_refs)
{}

void
TraceCore::start()
{
    stats_.startTick = events_.now();
    issueNext();
}

void
TraceCore::finish()
{
    done_ = true;
    stats_.finishTick = events_.now();
}

void
TraceCore::fire(std::uint64_t step)
{
    switch (step) {
      case kPerform:
        perform();
        return;
      case kTlbRetry:
        paddr_ = mmu_.translate(record_.vaddr).paddr;
        performTranslated();
        return;
      case kWriteRetry:
        performTranslated();
        return;
    }
    SDPCM_PANIC("core ", id_, ": unknown step ", step);
}

void
TraceCore::readDone(const LineData&)
{
    issueNext();
}

void
TraceCore::issueNext()
{
    if (refsIssued_ >= maxRefs_) {
        finish();
        return;
    }
    if (!stream_.next(record_)) {
        finish();
        return;
    }
    refsIssued_ += 1;
    stats_.instructions += record_.gap + 1;
    // Retire the gap instructions at 1 IPC, then access memory.
    events_.scheduleAfter(record_.gap, *this, kPerform);
}

void
TraceCore::perform()
{
    const Translation tr = mmu_.translate(record_.vaddr);
    if (!tr.tlbHit) {
        // Charge the page-table walk, then retry with a warm TLB.
        events_.scheduleAfter(kTlbMissCycles, *this, kTlbRetry);
        return;
    }
    paddr_ = tr.paddr;
    performTranslated();
}

void
TraceCore::performTranslated()
{
    if (!record_.isWrite) {
        stats_.readsIssued += 1;
        ctrl_.submitRead(paddr_, id_, *this);
        return;
    }

    if (ctrl_.submitWrite(paddr_, mmu_.tag(), id_, record_.flipDensity)) {
        stats_.writesIssued += 1;
        issueNext();
        return;
    }
    // Write queue full: stall until space frees, then retry.
    stats_.writeStalls += 1;
    ctrl_.onWriteSpace(paddr_, *this, kWriteRetry);
}

} // namespace sdpcm
