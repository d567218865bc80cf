#include "cpu/core.hh"

#include "obs/profiler.hh"

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
    if (!draw()) {
        finish();
        return;
    }
    refsIssued_ += 1;
    stats_.instructions += record_.gap + 1;
    // Retire the gap instructions at 1 IPC, then access memory.
    events_.scheduleAfter(record_.gap, *this, kPerform);
}

bool
TraceCore::draw()
{
    PROF_SCOPE(obs_.prof, TraceNext);
    return stream_.next(record_);
}

bool
TraceCore::translate()
{
    PROF_SCOPE(obs_.prof, Translate);
    const Translation tr = mmu_.translate(record_.vaddr);
    paddr_ = tr.paddr;
    return tr.tlbHit;
}

void
TraceCore::perform()
{
    if (!translate()) {
        // Charge the page-table walk, then access memory with the
        // translation it produced.
        events_.scheduleAfter(kTlbMissCycles, *this, kTlbRetry);
        return;
    }
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
