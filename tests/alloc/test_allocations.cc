/**
 * @file
 * Heap-allocation regression tests.
 *
 * This executable replaces the global operator new with one that counts
 * calls while a test has counting switched on, so it is built apart from
 * sdpcm_tests. Events are plain records (sim/event_queue.hh): scheduling
 * and dispatching one must not allocate, and a whole run must allocate
 * far less than once per event.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hh"
#include "sim/system.hh"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

/** Counts the operator new calls made during its lifetime. */
class AllocationCounter
{
  public:
    AllocationCounter()
    {
        g_allocations = 0;
        g_counting = true;
    }
    ~AllocationCounter() { g_counting = false; }

    std::uint64_t count() const { return g_allocations; }
};

} // namespace

void*
operator new(std::size_t size)
{
    if (g_counting)
        g_allocations += 1;
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace sdpcm {
namespace {

/** A target that reschedules itself until `budget` events have been
 *  scheduled, keeping several in flight like the simulator's cores. */
class Ticker : public EventTarget
{
  public:
    Ticker(EventQueue& events, std::uint64_t budget)
        : events_(events), budget_(budget)
    {}

    /** Put `n` events in flight. */
    void
    start(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            next(i);
    }

    void
    fire(std::uint64_t arg) override
    {
        fired += 1;
        if (scheduled_ < budget_)
            next(arg * 31 + 7);
    }

    std::uint64_t fired = 0;

  private:
    void
    next(std::uint64_t arg)
    {
        events_.scheduleAfter(arg % 97, *this, arg);
        scheduled_ += 1;
    }

    EventQueue& events_;
    std::uint64_t budget_;
    std::uint64_t scheduled_ = 0;
};

TEST(Allocations, EventQueueDispatchAllocatesNothing)
{
    constexpr std::uint64_t kEvents = 10000;
    EventQueue events;
    // Warm-up: the heap's storage grows to its high-water mark.
    Ticker warm(events, kEvents);
    warm.start(64);
    events.run();
    ASSERT_EQ(warm.fired, kEvents);

    Ticker ticker(events, kEvents);
    std::uint64_t allocations = 0;
    {
        const AllocationCounter counter;
        ticker.start(64);
        events.run();
        allocations = counter.count();
    }
    EXPECT_EQ(ticker.fired, kEvents);
    EXPECT_EQ(events.processed(), 2 * kEvents);
    EXPECT_EQ(allocations, 0u);
}

TEST(Allocations, SystemRunAllocatesLessThanHalfOncePerEvent)
{
    // sdpcm/bwaves, 2 cores x 2000 refs, seed 7: 8,566 events. Counted
    // inside run() only, it made 16,347 allocations (1.91 per event)
    // when every event was a heap-allocated closure, and 2,970 (0.35
    // per event) with event records. What remains is first-touch page
    // allocation, TLB refills and device ECP state, none per event.
    SystemConfig sc;
    sc.scheme = SchemeConfig::sdpcm();
    sc.cores = 2;
    sc.refsPerCore = 2000;
    sc.seed = 7;
    System sys(sc, workloadFromProfile("bwaves"));
    std::uint64_t allocations = 0;
    {
        const AllocationCounter counter;
        sys.run();
        allocations = counter.count();
    }
    const std::uint64_t events = sys.events().processed();
    EXPECT_EQ(events, 8566u);
    EXPECT_LT(2 * allocations, events)
        << allocations << " allocations for " << events << " events";
}

} // namespace
} // namespace sdpcm
