/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global queue orders callbacks by tick (CPU cycles at 4GHz);
 * ties are broken by insertion order so runs are fully deterministic.
 */

#ifndef SDPCM_SIM_EVENT_QUEUE_HH
#define SDPCM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/logging.hh"
#include "obs/observers.hh"
#include "obs/profiler.hh"
#include "pcm/timing.hh"

namespace sdpcm {

/** Tick-ordered event queue (bills dispatch to the bundle's profiler). */
class EventQueue : public Observed
{
  public:
    using Callback = std::function<void()>;

    /** Schedule a callback at an absolute tick (>= now). */
    void
    schedule(Tick when, Callback cb)
    {
        SDPCM_ASSERT(when >= now_, "scheduling into the past: ", when,
                     " < ", now_);
        heap_.push(Event{when, nextSeq_++, std::move(cb)});
    }

    /** Schedule a callback `delay` ticks from now. */
    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    Tick now() const { return now_; }
    bool empty() const { return heap_.empty(); }
    std::uint64_t processed() const { return processed_; }

    /**
     * Install a periodic observation hook: `hook(now)` runs before the
     * first event at or after each multiple of `interval` ticks (epoch
     * samplers, telemetry frames, watchdogs). Unlike a self-rescheduling
     * event, a hook never keeps the queue alive, so a drained queue
     * still ends the run. Hooks observe state only — they must not
     * schedule events. Several hooks with independent intervals may be
     * installed; when one tick crosses multiple boundaries the due hooks
     * fire in installation order (deterministic). @return a hook id for
     * removeTickHook().
     */
    std::size_t
    addTickHook(Tick interval, std::function<void(Tick)> hook)
    {
        SDPCM_ASSERT(interval > 0, "tick-hook interval must be positive");
        Hook h;
        h.interval = interval;
        h.next = (now_ / interval + 1) * interval;
        h.fn = std::move(hook);
        hooks_.push_back(std::move(h));
        recomputeNextHookTick();
        return hooks_.size() - 1;
    }

    /** Uninstall a hook by the id addTickHook() returned. */
    void
    removeTickHook(std::size_t id)
    {
        SDPCM_ASSERT(id < hooks_.size(), "unknown tick-hook id ", id);
        hooks_[id].fn = nullptr;
        hooks_[id].next = ~Tick(0);
        recomputeNextHookTick();
    }

    /** Pop and run the earliest event. @return false if queue is empty. */
    bool
    runNext()
    {
        if (heap_.empty())
            return false;
        // Move the callback out before popping: the callback may schedule
        // new events.
        Event ev = std::move(const_cast<Event&>(heap_.top()));
        heap_.pop();
        now_ = ev.when;
        if (now_ >= nextHookTick_) {
            for (Hook& h : hooks_) {
                if (h.fn && now_ >= h.next) {
                    h.fn(now_);
                    h.next = (now_ / h.interval + 1) * h.interval;
                }
            }
            recomputeNextHookTick();
        }
        processed_ += 1;
        {
            // Every callback body is charged to EventDispatch; the
            // instrumented subsystems below it (controller stages,
            // device scans, samplers) open their own child scopes.
            PROF_SCOPE(obs_.prof, EventDispatch);
            ev.cb();
        }
        return true;
    }

    /** Run until the queue drains or `max_ticks` is reached. */
    void
    run(Tick max_ticks = ~Tick(0))
    {
        while (!heap_.empty() && heap_.top().when <= max_ticks)
            runNext();
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;

        bool
        operator>(const Event& other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    struct Hook
    {
        Tick interval = 0;
        Tick next = ~Tick(0);
        std::function<void(Tick)> fn;
    };

    void
    recomputeNextHookTick()
    {
        nextHookTick_ = ~Tick(0);
        for (const Hook& h : hooks_) {
            if (h.fn && h.next < nextHookTick_)
                nextHookTick_ = h.next;
        }
    }

    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    Tick nextHookTick_ = ~Tick(0);
    std::vector<Hook> hooks_;
};

} // namespace sdpcm

#endif // SDPCM_SIM_EVENT_QUEUE_HH
