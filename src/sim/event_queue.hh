/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global queue orders events by tick (CPU cycles at 4GHz);
 * ties are broken by insertion order so runs are fully deterministic.
 * An event is a plain 32-byte record naming its target and one argument,
 * so scheduling and dispatching one never touches the heap allocator.
 */

#ifndef SDPCM_SIM_EVENT_QUEUE_HH
#define SDPCM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "obs/observers.hh"
#include "obs/profiler.hh"
#include "pcm/timing.hh"

namespace sdpcm {

/**
 * A component that receives scheduled events. The queue hands each
 * event's `arg` back to fire(); what it means (a step of the target's
 * own state machine, a bank index, ...) is up to the target.
 */
class EventTarget
{
  public:
    /** Handle one event that was scheduled with `arg`. */
    virtual void fire(std::uint64_t arg) = 0;
};

/** Tick-ordered event queue (bills dispatch to the bundle's profiler). */
class EventQueue : public Observed
{
  public:
    /** A periodic observation hook (see addTickHook()). */
    using TickHook = std::function<void(Tick)>;

    /** Schedule `target.fire(arg)` at an absolute tick (>= now). */
    void
    schedule(Tick when, EventTarget& target, std::uint64_t arg = 0)
    {
        SDPCM_ASSERT(when >= now_, "scheduling into the past: ", when,
                     " < ", now_);
        heap_.push(Event{when, nextSeq_++, &target, arg});
    }

    /** Schedule `target.fire(arg)` `delay` ticks from now. */
    void
    scheduleAfter(Tick delay, EventTarget& target, std::uint64_t arg = 0)
    {
        schedule(now_ + delay, target, arg);
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
     * fire in installation order (deterministic). Hooks fire once per
     * interval, not once per event, so they keep a type-erased callable.
     * @return a hook id for removeTickHook().
     */
    std::size_t
    addTickHook(Tick interval, TickHook hook)
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
        // Copy the record out before popping: the target may schedule
        // new events.
        const Event ev = heap_.top();
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
            // Every target's fire() is charged to EventDispatch; the
            // instrumented subsystems below it (controller stages,
            // device scans, samplers) open their own child scopes.
            PROF_SCOPE(obs_.prof, EventDispatch);
            ev.target->fire(ev.arg);
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
    /** One scheduled event: ordered by (when, seq), seq unique. */
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        EventTarget* target;
        std::uint64_t arg;

        bool
        operator>(const Event& other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };
    static_assert(sizeof(Event) == 32 &&
                  std::is_trivially_copyable_v<Event>);

    struct Hook
    {
        Tick interval = 0;
        Tick next = ~Tick(0);
        TickHook fn;
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
