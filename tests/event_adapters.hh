/**
 * @file
 * Test-local adapters from callables to the simulator's typed event
 * interfaces, so a test can still schedule or read through a lambda.
 */

#ifndef SDPCM_TESTS_EVENT_ADAPTERS_HH
#define SDPCM_TESTS_EVENT_ADAPTERS_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "controller/memctrl.hh"
#include "sim/event_queue.hh"

namespace sdpcm {

/** An EventTarget that runs one callable on every event it gets. */
class CallbackTarget : public EventTarget
{
  public:
    explicit CallbackTarget(std::function<void()> fn = [] {})
        : fn_(std::move(fn))
    {}

    void fire(std::uint64_t) override { fn_(); }

  private:
    std::function<void()> fn_;
};

/** A ReadClient that runs one callable with each read's data. */
class ReadCallback : public ReadClient
{
  public:
    explicit ReadCallback(
        std::function<void(const LineData&)> fn = [](const LineData&) {})
        : fn_(std::move(fn))
    {}

    void readDone(const LineData& data) override { fn_(data); }

  private:
    std::function<void(const LineData&)> fn_;
};

} // namespace sdpcm

#endif // SDPCM_TESTS_EVENT_ADAPTERS_HH
