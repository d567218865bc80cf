/**
 * @file
 * Structured event tracing for the simulator.
 *
 * `TraceSink` is the abstract emission interface the controller and
 * device publish through; `ChromeTraceSink` renders the stream as Chrome
 * trace-event JSON (the format Perfetto and chrome://tracing load
 * natively). The simulated DIMM is modelled as one "process" with one
 * "thread" per bank, so a loaded trace shows per-bank swimlanes of bank
 * occupancy (Read / PreRead / WriteRound / VerifyRead / CorrectionRound /
 * CascadeRead / EcpUpdate duration events) with instant markers for write
 * cancellations, drain bursts, ECP overflows and cascade-depth spikes.
 *
 * Timestamps are raw simulator ticks (CPU cycles at 4GHz) written into
 * the `ts`/`dur` microsecond fields — viewers only need monotone units,
 * and keeping ticks exact makes traces diffable against test oracles.
 *
 * Tracing is opt-in: components hold a `TraceSink*` that is null by
 * default, so the disabled path costs one predictable branch per
 * would-be event and no allocation or formatting work.
 */

#ifndef SDPCM_OBS_TRACE_SINK_HH
#define SDPCM_OBS_TRACE_SINK_HH

#include <fstream>
#include <initializer_list>
#include <ostream>
#include <string>

#include "obs/observers.hh"
#include "obs/profiler.hh"
#include "pcm/timing.hh"

namespace sdpcm {

/** One numeric key/value annotation on a trace event. */
struct TraceArg
{
    const char* key;
    double value;
};

/** Abstract structured-event sink (see ChromeTraceSink). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Name the per-bank "thread" lane (emit once, before events). */
    virtual void threadName(unsigned tid, const std::string& name) = 0;

    /** Open a duration event on a lane; `ts` must be the current tick. */
    virtual void begin(unsigned tid, const char* name, const char* cat,
                       Tick ts,
                       std::initializer_list<TraceArg> args = {}) = 0;

    /** Close the lane's open duration event at the current tick. */
    virtual void end(unsigned tid, Tick ts,
                     std::initializer_list<TraceArg> args = {}) = 0;

    /** A zero-duration marker on a lane. */
    virtual void instant(unsigned tid, const char* name, const char* cat,
                         Tick ts,
                         std::initializer_list<TraceArg> args = {}) = 0;

    /** A counter track (one series per arg), process-global. */
    virtual void counter(const char* name, Tick ts,
                         std::initializer_list<TraceArg> series) = 0;

    /** Flush buffered output (the destructor also finalises). */
    virtual void flush() {}
};

/**
 * TraceSink writing Chrome trace-event JSON (Perfetto-loadable). Event
 * serialisation bills to the bundle's profiler (TraceWrite phase).
 */
class ChromeTraceSink final : public TraceSink, public Observed
{
  public:
    /** Write to a file owned by the sink. */
    explicit ChromeTraceSink(const std::string& path);

    /** Write to a caller-owned stream (tests). */
    explicit ChromeTraceSink(std::ostream& os);

    ~ChromeTraceSink() override;

    void threadName(unsigned tid, const std::string& name) override;
    void begin(unsigned tid, const char* name, const char* cat, Tick ts,
               std::initializer_list<TraceArg> args) override;
    void end(unsigned tid, Tick ts,
             std::initializer_list<TraceArg> args) override;
    void instant(unsigned tid, const char* name, const char* cat,
                 Tick ts, std::initializer_list<TraceArg> args) override;
    void counter(const char* name, Tick ts,
                 std::initializer_list<TraceArg> series) override;
    void flush() override;

    /** Write the closing bracket; further events are rejected. */
    void close();

  private:
    void openEvent(const char* ph, Tick ts);
    void writeArgs(std::initializer_list<TraceArg> args);
    void closeEvent();

    std::ofstream owned_;
    std::ostream* os_;
    bool first_ = true;
    bool closed_ = false;
};

} // namespace sdpcm

#endif // SDPCM_OBS_TRACE_SINK_HH
