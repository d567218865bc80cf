/**
 * @file
 * The observer bundle: one way to attach every observer.
 *
 * A run's observers (trace sink, integrity oracle, span recorder, WD
 * ledger, host profiler) are each optional and observe-only. System
 * builds them and hands one ObserverBundle of their pointers to every
 * component that emits into them. Each component holds the bundle by
 * value, so an emission site is one load and one null check. Fault
 * injection is not in the bundle: an injector changes the run.
 */

#ifndef SDPCM_OBS_OBSERVERS_HH
#define SDPCM_OBS_OBSERVERS_HH

#include <string>

namespace sdpcm {

class HostProfiler;
class ShadowOracle;
class SpanRecorder;
class TraceSink;
class WdLedger;

/** The run's observers; a null member is an observer that is off. */
struct ObserverBundle
{
    TraceSink* trace = nullptr;     //!< Chrome trace (obs/trace_sink.hh)
    ShadowOracle* oracle = nullptr; //!< integrity oracle (verify/oracle.hh)
    SpanRecorder* spans = nullptr;  //!< request spans (obs/spans.hh)
    WdLedger* ledger = nullptr;     //!< WD provenance (obs/ledger.hh)
    HostProfiler* prof = nullptr;   //!< host time (obs/profiler.hh)
};

/** Base of every component that emits into the observers. */
class Observed
{
  public:
    /** Attach the run's observers (System calls this once). */
    void observe(const ObserverBundle& obs) { obs_ = obs; }

  protected:
    ObserverBundle obs_;
};

/** One (scheme, workload) cell of an observer's multi-run JSON export. */
template <typename Summary>
struct RunEntry
{
    std::string scheme;
    std::string workload;
    /** Not owned; must outlive the write call. */
    const Summary* summary = nullptr;
};

} // namespace sdpcm

#endif // SDPCM_OBS_OBSERVERS_HH
