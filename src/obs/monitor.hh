/**
 * @file
 * Declarative SLO monitors and the forward-progress watchdog.
 *
 * A monitor rule names a signal in the telemetry registry, an
 * aggregation over the sliding window, and a bound the aggregate must
 * satisfy; the TelemetrySampler evaluates every rule at every frame
 * boundary and records a breach event when the bound is violated. Rule
 * grammar (rules separated by ';'):
 *
 *   rule  := name ':' expr cmp limit
 *   expr  := pQ '(' latency ')'              windowed quantile, e.g.
 *                                            p50 / p95 / p99 / p999
 *          | 'gauge' '(' gauge ')'           instantaneous watermark
 *          | 'burn' '(' latency ',' slo ',' budget ')'
 *                                            error-budget burn rate
 *   cmp   := '<=' | '>=' | '<' | '>'
 *
 * Examples:
 *   p99_read:p99(ctrl.readLatency)<=30000
 *   wq_depth:gauge(ctrl.writeQueued)<=200
 *   read_burn:burn(ctrl.readLatency,20000,0.001)<=1
 *
 * burn(lat, slo, budget) is the classic error-budget burn rate: over
 * the current window, the fraction of requests slower than `slo`
 * cycles, divided by the budget (the fraction the SLO tolerates). A
 * burn rate of 1 consumes the budget exactly as fast as it accrues;
 * `<=1` therefore breaches whenever the budget is burning faster than
 * sustainable. Quantile and burn rules skip frames whose window holds
 * zero samples — an idle system violates no latency SLO.
 *
 * The watchdog is the liveness counterpart: it flags the run as
 * stalled when no request retires for `window` ticks while work is
 * still pending — the hang class the integrity oracle cannot see
 * (the oracle checks values, not progress).
 */

#ifndef SDPCM_OBS_MONITOR_HH
#define SDPCM_OBS_MONITOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/telemetry.hh"

namespace sdpcm {

/** One parsed SLO rule. */
struct MonitorRule
{
    enum class Kind
    {
        Quantile, //!< windowed percentile of a latency metric
        Gauge,    //!< instantaneous gauge watermark
        Burn,     //!< windowed error-budget burn rate
    };
    enum class Cmp
    {
        LE, GE, LT, GT
    };

    std::string name;   //!< [A-Za-z0-9_]+ (becomes mon.<name>.* metrics)
    Kind kind = Kind::Quantile;
    std::string metric; //!< registry latency (Quantile/Burn) or gauge
    double q = 0.99;    //!< Quantile only
    double slo = 0.0;   //!< Burn only: latency threshold, cycles
    double budget = 0.0; //!< Burn only: tolerated slow fraction, (0,1]
    Cmp cmp = Cmp::LE;
    double limit = 0.0;

    /** True when `value` satisfies the bound (no breach). */
    bool satisfied(double value) const;

    std::string describe() const;

    /**
     * Parse a ';'-separated rule list; throws std::invalid_argument
     * with a pointer to the offending rule on any syntax error.
     */
    static std::vector<MonitorRule> parseList(const std::string& spec);
};

/** One recorded SLO violation. */
struct BreachEvent
{
    std::string rule;
    Tick tick = 0;
    std::uint64_t seq = 0; //!< frame index
    double value = 0.0;
    double limit = 0.0;
};

/** Evaluates a rule set against each telemetry frame. */
class MonitorSet
{
  public:
    explicit MonitorSet(std::vector<MonitorRule> rules);

    /**
     * Resolve every rule's metric against the registry; SDPCM_FATAL on
     * an unknown name (a misspelled rule must not silently never fire).
     */
    void bind(const MetricRegistry& registry) const;

    /**
     * Evaluate all rules against one frame. Returns the breaches this
     * frame produced (also accumulated internally).
     */
    std::vector<BreachEvent> evaluate(const FrameData& frame);

    const std::vector<MonitorRule>& rules() const { return rules_; }
    const std::vector<BreachEvent>& breaches() const { return breaches_; }
    std::uint64_t totalBreaches() const { return breaches_.size(); }
    std::map<std::string, std::uint64_t> breachesByRule() const;
    /** Worst value seen per rule, in the rule's violating direction
     *  (max for <=/<, min for >=/>); only rules that evaluated at
     *  least once appear. */
    const std::map<std::string, double>& worstByRule() const
    {
        return worst_;
    }
    /** Frames each rule actually evaluated against (every rule appears,
     *  zero-initialised). Quantile/Burn rules skip zero-request windows,
     *  so a rule stuck at 0 here never guarded anything — the silent
     *  failure mode telemetry_tail flags as "never sampled". */
    const std::map<std::string, std::uint64_t>& evaluationsByRule() const
    {
        return evaluations_;
    }

  private:
    std::vector<MonitorRule> rules_;
    std::vector<BreachEvent> breaches_;
    std::map<std::string, double> worst_;
    std::map<std::string, std::uint64_t> evaluations_;
};

/** Forward-progress watchdog (evaluated at frame boundaries). */
class Watchdog
{
  public:
    /**
     * @param window ticks without a retirement that count as a stall.
     * @param retired cumulative retired-request count (reads serviced
     *        plus writes completed).
     * @param pending true while the system still has work in flight —
     *        an idle quiescent gap is not a stall.
     */
    Watchdog(Tick window, std::function<std::uint64_t()> retired,
             std::function<bool()> pending);

    /**
     * Check at a frame boundary. Returns true when a stall is flagged
     * (once per elapsed window, not once per frame).
     */
    bool check(Tick now);

    std::uint64_t stalls() const { return stalls_; }
    Tick window() const { return window_; }

  private:
    Tick window_;
    std::function<std::uint64_t()> retired_;
    std::function<bool()> pending_;
    std::uint64_t lastRetired_ = 0;
    Tick lastProgress_ = 0;
    bool primed_ = false;
    std::uint64_t stalls_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_OBS_MONITOR_HH
