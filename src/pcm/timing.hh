/**
 * @file
 * PCM timing model (Table 2).
 *
 * Latencies are expressed in CPU cycles at 4GHz: array read 100ns (400
 * cycles), SET 200ns (800), RESET 100ns (400). Power and write-driver
 * limits cap parallel programming at 128 SLC cells, so a differential
 * write issues program rounds, each occupying the bank for its pulse
 * latency. With the default windowed drivers, each 128-cell window with
 * changed cells pays a RESET round and then a SET round, window by
 * window; pooled drivers issue ceil(RESETs/128) RESET rounds, then
 * ceil(SETs/128) SET rounds (PcmDevice::buildRounds).
 */

#ifndef SDPCM_PCM_TIMING_HH
#define SDPCM_PCM_TIMING_HH

#include <cstdint>

namespace sdpcm {

/** Simulation time in CPU cycles. */
using Tick = std::uint64_t;

/** PCM device timing: the Table 2 latencies and the round layout. */
struct PcmTiming
{
    static constexpr Tick readCycles = 400;  //!< 100ns array read
    static constexpr Tick setCycles = 800;   //!< 200ns SET pulse
    static constexpr Tick resetCycles = 400; //!< 100ns RESET pulse
    static constexpr unsigned writeParallelism = 128; //!< cells per round

    /**
     * Write-driver organisation. `windowed` models fixed per-position
     * drivers: the 512-cell line is divided into 512/parallelism fixed
     * windows and every window containing changed cells pays its own
     * RESET and/or SET pulse (a typical differential write scatters
     * changes over all windows). When false, drivers are position-
     * agnostic and rounds are ceil(changed/parallelism) (pooled mode,
     * used by the ablation study).
     */
    bool windowed = true;
};

} // namespace sdpcm

#endif // SDPCM_PCM_TIMING_HH
