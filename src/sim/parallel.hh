/**
 * @file
 * Parallel execution primitives for the experiment harness.
 *
 * Every simulation run (`System` instance) owns its seed, RNG, device,
 * controller and event queue, and the library keeps no mutable global
 * state (statics are const, initialised via thread-safe magic statics),
 * so independent runs are shared-nothing and can execute concurrently
 * with bit-identical results versus serial execution. `parallelFor`
 * fans (scheme, workload) cells out across plain threads; `--jobs=1`
 * degenerates to a plain in-order loop on the calling thread.
 */

#ifndef SDPCM_SIM_PARALLEL_HH
#define SDPCM_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace sdpcm {

/** Worker count used when the user passes `--jobs=0` (auto). */
unsigned defaultJobs();

/** Map a user-facing jobs value (0 = auto) to a concrete worker count. */
unsigned resolveJobs(unsigned jobs);

/**
 * Run `body(0) ... body(count-1)` on min(`jobs`, `count`) threads, each
 * taking the next index from a shared counter, and block until all
 * complete. With one thread the calls happen in index order on the
 * calling thread (bit-identical to a plain loop). Every index is
 * attempted; the first exception thrown by any invocation is rethrown
 * after all of them have finished.
 */
void parallelFor(unsigned jobs, std::size_t count,
                 const std::function<void(std::size_t)>& body);

} // namespace sdpcm

#endif // SDPCM_SIM_PARALLEL_HH
