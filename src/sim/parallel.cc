#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sdpcm {

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
resolveJobs(unsigned jobs)
{
    return jobs ? jobs : defaultJobs();
}

void
parallelFor(unsigned jobs, std::size_t count,
            const std::function<void(std::size_t)>& body)
{
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    const auto worker = [&] {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    const std::size_t threads =
        std::min<std::size_t>(resolveJobs(jobs), count);
    if (threads <= 1) {
        worker(); // an ordinary in-order loop on this thread
    } else {
        std::vector<std::jthread> workers;
        workers.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            workers.emplace_back(worker);
    } // the jthreads join here, before any rethrow
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace sdpcm
