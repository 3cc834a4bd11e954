#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <string>

#include "common/env.h"
#include "common/logging.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {

namespace {

/**
 * Set for pool workers and, while it runs its own lane, for the thread
 * that called parallelFor: nested parallelFor calls from either run
 * inline. (A nested loop the caller queued could only start once the
 * workers finished their outer lanes, stalling the caller meanwhile.)
 */
thread_local bool tls_in_loop = false;

/** Stable per-pool identity: 0 = main/external, 1.. = workers. */
thread_local std::size_t tls_worker_id = 0;
thread_local std::string tls_worker_name = "main";

std::size_t
configuredThreadCount()
{
    const unsigned hw_raw = std::thread::hardware_concurrency();
    const long hw = hw_raw > 0 ? static_cast<long>(hw_raw) : 1;
    // Cap at 4x hardware concurrency: more threads than that only adds
    // contention, and a mistyped huge value would spawn thousands of
    // workers. Unparsable or out-of-range values warn (env.h) instead
    // of silently falling back.
    return static_cast<std::size_t>(
        envLong("QPULSE_THREADS", hw, 1, 4 * hw));
}

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t workers = threads > 1 ? threads - 1 : 0;
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back(&ThreadPool::workerLoop, this, i + 1);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

std::size_t
ThreadPool::currentWorkerId()
{
    return tls_worker_id;
}

const std::string &
ThreadPool::currentWorkerName()
{
    return tls_worker_name;
}

void
ThreadPool::workerLoop(std::size_t worker_id)
{
    tls_in_loop = true;
    tls_worker_id = worker_id;
    tls_worker_name = "worker-" + std::to_string(worker_id);
    // Hook for the tracer's per-thread buffers: spans recorded from
    // this worker land on a stable, human-labelled tid row.
    telemetry::setCurrentThreadInfo(
        static_cast<std::uint32_t>(worker_id), tls_worker_name);
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body,
                        std::size_t maxThreads)
{
    if (n == 0)
        return;
    // Counters count *work* (calls, iterations), never scheduling
    // decisions like inline-vs-pooled: exported values must be
    // identical for every QPULSE_THREADS (docs/OBSERVABILITY.md).
    static telemetry::Counter &c_loops =
        telemetry::MetricsRegistry::global().counter(
            "threadpool.parallel_for.calls");
    static telemetry::Counter &c_iterations =
        telemetry::MetricsRegistry::global().counter(
            "threadpool.parallel_for.iterations");
    c_loops.increment();
    c_iterations.add(n);
    telemetry::TraceSpan span("threadpool.parallel_for");

    std::size_t width = size();
    if (maxThreads > 0)
        width = std::min(width, maxThreads);
    width = std::min(width, n);
    if (width <= 1 || workers_.empty() || tls_in_loop) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    struct LoopState
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> active{0};
        std::mutex doneMutex;
        std::condition_variable done;
        std::exception_ptr error;
        std::mutex errorMutex;
    };
    auto state = std::make_shared<LoopState>();
    state->active.store(width, std::memory_order_relaxed);

    const auto run = [state, n, &body]() {
        for (;;) {
            const std::size_t i =
                state->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->errorMutex);
                if (!state->error)
                    state->error = std::current_exception();
            }
        }
        if (state->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(state->doneMutex);
            state->done.notify_all();
        }
    };

    // The body reference stays valid: the calling thread blocks below
    // until every enqueued task has finished.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i + 1 < width; ++i)
            queue_.emplace_back(run);
    }
    wake_.notify_all();

    // The caller participates as the width-th lane.
    tls_in_loop = true;
    run();
    tls_in_loop = false;

    {
        std::unique_lock<std::mutex> lock(state->doneMutex);
        state->done.wait(lock, [&state] {
            return state->active.load(std::memory_order_acquire) == 0;
        });
    }
    if (state->error)
        std::rethrow_exception(state->error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(configuredThreadCount());
    return pool;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
            std::size_t maxThreads)
{
    ThreadPool::global().parallelFor(n, body, maxThreads);
}

} // namespace qpulse
