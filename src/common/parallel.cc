#include "common/parallel.h"

#include <algorithm>

#include "common/log.h"

namespace qprac {

int
hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 2 : static_cast<int>(hw);
}

void
parallelFor(std::size_t count, int threads,
            const std::function<void(std::size_t)>& fn)
{
    auto want = static_cast<std::size_t>(std::max(1, threads));
    // No point spawning workers that would find the counter drained.
    want = std::min(want, count ? count : 1);
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        while (true) {
            std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t + 1 < want; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto& t : pool)
        t.join();
}

namespace {

/**
 * Spin budget before falling back to the condvar. Callers issue run()
 * back-to-back, so the fast path is "the next dispatch lands while
 * we're still spinning".
 */
constexpr int kSpinIters = 8192;

} // namespace

WorkerPool::WorkerPool(int degree)
{
    const int extra = std::max(1, degree) - 1;
    workers_.reserve(static_cast<std::size_t>(extra));
    for (int i = 0; i < extra; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_.store(true, std::memory_order_release);
    }
    wake_.notify_all();
    for (auto& t : workers_)
        t.join();
}

void
WorkerPool::workChunk()
{
    const auto& fn = *job_;
    while (true) {
        std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count_)
            return;
        fn(i);
    }
}

void
WorkerPool::workerLoop()
{
    std::uint64_t seen = 0;
    while (true) {
        // Fast path: the next epoch is dispatched while we spin.
        bool have_work = false;
        for (int spin = 0; spin < kSpinIters; ++spin) {
            if (stop_.load(std::memory_order_acquire))
                return;
            if (generation_.load(std::memory_order_acquire) != seen) {
                have_work = true;
                break;
            }
            if ((spin & 255) == 255)
                std::this_thread::yield();
        }
        if (!have_work) {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_.load(std::memory_order_acquire) ||
                       generation_.load(std::memory_order_acquire) != seen;
            });
            if (stop_.load(std::memory_order_acquire))
                return;
        }
        seen = generation_.load(std::memory_order_acquire);
        workChunk();
        if (active_.fetch_sub(1, std::memory_order_acq_rel) - 1 == 0) {
            // Take the lock so the caller can't miss the notify between
            // its predicate check and its wait.
            std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_one();
        }
    }
}

void
WorkerPool::run(std::size_t count,
                const std::function<void(std::size_t)>& fn)
{
    if (count == 0)
        return;
    if (workers_.empty()) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        QP_ASSERT(active_.load(std::memory_order_acquire) == 0,
                  "WorkerPool::run is not reentrant");
        job_ = &fn;
        count_ = count;
        next_.store(0, std::memory_order_relaxed);
        active_.store(static_cast<int>(workers_.size()),
                      std::memory_order_release);
        generation_.fetch_add(1, std::memory_order_acq_rel);
    }
    wake_.notify_all();
    workChunk(); // the caller is one lane of the pool
    for (int spin = 0; spin < kSpinIters; ++spin) {
        if (active_.load(std::memory_order_acquire) == 0) {
            job_ = nullptr;
            return;
        }
        if ((spin & 255) == 255)
            std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] {
        return active_.load(std::memory_order_acquire) == 0;
    });
    job_ = nullptr;
}

} // namespace qprac
