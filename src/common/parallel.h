/**
 * @file
 * Shared threading runtime: the one parallelFor every fan-out uses
 * (sweep points, workload comparisons, bench drivers) and a persistent
 * barrier pool. Parallelism lives across independent simulation
 * points only; one System run always executes on its calling thread.
 */
#ifndef QPRAC_COMMON_PARALLEL_H
#define QPRAC_COMMON_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qprac {

/** std::thread::hardware_concurrency with a floor of 2 when unknown. */
int hardwareThreads();

/**
 * Run fn(0), ..., fn(count-1) across @p threads workers (clamped to
 * count; values <= 1 run inline). Indices are claimed from a shared
 * counter, so callers store results by index for deterministic
 * ordering regardless of interleaving. Shared by runComparison, the
 * scenario sweep runner and the bench drivers.
 */
void parallelFor(std::size_t count, int threads,
                 const std::function<void(std::size_t)>& fn);

/**
 * Persistent worker pool: N-way parallelism with the calling thread
 * participating, so a pool of degree N spawns N-1 workers once and
 * reuses them for every run() call. run() dispatches fn(0..count-1)
 * and returns only after every index completed (a full barrier).
 * The simulator itself never builds one (a System run is
 * single-threaded); perfbench's traced loop keeps it to time per-shard
 * barriers.
 *
 * Workers spin briefly on the dispatch generation before sleeping, so
 * back-to-back run() calls hand off in nanoseconds instead of a
 * condvar round trip.
 */
class WorkerPool
{
  public:
    /** @p degree total parallelism (callers + workers); min 1. */
    explicit WorkerPool(int degree);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    int degree() const { return static_cast<int>(workers_.size()) + 1; }

    /**
     * Run fn(i) for i in [0, count) across the pool plus the caller;
     * returns after all indices finished. Not reentrant.
     */
    void run(std::size_t count, const std::function<void(std::size_t)>& fn);

  private:
    void workerLoop();
    void workChunk();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t)>* job_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0};
    std::atomic<std::uint64_t> generation_{0};
    std::atomic<int> active_{0};
    std::atomic<bool> stop_{false};
};

} // namespace qprac

#endif // QPRAC_COMMON_PARALLEL_H
