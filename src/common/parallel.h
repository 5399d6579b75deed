/**
 * @file
 * Shared threading runtime: the one parallelFor every layer uses
 * (sweep points, workload comparisons, shard epochs), a persistent
 * worker pool for the per-shard execution engine, and the thread-budget
 * helper that keeps nested parallelism (sweep x shard) from
 * oversubscribing the machine.
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
 * Threads each of @p outer concurrent tasks may use so the nesting
 * stays within a @p total budget: max(1, total / outer). Used to
 * compose sweep-level parallelism with per-run shard threading —
 * `--sweep` over 8 points with a budget of 8 gives every point 1 shard
 * thread; a single 4-channel run with the same budget gets 4.
 */
int innerThreadBudget(int total, std::size_t outer);

/**
 * Persistent worker pool for the epoch engine: N-way parallelism with
 * the calling thread participating, so a pool of degree N spawns N-1
 * workers once and reuses them for every epoch. run() dispatches
 * fn(0..count-1) and returns only after every index completed (a full
 * barrier — the engine's phase separation relies on it).
 *
 * Workers spin briefly on the dispatch generation before sleeping, so
 * back-to-back epochs (the common case mid-simulation) hand off in
 * nanoseconds instead of a condvar round trip.
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

    /**
     * Asynchronous half of run(): publish the job to the workers and
     * return immediately so the caller can overlap its own (serial)
     * work — the pipelined engine's main phase. @p fn must stay alive
     * until the matching wait() returns. With no workers (degree 1)
     * the job runs inline here; overlap is impossible anyway and the
     * operation order is equivalent (see sim/system.cc). Exactly one
     * wait() must follow every dispatch().
     */
    void dispatch(std::size_t count,
                  const std::function<void(std::size_t)>& fn);

    /**
     * Complete a dispatch(): the caller joins as a lane (helping drain
     * remaining indices), then blocks until every index finished.
     * No-op when nothing is pending.
     */
    void wait();

  private:
    void workerLoop();
    void workChunk();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t)>* job_ = nullptr;
    std::size_t count_ = 0;
    bool pending_ = false; ///< a dispatch() awaits its wait()
    std::atomic<std::size_t> next_{0};
    std::atomic<std::uint64_t> generation_{0};
    std::atomic<int> active_{0};
    std::atomic<bool> stop_{false};
};

} // namespace qprac

#endif // QPRAC_COMMON_PARALLEL_H
