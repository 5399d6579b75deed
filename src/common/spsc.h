/**
 * @file
 * Bounded single-producer/single-consumer ring — the mailbox primitive
 * of the epoch engine (see ctrl/memory_system.h).
 *
 * One thread may push, one thread may pop/peek; the two sides never
 * need a lock. Indices are monotonically increasing counters published
 * with release stores and read with acquire loads, so an entry's
 * payload is fully visible to the consumer before the entry becomes
 * poppable. The engine alternates producer and consumer phases on one
 * thread, but the ring is correct under true concurrency as well (and
 * is tested that way under ThreadSanitizer).
 *
 * FIFO order is the contract the engine's determinism proof leans on:
 * entries pop in exactly the order they were pushed.
 */
#ifndef QPRAC_COMMON_SPSC_H
#define QPRAC_COMMON_SPSC_H

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.h"

namespace qprac {

/** Bounded SPSC FIFO ring. Capacity is rounded up to a power of two. */
template <typename T>
class SpscRing
{
  public:
    explicit SpscRing(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    std::size_t capacity() const { return slots_.size(); }

    /** Producer side: false (and no effect) when the ring is full. */
    bool push(T&& value)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail - head_.load(std::memory_order_acquire) >= slots_.size())
            return false;
        slots_[tail & mask_] = std::move(value);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side: oldest entry, or nullptr when empty. */
    T* peek()
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head == tail_.load(std::memory_order_acquire))
            return nullptr;
        return &slots_[head & mask_];
    }

    /** Consumer side: discard the entry peek() returned. */
    void popFront()
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        QP_ASSERT(head != tail_.load(std::memory_order_acquire),
                  "popFront on an empty ring");
        slots_[head & mask_] = T{}; // release payload resources eagerly
        head_.store(head + 1, std::memory_order_release);
    }

    /** Consumer side: pop into *out; false when empty. */
    bool pop(T* out)
    {
        T* front = peek();
        if (!front)
            return false;
        *out = std::move(*front);
        popFront();
        return true;
    }

    /** Exact at phase barriers; a racy snapshot mid-phase. */
    bool empty() const
    {
        return head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire);
    }

    /** Exact at phase barriers; a racy snapshot mid-phase. */
    std::size_t size() const
    {
        return tail_.load(std::memory_order_acquire) -
               head_.load(std::memory_order_acquire);
    }

  private:
    std::vector<T> slots_;
    std::size_t mask_ = 0;
    alignas(64) std::atomic<std::size_t> head_{0}; ///< consumer cursor
    alignas(64) std::atomic<std::size_t> tail_{0}; ///< producer cursor
};

} // namespace qprac

#endif // QPRAC_COMMON_SPSC_H
