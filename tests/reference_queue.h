/**
 * @file
 * Test-local reference model of the service-queue contract
 * (core/service_queue.h), written for clarity rather than speed: the
 * independent oracle the property tests hold LinearCamQueue against.
 *
 * Entries live in a row-keyed map; every decision is a full scan in
 * the contract's strict (count, seq) order — evict the lowest count
 * (ties: the oldest insertion), serve the highest count (ties: the
 * oldest insertion), admit into a full queue only a strictly higher
 * count than the minimum.
 */
#ifndef QPRAC_TESTS_REFERENCE_QUEUE_H
#define QPRAC_TESTS_REFERENCE_QUEUE_H

#include <map>
#include <vector>

#include "core/service_queue.h"

namespace qprac::test {

class ReferenceQueue final : public core::ServiceQueueBackend
{
  public:
    explicit ReferenceQueue(int capacity) : capacity_(capacity) {}

    core::PsqInsert onActivate(int row, ActCount count) override
    {
        if (auto it = entries_.find(row); it != entries_.end()) {
            it->second.count = count; // a hit keeps its seq
            return core::PsqInsert::Hit;
        }
        if (size() < capacity_) {
            entries_[row] = {row, count, next_seq_++};
            return core::PsqInsert::Inserted;
        }
        const core::SqEntry* victim = extreme(false);
        if (count <= victim->count)
            return core::PsqInsert::Rejected;
        entries_.erase(victim->row);
        entries_[row] = {row, count, next_seq_++};
        return core::PsqInsert::Evicted;
    }

    const core::SqEntry* top() const override { return extreme(true); }

    ActCount minCount() const override
    {
        return full() ? extreme(false)->count : 0;
    }

    ActCount maxCount() const override
    {
        return empty() ? 0 : extreme(true)->count;
    }

    bool remove(int row) override { return entries_.erase(row) != 0; }

    bool contains(int row) const override
    {
        return entries_.count(row) != 0;
    }

    ActCount countOf(int row) const override
    {
        auto it = entries_.find(row);
        return it != entries_.end() ? it->second.count : 0;
    }

    int size() const override { return static_cast<int>(entries_.size()); }
    int capacity() const override { return capacity_; }

    std::vector<core::SqEntry> snapshot() const override
    {
        std::vector<core::SqEntry> out;
        for (const auto& kv : entries_)
            out.push_back(kv.second);
        return out;
    }

  private:
    /** Highest (@p max) or lowest entry by count; ties go to the
     * oldest entry either way. nullptr when empty. */
    const core::SqEntry* extreme(bool max) const
    {
        const core::SqEntry* best = nullptr;
        for (const auto& kv : entries_) {
            const core::SqEntry& e = kv.second;
            const bool beats =
                !best || (max ? e.count > best->count
                              : e.count < best->count) ||
                (e.count == best->count && e.seq < best->seq);
            if (beats)
                best = &e;
        }
        return best;
    }

    int capacity_;
    std::map<int, core::SqEntry> entries_;
    std::uint64_t next_seq_ = 0;
};

} // namespace qprac::test

#endif // QPRAC_TESTS_REFERENCE_QUEUE_H
