/**
 * @file
 * Shared last-level cache (paper Table II: 8MB, 8-way, 64B lines) with
 * MSHRs, LRU replacement, and dirty writebacks to the memory controller.
 *
 * Stores use write-allocate without fetch (a store miss installs the
 * line dirty without a DRAM read); stores are posted, so this only
 * affects writeback traffic, not timing correctness of loads.
 */
#ifndef QPRAC_CPU_LLC_H
#define QPRAC_CPU_LLC_H

#include <deque>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "ctrl/memory_system.h"
#include "dram/address.h"

namespace qprac::cpu {

/** LLC geometry and latency. */
struct LlcConfig
{
    std::uint64_t size_bytes = 8ull * 1024 * 1024;
    int ways = 8;
    int line_bytes = 64;
    int hit_latency = 32; ///< in DRAM command-clock cycles (~40 CPU cycles)
    int mshrs = 64;
};

/** LLC stat counters. */
struct LlcStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t load_hits = 0;
    std::uint64_t load_misses = 0;
    std::uint64_t store_hits = 0;
    std::uint64_t store_misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t mshr_merges = 0;

    void exportTo(StatSet& out, const std::string& prefix) const;
};

/**
 * Set-associative shared LLC bound to the sharded memory system.
 * Misses and writebacks are mailed to the decoded channel's shard
 * through the epoch engine's SPSC mailboxes (ctrl/memory_system.h);
 * as the memory system's ReadClient, the LLC gets each fill back by
 * the miss's tag, its MSHR index. A load waits as a `bool*` (the
 * core's ROB-slot completed flag) on its MSHR or in the hit FIFO.
 * Controller-queue backpressure is applied shard-side at ingest, so
 * one saturated channel does not stall fills or writebacks bound for
 * the others; the LLC's own admission control is its MSHR file, which
 * bounds outstanding fills below any read-queue capacity in use.
 */
class SharedLlc final : public ctrl::ReadClient
{
  public:
    SharedLlc(const LlcConfig& config, ctrl::MemorySystem& memory,
              const dram::AddressMapper& mapper);

    /**
     * Access the cache with a line-aligned address. @p now must not
     * decrease between calls (hits complete in FIFO order).
     *
     * @param done set to true when the load's data arrives (loads
     *        only, may be null; stores are posted). Must stay valid
     *        until then.
     * @return false when the access cannot be accepted this cycle
     *         (MSHRs exhausted)
     */
    bool access(Addr addr, bool is_store, int source, bool* done,
                Cycle now);

    /** Fill of the MSHR @p tag (its index) arrived at cycle @p at. */
    void readDone(std::uint32_t tag, Cycle at) override;

    /** Advance; delivers hit completions and drains pending writebacks. */
    void tick(Cycle now);

    /**
     * Install a line clean at time zero without touching stats or DRAM
     * (cache warmup for short simulations).
     */
    void warmInstall(Addr addr);

    /** True when no fills or completions are outstanding. */
    bool quiesced() const;

    const LlcStats& stats() const { return stats_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    struct Mshr
    {
        Addr line_addr = 0;
        bool valid = false;
        bool make_dirty = false;
        std::vector<bool*> waiters; ///< loads merged into this fill
    };

    Addr lineAddr(Addr addr) const;
    int setIndex(Addr line_addr) const;
    Line* findLine(Addr line_addr);
    Line& victimLine(Addr line_addr);
    void installLine(Addr line_addr, bool dirty, Cycle now);
    int findMshr(Addr line_addr) const;
    void pushWriteback(Addr line_addr);
    void drainWritebacks(Cycle now);

    LlcConfig cfg_;
    ctrl::MemorySystem& memory_;
    const dram::AddressMapper& mapper_;
    int num_sets_;
    std::vector<Line> lines_; ///< num_sets * ways, row-major by set
    std::vector<Mshr> mshrs_;
    int mshrs_in_use_ = 0;
    std::uint64_t lru_clock_ = 0;

    /** A load hit waiting out the hit latency. Every hit waits the same
     * latency, so arrival order is completion order. */
    struct Hit
    {
        Cycle at;
        bool* done;
    };
    std::deque<Hit> hits_;
    /**
     * Per-channel writeback overflow (no cross-channel head-of-line):
     * entries wait here until the channel's write mailbox accepts
     * them; the mailbox applies controller-queue backpressure at
     * shard ingest.
     */
    std::vector<std::deque<Addr>> pending_writebacks_;
    LlcStats stats_;
};

} // namespace qprac::cpu

#endif // QPRAC_CPU_LLC_H
