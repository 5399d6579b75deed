/**
 * @file
 * Trace-driven out-of-order core model, following the paper's (and
 * Ramulator2's) SimpleO3 abstraction: a 4-wide, 352-entry instruction
 * window; non-memory instructions complete immediately; loads block
 * retirement until the memory hierarchy responds; stores are posted.
 */
#ifndef QPRAC_CPU_CORE_H
#define QPRAC_CPU_CORE_H

#include <deque>
#include <memory>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "cpu/llc.h"
#include "cpu/trace.h"

namespace qprac::cpu {

/** Core parameters (paper Table II). */
struct CoreConfig
{
    int width = 4;           ///< dispatch/retire width per CPU cycle
    int window = 352;        ///< ROB entries
    double cpu_per_dram_clk = 1.25; ///< 4 GHz core / 3.2 GHz DRAM cmd clock
    std::uint64_t target_insts = 1'000'000;
};

/** One out-of-order core fed by a trace. */
class O3Core
{
  public:
    O3Core(int id, const CoreConfig& config, TraceSource& trace,
           SharedLlc& llc);

    /**
     * Advance by one master (DRAM) cycle; internally runs the
     * accumulated CPU-cycle budget.
     */
    void tick(Cycle master_cycle);

    /** Retired at least target_insts. */
    bool done() const { return finished_; }

    std::uint64_t retired() const { return retired_; }
    std::uint64_t cpuCycles() const { return cpu_cycles_; }

    /** Instructions per CPU cycle at the moment the target was reached. */
    double ipc() const;

    void exportStats(StatSet& out, const std::string& prefix) const;

  private:
    struct Slot
    {
        bool completed = true;
        bool is_load = false;
    };

    void cpuCycle(Cycle master_cycle);
    bool dispatchMem(Cycle master_cycle);

    int id_;
    CoreConfig cfg_;
    TraceSource& trace_;
    SharedLlc& llc_;

    std::deque<Slot> window_;
    TraceEntry current_{};
    bool entry_valid_ = false;
    std::uint32_t bubbles_left_ = 0;
    bool mem_pending_dispatch_ = false;

    std::uint64_t retired_ = 0;
    std::uint64_t cpu_cycles_ = 0;
    std::uint64_t finish_cycles_ = 0;
    bool finished_ = false;
    bool trace_exhausted_ = false;
    double cpu_budget_ = 0.0;

    std::uint64_t loads_issued_ = 0;
    std::uint64_t stores_issued_ = 0;
    std::uint64_t stall_cycles_ = 0;
};

} // namespace qprac::cpu

#endif // QPRAC_CPU_CORE_H
