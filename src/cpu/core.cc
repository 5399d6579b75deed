#include "cpu/core.h"

#include "common/log.h"

namespace qprac::cpu {

O3Core::O3Core(int id, const CoreConfig& config, TraceSource& trace,
               SharedLlc& llc)
    : id_(id), cfg_(config), trace_(trace), llc_(llc)
{
    QP_ASSERT(cfg_.width >= 1 && cfg_.window >= cfg_.width,
              "invalid core configuration");
}

void
O3Core::tick(Cycle master_cycle)
{
    cpu_budget_ += cfg_.cpu_per_dram_clk;
    while (cpu_budget_ >= 1.0) {
        cpu_budget_ -= 1.0;
        cpuCycle(master_cycle);
    }
}

bool
O3Core::dispatchMem(Cycle master_cycle)
{
    if (current_.is_store) {
        // Stores are posted: occupy a completed window slot.
        if (!llc_.access(current_.addr, true, id_, nullptr, master_cycle))
            return false;
        window_.push_back({true, false});
        ++stores_issued_;
        return true;
    }
    // Loads block retirement until the hierarchy responds.
    window_.push_back({false, true});
    Slot* slot = &window_.back(); // deque refs survive push/pop at ends
    bool ok = llc_.access(current_.addr, false, id_, &slot->completed,
                          master_cycle);
    if (!ok) {
        window_.pop_back();
        return false;
    }
    ++loads_issued_;
    return true;
}

void
O3Core::cpuCycle(Cycle master_cycle)
{
    ++cpu_cycles_;

    // Retire.
    for (int i = 0; i < cfg_.width && !window_.empty(); ++i) {
        if (!window_.front().completed)
            break;
        window_.pop_front();
        ++retired_;
        if (!finished_ && retired_ >= cfg_.target_insts) {
            finished_ = true;
            finish_cycles_ = cpu_cycles_;
        }
    }

    // Dispatch.
    int dispatched = 0;
    bool stalled = false;
    while (dispatched < cfg_.width &&
           static_cast<int>(window_.size()) < cfg_.window && !stalled) {
        if (!entry_valid_) {
            if (trace_exhausted_ || !trace_.next(current_)) {
                trace_exhausted_ = true;
                break;
            }
            entry_valid_ = true;
            bubbles_left_ = current_.bubbles;
        }
        if (bubbles_left_ > 0) {
            window_.push_back({true, false});
            --bubbles_left_;
            ++dispatched;
            continue;
        }
        if (current_.has_mem) {
            if (dispatchMem(master_cycle)) {
                ++dispatched;
                entry_valid_ = false;
            } else {
                stalled = true; // LLC/MSHR back-pressure; retry next cycle
            }
        } else {
            entry_valid_ = false;
        }
    }
    if (dispatched == 0 && !window_.empty())
        ++stall_cycles_;
}

double
O3Core::ipc() const
{
    std::uint64_t cycles = finished_ ? finish_cycles_ : cpu_cycles_;
    if (cycles == 0)
        return 0.0;
    std::uint64_t insts = finished_ ? cfg_.target_insts : retired_;
    return static_cast<double>(insts) / static_cast<double>(cycles);
}

void
O3Core::exportStats(StatSet& out, const std::string& prefix) const
{
    out.set(prefix + "retired", static_cast<double>(retired_));
    out.set(prefix + "cpu_cycles", static_cast<double>(cpu_cycles_));
    out.set(prefix + "finish_cycles", static_cast<double>(finish_cycles_));
    out.set(prefix + "ipc", ipc());
    out.set(prefix + "loads", static_cast<double>(loads_issued_));
    out.set(prefix + "stores", static_cast<double>(stores_issued_));
    out.set(prefix + "stall_cycles", static_cast<double>(stall_cycles_));
}

} // namespace qprac::cpu
