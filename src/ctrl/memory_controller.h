/**
 * @file
 * The memory controller: request queues, FR-FCFS scheduling with an
 * open-page policy, write draining, refresh, the ABO protocol, and
 * controller-paced RFM policies. Each read CAS appends {data-return
 * cycle, tag} to one FIFO (completions()); data returns a fixed
 * tCL + tBL after the CAS (Bank::doRead), so issue order is return
 * order.
 */
#ifndef QPRAC_CTRL_MEMORY_CONTROLLER_H
#define QPRAC_CTRL_MEMORY_CONTROLLER_H

#include <deque>
#include <string>

#include "common/stats.h"
#include "ctrl/abo.h"
#include "ctrl/refresh.h"
#include "ctrl/request.h"
#include "ctrl/scheduler.h"
#include "dram/dram_device.h"
#include "mitigations/rfm_policy.h"

namespace qprac::obs {
class EventSink;
struct ShardMetrics;
} // namespace qprac::obs

namespace qprac::ctrl {

/** Controller configuration. */
struct ControllerConfig
{
    int read_q_capacity = 64;
    int write_q_capacity = 64;
    int write_drain_high = 48; ///< enter drain mode at this occupancy
    int write_drain_low = 16;  ///< leave drain mode at this occupancy
    AboConfig abo;
    mitigations::RfmPolicy rfm_policy; ///< Mithril/PrIDE pacing (optional)
};

/**
 * Why a skipped shard woke up: the concern that produced the winning
 * (earliest) horizon in MemoryController::nextEventAt, plus the two
 * engine-level wake sources (mailbox arrivals, epoch windows) that
 * clamp the jump in MemorySystem::runShard.
 */
enum class WakeSource
{
    CommandReady,  ///< a queued request's timing constraint expires
    Refresh,       ///< a rank's tREFI deadline or REF drain completes
    Recovery,      ///< an ABO / per-bank recovery machine transition
    Mailbox,       ///< a staged submit becomes eligible for ingest
    EpochBoundary, ///< the shard window ended before the horizon
};

/** Controller stat counters. */
struct CtrlStats
{
    std::uint64_t reads_enqueued = 0;
    std::uint64_t writes_enqueued = 0;
    std::uint64_t reads_done = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t read_latency_sum = 0;
    std::uint64_t alerts = 0;
    std::uint64_t rfms = 0;
    std::uint64_t policy_rfms = 0;
    std::uint64_t refs = 0;

    void exportTo(StatSet& out, const std::string& prefix) const;

    /** Accumulate another channel's counters (cross-channel totals). */
    void add(const CtrlStats& o);
};

/**
 * DDR5 memory controller for one channel. MemorySystem owns one
 * instance per channel; ABO, refresh, RFM pacing and the per-bank RAA
 * vectors are all channel-local state.
 */
class MemoryController
{
  public:
    MemoryController(dram::DramDevice& dev, const ControllerConfig& config);

    /**
     * Attach the shard's observability lanes (either may be null).
     * Forwards the event sink to the ABO engine, the refresh scheduler
     * and the per-bank recovery machinery.
     */
    void setObservability(obs::EventSink* sink, obs::ShardMetrics* metrics);

    /**
     * Enqueue a read. Unless @p tag is kNoCompletion, its CAS appends
     * {data-return cycle, tag} to completions().
     * @return false when the read queue is full (caller retries).
     */
    bool enqueueRead(Addr addr, const dram::DecodedAddr& dec, int source,
                     std::uint32_t tag, Cycle now);

    /** Enqueue a posted write; false when the write queue is full. */
    bool enqueueWrite(Addr addr, const dram::DecodedAddr& dec, int source,
                      Cycle now);

    /** Advance one DRAM command-clock cycle. */
    void tick(Cycle now);

    /**
     * Event horizon for the cycle-skipping engine: the earliest future
     * cycle (> @p now) at which this controller could change observable
     * state — issue a command or move a state machine — assuming *no
     * external input* (no enqueue) arrives in between. Call after tick(now); the MemorySystem shard loop jumps
     * straight to the returned cycle.
     *
     * Contract: the bound is conservative (never over-reports). Waking
     * earlier than the true event is always safe — the shard just pays
     * a dense tick — so every concern below is a lower bound, and
     * anything that cannot be bounded cheaply returns now + 1 (dense).
     * Gated candidates (an ACT behind a quiesce, a CAS behind a pump)
     * are excluded by induction: the gate can only open on a machine
     * transition that is itself a wake, after which the horizon is
     * recomputed with the gate open. The same induction excludes a
     * hit-suppressed PRE — a conflicting request's PRE while its queue
     * still holds a hit on the open row: pickFrFcfs cannot issue it
     * until that hit's CAS (a concern, or gated behind a wake) has
     * left the queue. CounterUpdateQueues contribute no concern at
     * all: their drains are evaluated lazily at command time
     * (dram/counter_update.h), so between commands they cannot change
     * state. Nor do queued completions: the controller only appends
     * them, and whoever drains completions() wakes on their stamps.
     *
     * Cost: proportional to the queued requests — each (bank, closed/
     * hit/conflict) pair is evaluated once per queue — plus a bank scan
     * only while quiesceDemand() or a per-bank policy RFM is pending.
     * Both gates are exact (they skip only scans that would find
     * nothing), so the horizon is the same as a full scan's.
     *
     * @param why (optional) receives the concern that produced the
     *        winning horizon.
     */
    Cycle nextEventAt(Cycle now, WakeSource* why = nullptr) const;

    /** True when no requests are queued or awaiting delivery. */
    bool drained() const;

    /** Read completions not yet delivered, in data-return order; the
     * owner (MemorySystem::deliverCompletions) pops them when due. */
    std::deque<ReadDone>& completions() { return done_; }

    /** Completions appended from now on must return at or after @p at
     * (asserted): the epoch engine's lookahead guard. */
    void setCompletionFloor(Cycle at) { done_floor_ = at; }

    bool readQueueFull() const { return reads_.full(); }
    bool writeQueueFull() const { return writes_.full(); }
    int readQueueCapacity() const { return reads_.capacity(); }
    int readQueueDepth() const { return reads_.size(); }

    CtrlStats stats() const;
    const AboEngine& abo() const { return abo_; }
    dram::DramDevice& device() { return dev_; }

  private:
    bool issueQuiescePre(Cycle now);
    bool scheduleQueue(RequestQueue& q, bool is_write,
                       const SchedConstraints& cons, Cycle now);
    void maybeTriggerPolicyRfm();
    void noteActForPolicy(int flat_bank, Cycle now);
    bool servicePerBankRfms(Cycle now);
    /** Does a per-bank policy RFM for @p target cover @p bank? */
    bool rfmCovers(int target, int bank) const;

    /**
     * True when some bank has quiesce demand: a channel-wide or
     * per-bank recovery quiesce, a pending REF, or a pending per-bank
     * policy RFM. False exactly when no bank has any, so the per-bank
     * quiesce scans can skip the whole channel.
     */
    bool quiesceDemand() const
    {
        return abo_.anyQuiesce() || refresh_.anyPending() ||
               bank_rfms_pending_ != 0;
    }

    dram::DramDevice& dev_;
    ControllerConfig cfg_;
    obs::EventSink* sink_ = nullptr;
    obs::ShardMetrics* metrics_ = nullptr;
    RequestQueue reads_;
    RequestQueue writes_;
    bool drain_mode_ = false;
    AboEngine abo_;
    RefreshScheduler refresh_;
    std::deque<ReadDone> done_; ///< see completions()
    Cycle done_floor_ = 0;      ///< see setCompletionFloor()
    std::uint64_t acts_since_policy_rfm_ = 0;
    std::vector<std::uint32_t> bank_policy_acts_; ///< per-bank RAA counters
    std::vector<char> bank_rfm_pending_;
    int bank_rfms_pending_ = 0; ///< count of set bank_rfm_pending_ entries
    std::vector<Cycle> bank_rfm_since_;
    /** Per-rank REF gate handed to the scheduler by pointer; sized once
     * here and refreshed in place so the per-tick constraint build
     * never touches the heap. */
    std::vector<char> rank_ref_blocked_;
    /** Per-bank scheduling gates (isolated recovery policies): the
     * union of policy-RFM pending and the recovery engine's blocking,
     * rebuilt in place only on ticks where that recovery is in flight.
     * Unused (empty) under channel-stall — those ticks alias the
     * policy-RFM vector instead of rebuilding anything. */
    std::vector<char> recovery_act_blocked_;
    std::vector<char> recovery_cas_blocked_;
    /** nextEventAt scratch: the request kinds (closed/hit/conflict)
     * seen per bank in the queue being scanned, and the banks touched,
     * so the marks are cleared in time proportional to the queue. */
    mutable std::vector<std::uint8_t> bank_kinds_;
    mutable std::vector<int> kind_banks_;
    std::uint64_t per_bank_policy_rfms_ = 0;
    std::uint64_t next_req_id_ = 0;
    CtrlStats stats_;
};

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_MEMORY_CONTROLLER_H
