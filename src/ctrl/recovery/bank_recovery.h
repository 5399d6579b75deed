/**
 * @file
 * Per-bank ALERT_n recovery engine for PRACtical-style bank-isolated
 * recovery.
 *
 * Unlike the channel-stall ABO machine (one recovery at a time, the
 * whole channel gated), this engine runs one Window -> Quiesce ->
 * Pumping machine per *alerting bank*, so an alert storm puts several
 * banks in recovery concurrently while every other bank keeps
 * scheduling. Each machine mirrors the channel-stall protocol exactly,
 * scoped to its own bank:
 *
 *  - Window: up to abo_act_max further ACTs to the bank within
 *    tABO_window;
 *  - Quiesce: the bank is precharged (the controller issues the PRE,
 *    keyed on quiesceSince());
 *  - Pumping: Nmit back-to-back per-bank RFMs, at most one RFM per
 *    cycle across all machines (one command bus), REFs taking
 *    priority on their rank;
 *  - done: the device's *per-bank* ABODelay gate restarts
 *    (DramDevice::bankAlertServiced), so RAA accounting is per bank.
 *
 * A bank's gates (allowAct/allowCas/quiesceSince) read its own machine
 * only, so they cost one lookup.
 */
#ifndef QPRAC_CTRL_RECOVERY_BANK_RECOVERY_H
#define QPRAC_CTRL_RECOVERY_BANK_RECOVERY_H

#include <vector>

#include "common/types.h"
#include "ctrl/refresh.h"
#include "dram/dram_device.h"

namespace qprac::obs {
class EventSink;
} // namespace qprac::obs

namespace qprac::ctrl {

/** Per-bank recovery state machines (one per alerting bank). */
class BankRecoveryEngine
{
  public:
    BankRecoveryEngine(const dram::TimingParams& timing, int nmit,
                       int num_banks);

    /** Attach an event sink (recovery category; may be null). */
    void setEventSink(obs::EventSink* sink) { sink_ = sink; }

    /**
     * Advance every machine; may issue at most one RFM. @p refresh
     * (optional) lets a pending REF win the rank: no RFM is pumped on
     * a rank whose REF is waiting for it to drain.
     *
     * @return true when an RFM was issued this tick — it occupied the
     * command bus, so the controller must not issue another command
     * this cycle (channel-stall cycles with an RFM schedule nothing
     * either; without this bank-isolated recovery would get a free
     * extra command slot per RFM, biasing every comparison).
     */
    bool tick(dram::DramDevice& dev, const RefreshScheduler* refresh,
              Cycle now);

    /**
     * Event horizon: earliest future cycle any machine can change state
     * given no intervening command. Call after tick(now). Each concern
     * is exact — the cycle tick() would act, or kNeverCycle when only
     * a command that is itself a wake can enable the transition:
     *
     *  - Idle: now + 1 iff bankAlertAsserted(b) — the predicate tick()
     *    starts a machine on. It flips only on an ACT (alert level,
     *    per-bank ABODelay), an RFM/REF (alert level) or the machine
     *    returning to Idle, each a wake. The channel-wide
     *    anyBankAlertRequested() is not a horizon: it stays true while
     *    the alerting bank's own machine is in flight or its ABODelay
     *    gate is shut.
     *  - Window: window_end, or now + 1 once the ACT budget is spent.
     *  - Quiesce: bankIdleAt() (never while the bank is open; the
     *    closing PRE is a wake).
     *  - Pumping: next_rfm_at while it lies ahead; now + 1 when no RFM
     *    is left (the machine returns to Idle); otherwise
     *    bankIdleAt(). Losing the one-RFM-per-cycle bus to another
     *    machine is resolved by that RFM (a wake), and a pending REF
     *    on the bank's rank (@p refresh, optional) holds the pump
     *    until its REF issues — a wake of the refresh scheduler — so
     *    that case contributes no concern at all.
     */
    Cycle nextEventAt(const dram::DramDevice& dev,
                      const RefreshScheduler* refresh, Cycle now) const;

    /** May the controller ACT on @p bank this cycle? */
    bool allowAct(int bank) const
    {
        const BankState& m = banks_[static_cast<std::size_t>(bank)];
        return m.state == State::Idle ||
               (m.state == State::Window && m.window_acts < t_.abo_act_max);
    }

    /** May the controller CAS on @p bank this cycle? */
    bool allowCas(int bank) const
    {
        return banks_[static_cast<std::size_t>(bank)].state !=
               State::Pumping;
    }

    /**
     * Cycle @p bank's quiesce demand began (kNeverCycle when none): the
     * controller precharges such banks, letting row hits older than
     * this drain first.
     */
    Cycle quiesceSince(int bank) const
    {
        const BankState& m = banks_[static_cast<std::size_t>(bank)];
        return m.state == State::Quiesce || m.state == State::Pumping
                   ? m.quiesce_since
                   : kNeverCycle;
    }

    /** True when some bank's quiesceSince() is set. */
    bool anyQuiesce() const { return quiescing_banks_ != 0; }

    /** Controller issued an ACT to @p bank (window budget accounting). */
    void noteActIssued(int bank);

    /** True when no machine is in flight. */
    bool idle() const { return active_ == 0; }

    // Stats.
    std::uint64_t alerts() const { return alerts_; }
    std::uint64_t rfmsIssued() const { return rfms_issued_; }
    /** Max machines ever in flight at once (alert-storm overlap). */
    int peakConcurrent() const { return peak_concurrent_; }

  private:
    enum class State
    {
        Idle,
        Window,
        Quiesce,
        Pumping,
    };

    struct BankState
    {
        State state = State::Idle;
        Cycle alert_began = 0; ///< alert entry cycle (for obs spans)
        Cycle window_end = 0;
        Cycle quiesce_since = 0;
        int window_acts = 0;
        int rfms_left = 0;
        Cycle next_rfm_at = 0;
    };

    /** Earliest cycle @p bank is idle (kNeverCycle while it is open —
     * the closing PRE is a wake of its own). */
    static Cycle bankIdleAt(const dram::Bank& bank, Cycle now);

    const dram::TimingParams& t_;
    int nmit_;
    std::vector<BankState> banks_;
    int quiescing_banks_ = 0; ///< machines in Quiesce or Pumping
    obs::EventSink* sink_ = nullptr;
    int active_ = 0;
    int peak_concurrent_ = 0;

    std::uint64_t alerts_ = 0;
    std::uint64_t rfms_issued_ = 0;
};

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_RECOVERY_BANK_RECOVERY_H
