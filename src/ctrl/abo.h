/**
 * @file
 * Controller-side Alert Back-Off engine (paper §II-D, Table I) plus the
 * shared RFM pump used for controller-paced RFM policies (Mithril/PrIDE).
 *
 * On ALERT_n assertion the controller may issue up to abo_act_max ACTs
 * within the tABO_window (180 ns); it then quiesces, issues Nmit
 * back-to-back RFM commands, and notifies the device so ABODelay gating
 * restarts. *How much* of the channel the recovery quiesces is decided
 * by the configured RecoveryPolicy (ctrl/recovery): the default
 * ChannelStall runs the classic channel-wide state machine here, while
 * the isolated policies delegate alert handling to a per-bank
 * BankRecoveryEngine so only covered banks stop scheduling.
 */
#ifndef QPRAC_CTRL_ABO_H
#define QPRAC_CTRL_ABO_H

#include <algorithm>
#include <memory>

#include "common/types.h"
#include "ctrl/recovery/bank_recovery.h"
#include "ctrl/recovery/recovery_policy.h"
#include "dram/dram_device.h"

namespace qprac::obs {
class EventSink;
} // namespace qprac::obs

namespace qprac::ctrl {

class RefreshScheduler;

/** ABO engine configuration. */
struct AboConfig
{
    bool enabled = true; ///< false = insecure baseline (no alert service)
    int nmit = 1;        ///< RFMs per alert (PRAC-1/2/4)
    dram::RfmScope scope = dram::RfmScope::AllBank;
    /** Recovery blocking granularity (ctrl/recovery). */
    RecoveryKind recovery = RecoveryKind::ChannelStall;
};

/** ABO protocol state machine + policy RFM pump. */
class AboEngine
{
  public:
    AboEngine(const AboConfig& config, const dram::TimingParams& timing);

    /**
     * Attach the refresh scheduler so per-bank recovery can yield the
     * rank to a pending REF between its RFMs (channel-stall needs no
     * handle: its pump waits for whole-rank drain anyway).
     */
    void setRefresh(const RefreshScheduler* refresh)
    {
        refresh_ = refresh;
    }

    /** Attach an event sink (abo/recovery categories; may be null). */
    void setEventSink(obs::EventSink* sink);

    /** Advance the state machine; may issue RFM commands. */
    void tick(dram::DramDevice& dev, Cycle now);

    /**
     * Event horizon: earliest future cycle this engine (including the
     * per-bank recovery machines, when present) can change state given
     * no intervening command or submit. Conservative lower bound —
     * waking earlier than the true event is safe and merely costs a
     * dense tick; kNeverCycle means "only an external event (itself a
     * wake) can move this machine".
     */
    Cycle nextEventAt(const dram::DramDevice& dev, Cycle now) const;

    /**
     * True when this tick's per-bank recovery issued an RFM: that RFM
     * occupied the command bus, so the controller schedules nothing
     * else this cycle. (Channel-stall RFM cycles schedule nothing
     * anyway — every bank is gated — so this only ever fires for the
     * isolated policies, keeping the command-bus model symmetric.)
     */
    bool recoveryRfmIssuedThisTick() const
    {
        return bank_rfm_this_tick_;
    }

    /** True when the policy gates the whole channel (ChannelStall). */
    bool channelScope() const { return policy_->channelScope(); }

    /** May the controller issue an ACT this cycle? (channel gate) */
    bool allowAct() const;

    /** May the controller issue a CAS this cycle? (channel gate) */
    bool allowCas() const;

    /** Per-bank gates: the channel gate AND @p bank's recovery state. */
    bool allowAct(int bank) const
    {
        return allowAct() && (!bank_ || bank_->allowAct(bank));
    }
    bool allowCas(int bank) const
    {
        return allowCas() && (!bank_ || bank_->allowCas(bank));
    }

    /** True while the controller should precharge open banks. */
    bool quiescing() const { return state_ == State::Quiesce; }

    /** Cycle the current quiesce began (kNeverCycle when not quiescing). */
    Cycle quiesceSince() const
    {
        return state_ == State::Quiesce ? quiesce_since_ : kNeverCycle;
    }

    /**
     * Earliest quiesce demand covering @p bank: the channel-wide
     * quiesce (ChannelStall / policy pump) or the bank's own recovery.
     */
    Cycle quiesceSince(int bank) const
    {
        Cycle since = quiesceSince();
        if (bank_)
            since = std::min(since, bank_->quiesceSince(bank));
        return since;
    }

    /** True when quiesceSince(bank) is set for some bank. */
    bool anyQuiesce() const
    {
        return state_ == State::Quiesce || (bank_ && bank_->anyQuiesce());
    }

    /** Controller reports an issued ACT (window budget accounting). */
    void noteActIssued(int bank = -1);

    /** Request a controller-paced RFM (Mithril/PrIDE policies). */
    void requestPolicyRfm(dram::RfmScope scope);

    bool idle() const
    {
        return state_ == State::Idle && !policy_pending_ &&
               (!bank_ || bank_->idle());
    }

    /** Per-bank recovery engine (null for ChannelStall). */
    const BankRecoveryEngine* bankRecovery() const { return bank_.get(); }

    // Stats.
    std::uint64_t alerts() const
    {
        return alerts_ + (bank_ ? bank_->alerts() : 0);
    }
    std::uint64_t rfmsIssued() const
    {
        return rfms_issued_ + (bank_ ? bank_->rfmsIssued() : 0);
    }
    std::uint64_t policyRfms() const { return policy_rfms_; }

  private:
    enum class State
    {
        Idle,
        Window,  ///< alert received; limited ACTs still allowed
        Quiesce, ///< precharging all banks before the RFMs
        Pumping, ///< issuing the RFM burst
    };

    AboConfig cfg_;
    const dram::TimingParams& t_;
    std::unique_ptr<RecoveryPolicy> policy_;
    /** Per-bank machines (isolated policies; sized on first tick). */
    std::unique_ptr<BankRecoveryEngine> bank_;
    const RefreshScheduler* refresh_ = nullptr;
    obs::EventSink* sink_ = nullptr;
    bool bank_rfm_this_tick_ = false;
    State state_ = State::Idle;
    Cycle recovery_began_ = 0; ///< alert/pump entry cycle (for obs spans)
    Cycle window_end_ = 0;
    Cycle quiesce_since_ = 0;
    int window_acts_ = 0;
    int rfms_left_ = 0;
    Cycle next_rfm_at_ = 0;
    int alert_bank_ = -1;
    bool policy_mode_ = false;
    bool policy_pending_ = false;
    dram::RfmScope policy_scope_ = dram::RfmScope::AllBank;

    std::uint64_t alerts_ = 0;
    std::uint64_t rfms_issued_ = 0;
    std::uint64_t policy_rfms_ = 0;
};

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_ABO_H
