/**
 * @file
 * Per-bank ALERT_n recovery engine for the isolated recovery policies
 * (PRACtical-style BankIsolated and the GroupIsolated middle point).
 *
 * Unlike the channel-stall ABO machine (one recovery at a time, the
 * whole channel gated), this engine runs one Window -> Quiesce ->
 * Pumping machine per *alerting bank*, so an alert storm puts several
 * banks in recovery concurrently while uncovered banks keep
 * scheduling. Each machine mirrors the channel-stall protocol exactly,
 * scoped to the banks its policy covers:
 *
 *  - Window: up to abo_act_max further ACTs to covered banks within
 *    tABO_window;
 *  - Quiesce: covered banks are precharged (the controller issues the
 *    PREs, keyed on quiesceSince());
 *  - Pumping: Nmit back-to-back RFMs with the policy's scope, at most
 *    one RFM per cycle across all machines (one command bus), REFs
 *    taking priority on their rank;
 *  - done: the device's *per-bank* ABODelay gate restarts
 *    (DramDevice::bankAlertServiced), so RAA accounting is per bank.
 */
#ifndef QPRAC_CTRL_RECOVERY_BANK_RECOVERY_H
#define QPRAC_CTRL_RECOVERY_BANK_RECOVERY_H

#include <vector>

#include "common/types.h"
#include "ctrl/recovery/recovery_policy.h"
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
    BankRecoveryEngine(const RecoveryPolicy& policy,
                       const dram::TimingParams& timing, int nmit,
                       dram::RfmScope configured_scope, int num_banks);

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
     * either; without this the isolated policies would get a free
     * extra command slot per RFM, biasing every comparison).
     */
    bool tick(dram::DramDevice& dev, const RefreshScheduler* refresh,
              Cycle now);

    /**
     * Event horizon: earliest future cycle any machine can change state
     * given no intervening command. Conservative lower bound — waking
     * early is safe; kNeverCycle means every possible transition hangs
     * off an external event that is itself a wake (an ACT raising an
     * alert, a PRE closing a covered bank).
     */
    Cycle nextEventAt(const dram::DramDevice& dev, Cycle now) const;

    /** May the controller ACT on @p bank this cycle? */
    bool allowAct(int bank) const
    {
        return !act_blocked_[static_cast<std::size_t>(bank)];
    }

    /** May the controller CAS on @p bank this cycle? */
    bool allowCas(int bank) const
    {
        return !cas_blocked_[static_cast<std::size_t>(bank)];
    }

    /**
     * Earliest cycle a quiesce demand covering @p bank began
     * (kNeverCycle when none): the controller precharges such banks,
     * letting row hits older than this drain first.
     */
    Cycle quiesceSince(int bank) const
    {
        return quiesce_since_[static_cast<std::size_t>(bank)];
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
        /** Banks this machine's recovery covers (policy, cached at
         * alert time; coverage is time-invariant per alert bank). */
        std::vector<char> covers;
    };

    bool coveredIdle(const dram::DramDevice& dev, const BankState& m,
                     Cycle now) const;

    /** Earliest cycle coveredIdle() becomes true (kNeverCycle if a
     * covered bank is open — the closing PRE is a wake of its own). */
    Cycle coveredIdleAt(const dram::DramDevice& dev, const BankState& m,
                        Cycle now) const;

    /** Recompute the per-bank gate vectors from the machine states. */
    void rebuildGates();

    const RecoveryPolicy& policy_;
    const dram::TimingParams& t_;
    int nmit_;
    dram::RfmScope scope_;
    std::vector<BankState> banks_;
    /** Per-bank union over the in-flight machines covering the bank. */
    std::vector<char> act_blocked_;
    std::vector<char> cas_blocked_;
    std::vector<Cycle> quiesce_since_;
    int quiescing_banks_ = 0; ///< banks with quiesce_since_ set
    obs::EventSink* sink_ = nullptr;
    int active_ = 0;
    int peak_concurrent_ = 0;

    std::uint64_t alerts_ = 0;
    std::uint64_t rfms_issued_ = 0;
};

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_RECOVERY_BANK_RECOVERY_H
