#include "ctrl/recovery/bank_recovery.h"

#include <algorithm>

#include "obs/obs.h"

namespace qprac::ctrl {

BankRecoveryEngine::BankRecoveryEngine(const dram::TimingParams& timing,
                                       int nmit, int num_banks)
    : t_(timing), nmit_(nmit)
{
    banks_.resize(static_cast<std::size_t>(num_banks));
}

Cycle
BankRecoveryEngine::bankIdleAt(const dram::Bank& bank, Cycle now)
{
    if (bank.isOpen())
        return kNeverCycle;
    return std::max(now + 1, bank.nextActReady());
}

Cycle
BankRecoveryEngine::nextEventAt(const dram::DramDevice& dev,
                                const RefreshScheduler* refresh,
                                Cycle now) const
{
    // One virtual sample gates the per-bank alert scan, as in tick().
    const bool any_alert = dev.anyBankAlertRequested();
    if (active_ == 0 && !any_alert)
        return kNeverCycle;
    Cycle at = kNeverCycle;
    const int n = static_cast<int>(banks_.size());
    for (int b = 0; b < n; ++b) {
        const BankState& m = banks_[static_cast<std::size_t>(b)];
        switch (m.state) {
          case State::Idle:
            // tick() starts a machine exactly when this holds.
            if (any_alert && dev.bankAlertAsserted(b))
                return now + 1;
            break;
          case State::Window:
            at = std::min(at, m.window_acts >= t_.abo_act_max
                                  ? now + 1
                                  : m.window_end);
            break;
          case State::Quiesce:
            at = std::min(at, bankIdleAt(dev.bank(b), now));
            break;
          case State::Pumping:
            if (now < m.next_rfm_at)
                at = std::min(at, m.next_rfm_at);
            else if (m.rfms_left == 0)
                at = std::min(at, now + 1); // returns to Idle
            else if (!refresh || !refresh->refPending(dev.rankOf(b)))
                at = std::min(at, bankIdleAt(dev.bank(b), now));
            // else: the REF wins the rank; its issue is a wake.
            break;
        }
    }
    return at;
}

void
BankRecoveryEngine::noteActIssued(int bank)
{
    // Window budget accounting: once the budget is spent, allowAct()
    // closes within the same cycle, mirroring the channel-stall window.
    BankState& m = banks_[static_cast<std::size_t>(bank)];
    if (m.state == State::Window)
        ++m.window_acts;
}

bool
BankRecoveryEngine::tick(dram::DramDevice& dev,
                         const RefreshScheduler* refresh, Cycle now)
{
    bool rfm_issued = false;
    // One virtual sample gates the whole idle scan: most cycles no
    // bank wants an alert and the per-bank poll is skipped entirely.
    const bool any_alert = dev.anyBankAlertRequested();
    if (active_ == 0 && !any_alert)
        return false; // nothing in flight, nothing can start
    const int n = static_cast<int>(banks_.size());
    for (int b = 0; b < n; ++b) {
        BankState& m = banks_[static_cast<std::size_t>(b)];
        switch (m.state) {
          case State::Idle:
            if (any_alert && dev.bankAlertAsserted(b)) {
                ++alerts_;
                m.state = State::Window;
                m.alert_began = now;
                if (sink_)
                    sink_->record(obs::kRecovery, now, "bank-alert",
                                  "bank", b);
                m.window_end =
                    now + static_cast<Cycle>(t_.tABO_window);
                m.window_acts = 0;
                ++active_;
                peak_concurrent_ = std::max(peak_concurrent_, active_);
            }
            break;

          case State::Window:
            if (m.window_acts >= t_.abo_act_max || now >= m.window_end) {
                m.state = State::Quiesce;
                m.quiesce_since = now;
                ++quiescing_banks_;
            }
            break;

          case State::Quiesce:
            if (dev.bank(b).idleAt(now)) {
                m.state = State::Pumping;
                m.rfms_left = nmit_;
                m.next_rfm_at = now;
            }
            break;

          case State::Pumping:
            if (now < m.next_rfm_at)
                break;
            if (m.rfms_left > 0) {
                // One command bus: at most one RFM per cycle across
                // machines; a pending REF wins its rank (the RFM
                // would re-block banks the REF is draining).
                if (rfm_issued ||
                    (refresh && refresh->refPending(dev.rankOf(b))) ||
                    !dev.bank(b).idleAt(now))
                    break;
                m.next_rfm_at =
                    dev.issueRfm(dram::RfmScope::PerBank, b, now);
                --m.rfms_left;
                ++rfms_issued_;
                rfm_issued = true;
            } else {
                dev.bankAlertServiced(b, now);
                if (sink_)
                    sink_->recordSpan(obs::kRecovery, m.alert_began, now,
                                      "bank-recovery", "bank", b,
                                      "concurrent", active_);
                m.state = State::Idle;
                --active_;
                --quiescing_banks_;
            }
            break;
        }
    }
    return rfm_issued;
}

} // namespace qprac::ctrl
