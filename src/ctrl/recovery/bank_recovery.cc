#include "ctrl/recovery/bank_recovery.h"

#include <algorithm>

#include "common/log.h"
#include "obs/obs.h"

namespace qprac::ctrl {

BankRecoveryEngine::BankRecoveryEngine(const RecoveryPolicy& policy,
                                       const dram::TimingParams& timing,
                                       int nmit,
                                       dram::RfmScope configured_scope,
                                       int num_banks)
    : policy_(policy), t_(timing), nmit_(nmit), scope_(configured_scope)
{
    QP_ASSERT(!policy.channelScope(),
              "channel-scope policies run the AboEngine state machine");
    banks_.resize(static_cast<std::size_t>(num_banks));
    act_blocked_.assign(static_cast<std::size_t>(num_banks), 0);
    cas_blocked_.assign(static_cast<std::size_t>(num_banks), 0);
    quiesce_since_.assign(static_cast<std::size_t>(num_banks),
                          kNeverCycle);
}

bool
BankRecoveryEngine::coveredIdle(const dram::DramDevice& dev,
                                const BankState& m, Cycle now) const
{
    for (int b = 0; b < static_cast<int>(m.covers.size()); ++b)
        if (m.covers[static_cast<std::size_t>(b)] &&
            !dev.bank(b).idleAt(now))
            return false;
    return true;
}

Cycle
BankRecoveryEngine::coveredIdleAt(const dram::DramDevice& dev,
                                  const BankState& m, Cycle now) const
{
    Cycle at = now + 1;
    for (int b = 0; b < static_cast<int>(m.covers.size()); ++b) {
        if (!m.covers[static_cast<std::size_t>(b)])
            continue;
        const dram::Bank& bank = dev.bank(b);
        if (bank.isOpen())
            return kNeverCycle;
        at = std::max(at, bank.nextActReady());
    }
    return at;
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
            at = std::min(at, coveredIdleAt(dev, m, now));
            break;
          case State::Pumping:
            if (now < m.next_rfm_at)
                at = std::min(at, m.next_rfm_at);
            else if (m.rfms_left == 0)
                at = std::min(at, now + 1); // returns to Idle
            else if (!refresh || !refresh->refPending(dev.rankOf(b)))
                at = std::min(at, coveredIdleAt(dev, m, now));
            // else: the REF wins the rank; its issue is a wake.
            break;
        }
    }
    return at;
}

void
BankRecoveryEngine::rebuildGates()
{
    const std::size_t n = banks_.size();
    std::fill(act_blocked_.begin(), act_blocked_.end(), 0);
    std::fill(cas_blocked_.begin(), cas_blocked_.end(), 0);
    std::fill(quiesce_since_.begin(), quiesce_since_.end(), kNeverCycle);
    for (const BankState& m : banks_) {
        if (m.state == State::Idle)
            continue;
        const bool window_open = m.state == State::Window &&
                                 m.window_acts < t_.abo_act_max;
        const bool pumping = m.state == State::Pumping;
        const bool quiescing = m.state == State::Quiesce || pumping;
        for (std::size_t b = 0; b < n; ++b) {
            if (!m.covers[b])
                continue;
            if (!window_open)
                act_blocked_[b] = 1;
            if (pumping)
                cas_blocked_[b] = 1;
            if (quiescing)
                quiesce_since_[b] =
                    std::min(quiesce_since_[b], m.quiesce_since);
        }
    }
    quiescing_banks_ = static_cast<int>(
        std::count_if(quiesce_since_.begin(), quiesce_since_.end(),
                      [](Cycle c) { return c != kNeverCycle; }));
}

void
BankRecoveryEngine::noteActIssued(int bank)
{
    bool dirty = false;
    for (BankState& m : banks_) {
        if (m.state != State::Window ||
            !m.covers[static_cast<std::size_t>(bank)])
            continue;
        ++m.window_acts;
        dirty = true;
    }
    // Budget exhaustion gates further ACTs within the same cycle,
    // mirroring the channel-stall window accounting.
    if (dirty)
        rebuildGates();
}

bool
BankRecoveryEngine::tick(dram::DramDevice& dev,
                         const RefreshScheduler* refresh, Cycle now)
{
    bool dirty = false;
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
                if (m.covers.empty()) {
                    m.covers.assign(static_cast<std::size_t>(n), 0);
                    for (int i = 0; i < n; ++i)
                        m.covers[static_cast<std::size_t>(i)] =
                            policy_.covers(dev, b, i) ? 1 : 0;
                }
                ++active_;
                peak_concurrent_ = std::max(peak_concurrent_, active_);
                dirty = true;
            }
            break;

          case State::Window:
            if (m.window_acts >= t_.abo_act_max || now >= m.window_end) {
                m.state = State::Quiesce;
                m.quiesce_since = now;
                dirty = true;
            }
            break;

          case State::Quiesce:
            if (coveredIdle(dev, m, now)) {
                m.state = State::Pumping;
                m.rfms_left = nmit_;
                m.next_rfm_at = now;
                dirty = true;
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
                    !coveredIdle(dev, m, now))
                    break;
                m.next_rfm_at =
                    dev.issueRfm(policy_.rfmScope(scope_), b, now);
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
                dirty = true;
            }
            break;
        }
    }
    if (dirty)
        rebuildGates();
    return rfm_issued;
}

} // namespace qprac::ctrl
