#include "ctrl/memory_controller.h"

#include "common/log.h"
#include "obs/obs.h"

namespace qprac::ctrl {

void
CtrlStats::exportTo(StatSet& out, const std::string& prefix) const
{
    out.set(prefix + "reads_enqueued", static_cast<double>(reads_enqueued));
    out.set(prefix + "writes_enqueued",
            static_cast<double>(writes_enqueued));
    out.set(prefix + "reads_done", static_cast<double>(reads_done));
    out.set(prefix + "row_hits", static_cast<double>(row_hits));
    out.set(prefix + "row_misses", static_cast<double>(row_misses));
    out.set(prefix + "read_latency_sum",
            static_cast<double>(read_latency_sum));
    out.set(prefix + "alerts", static_cast<double>(alerts));
    out.set(prefix + "rfms", static_cast<double>(rfms));
    out.set(prefix + "policy_rfms", static_cast<double>(policy_rfms));
    out.set(prefix + "refs", static_cast<double>(refs));
}

void
CtrlStats::add(const CtrlStats& o)
{
    reads_enqueued += o.reads_enqueued;
    writes_enqueued += o.writes_enqueued;
    reads_done += o.reads_done;
    row_hits += o.row_hits;
    row_misses += o.row_misses;
    read_latency_sum += o.read_latency_sum;
    alerts += o.alerts;
    rfms += o.rfms;
    policy_rfms += o.policy_rfms;
    refs += o.refs;
}

MemoryController::MemoryController(dram::DramDevice& dev,
                                   const ControllerConfig& config)
    : dev_(dev),
      cfg_(config),
      reads_(config.read_q_capacity),
      writes_(config.write_q_capacity),
      abo_(config.abo, dev.timing(), dev.numBanks()),
      refresh_(dev.timing(), dev.organization().ranks)
{
    dev_.setAboDelay(std::max(1, config.abo.nmit));
    const auto banks = static_cast<std::size_t>(dev.numBanks());
    bank_policy_acts_.assign(banks, 0);
    bank_rfm_pending_.assign(banks, 0);
    bank_rfm_since_.assign(banks, 0);
    rank_ref_blocked_.assign(
        static_cast<std::size_t>(dev.organization().ranks), 0);
    abo_.setRefresh(&refresh_);
    bank_kinds_.assign(banks, 0);
    kind_banks_.reserve(banks);
    if (!abo_.channelScope()) {
        recovery_act_blocked_.assign(banks, 0);
        recovery_cas_blocked_.assign(banks, 0);
    }
}

void
MemoryController::setObservability(obs::EventSink* sink,
                                   obs::ShardMetrics* metrics)
{
    sink_ = sink;
    metrics_ = metrics;
    dev_.setEventSink(sink);
    abo_.setEventSink(sink);
    refresh_.setEventSink(sink);
}

bool
MemoryController::enqueueRead(Addr addr, const dram::DecodedAddr& dec,
                              int source, std::uint32_t tag, Cycle now)
{
    if (reads_.full())
        return false;
    Request r;
    r.type = Request::Type::Read;
    r.addr = addr;
    r.dec = dec;
    r.flat_bank = dram::flatBankInChannel(dev_.organization(), dec);
    r.arrive = now;
    r.id = next_req_id_++;
    r.source = source;
    r.tag = tag;
    reads_.push(std::move(r));
    ++stats_.reads_enqueued;
    return true;
}

bool
MemoryController::enqueueWrite(Addr addr, const dram::DecodedAddr& dec,
                               int source, Cycle now)
{
    if (writes_.full())
        return false;
    Request r;
    r.type = Request::Type::Write;
    r.addr = addr;
    r.dec = dec;
    r.flat_bank = dram::flatBankInChannel(dev_.organization(), dec);
    r.arrive = now;
    r.id = next_req_id_++;
    r.source = source;
    writes_.push(std::move(r));
    ++stats_.writes_enqueued;
    return true;
}

bool
MemoryController::issueQuiescePre(Cycle now)
{
    if (!quiesceDemand())
        return false;
    // Precharge open banks demanded by ABO quiesce or a pending REF —
    // but let row hits that were already queued when the quiesce began
    // drain first (they can still issue while quiescing). Closing their
    // row would starve them behind the next quiesce and livelock under
    // dense RFM pacing; ignoring later arrivals keeps the drain bounded.
    auto pending_old_hit = [&](int bank, int row, Cycle since) {
        for (int i = 0; i < reads_.size(); ++i) {
            const Request& r = reads_.at(i);
            if (r.flat_bank == bank && r.dec.row == row &&
                r.arrive <= since)
                return true;
        }
        for (int i = 0; i < writes_.size(); ++i) {
            const Request& r = writes_.at(i);
            if (r.flat_bank == bank && r.dec.row == row &&
                r.arrive <= since)
                return true;
        }
        return false;
    };
    for (int b = 0; b < dev_.numBanks(); ++b) {
        if (!dev_.bank(b).isOpen())
            continue;
        // Channel-wide quiesce (ChannelStall / policy pump) or this
        // bank's own isolated recovery, whichever demands it earlier.
        Cycle since = abo_.quiesceSince(b);
        Cycle ref_since = refresh_.pendingSince(dev_.rankOf(b));
        if (ref_since != kNeverCycle)
            since = std::min(since, ref_since);
        if (bank_rfm_pending_[static_cast<std::size_t>(b)])
            since = std::min(since,
                             bank_rfm_since_[static_cast<std::size_t>(b)]);
        if (since == kNeverCycle)
            continue; // no quiesce demand for this bank
        if (dev_.canPre(b, now) &&
            !pending_old_hit(b, dev_.bank(b).openRow(), since)) {
            dev_.issuePre(b, now);
            return true;
        }
    }
    return false;
}

bool
MemoryController::scheduleQueue(RequestQueue& q, bool is_write,
                                const SchedConstraints& cons, Cycle now)
{
    SchedDecision d = pickFrFcfs(q, is_write, dev_, cons, now);
    switch (d.kind) {
      case SchedDecision::Kind::None:
        return false;
      case SchedDecision::Kind::Act: {
        const Request& r = q.at(d.index);
        dev_.issueAct(r.flat_bank, r.dec.row, now);
        abo_.noteActIssued(r.flat_bank);
        noteActForPolicy(r.flat_bank, now);
        ++stats_.row_misses;
        return true;
      }
      case SchedDecision::Kind::Pre: {
        const Request& r = q.at(d.index);
        dev_.issuePre(r.flat_bank, now);
        return true;
      }
      case SchedDecision::Kind::Cas: {
        const Request r = q.at(d.index);
        q.erase(d.index);
        ++stats_.row_hits;
        if (is_write) {
            dev_.issueWrite(r.flat_bank, now);
        } else {
            Cycle done = dev_.issueRead(r.flat_bank, now);
            ++stats_.reads_done;
            stats_.read_latency_sum += done - r.arrive;
            if (metrics_)
                metrics_->read_latency.record(done - r.arrive);
            if (r.tag != kNoCompletion) {
                QP_ASSERT(done >= done_floor_,
                          "completion scheduled with less lookahead "
                          "than the epoch length");
                done_.push_back({done, r.tag});
            }
        }
        return true;
      }
    }
    return false;
}

void
MemoryController::noteActForPolicy(int flat_bank, Cycle now)
{
    const auto& policy = cfg_.rfm_policy;
    if (!policy.enabled())
        return;
    if (policy.per_bank) {
        // DDR5 RAA semantics: the bank's own counter trips its RFM.
        auto b = static_cast<std::size_t>(flat_bank);
        if (++bank_policy_acts_[b] >=
                static_cast<std::uint32_t>(policy.acts_per_rfm) &&
            !bank_rfm_pending_[b]) {
            bank_policy_acts_[b] = 0;
            bank_rfm_pending_[b] = 1;
            ++bank_rfms_pending_;
            bank_rfm_since_[b] = now;
        }
    } else {
        ++acts_since_policy_rfm_;
    }
}

bool
MemoryController::servicePerBankRfms(Cycle now)
{
    // Issue pending per-bank RFMs once every bank the configured scope
    // covers has drained; PerBank/SameBank leave the rest of the
    // channel running (DDR5 RAA semantics).
    if (bank_rfms_pending_ == 0)
        return false;
    auto coverage_idle = [&](int target) {
        for (int i = 0; i < dev_.numBanks(); ++i)
            if (rfmCovers(target, i) && !dev_.bank(i).idleAt(now))
                return false;
        return true;
    };
    for (int b = 0; b < dev_.numBanks(); ++b) {
        if (!bank_rfm_pending_[static_cast<std::size_t>(b)])
            continue;
        if (coverage_idle(b)) {
            dev_.issueRfm(cfg_.rfm_policy.scope, b, now);
            bank_rfm_pending_[static_cast<std::size_t>(b)] = 0;
            --bank_rfms_pending_;
            ++per_bank_policy_rfms_;
            return true;
        }
    }
    return false;
}

bool
MemoryController::rfmCovers(int target, int bank) const
{
    switch (cfg_.rfm_policy.scope) {
      case dram::RfmScope::AllBank:
        return true;
      case dram::RfmScope::SameBank:
        return dev_.rankOf(bank) == dev_.rankOf(target) &&
               dev_.bankIndexOf(bank) == dev_.bankIndexOf(target);
      case dram::RfmScope::PerBank:
      default:
        return bank == target;
    }
}

void
MemoryController::maybeTriggerPolicyRfm()
{
    const auto& policy = cfg_.rfm_policy;
    if (!policy.enabled() || policy.per_bank)
        return;
    if (acts_since_policy_rfm_ >=
            static_cast<std::uint64_t>(policy.acts_per_rfm) &&
        abo_.idle()) {
        abo_.requestPolicyRfm(policy.scope);
        acts_since_policy_rfm_ = 0;
    }
}

void
MemoryController::tick(Cycle now)
{
    abo_.tick(dev_, now);
    refresh_.tick(dev_, now);
    maybeTriggerPolicyRfm();

    // One command per cycle on the command bus (a per-bank recovery
    // RFM issued inside abo_.tick() counts as this cycle's command).
    if (abo_.recoveryRfmIssuedThisTick())
        return;
    if (issueQuiescePre(now))
        return;
    if (servicePerBankRfms(now))
        return;

    // Nothing queued: skip the constraint build entirely (the
    // scheduler would find nothing). The hysteresis below would land
    // on drain_mode_ = false anyway, so pin it and bail.
    if (reads_.empty() && writes_.empty()) {
        drain_mode_ = false;
        return;
    }

    SchedConstraints cons;
    cons.allow_act = abo_.allowAct();
    cons.allow_cas = abo_.allowCas();
    for (int r = 0; r < dev_.organization().ranks; ++r)
        rank_ref_blocked_[static_cast<std::size_t>(r)] =
            refresh_.refPending(r) ? 1 : 0;
    cons.rank_act_blocked = &rank_ref_blocked_;
    const BankRecoveryEngine* engine = abo_.bankRecovery();
    if (!engine || engine->idle()) {
        // No per-bank recovery in flight (the common cycle): the
        // engine's gates are all-open and the channel-wide gates are
        // already in allow_act/allow_cas, so only policy RFMs block.
        cons.bank_act_blocked = &bank_rfm_pending_;
    } else {
        // Isolated recovery: per-bank gates are the union of pending
        // policy RFMs and the recovery gates (the same AboEngine
        // overloads the unit tests assert through).
        const int n = dev_.numBanks();
        for (int b = 0; b < n; ++b) {
            const auto i = static_cast<std::size_t>(b);
            recovery_act_blocked_[i] =
                (bank_rfm_pending_[i] || !abo_.allowAct(b)) ? 1 : 0;
            recovery_cas_blocked_[i] = abo_.allowCas(b) ? 0 : 1;
        }
        cons.bank_act_blocked = &recovery_act_blocked_;
        cons.bank_cas_blocked = &recovery_cas_blocked_;
    }

    // Write drain mode hysteresis.
    if (!drain_mode_ && (writes_.size() >= cfg_.write_drain_high ||
                         (reads_.empty() && !writes_.empty())))
        drain_mode_ = true;
    if (drain_mode_ &&
        (writes_.size() <= cfg_.write_drain_low ||
         (writes_.empty())))
        drain_mode_ = false;

    if (drain_mode_) {
        if (!scheduleQueue(writes_, true, cons, now))
            scheduleQueue(reads_, false, cons, now);
    } else {
        if (!scheduleQueue(reads_, false, cons, now))
            scheduleQueue(writes_, true, cons, now);
    }
}

Cycle
MemoryController::nextEventAt(Cycle now, WakeSource* why) const
{
    Cycle at = kNeverCycle;
    WakeSource src = WakeSource::CommandReady;
    auto concern = [&](Cycle c, WakeSource s) {
        if (c < at) {
            at = c;
            src = s;
        }
    };

    // Recovery machines (channel-wide ABO + per-bank engines).
    concern(abo_.nextEventAt(dev_, now), WakeSource::Recovery);

    // Refresh deadlines and pending-REF drains.
    concern(refresh_.nextEventAt(dev_, now), WakeSource::Refresh);

    // A tripped channel-wide policy-RFM threshold arms next tick.
    const auto& policy = cfg_.rfm_policy;
    if (policy.enabled() && !policy.per_bank &&
        acts_since_policy_rfm_ >=
            static_cast<std::uint64_t>(policy.acts_per_rfm) &&
        abo_.idle())
        concern(now + 1, WakeSource::Recovery);

    // Quiesce PREs: an open bank under quiesce demand precharges once
    // its PRE window expires. (The pending-old-hit carve-out can only
    // delay the PRE behind row-hit CASes, which are wakes themselves.)
    if (quiesceDemand()) {
        for (int b = 0; b < dev_.numBanks(); ++b) {
            if (!dev_.bank(b).isOpen())
                continue;
            const bool demand =
                abo_.quiesceSince(b) != kNeverCycle ||
                refresh_.pendingSince(dev_.rankOf(b)) != kNeverCycle ||
                bank_rfm_pending_[static_cast<std::size_t>(b)];
            if (demand)
                concern(dev_.preReadyAt(b), WakeSource::CommandReady);
        }
    }

    // Pending per-bank policy RFMs fire when their coverage drains.
    if (bank_rfms_pending_ != 0) {
        for (int b = 0; b < dev_.numBanks(); ++b) {
            if (!bank_rfm_pending_[static_cast<std::size_t>(b)])
                continue;
            Cycle ready = now + 1;
            for (int i = 0; i < dev_.numBanks(); ++i) {
                if (!rfmCovers(b, i))
                    continue;
                const dram::Bank& bank = dev_.bank(i);
                if (bank.isOpen()) {
                    // The covering PRE (or the command chain closing the
                    // bank) is a wake of its own.
                    ready = kNeverCycle;
                    break;
                }
                ready = std::max(ready, bank.nextActReady());
            }
            concern(ready, WakeSource::Recovery);
        }
    }

    // Queued requests: the earliest cycle any of them could make the
    // scheduler issue a command. A request's concern depends only on
    // its bank and on whether that bank is closed, holds the request's
    // row (a hit) or another row (a conflict), so each (bank, kind)
    // pair is evaluated once per queue. Gated candidates (an ACT behind
    // a quiesce or pending REF/RFM, a CAS behind a pump) are excluded:
    // the gate opens only on a machine transition that is itself a
    // wake, after which this horizon is recomputed. So is a conflict
    // PRE while the same queue still holds a hit on the open row:
    // pickFrFcfs will not close that row until the hit's CAS (a concern
    // itself, or gated behind a wake) has taken it out of the queue.
    enum : std::uint8_t { kClosed = 1, kHit = 2, kConflict = 4 };
    auto queue_concern = [&](const RequestQueue& q, bool is_write) {
        for (int i = 0; i < q.size(); ++i) {
            const Request& r = q.at(i);
            const int b = r.flat_bank;
            const dram::Bank& bank = dev_.bank(b);
            const std::uint8_t kind = !bank.isOpen() ? kClosed
                                      : bank.openRow() == r.dec.row
                                          ? kHit
                                          : kConflict;
            std::uint8_t& seen = bank_kinds_[static_cast<std::size_t>(b)];
            if (seen & kind)
                continue;
            if (!seen)
                kind_banks_.push_back(b);
            seen |= kind;
            if (kind == kHit) {
                if (abo_.allowCas(b))
                    concern(is_write ? dev_.writeReadyAt(b)
                                     : dev_.readReadyAt(b),
                            WakeSource::CommandReady);
            } else if (kind == kClosed) {
                if (abo_.allowAct(b) &&
                    !bank_rfm_pending_[static_cast<std::size_t>(b)] &&
                    !refresh_.refPending(dev_.rankOf(b)))
                    concern(dev_.actReadyAt(b), WakeSource::CommandReady);
            }
        }
        // Conflict PREs (never recovery-gated), once the whole queue
        // has shown whether a hit suppresses them.
        for (int b : kind_banks_) {
            std::uint8_t& seen = bank_kinds_[static_cast<std::size_t>(b)];
            if ((seen & kConflict) && !(seen & kHit))
                concern(dev_.preReadyAt(b), WakeSource::CommandReady);
            seen = 0;
        }
        kind_banks_.clear();
    };
    queue_concern(reads_, false);
    queue_concern(writes_, true);

    // CounterUpdateQueues contribute no concern: drains are evaluated
    // lazily at command time (see the header contract), so between
    // commands they cannot change state.

    if (at <= now)
        at = now + 1; // degenerate to dense ticking
    if (why)
        *why = src;
    return at;
}

bool
MemoryController::drained() const
{
    return reads_.empty() && writes_.empty() && done_.empty();
}

CtrlStats
MemoryController::stats() const
{
    CtrlStats s = stats_;
    s.alerts = abo_.alerts();
    s.rfms = abo_.rfmsIssued();
    s.policy_rfms = abo_.policyRfms() + per_bank_policy_rfms_;
    s.refs = refresh_.refsIssued();
    return s;
}

} // namespace qprac::ctrl
