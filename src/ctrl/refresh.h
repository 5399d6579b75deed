/**
 * @file
 * Per-rank refresh scheduling: one all-bank REF per tREFI per rank,
 * staggered across ranks. While a REF is due, the controller quiesces
 * that rank (no new ACTs; open rows are precharged) until the device
 * reports the rank idle and the REF can issue.
 */
#ifndef QPRAC_CTRL_REFRESH_H
#define QPRAC_CTRL_REFRESH_H

#include <vector>

#include "common/types.h"
#include "dram/dram_device.h"

namespace qprac::obs {
class EventSink;
} // namespace qprac::obs

namespace qprac::ctrl {

/**
 * Issues REF commands and exposes the per-rank quiesce requirement.
 *
 * REF has priority over recovery RFMs on its rank: the per-bank
 * recovery engine (ctrl/recovery/bank_recovery.h) polls refPending()
 * and defers its RFM pump while a REF is waiting for the rank to
 * drain, so back-to-back recovery bursts under an alert storm cannot
 * starve the refresh cadence.
 */
class RefreshScheduler
{
  public:
    RefreshScheduler(const dram::TimingParams& timing, int ranks);

    /** Attach an event sink (refresh category; may be null). */
    void setEventSink(obs::EventSink* sink) { sink_ = sink; }

    /** Advance; issues REFs whose rank has become idle. */
    void tick(dram::DramDevice& dev, Cycle now);

    /** True while a REF is due for @p rank (controller must quiesce). */
    bool refPending(int rank) const;

    /** Cycle the pending REF was first due (kNeverCycle if none). */
    Cycle pendingSince(int rank) const;

    /** True while any rank has a REF pending (refPending() of some rank). */
    bool anyPending() const { return pending_ranks_ != 0; }

    /**
     * Event horizon: earliest future cycle this scheduler can change
     * state without an intervening command. A non-pending rank sleeps
     * until its next_due; a pending rank fires when the rank drains
     * (kNeverCycle while a bank is open — the closing PRE is a wake of
     * its own). Conservative lower bound; see MemoryController::
     * nextEventAt for the contract.
     */
    Cycle nextEventAt(const dram::DramDevice& dev, Cycle now) const;

    std::uint64_t refsIssued() const { return refs_issued_; }

  private:
    struct RankState
    {
        Cycle next_due = 0;
        bool pending = false;
        Cycle pending_since = 0;
    };

    const dram::TimingParams& t_;
    std::vector<RankState> ranks_;
    int pending_ranks_ = 0; ///< ranks with pending set
    obs::EventSink* sink_ = nullptr;
    std::uint64_t refs_issued_ = 0;
};

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_REFRESH_H
