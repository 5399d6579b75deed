#include "ctrl/refresh.h"

#include "obs/obs.h"

namespace qprac::ctrl {

RefreshScheduler::RefreshScheduler(const dram::TimingParams& timing,
                                   int ranks)
    : t_(timing)
{
    ranks_.resize(static_cast<std::size_t>(ranks));
    // Stagger ranks across the tREFI interval.
    for (int r = 0; r < ranks; ++r)
        ranks_[static_cast<std::size_t>(r)].next_due =
            static_cast<Cycle>(t_.tREFI) * static_cast<Cycle>(r + 1) /
            static_cast<Cycle>(ranks);
}

void
RefreshScheduler::tick(dram::DramDevice& dev, Cycle now)
{
    for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
        auto& st = ranks_[static_cast<std::size_t>(r)];
        if (!st.pending && now >= st.next_due) {
            st.pending = true;
            st.pending_since = now;
            ++pending_ranks_;
        }
        if (st.pending && dev.rankIdle(r, now)) {
            dev.issueRefresh(r, now);
            ++refs_issued_;
            // The REF tRFC window itself is recorded by the device;
            // this event measures how long the rank drain delayed it.
            if (sink_)
                sink_->record(
                    obs::kRefresh, now, "ref-issue", "rank", r, "delay",
                    static_cast<std::int64_t>(now - st.pending_since));
            st.pending = false;
            --pending_ranks_;
            st.next_due += static_cast<Cycle>(t_.tREFI);
        }
    }
}

bool
RefreshScheduler::refPending(int rank) const
{
    return ranks_[static_cast<std::size_t>(rank)].pending;
}

Cycle
RefreshScheduler::pendingSince(int rank) const
{
    const auto& st = ranks_[static_cast<std::size_t>(rank)];
    return st.pending ? st.pending_since : kNeverCycle;
}

Cycle
RefreshScheduler::nextEventAt(const dram::DramDevice& dev, Cycle now) const
{
    Cycle at = kNeverCycle;
    for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
        const auto& st = ranks_[static_cast<std::size_t>(r)];
        Cycle c = st.pending ? dev.rankIdleAt(r, now)
                             : std::max(st.next_due, now + 1);
        at = std::min(at, c);
    }
    return at;
}

} // namespace qprac::ctrl
