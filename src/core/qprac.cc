#include "core/qprac.h"

#include <algorithm>
#include <type_traits>

#include "common/log.h"
#include "dram/prac_counters.h"
#include "obs/obs.h"

namespace qprac::core {

std::string
QpracConfig::label() const
{
    std::string base_label;
    if (ideal) {
        base_label = "QPRAC-Ideal";
    } else if (!opportunistic) {
        base_label = "QPRAC-NoOp";
    } else {
        switch (proactive) {
          case ProactiveMode::None: base_label = "QPRAC"; break;
          case ProactiveMode::EveryRef:
            base_label = "QPRAC+Proactive";
            break;
          case ProactiveMode::EnergyAware:
            base_label = "QPRAC+Proactive-EA";
            break;
        }
    }
    if (backend != SqBackendKind::Linear)
        base_label += std::string("@") + sqBackendName(backend);
    return base_label;
}

std::string
QpracConfig::registryKey() const
{
    if (ideal)
        return "qprac-ideal";
    if (!opportunistic)
        return "qprac-noop";
    switch (proactive) {
      case ProactiveMode::None: return "qprac";
      case ProactiveMode::EveryRef: return "qprac+proactive";
      case ProactiveMode::EnergyAware: return "qprac+proactive-ea";
    }
    return "qprac";
}

QpracConfig
QpracConfig::noOp(int nbo, int nmit)
{
    QpracConfig c = base(nbo, nmit);
    c.opportunistic = false;
    return c;
}

QpracConfig
QpracConfig::base(int nbo, int nmit)
{
    QpracConfig c;
    c.nbo = nbo;
    c.nmit = nmit;
    c.npro = nbo / 2;
    return c;
}

QpracConfig
QpracConfig::proactiveEvery(int nbo, int nmit)
{
    QpracConfig c = base(nbo, nmit);
    c.proactive = ProactiveMode::EveryRef;
    return c;
}

QpracConfig
QpracConfig::proactiveEa(int nbo, int nmit)
{
    QpracConfig c = base(nbo, nmit);
    c.proactive = ProactiveMode::EnergyAware;
    return c;
}

QpracConfig
QpracConfig::idealTopN(int nbo, int nmit)
{
    QpracConfig c = base(nbo, nmit);
    c.ideal = true;
    c.proactive = ProactiveMode::EnergyAware;
    return c;
}

template <class Backend>
QpracT<Backend>::QpracT(const QpracConfig& config,
                        dram::PracCounters* counters)
    : config_(config), counters_(counters)
{
    QP_ASSERT(counters_ != nullptr, "QPRAC requires PRAC counters");
    QP_ASSERT(config_.psq_size >= 1, "PSQ size must be >= 1");
    QP_ASSERT(config_.nbo >= 1, "NBO must be >= 1");
    const int banks = counters_->numBanks();
    psqs_.reserve(static_cast<std::size_t>(banks));
    for (int i = 0; i < banks; ++i) {
        if constexpr (std::is_same_v<Backend, CoalescingQueue>)
            psqs_.emplace_back(config_.psq_size, config_.coalesce_window);
        else
            psqs_.emplace_back(config_.psq_size);
    }
    if (config_.ideal)
        ideal_.resize(static_cast<std::size_t>(banks));
    over_threshold_.assign(static_cast<std::size_t>(banks), 0);
    refs_seen_.assign(static_cast<std::size_t>(banks), 0);
}

template <class Backend>
void
QpracT<Backend>::activateOne(int flat_bank, int row, ActCount count)
{
    auto& psq = psqs_[static_cast<std::size_t>(flat_bank)];
    PsqInsert result = psq.onActivate(row, count);
    switch (result) {
      case PsqInsert::Hit:
        ++stats_.psq_hits;
        break;
      case PsqInsert::Inserted:
        ++stats_.psq_insertions;
        break;
      case PsqInsert::Evicted:
        ++stats_.psq_insertions;
        ++stats_.psq_evictions;
        break;
      case PsqInsert::Rejected:
        break;
    }
    if (config_.ideal)
        ideal_[static_cast<std::size_t>(flat_bank)].heap.push({count, row});

    if (count >= static_cast<ActCount>(config_.nbo) &&
        !over_threshold_[static_cast<std::size_t>(flat_bank)]) {
        over_threshold_[static_cast<std::size_t>(flat_bank)] = 1;
        ++num_over_;
        ++stats_.alerts;
    }
}

template <class Backend>
void
QpracT<Backend>::onActivate(int flat_bank, int row, ActCount count,
                            Cycle cycle)
{
    (void)cycle;
    activateOne(flat_bank, row, count);
}

template <class Backend>
void
QpracT<Backend>::onActivateBatch(const dram::ActEvent* events, int n)
{
    // One virtual entry for the whole burst; the loop below is fully
    // statically dispatched into the concrete backend.
    for (int i = 0; i < n; ++i)
        activateOne(events[i].flat_bank, events[i].row, events[i].count);
}

template <class Backend>
bool
QpracT<Backend>::wantsAlert() const
{
    return num_over_ > 0;
}

template <class Backend>
int
QpracT<Backend>::alertingBank() const
{
    if (num_over_ == 0)
        return -1;
    for (int i = 0; i < static_cast<int>(over_threshold_.size()); ++i)
        if (over_threshold_[static_cast<std::size_t>(i)])
            return i;
    return -1;
}

template <class Backend>
int
QpracT<Backend>::idealTopRow(int bank)
{
    auto& heap = ideal_[static_cast<std::size_t>(bank)].heap;
    // Lazily drop stale heap entries (count changed since push).
    while (!heap.empty()) {
        HeapEntry e = heap.top();
        if (counters_->count(bank, e.row) == e.count)
            return e.row;
        heap.pop();
    }
    return kNoRow;
}

template <class Backend>
bool
QpracT<Backend>::mitigateTop(int bank, bool require_count,
                             ActCount min_count)
{
    int row = kNoRow;
    if (config_.ideal) {
        row = idealTopRow(bank);
        if (row != kNoRow && require_count &&
            counters_->count(bank, row) < min_count)
            row = kNoRow;
    } else {
        auto& psq = psqs_[static_cast<std::size_t>(bank)];
        const SqEntry* top = psq.top();
        if (top && (!require_count || top->count >= min_count))
            row = top->row;
    }
    if (row == kNoRow)
        return false;

    dram::PracCounters::VictimInfo victims[16];
    int nv = counters_->mitigate(bank, row, victims);
    stats_.victim_refreshes += static_cast<std::uint64_t>(nv);

    auto& psq = psqs_[static_cast<std::size_t>(bank)];
    psq.remove(row);
    // Transitive-attack handling: victims' incremented counts may now
    // qualify them for PSQ tracking (§III-C2).
    for (int i = 0; i < nv; ++i) {
        PsqInsert r = psq.onActivate(victims[i].row, victims[i].count);
        if (r == PsqInsert::Inserted || r == PsqInsert::Evicted)
            ++stats_.psq_insertions;
        if (r == PsqInsert::Evicted)
            ++stats_.psq_evictions;
        if (config_.ideal)
            ideal_[static_cast<std::size_t>(bank)].heap.push(
                {victims[i].count, victims[i].row});
    }
    refreshAlertFlag(bank);
    return true;
}

template <class Backend>
void
QpracT<Backend>::refreshAlertFlag(int bank)
{
    bool over;
    if (config_.ideal) {
        int row = idealTopRow(bank);
        over = row != kNoRow && counters_->count(bank, row) >=
                                    static_cast<ActCount>(config_.nbo);
    } else {
        over = psqs_[static_cast<std::size_t>(bank)].maxCount() >=
               static_cast<ActCount>(config_.nbo);
    }
    auto& flag = over_threshold_[static_cast<std::size_t>(bank)];
    if (flag && !over) {
        flag = 0;
        --num_over_;
    } else if (!flag && over) {
        flag = 1;
        ++num_over_;
    }
}

template <class Backend>
void
QpracT<Backend>::onRfm(int flat_bank, dram::RfmScope scope,
                       bool alerting_bank, Cycle cycle)
{
    (void)scope;
    // QPRAC-NoOp mitigates only the alerting bank; opportunistic QPRAC
    // mitigates the top entry in every covered bank (§III-D1).
    if (!config_.opportunistic && !alerting_bank)
        return;
    if (mitigateTop(flat_bank)) {
        ++stats_.rfm_mitigations;
        if (sink_)
            sink_->record(obs::kPsq, cycle, "psq-service", "bank",
                          flat_bank, "alerting", alerting_bank ? 1 : 0);
    }
}

template <class Backend>
void
QpracT<Backend>::onRefresh(int flat_bank, Cycle cycle)
{
    if (config_.proactive == ProactiveMode::None)
        return;
    int& seen = refs_seen_[static_cast<std::size_t>(flat_bank)];
    if (++seen < config_.proactive_period_refs)
        return;
    seen = 0;
    bool require = config_.proactive == ProactiveMode::EnergyAware;
    if (mitigateTop(flat_bank, require,
                    static_cast<ActCount>(config_.npro))) {
        ++stats_.proactive_mitigations;
        if (sink_)
            sink_->record(obs::kPsq, cycle, "psq-proactive", "bank",
                          flat_bank);
    }
}

template <class Backend>
const Backend&
QpracT<Backend>::psq(int flat_bank) const
{
    return psqs_[static_cast<std::size_t>(flat_bank)];
}

template <class Backend>
int
QpracT<Backend>::queueOccupancy() const
{
    int peak = 0;
    for (const Backend& psq : psqs_)
        peak = std::max(peak, psq.size());
    return peak;
}

template <class Backend>
std::int64_t
QpracT<Backend>::maxTrackedCount() const
{
    std::int64_t top = 0;
    for (int b = 0; b < static_cast<int>(psqs_.size()); ++b)
        top = std::max(top,
                       static_cast<std::int64_t>(topCount(b)));
    return top;
}

template <class Backend>
ActCount
QpracT<Backend>::topCount(int flat_bank) const
{
    if (config_.ideal) {
        // Non-mutating scan is fine here (inspection only).
        auto heap = ideal_[static_cast<std::size_t>(flat_bank)].heap;
        while (!heap.empty()) {
            HeapEntry e = heap.top();
            if (counters_->count(flat_bank, e.row) == e.count)
                return e.count;
            heap.pop();
        }
        return 0;
    }
    return psqs_[static_cast<std::size_t>(flat_bank)].maxCount();
}

template class QpracT<LinearCamQueue>;
template class QpracT<CoalescingQueue>;

std::unique_ptr<dram::RowhammerMitigation>
makeQprac(const QpracConfig& config, dram::PracCounters* counters)
{
    switch (config.backend) {
      case SqBackendKind::Linear:
        return std::make_unique<Qprac>(config, counters);
      case SqBackendKind::Coalescing:
        return std::make_unique<QpracCoalescing>(config, counters);
    }
    return std::make_unique<Qprac>(config, counters);
}

} // namespace qprac::core
