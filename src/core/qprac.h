/**
 * @file
 * QPRAC — the paper's mitigation (§III), in all evaluated variants.
 *
 *  - QPRAC-NoOp:      on an All-Bank RFM, only the alerting bank mitigates.
 *  - QPRAC:           opportunistic — every covered bank mitigates the top
 *                     entry of its PSQ on every RFM (§III-D1).
 *  - QPRAC+Proactive: additionally mitigates the top PSQ entry of every
 *                     bank during each REF (§III-D2).
 *  - QPRAC+Proactive-EA: energy-aware — proactive mitigation only fires
 *                     when the top entry's count >= NPRO (= NBO/K).
 *  - QPRAC-Ideal:     oracular top-N tracking (UPRAC-style ideal), used
 *                     as the performance/security reference.
 *
 * The engine is parameterized over the ServiceQueueBackend: QpracT<B>
 * calls its per-bank queues with static dispatch (B is a final class, so
 * the activation hot path has no virtual calls), and makeQprac()
 * type-erases the instantiation chosen by QpracConfig::backend — the
 * paper's linear CAM (Qprac) or the CnC-style coalescing front
 * (QpracCoalescing) — behind the RowhammerMitigation interface.
 */
#ifndef QPRAC_CORE_QPRAC_H
#define QPRAC_CORE_QPRAC_H

#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/coalescing_queue.h"
#include "core/psq.h"
#include "core/service_queue.h"
#include "dram/mitigation_iface.h"

namespace qprac::dram {
class PracCounters;
} // namespace qprac::dram

namespace qprac::core {

/** Proactive-mitigation policy on REF commands. */
enum class ProactiveMode
{
    None,        ///< no REF-time mitigations
    EveryRef,    ///< mitigate the top PSQ entry on every REF
    EnergyAware, ///< mitigate only when top count >= npro
};

/** Configuration for one QPRAC instance. */
struct QpracConfig
{
    int nbo = 32;          ///< Back-Off threshold (alert when top >= NBO)
    int nmit = 1;          ///< RFMs per alert (PRAC-1/2/4); sizing only
    int psq_size = 5;      ///< PSQ entries per bank (paper default 5)
    bool opportunistic = true;  ///< false = QPRAC-NoOp
    ProactiveMode proactive = ProactiveMode::None;
    int npro = 16;         ///< EA threshold; paper default NBO/2
    int proactive_period_refs = 1; ///< 1 proactive per N REFs (Fig 17/21)
    bool ideal = false;    ///< QPRAC-Ideal (oracular top-N)
    /** Service-queue implementation (Linear = the paper's CAM). */
    SqBackendKind backend = SqBackendKind::Linear;
    /** Staging entries for the Coalescing backend. */
    int coalesce_window = CoalescingQueue::kDefaultWindow;

    std::string label() const;

    /** Name this preset resolves to in the MitigationRegistry. */
    std::string registryKey() const;

    // Named presets matching the paper's evaluated designs (§V).
    static QpracConfig noOp(int nbo = 32, int nmit = 1);
    static QpracConfig base(int nbo = 32, int nmit = 1);
    static QpracConfig proactiveEvery(int nbo = 32, int nmit = 1);
    static QpracConfig proactiveEa(int nbo = 32, int nmit = 1);
    static QpracConfig idealTopN(int nbo = 32, int nmit = 1);
};

/**
 * QPRAC mitigation engine (one instance serves every bank), over a
 * concrete service-queue backend.
 */
template <class Backend>
class QpracT final : public dram::RowhammerMitigation
{
  public:
    QpracT(const QpracConfig& config, dram::PracCounters* counters);

    void onActivate(int flat_bank, int row, ActCount count,
                    Cycle cycle) override;
    void onActivateBatch(const dram::ActEvent* events, int n) override;
    bool wantsAlert() const override;
    ActCount alertRiseThreshold() const override
    {
        return static_cast<ActCount>(config_.nbo);
    }
    void onRfm(int flat_bank, dram::RfmScope scope, bool alerting_bank,
               Cycle cycle) override;
    void onRefresh(int flat_bank, Cycle cycle) override;
    int alertingBank() const override;
    bool bankWantsAlert(int bank) const override
    {
        return over_threshold_[static_cast<std::size_t>(bank)] != 0;
    }
    const dram::MitigationStats& stats() const override { return stats_; }
    std::string name() const override { return config_.label(); }
    int queueOccupancy() const override;
    std::int64_t maxTrackedCount() const override;

    const QpracConfig& config() const { return config_; }

    /** PSQ of one bank (inspection/testing). */
    const Backend& psq(int flat_bank) const;

    /** Highest tracked count for a bank (PSQ, or true max when ideal). */
    ActCount topCount(int flat_bank) const;

  private:
    struct HeapEntry
    {
        ActCount count;
        int row;
        bool operator<(const HeapEntry& o) const { return count < o.count; }
    };

    /** Lazy max-heap view of a bank's true per-row counts (Ideal mode). */
    struct IdealTracker
    {
        std::priority_queue<HeapEntry> heap;
    };

    /** Statically-dispatched per-ACT work shared by both entry points. */
    void activateOne(int flat_bank, int row, ActCount count);

    /** Mitigate one row in @p bank; returns true if a row was mitigated. */
    bool mitigateTop(int bank, bool require_count = false,
                     ActCount min_count = 0);

    void refreshAlertFlag(int bank);
    int idealTopRow(int bank);

    QpracConfig config_;
    dram::PracCounters* counters_;
    std::vector<Backend> psqs_;
    std::vector<IdealTracker> ideal_;
    std::vector<char> over_threshold_;
    std::vector<int> refs_seen_;
    int num_over_ = 0;
    dram::MitigationStats stats_;
};

extern template class QpracT<LinearCamQueue>;
extern template class QpracT<CoalescingQueue>;

/** The paper's QPRAC: linear-scan CAM backend. */
using Qprac = QpracT<LinearCamQueue>;
using QpracCoalescing = QpracT<CoalescingQueue>;

/** Construct the QpracT instantiation selected by @p config.backend. */
std::unique_ptr<dram::RowhammerMitigation>
makeQprac(const QpracConfig& config, dram::PracCounters* counters);

} // namespace qprac::core

#endif // QPRAC_CORE_QPRAC_H
