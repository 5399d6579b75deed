/**
 * @file
 * Extensibility walkthrough: implement a custom in-DRAM mitigation
 * against the RowhammerMitigation interface and evaluate it in the full
 * system next to QPRAC.
 *
 * The toy design — "RoundRobinRefresher" — ignores activation counts
 * entirely and proactively refreshes rows in round-robin order on every
 * REF (a REF-shadow-only TRR). It never alerts, so it costs nothing,
 * but (as the wave-attack numbers show) it provides no worst-case
 * protection; it exists to demonstrate how little code a new design
 * needs and how to compare one against QPRAC: register it by name in
 * the MitigationRegistry, and every scenario, sweep and CLI run can
 * select it with `mitigation=<name>`.
 */
#include <cstdio>
#include <vector>

#include "attacks/wave_attack.h"
#include "common/log.h"
#include "common/table.h"
#include "dram/prac_counters.h"
#include "mitigations/factory.h"
#include "sim/scenario.h"

using namespace qprac;

/** A deliberately naive REF-shadow-only mitigation. */
class RoundRobinRefresher : public dram::RowhammerMitigation
{
  public:
    explicit RoundRobinRefresher(dram::PracCounters* counters)
        : counters_(counters),
          cursor_(static_cast<std::size_t>(counters->numBanks()), 0)
    {
    }

    void onActivate(int, int, ActCount, Cycle) override {}
    bool wantsAlert() const override { return false; }
    int alertingBank() const override { return -1; }

    void onRfm(int bank, dram::RfmScope, bool, Cycle) override
    {
        mitigateNext(bank, false);
    }

    void onRefresh(int bank, Cycle) override { mitigateNext(bank, true); }

    const dram::MitigationStats& stats() const override { return stats_; }
    std::string name() const override { return "RoundRobinRefresher"; }

  private:
    void
    mitigateNext(int bank, bool proactive)
    {
        int& cur = cursor_[static_cast<std::size_t>(bank)];
        dram::PracCounters::VictimInfo victims[8];
        int nv = counters_->mitigate(bank, cur, victims);
        stats_.victim_refreshes += static_cast<std::uint64_t>(nv);
        cur = (cur + 1) % counters_->rowsPerBank();
        if (proactive)
            ++stats_.proactive_mitigations;
        else
            ++stats_.rfm_mitigations;
    }

    dram::PracCounters* counters_;
    std::vector<int> cursor_;
    dram::MitigationStats stats_;
};

int
main()
{
    // Register the custom design: a name, a description and a builder.
    // It never alerts, so its ABO engine stays idle.
    mitigations::MitigationRegistry::instance().registerDesign(
        "round-robin", "REF-shadow-only round-robin refresher (toy)",
        [](const mitigations::MitigationParams&,
           dram::PracCounters* counters) {
            return std::make_unique<RoundRobinRefresher>(counters);
        });

    // Sweep it by name next to QPRAC and the insecure baseline.
    sim::ScenarioConfig base;
    sim::SweepSpec spec;
    std::string err;
    if (!base.set("insts", "200000", &err) || // demo scale
        !spec.add("source=429.mcf,482.sphinx3", &err) ||
        !spec.add("mitigation=none,round-robin,qprac+proactive-ea", &err))
        fatal(err);
    auto points = sim::runSweep(base, spec, &err);
    if (points.empty())
        fatal(err);

    std::printf("=== benign performance ===\n");
    Table t({"workload", "RoundRobinRefresher", "QPRAC+Proactive-EA"});
    for (std::size_t i = 0; i < points.size(); i += 3) {
        const double base_ipc = points[i].result.sim.ipc_sum;
        t.addRow({points[i].result.config.sourceName(),
                  Table::num(points[i + 1].result.sim.ipc_sum / base_ipc, 3),
                  Table::num(points[i + 2].result.sim.ipc_sum / base_ipc,
                             3)});
    }
    t.print();

    // And the part the toy design fails: worst-case security. QPRAC's
    // wave-attack bound is ~71 at NBO=32; a round-robin refresher lets
    // the attacker run to the full ~550K-ACT budget on one row.
    std::printf("\n=== worst-case security ===\n");
    std::printf("QPRAC-1 @ NBO=32: max unmitigated activation count "
                "~%u (wave-attack simulation)\n",
                attacks::simulateWaveAttack({}).max_count);
    std::printf("RoundRobinRefresher: a 128K-row bank revisits a row "
                "every 128K REFs (~8 hours) -> effectively unprotected.\n");
    std::printf("\nLesson: passing benign-performance checks is easy; "
                "the PSQ+ABO structure is what buys the security bound.\n");
    return 0;
}
