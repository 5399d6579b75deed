/**
 * @file
 * Figures 14 and 15 — the headline evaluation (paper §VI-A): normalized
 * performance and Alert-Back-Off frequency of the QPRAC designs across
 * all 57 workloads (4-core homogeneous mixes, NBO=32, 1 RFM/alert,
 * 5-entry PSQ), against an insecure no-ABO baseline.
 *
 * Paper: QPRAC-NoOp 12.4% average slowdown (up to 46% on 510.parest),
 * QPRAC 0.8%, QPRAC+Proactive / +Proactive-EA / Ideal 0%; alerts per
 * tREFI: ~1.1 for NoOp, 0.07 for QPRAC, ~0 with proactive mitigations.
 */
#include "bench_common.h"

using namespace qprac;

int
main(int argc, char** argv)
{
    bench::banner("Fig 14+15",
                  "normalized performance & alerts/tREFI, 57 workloads");
    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));
    sim::ScenarioConfig base = bench::baseScenario();
    sim::ExperimentConfig cfg = base.experiment();
    std::printf("insts/core=%llu, cores=%d, threads=%d, NBO=32, PRAC-1\n\n",
                static_cast<unsigned long long>(cfg.insts_per_core),
                cfg.num_cores, cfg.threads);

    const std::vector<bench::Design> designs = {
        {"QPRAC-NoOp", {{"mitigation", "qprac-noop"}}},
        {"QPRAC", {{"mitigation", "qprac"}}},
        {"QPRAC+Proactive", {{"mitigation", "qprac+proactive"}}},
        {"QPRAC+Proactive-EA", {{"mitigation", "qprac+proactive-ea"}}},
        {"QPRAC-Ideal", {{"mitigation", "qprac-ideal"}}},
    };
    const std::vector<std::string> axes = {
        bench::sourceAxis(sim::workloadSuite())};
    bench::Baselines baselines(base, axes, &cache);
    auto points = bench::runDesigns(base, designs, axes, &cache);

    Table table({"workload", "rbmpki", "NoOp", "QPRAC", "+Proactive",
                 "+Pro-EA", "Ideal", "alerts:NoOp", "alerts:QPRAC"});
    bench::ResultSink csv("fig14_15_performance",
                  {"workload", "rbmpki", "design", "norm_perf",
                   "alerts_per_trefi"});
    for (std::size_t w = 0; w < points[0].size(); ++w) {
        const sim::ScenarioResult& first = points[0][w].result;
        const std::string workload = first.config.sourceName();
        const double rbmpki = baselines.of(first).rbmpki;
        std::vector<std::string> cells = {workload, Table::num(rbmpki, 1)};
        for (const auto& design : points)
            cells.push_back(
                Table::num(baselines.normPerf(design[w].result), 3));
        for (int d : {0, 1}) // NoOp, QPRAC
            cells.push_back(
                Table::num(points[d][w].result.sim.alerts_per_trefi, 3));
        table.addRow(cells);
        for (std::size_t d = 0; d < designs.size(); ++d) {
            const sim::ScenarioResult& r = points[d][w].result;
            csv.addRow({workload, Table::num(rbmpki, 2), designs[d].label,
                        Table::num(baselines.normPerf(r), 5),
                        Table::num(r.sim.alerts_per_trefi, 5)});
        }
    }
    table.print();

    std::printf("\n-- Fig 14 summary: slowdown vs insecure baseline --\n");
    Table sum({"design", "slowdown(all)", "slowdown(rbmpki>=2)",
               "alerts/tREFI(all)"});
    for (std::size_t d = 0; d < designs.size(); ++d) {
        std::vector<const sim::SweepPointResult*> all;
        for (const auto& p : points[d])
            all.push_back(&p);
        sum.addRow(
            {designs[d].label,
             Table::pct(bench::slowdownPct(
                            bench::normPerfGeomean(all, baselines)),
                        2),
             Table::pct(bench::intensiveSlowdownPct(all, baselines), 2),
             Table::num(bench::meanAlerts(all), 3)});
    }
    sum.print();
    std::printf("\nPaper: NoOp 12.4%% / QPRAC 0.8%% / proactive variants "
                "0%%; alerts 1.1 / 0.07 / ~0 per tREFI.\n");
    return 0;
}
