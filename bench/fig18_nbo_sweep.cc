/**
 * @file
 * Figure 18 — sensitivity to the Back-Off threshold (NBO 16-128),
 * paper §VI-D.
 *
 * Paper: QPRAC 2.3% at NBO=16 shrinking to <0.8% at NBO>=32; proactive
 * variants <0.3% at NBO=16 and 0% elsewhere.
 */
#include "bench_common.h"

using namespace qprac;

int
main(int argc, char** argv)
{
    bench::banner("Fig 18", "slowdown vs Back-Off threshold (NBO)");
    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));
    auto workloads = bench::sweepWorkloads();
    std::printf("workloads=%zu (sweep subset), PRAC-1\n\n",
                workloads.size());

    const std::vector<bench::Design> designs = {
        {"QPRAC", {{"mitigation", "qprac"}}},
        {"QPRAC+Proactive", {{"mitigation", "qprac+proactive"}}},
        {"QPRAC+Proactive-EA", {{"mitigation", "qprac+proactive-ea"}}},
        {"QPRAC-Ideal", {{"mitigation", "qprac-ideal"}}},
    };
    const sim::ScenarioConfig base = bench::baseScenario();
    const std::string sources = bench::sourceAxis(workloads);
    bench::Baselines baselines(base, {sources}, &cache);
    auto points = bench::runDesigns(base, designs,
                                    {"nbo=16,32,64,128", sources}, &cache);

    Table table({"NBO", "QPRAC", "+Proactive", "+Pro-EA", "Ideal",
                 "alerts/tREFI(QPRAC)"});
    bench::ResultSink csv("fig18_nbo_sweep",
                  {"nbo", "design", "slowdown_pct", "alerts_per_trefi"});
    for (const char* nbo : {"16", "32", "64", "128"}) {
        std::vector<std::string> cells = {nbo};
        for (std::size_t d = 0; d < designs.size(); ++d) {
            auto cell = bench::where(points[d], "nbo", nbo);
            double s = bench::slowdownPct(
                bench::normPerfGeomean(cell, baselines));
            cells.push_back(Table::pct(s, 2));
            csv.addRow({nbo, designs[d].label, Table::num(s, 4),
                        Table::num(bench::meanAlerts(cell), 4)});
        }
        cells.push_back(Table::num(
            bench::meanAlerts(bench::where(points[0], "nbo", nbo)),
            3));
        table.addRow(cells);
    }
    table.print();
    std::printf("\nPaper: QPRAC 2.3%% at NBO=16, <=0.8%% at NBO>=32; "
                "proactive variants <=0.3%% everywhere.\n");
    return 0;
}
