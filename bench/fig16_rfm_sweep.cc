/**
 * @file
 * Figure 16 — sensitivity to the number of RFMs per Alert Back-Off
 * (PRAC-1 / PRAC-2 / PRAC-4), paper §VI-B.
 *
 * Paper: QPRAC 0.8-0.9% slowdown across PRAC levels; proactive variants
 * 0% (more RFMs per alert are offset by proportionally fewer alerts).
 */
#include "bench_common.h"

using namespace qprac;

int
main(int argc, char** argv)
{
    bench::banner("Fig 16", "slowdown vs RFMs per alert (PRAC-1/2/4)");
    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));
    auto workloads = bench::sweepWorkloads();
    std::printf("workloads=%zu (sweep subset), NBO=32\n\n",
                workloads.size());

    Table table({"design", "PRAC-1", "PRAC-2", "PRAC-4"});
    bench::ResultSink csv("fig16_rfm_sweep",
                  {"design", "nmit", "slowdown_pct"});

    const std::vector<bench::Design> designs = {
        {"QPRAC", {{"mitigation", "qprac"}}},
        {"QPRAC+Proactive", {{"mitigation", "qprac+proactive"}}},
        {"QPRAC+Proactive-EA", {{"mitigation", "qprac+proactive-ea"}}},
        {"QPRAC-Ideal", {{"mitigation", "qprac-ideal"}}},
    };
    const sim::ScenarioConfig base = bench::baseScenario();
    const std::string sources = bench::sourceAxis(workloads);
    bench::Baselines baselines(base, {sources}, &cache);
    auto points =
        bench::runDesigns(base, designs, {"nmit=1,2,4", sources}, &cache);

    for (std::size_t d = 0; d < designs.size(); ++d) {
        std::vector<std::string> cells = {designs[d].label};
        for (const char* nmit : {"1", "2", "4"}) {
            double s = bench::slowdownPct(bench::normPerfGeomean(
                bench::where(points[d], "nmit", nmit), baselines));
            cells.push_back(Table::pct(s, 2));
            csv.addRow({designs[d].label, nmit, Table::num(s, 4)});
        }
        table.addRow(cells);
    }
    table.print();
    std::printf("\nPaper: 0.8%% / 0.8%% / 0.9%% for QPRAC; 0%% for the "
                "proactive variants and Ideal.\n");
    return 0;
}
