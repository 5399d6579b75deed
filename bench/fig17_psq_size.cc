/**
 * @file
 * Figure 17 — sensitivity to the PSQ size (1-5 entries) for different
 * proactive-mitigation frequencies, paper §VI-C.
 *
 * Paper: <1% overhead at every queue size, slightly better at larger
 * sizes; 5 entries are required for PRAC-4 compatibility (Nmit+1).
 */
#include "bench_common.h"

using namespace qprac;

int
main(int argc, char** argv)
{
    bench::banner("Fig 17", "slowdown vs PSQ size x proactive frequency");
    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));
    auto workloads = bench::sweepWorkloads();
    std::printf("workloads=%zu (sweep subset), NBO=32, PRAC-1\n\n",
                workloads.size());

    auto ea = [](const char* period) {
        return std::vector<std::pair<std::string, std::string>>{
            {"mitigation", "qprac+proactive-ea"},
            {"proactive_period", period}};
    };
    const std::vector<bench::Design> designs = {
        {"QPRAC", {{"mitigation", "qprac"}}},
        {"EA: 1 per 4 tREFI", ea("4")},
        {"EA: 1 per 2 tREFI", ea("2")},
        {"EA: 1 per 1 tREFI", ea("1")},
    };
    const sim::ScenarioConfig base = bench::baseScenario();
    const std::string sources = bench::sourceAxis(workloads);
    bench::Baselines baselines(base, {sources}, &cache);
    auto points =
        bench::runDesigns(base, designs, {"psq_size=1:5", sources}, &cache);

    Table table({"psq_size", "QPRAC", "EA/4tREFI", "EA/2tREFI",
                 "EA/1tREFI"});
    bench::ResultSink csv("fig17_psq_size",
                  {"psq_size", "variant", "slowdown_pct"});
    for (int size = 1; size <= 5; ++size) {
        const std::string sz = std::to_string(size);
        std::vector<std::string> cells = {sz};
        for (std::size_t d = 0; d < designs.size(); ++d) {
            double s = bench::slowdownPct(bench::normPerfGeomean(
                bench::where(points[d], "psq_size", sz), baselines));
            cells.push_back(Table::pct(s, 2));
            csv.addRow({sz, designs[d].label, Table::num(s, 4)});
        }
        table.addRow(cells);
    }
    table.print();
    std::printf("\nPaper: negligible (<1%%) overhead across all queue "
                "sizes; slightly better at larger sizes.\n");
    return 0;
}
