/**
 * @file
 * Table III — mitigation energy overhead of the QPRAC designs at
 * PRAC-1/2/4 (paper §VI-F).
 *
 * Paper: QPRAC 1.2-1.5%; QPRAC+Proactive 14.6% (a mitigation on every
 * REF in every bank); QPRAC+Proactive-EA 1.9% (NPRO = NBO/2 gate).
 */
#include "bench_common.h"

#include "energy/energy_model.h"

using namespace qprac;
using energy::computeEnergy;

int
main(int argc, char** argv)
{
    bench::banner("Table III", "energy overhead of QPRAC designs");
    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));
    auto workloads = bench::sweepWorkloads();
    std::printf("workloads=%zu (sweep subset), NBO=32\n\n",
                workloads.size());

    dram::Organization org;
    auto timing = dram::TimingParams::ddr5Prac();

    const std::vector<bench::Design> designs = {
        {"QPRAC", {{"mitigation", "qprac"}}},
        {"QPRAC+Proactive", {{"mitigation", "qprac+proactive"}}},
        {"QPRAC+Proactive-EA", {{"mitigation", "qprac+proactive-ea"}}},
    };
    const sim::ScenarioConfig base = bench::baseScenario();
    const std::string sources = bench::sourceAxis(workloads);
    bench::Baselines baselines(base, {sources}, &cache);
    auto points =
        bench::runDesigns(base, designs, {"nmit=1,2,4", sources}, &cache);

    Table table({"PRAC level", "QPRAC", "QPRAC+Proactive",
                 "QPRAC+Proactive-EA"});
    bench::ResultSink csv("tab03_energy",
                  {"prac_level", "design", "energy_overhead_pct"});
    for (const char* nmit : {"1", "2", "4"}) {
        const std::string level = std::string("PRAC-") + nmit;
        std::vector<std::string> cells = {level};
        for (std::size_t d = 0; d < designs.size(); ++d) {
            std::vector<double> overheads;
            for (const auto* p : bench::where(points[d], "nmit", nmit)) {
                auto b = computeEnergy(baselines.of(p->result).stats, org,
                                       timing);
                auto e = computeEnergy(p->result.sim.stats, org, timing);
                overheads.push_back(e.overheadPctVs(b));
            }
            double o = mean(overheads);
            cells.push_back(Table::pct(o, 2));
            csv.addRow({level, designs[d].label, Table::num(o, 4)});
        }
        table.addRow(cells);
    }
    table.print();
    std::printf("\nPaper: QPRAC 1.2/1.3/1.5%%, +Proactive 14.6%%, "
                "+Proactive-EA 1.9%% for PRAC-1/2/4.\n");
    return 0;
}
