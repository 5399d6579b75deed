/**
 * @file
 * Figures 21 and 22 — comparison against MOAT (paper §VII-A):
 * performance overhead and mitigation-energy overhead as the Back-Off
 * threshold varies, with proactive-mitigation frequencies of 1-per-4
 * tREFI and 1-per-tREFI.
 *
 * Paper: both designs are <1% above NBO=32. At NBO=16 MOAT slows
 * 3.6% / 2.5% / 0.7% (none / per-4 / per-1 proactive) vs QPRAC's
 * 2.3% / 1.2% / 0.1%; energy overheads are 5.7%/5.1% (MOAT) vs
 * 4.1%/4.6% (QPRAC) at NBO=16 and <2% at NBO>=32.
 */
#include "bench_common.h"

#include "energy/energy_model.h"

using namespace qprac;
using energy::computeEnergy;

namespace {

double
meanEnergyOverheadPct(const std::vector<const sim::SweepPointResult*>& cell,
                      const bench::Baselines& baselines)
{
    dram::Organization org;
    auto timing = dram::TimingParams::ddr5Prac();
    std::vector<double> overheads;
    for (const auto* p : cell) {
        auto base = computeEnergy(baselines.of(p->result).stats, org, timing);
        auto design = computeEnergy(p->result.sim.stats, org, timing);
        overheads.push_back(design.overheadPctVs(base));
    }
    return mean(overheads);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Fig 21+22", "MOAT vs QPRAC: slowdown & energy vs NBO");
    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));
    auto workloads = bench::sweepWorkloads();
    std::printf("workloads=%zu (sweep subset), PRAC-1\n\n",
                workloads.size());

    auto with = [](const char* mitigation, const char* period) {
        return std::vector<std::pair<std::string, std::string>>{
            {"mitigation", mitigation}, {"proactive_period", period}};
    };
    const std::vector<bench::Design> designs = {
        {"MOAT", with("moat", "0")},
        {"MOAT+Pro/4tREFI", with("moat", "4")},
        {"MOAT+Pro/1tREFI", with("moat", "1")},
        {"QPRAC", with("qprac", "0")},
        {"QPRAC-EA/4tREFI", with("qprac+proactive-ea", "4")},
        {"QPRAC-EA/1tREFI", with("qprac+proactive-ea", "1")},
    };
    const sim::ScenarioConfig base = bench::baseScenario();
    const std::string sources = bench::sourceAxis(workloads);
    bench::Baselines baselines(base, {sources}, &cache);
    auto points = bench::runDesigns(base, designs,
                                    {"nbo=16,32,64,128", sources}, &cache);

    Table perf({"NBO", "MOAT", "MOAT+P4", "MOAT+P1", "QPRAC", "QPRAC-EA4",
                "QPRAC-EA1"});
    Table energy({"NBO", "MOAT", "MOAT+P4", "MOAT+P1", "QPRAC",
                  "QPRAC-EA4", "QPRAC-EA1"});
    bench::ResultSink csv("fig21_22_vs_moat",
                  {"nbo", "design", "slowdown_pct", "energy_overhead_pct"});
    for (const char* nbo : {"16", "32", "64", "128"}) {
        std::vector<std::string> pcells = {nbo};
        std::vector<std::string> ecells = {nbo};
        for (std::size_t d = 0; d < designs.size(); ++d) {
            auto cell = bench::where(points[d], "nbo", nbo);
            double s = bench::slowdownPct(
                bench::normPerfGeomean(cell, baselines));
            double e = meanEnergyOverheadPct(cell, baselines);
            pcells.push_back(Table::pct(s, 2));
            ecells.push_back(Table::pct(e, 2));
            csv.addRow({nbo, designs[d].label, Table::num(s, 4),
                        Table::num(e, 4)});
        }
        perf.addRow(pcells);
        energy.addRow(ecells);
    }

    std::printf("-- Fig 21: slowdown vs NBO --\n");
    perf.print();
    std::printf("\n-- Fig 22: mitigation-energy overhead vs NBO --\n");
    energy.print();
    std::printf("\nPaper: QPRAC at or below MOAT at every NBO, with the "
                "gap widest at NBO=16; both negligible at NBO>=32.\n");
    return 0;
}
