/**
 * @file
 * Quickstart: build a 4-core DDR5+PRAC system protected by QPRAC, run a
 * SPEC-like workload, and print the headline numbers.
 *
 *   $ ./quickstart [workload] [nbo]
 *
 * This is the 60-second tour of the public API:
 *   1. pick a workload profile (sim/workloads.h);
 *   2. describe each run as a ScenarioConfig — source + design
 *      (sim/scenario.h);
 *   3. run it and the insecure baseline with runScenario and compare.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/log.h"
#include "common/table.h"
#include "sim/scenario.h"
#include "sim/workloads.h"

using namespace qprac;

namespace {

/** The default scenario with @p mitigation on @p workload at @p nbo. */
sim::ScenarioResult
run(const std::string& workload, const std::string& mitigation,
    const std::string& nbo)
{
    sim::ScenarioConfig cfg; // 4 cores; QPRAC_INSTS to change length
    std::string err;
    if (!cfg.set("source", workload, &err) ||
        !cfg.set("mitigation", mitigation, &err) ||
        !cfg.set("nbo", nbo, &err))
        fatal(err);
    return sim::runScenario(cfg);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload_name = argc > 1 ? argv[1] : "429.mcf";
    std::string nbo = argc > 2 ? argv[2] : "32";

    const sim::Workload& workload = sim::findWorkload(workload_name);
    std::printf("workload %s (%s): ~%.1f LLC misses per kilo-instruction\n",
                workload.name.c_str(), workload.suite.c_str(),
                workload.miss_per_kilo);

    // The insecure reference: PRAC timings, but alerts are ignored.
    sim::SimResult base = run(workload_name, "none", nbo).sim;
    // QPRAC with energy-aware proactive mitigation (the paper default).
    sim::SimResult prot = run(workload_name, "qprac+proactive-ea", nbo).sim;

    Table t({"metric", "baseline", "QPRAC+Proactive-EA"});
    t.addRow({"IPC (sum over cores)", Table::num(base.ipc_sum, 3),
              Table::num(prot.ipc_sum, 3)});
    t.addRow({"normalized performance", "1.000",
              Table::num(prot.ipc_sum / base.ipc_sum, 3)});
    t.addRow({"row-buffer misses / kilo-inst", Table::num(base.rbmpki, 2),
              Table::num(prot.rbmpki, 2)});
    t.addRow({"alerts per tREFI", "0",
              Table::num(prot.alerts_per_trefi, 4)});
    t.addRow({"RFM mitigations", "0",
              Table::num(prot.stats.getOr("mit.rfm_mitigations", 0), 0)});
    t.addRow({"proactive mitigations", "0",
              Table::num(prot.stats.getOr("mit.proactive_mitigations", 0),
                         0)});
    t.print();

    std::printf("\nQPRAC tracked the hottest rows in a %d-entry PSQ per "
                "bank (15 bytes), alerted at NBO=%s, and mitigated with "
                "blast-radius-2 victim refreshes.\n",
                5, nbo.c_str());
    return 0;
}
