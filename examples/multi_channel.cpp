/**
 * @file
 * Multi-channel tour: build a 2-channel DDR5+PRAC system where every
 * channel gets its own memory controller, ABO engine and QPRAC
 * instance, all constructed from one scenario.
 *
 *   $ ./multi_channel [workload] [channels]
 *
 * What this demonstrates:
 *   1. one registry design name -> N independent per-channel
 *      mitigation instances (the factory runs once per channel);
 *   2. channel-aware address mapping (channel-striped lines);
 *   3. per-channel stats (chK.* prefixes) next to the aggregate view.
 *
 * The run executes on the calling thread; to use more cores, run
 * independent points side by side (sim::runSweep).
 */
#include <cstdio>
#include <string>

#include "common/table.h"
#include "sim/scenario.h"

using namespace qprac;

int
main(int argc, char** argv)
{
    std::string workload_name = argc > 1 ? argv[1] : "429.mcf";
    std::string channels = argc > 2 ? argv[2] : "2";

    // One design, looked up by name in the registry. The System builds
    // it once per channel, with that channel's PRAC counters, so every
    // channel gets an independent QPRAC instance.
    sim::ScenarioConfig cfg;
    std::string err;
    if (!cfg.set("source", workload_name, &err) ||
        !cfg.set("mitigation", "qprac+proactive-ea", &err) ||
        !cfg.set("channels", channels, &err) ||
        !cfg.set("mapping", "channel-striped", &err)) { // line-interleaved
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }
    sim::SimResult r = sim::runScenario(cfg).sim;

    std::printf("%s over %d channel(s), channel-striped mapping:\n\n",
                cfg.sourceName().c_str(), cfg.channels);
    Table t({"metric", "aggregate"});
    t.addRow({"IPC (sum over cores)", Table::num(r.ipc_sum, 3)});
    t.addRow({"activations", Table::num(r.acts, 0)});
    t.addRow({"alerts/tREFI", Table::num(r.alerts_per_trefi, 4)});
    t.print();

    if (cfg.channels > 1) {
        std::printf("\nper-channel split:\n");
        Table pc({"channel", "ACTs", "alerts", "RFM mitigations",
                  "proactive mitigations"});
        for (int c = 0; c < cfg.channels; ++c) {
            std::string p = "ch" + std::to_string(c) + ".";
            pc.addRow({Table::num(c, 0),
                       Table::num(r.stats.getOr(p + "dram.acts", 0), 0),
                       Table::num(r.stats.getOr(p + "ctrl.alerts", 0), 0),
                       Table::num(
                           r.stats.getOr(p + "mit.rfm_mitigations", 0),
                           0),
                       Table::num(r.stats.getOr(
                                      p + "mit.proactive_mitigations", 0),
                                  0)});
        }
        pc.print();
    }

    std::printf("\nEach channel ran its own controller, ABO engine and "
                "QPRAC instance; an alert on one channel never blocks "
                "the others.\n");
    return 0;
}
