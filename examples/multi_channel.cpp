/**
 * @file
 * Multi-channel tour: build a 2-channel DDR5+PRAC system where every
 * channel gets its own memory controller, ABO engine and QPRAC
 * instance, all constructed from one registry spec.
 *
 *   $ ./multi_channel [workload] [channels]
 *
 * What this demonstrates:
 *   1. one MitigationRegistry spec -> N independent per-channel
 *      mitigation instances (the factory runs once per channel);
 *   2. channel-aware address mapping (channel-striped lines);
 *   3. per-channel stats (chK.* prefixes) next to the aggregate view.
 *
 * The run executes on the calling thread; to use more cores, run
 * independent points side by side (sim::runSweep, runComparison).
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.h"
#include "mitigations/factory.h"
#include "sim/experiment.h"
#include "sim/workloads.h"

using namespace qprac;

int
main(int argc, char** argv)
{
    std::string workload_name = argc > 1 ? argv[1] : "429.mcf";
    int channels = argc > 2 ? std::atoi(argv[2]) : 2;
    if (channels < 1 || (channels & (channels - 1)) != 0) {
        std::fprintf(stderr,
                     "channels must be a power of two >= 1, got '%s'\n",
                     argv[2]);
        return 2;
    }

    const sim::Workload& workload = sim::findWorkload(workload_name);

    // One spec, looked up by name in the registry. The System invokes
    // this factory once per channel, with that channel's PRAC counters,
    // so every channel gets an independent QPRAC instance.
    mitigations::MitigationParams params;
    params.nbo = 32;
    sim::MitigationFactory factory =
        [params](dram::PracCounters* counters) {
            return mitigations::MitigationRegistry::instance().create(
                "qprac+proactive-ea", params, counters);
        };

    sim::ExperimentConfig cfg;
    cfg.channels = channels;
    cfg.mapping = dram::MappingScheme::RoRaBgBaCoCh; // line-interleaved

    sim::DesignSpec design;
    design.label = "qprac+proactive-ea";
    design.abo.enabled = true;
    design.factory = factory;

    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    for (int c = 0; c < cfg.num_cores; ++c)
        traces.push_back(
            sim::makeTrace(workload, c, cfg.insts_per_core, cfg.seed));
    sim::System system(sim::makeSystemConfig(design, cfg), design.factory,
                       std::move(traces));
    sim::SimResult r = system.run();

    std::printf("%s over %d channel(s), channel-striped mapping:\n\n",
                workload.name.c_str(), channels);
    Table t({"metric", "aggregate"});
    t.addRow({"IPC (sum over cores)", Table::num(r.ipc_sum, 3)});
    t.addRow({"activations", Table::num(r.acts, 0)});
    t.addRow({"alerts/tREFI", Table::num(r.alerts_per_trefi, 4)});
    t.print();

    if (channels > 1) {
        std::printf("\nper-channel split:\n");
        Table pc({"channel", "ACTs", "alerts", "RFM mitigations",
                  "proactive mitigations"});
        for (int c = 0; c < channels; ++c) {
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
