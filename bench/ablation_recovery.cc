/**
 * @file
 * Ablation — recovery policies: QPRAC's channel-stall ABO vs
 * PRACtical-style isolated recovery (ctrl/recovery), on both axes the
 * policies trade against each other.
 *
 *  - Performance: recovery x channels over an alert-heavy workload
 *    (the checked-in base pins NBO low so recovery blocking dominates).
 *    Channel-stall pays the whole channel per alert; bank isolation
 *    recovers most of that IPC.
 *
 *  - Leakage: the same recovery axis over attack:rfm-probe (the
 *    cross-bank timing channel of "When Mitigations Backfire") and
 *    attack:recovery-dos (PRACtical's worst-case alert storm). The
 *    wider the blocking domain, the larger the co-located victim's
 *    excess latency — the exact opposite ordering of the IPC column.
 *
 * Everything derives from examples/scenarios/ablation_recovery.ini
 * plus the sweep specs below — no bespoke loops.
 */
#include "bench_common.h"

#include <map>

using namespace qprac;
using sim::ScenarioConfig;
using sim::SweepPointResult;
using sim::SweepSpec;

namespace {

constexpr const char* kRecoveryAxis =
    "recovery=channel-stall,bank-isolated";

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Ablation",
                  "recovery policies: channel-stall vs bank isolation "
                  "— IPC and timing-channel leakage");

    // --cache-dir / QPRAC_CACHE_DIR: reuse already-computed points so
    // an interrupted or repeated figure run is (mostly) free.
    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));

    ScenarioConfig base = bench::loadBaseScenario(
        "../examples/scenarios/ablation_recovery.ini",
        {{"source", "workload:510.parest_r"},
         {"nbo", "8"},
         {"insts", "30000"},
         {"cores", "2"},
         {"mapping", "channel-striped"},
         {"attack_cycles", "200000"}});

    // --- Performance: recovery x channels ------------------------------
    auto perf = bench::runSweepAxes(base, {kRecoveryAxis, "channels=1,2"},
                                    &cache);

    // channel-stall reference IPC per channel count.
    std::map<std::string, double> stall_ipc;
    for (const auto& p : perf)
        if (bench::overrideValue(p, "recovery") == "channel-stall")
            stall_ipc[bench::overrideValue(p, "channels")] =
                p.result.sim.ipc_sum;

    bench::ResultSink perf_csv(
        "ablation_recovery",
        {"recovery", "channels", "ipc_sum", "ipc_vs_channel_stall",
         "alerts_per_trefi", "cycles"});
    Table pt({"recovery", "channels", "IPC (sum)", "vs channel-stall",
              "alerts/tREFI"});
    double max_ipc_gain = 0.0;
    for (const auto& p : perf) {
        const std::string ch = bench::overrideValue(p, "channels");
        const double rel = stall_ipc[ch] > 0
                               ? p.result.sim.ipc_sum / stall_ipc[ch]
                               : 0.0;
        if (bench::overrideValue(p, "recovery") == "bank-isolated")
            max_ipc_gain = std::max(max_ipc_gain, rel - 1.0);
        perf_csv.addRow({bench::overrideValue(p, "recovery"), ch,
                         Table::num(p.result.sim.ipc_sum, 4),
                         Table::num(rel, 4),
                         Table::num(p.result.sim.alerts_per_trefi, 4),
                         Table::num(double(p.result.sim.cycles), 0)});
        pt.addRow({bench::overrideValue(p, "recovery"), ch,
                   Table::num(p.result.sim.ipc_sum, 4),
                   Table::num(rel, 4),
                   Table::num(p.result.sim.alerts_per_trefi, 4)});
    }
    pt.print();

    // --- Leakage: the rfm-probe timing channel -------------------------
    ScenarioConfig probe = base;
    std::string set_err;
    if (!probe.set("source", "attack:rfm-probe", &set_err))
        fatal(strCat("bad probe scenario: ", set_err));
    auto leak = bench::runSweepAxes(probe, {kRecoveryAxis, "channels=2,4"},
                                    &cache);

    bench::ResultSink leak_csv(
        "ablation_recovery_leakage",
        {"recovery", "channels", "leakage_signal", "near_excess",
         "far_excess", "alerts"});
    Table lt({"recovery", "channels", "leakage signal (cyc)",
              "near excess", "far excess", "alerts"});
    std::map<std::string, double> stall_leak, isolated_leak;
    for (const auto& p : leak) {
        const auto& s = p.result.stats;
        const std::string rec = bench::overrideValue(p, "recovery");
        const std::string ch = bench::overrideValue(p, "channels");
        const double sig = s.get("attack.leakage_signal");
        if (rec == "channel-stall")
            stall_leak[ch] = sig;
        if (rec == "bank-isolated")
            isolated_leak[ch] = sig;
        leak_csv.addRow({rec, ch, Table::num(sig, 2),
                         Table::num(s.get("attack.near_excess"), 2),
                         Table::num(s.get("attack.far_excess"), 2),
                         Table::num(s.get("attack.alerts"), 0)});
        lt.addRow({rec, ch, Table::num(sig, 2),
                   Table::num(s.get("attack.near_excess"), 2),
                   Table::num(s.get("attack.far_excess"), 2),
                   Table::num(s.get("attack.alerts"), 0)});
    }
    lt.print();

    // --- DoS: victim slowdown under an alert storm ---------------------
    ScenarioConfig dos = base;
    if (!dos.set("source", "attack:recovery-dos", &set_err))
        fatal(strCat("bad dos scenario: ", set_err));
    auto storm = bench::runSweepAxes(dos, {kRecoveryAxis, "channels=1,2"},
                                     &cache);

    bench::ResultSink dos_csv(
        "ablation_recovery_dos",
        {"recovery", "channels", "victim_slowdown",
         "peak_concurrent_recoveries", "alerts"});
    Table dt({"recovery", "channels", "victim slowdown",
              "peak concurrent", "alerts"});
    for (const auto& p : storm) {
        const auto& s = p.result.stats;
        const std::vector<std::string> row = {
            bench::overrideValue(p, "recovery"),
            bench::overrideValue(p, "channels"),
            Table::num(s.get("attack.victim_slowdown"), 3),
            Table::num(s.get("attack.peak_concurrent_recoveries"), 0),
            Table::num(s.get("attack.alerts"), 0)};
        dos_csv.addRow(row);
        dt.addRow(row);
    }
    dt.print();

    std::printf(
        "\nTakeaway: isolating recovery to the alerting bank recovers "
        "up to %.1f%% IPC over channel-stall on the alert-heavy "
        "workload, and shrinks the rfm-probe timing channel from "
        "%.0f/%.0f cycles (2/4 channels) to %.0f/%.0f — the "
        "performance and leakage orderings are the same ordering, "
        "which is exactly the \"Mitigations Backfire\" trade-off.\n",
        100.0 * max_ipc_gain, stall_leak["2"], stall_leak["4"],
        isolated_leak["2"], isolated_leak["4"]);
    if (cache.enabled()) {
        const auto c = cache.counters();
        std::printf("cache: %zu hit, %zu stored; dir %s\n", c.hits,
                    c.stored, cache.dir().c_str());
    }
    return 0;
}
