/**
 * @file
 * Ablation — channel scaling: weighted speedup and alerts/tREFI for
 * QPRAC vs MOAT over 1/2/4 independent DRAM channels, plus the engine
 * scaling matrix over channels x skip x threads (threads=1 runs the
 * alternating schedule, more threads the pipelined one), emitted to
 * BENCH_engine.json together with a dense-vs-next-event skip
 * efficiency measurement on an idle-heavy workload.
 *
 * The whole figure is driven by the checked-in scenario file
 * examples/scenarios/ablation_channels.ini and two sweep specs — no
 * bespoke loops: a mitigation=none sweep over channels x workload
 * produces one shared insecure baseline per cell, and the main
 * channels x mitigation x workload cross-product is normalized
 * against it, so norm_perf isolates the mitigation cost at that
 * channel count without re-running identical baselines per design.
 * The scaling section reruns the 4-channel point at threads=1/2/4 and
 * records the wall-clock speedup runSweep measured for each point;
 * simulation results are bit-identical across thread counts by
 * construction, so the speedup column is the only thing that moves.
 */
#include "bench_common.h"

#include <cstdlib>
#include <fstream>
#include <map>

using namespace qprac;
using sim::ScenarioConfig;
using sim::SweepPointResult;
using sim::SweepSpec;

using bench::overrideValue;

int
main(int argc, char** argv)
{
    bench::banner("Ablation",
                  "channel scaling: QPRAC vs MOAT over 1/2/4 channels, "
                  "engine threads x skip scaling matrix at 4/8 channels");

    // --cache-dir / QPRAC_CACHE_DIR: caches the baseline and main
    // sweeps only. The engine-scaling matrix below must never be
    // cached: its rows differ only in threads/skip,
    // which are result-neutral and so excluded from the scenario hash —
    // all rows share one hash, and the point of the matrix is wall
    // clock, which a cache hit falsifies.
    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));

    ScenarioConfig base = bench::loadBaseScenario(
        "../examples/scenarios/ablation_channels.ini",
        {{"source", "workload:429.mcf"},
         {"mitigation", "qprac+proactive-ea"}});

    const std::vector<std::string> channel_values = {"1", "2", "4"};
    const std::vector<std::string> designs = {"qprac+proactive-ea",
                                              "moat"};
    const std::vector<std::string> sources = {
        "workload:510.parest_r", "workload:429.mcf", "workload:470.lbm",
        "workload:tpcc64"};

    std::string err;
    std::string srcs;
    for (const auto& s : sources)
        srcs += (srcs.empty() ? "" : ",") + s;

    // One insecure baseline per (channels, workload) cell, shared by
    // both designs (runComparison's base_results sharing, in sweep
    // form).
    ScenarioConfig insecure = base;
    std::string set_err;
    if (!insecure.set("mitigation", "none", &set_err))
        fatal(strCat("bad baseline scenario: ", set_err));
    auto base_points = bench::runSweepAxes(
        insecure, {"channels=1,2,4", "source=" + srcs}, &cache);
    std::map<std::string, double> base_ipc; // "channels|source" -> IPC
    for (const auto& p : base_points)
        base_ipc[overrideValue(p, "channels") + "|" +
                 overrideValue(p, "source")] = p.result.sim.ipc_sum;

    auto points = bench::runSweepAxes(
        base, {"channels=1,2,4",
               "mitigation=" + designs[0] + "," + designs[1],
               "source=" + srcs},
        &cache);

    auto norm_perf = [&](const SweepPointResult& p) {
        double b = base_ipc.at(overrideValue(p, "channels") + "|" +
                               overrideValue(p, "source"));
        return b > 0 ? p.result.sim.ipc_sum / b : 0.0;
    };

    bench::ResultSink csv("ablation_channels",
                          {"channels", "design", "workload", "norm_perf",
                           "alerts_per_trefi", "rbmpki"});
    for (const auto& p : points)
        csv.addRow({overrideValue(p, "channels"),
                    overrideValue(p, "mitigation"),
                    p.result.config.sourceName(),
                    Table::num(norm_perf(p), 4),
                    Table::num(p.result.sim.alerts_per_trefi, 4),
                    Table::num(p.result.sim.rbmpki, 2)});

    Table t({"channels", "design", "weighted speedup", "slowdown %",
             "alerts/tREFI"});
    for (const auto& ch : channel_values) {
        for (const auto& design : designs) {
            std::vector<double> perf;
            std::vector<double> alerts;
            for (const auto& p : points) {
                if (overrideValue(p, "channels") != ch ||
                    overrideValue(p, "mitigation") != design)
                    continue;
                perf.push_back(norm_perf(p));
                alerts.push_back(p.result.sim.alerts_per_trefi);
            }
            bench::SeriesSummary s = bench::summarizeSeries(perf);
            t.addRow({ch, design, Table::num(s.geomean, 4),
                      Table::num(bench::slowdownPct(s.geomean), 2),
                      Table::num(mean(alerts), 4)});
        }
    }
    t.print();

    // --- Engine scaling: channels x skip x threads --------------------
    // One row per (channels, skip, threads). threads=1 runs the
    // alternating schedule; more threads get a worker pool and with it
    // the pipelined schedule (sim/system.h). skip toggles next-event
    // cycle skipping in the shard loops. Every row is asserted
    // bit-identical to the dense threads=1 reference (skipping and
    // threading are pure engine optimizations), so the only thing that
    // moves between rows is the wall clock. Speedups are vs the dense
    // threads=1 row of the same channel count. The whole matrix is
    // written to BENCH_engine.json (the checked-in copy records a
    // reference machine; QPRAC_BENCH_ENGINE_OUT moves it).
    bench::ResultSink scale_csv(
        "ablation_channels_scaling",
        {"channels", "schedule", "skip", "threads", "wall_ms",
         "sim_cycles_per_sec", "speedup_vs_t1", "cycles", "ipc_sum"});
    Table st({"channels", "schedule", "skip", "threads", "wall ms",
              "Mcycles/s", "speedup vs t1"});

    JsonWriter bench_json;
    bench_json.beginObject();
    bench_json.key("bench").value("engine_scaling");
    bench_json.key("hardware_threads").value(
        static_cast<std::uint64_t>(hardwareThreads()));
    bench_json.key("rows").beginArray();

    // threads=1 dense vs skipping at 8 channels: the skip-bar pair.
    // Channel striping leaves each 8-channel shard idle for the vast
    // majority of its cycles, so this is the idle-heavy point where
    // next-event skipping must pay (QPRAC_ASSERT_SKIP below).
    double wall_8ch_dense = 0.0, wall_8ch_skip = 0.0;
    // The 8-channel point and its identity reference, for the gates.
    ScenarioConfig gate_cfg;
    std::string gate_ref;
    for (const char* ch : {"4", "8"}) {
        ScenarioConfig scaling = base;
        bool ok = scaling.set("baseline", "false", &set_err) &&
                  scaling.set("channels", ch, &set_err) &&
                  scaling.set("mapping", "channel-striped", &set_err) &&
                  scaling.set("source", "workload:429.mcf", &set_err);
        if (!ok)
            fatal(strCat("bad scaling scenario: ", set_err));

        double wall_t1 = 0.0;
        std::string json_ref; // dense threads=1 identity reference
        for (const char* skip : {"off", "on"}) {
            if (!scaling.set("skip", skip, &set_err))
                fatal(strCat("bad skip override: ", set_err));
            const bool dense = std::string(skip) == "off";
            for (int threads : {1, 2, 4}) {
                scaling.threads = threads;
                auto run = sim::runSweep(scaling, SweepSpec{}, &err);
                if (run.size() != 1)
                    fatal(strCat("scaling run failed: ", err));
                const SweepPointResult& p = run.front();
                const std::string json = p.result.resultJson();
                if (json_ref.empty())
                    json_ref = json;
                else if (json != json_ref)
                    fatal(strCat("engine diverged at skip=", skip,
                                 " threads=", threads));
                if (dense && threads == 1)
                    wall_t1 = p.wall_ms;
                if (std::string(ch) == "8" && threads == 1)
                    (dense ? wall_8ch_dense : wall_8ch_skip) = p.wall_ms;
                const char* schedule =
                    sim::enginePoolDegree(threads, scaling.channels) > 1
                        ? "pipelined"
                        : "alternating";
                const double speedup =
                    p.wall_ms > 0 ? wall_t1 / p.wall_ms : 0.0;
                std::vector<std::string> row = {
                    ch, schedule, skip, Table::num(threads, 0),
                    Table::num(p.wall_ms, 1),
                    Table::num(p.sim_cycles_per_sec / 1e6, 2),
                    Table::num(speedup, 2)};
                st.addRow(row);
                row.push_back(Table::num(double(p.result.sim.cycles), 0));
                row.push_back(Table::num(p.result.sim.ipc_sum, 3));
                scale_csv.addRow(row);
                bench_json.beginObject();
                bench_json.key("channels").value(ch);
                bench_json.key("schedule").value(schedule);
                bench_json.key("skip").value(skip);
                bench_json.key("threads").value(
                    static_cast<std::uint64_t>(threads));
                bench_json.key("wall_ms").value(p.wall_ms);
                bench_json.key("sim_cycles_per_sec")
                    .value(p.sim_cycles_per_sec);
                bench_json.key("speedup_vs_t1").value(speedup);
                bench_json.key("cycles_skipped")
                    .value(p.result.sim.skip.cycles_skipped);
                bench_json.endObject();
            }
        }
        if (std::string(ch) == "8") {
            gate_cfg = scaling;
            gate_ref = json_ref;
        }
    }
    st.print();
    bench_json.endArray();

    // --- Skip efficiency: dense vs next-event on an idle-heavy point ---
    // 444.namd has ~0.3 LLC misses/kilo-inst, so the DRAM shards spend
    // almost every cycle with empty queues — this measures how much of
    // the shard clock the horizons prove dead (and asserts byte
    // identity once more). Its end-to-end ratio is Amdahl-capped by
    // the serial core/LLC phase, so the QPRAC_ASSERT_SKIP bar below
    // uses the matrix's 8-channel shard-bound rows instead.
    const double skip_ratio_8ch =
        wall_8ch_skip > 0 ? wall_8ch_dense / wall_8ch_skip : 0.0;
    double namd_ratio = 0.0;
    {
        ScenarioConfig idle = base;
        bool ok = idle.set("baseline", "false", &set_err) &&
                  idle.set("channels", "4", &set_err) &&
                  idle.set("mapping", "channel-striped", &set_err) &&
                  idle.set("source", "workload:444.namd", &set_err);
        if (!ok)
            fatal(strCat("bad idle scenario: ", set_err));
        idle.threads = 1;
        double cps[2] = {0, 0};
        std::string json_dense;
        std::uint64_t skipped = 0, shard_cycles = 0;
        for (int on = 0; on < 2; ++on) {
            if (!idle.set("skip", on ? "on" : "off", &set_err))
                fatal(strCat("bad skip override: ", set_err));
            auto run = sim::runSweep(idle, SweepSpec{}, &err);
            if (run.size() != 1)
                fatal(strCat("idle run failed: ", err));
            const SweepPointResult& p = run.front();
            if (on == 0) {
                json_dense = p.result.resultJson();
            } else if (p.result.resultJson() != json_dense) {
                fatal("skip=on diverged from dense on idle workload");
            }
            cps[on] = p.sim_cycles_per_sec;
            if (on) {
                skipped = p.result.sim.skip.cycles_skipped;
                shard_cycles = p.result.sim.cycles * 4;
            }
        }
        namd_ratio = cps[0] > 0 ? cps[1] / cps[0] : 0.0;
        const double pct =
            shard_cycles > 0 ? 100.0 * double(skipped) / double(shard_cycles)
                             : 0.0;
        std::printf("\nskip efficiency (444.namd, 4ch, threads=1): "
                    "%.1f%% of shard cycles skipped, %.2fx sim-cycles/sec "
                    "vs dense end to end\n"
                    "skip efficiency (429.mcf, 8ch, threads=1): "
                    "%.2fx vs dense\n",
                    pct, namd_ratio, skip_ratio_8ch);
        bench_json.key("skip_bench").beginObject();
        bench_json.key("source").value("workload:444.namd");
        bench_json.key("channels").value(std::uint64_t{4});
        bench_json.key("cycles_skipped").value(skipped);
        bench_json.key("shard_cycles").value(shard_cycles);
        bench_json.key("dense_cycles_per_sec").value(cps[0]);
        bench_json.key("skip_cycles_per_sec").value(cps[1]);
        bench_json.key("speedup").value(namd_ratio);
        bench_json.key("speedup_8ch_t1").value(skip_ratio_8ch);
        bench_json.endObject();
    }

    bench_json.endObject();
    const char* out_env = std::getenv("QPRAC_BENCH_ENGINE_OUT");
    const std::string out_path = out_env ? out_env : "BENCH_engine.json";
    {
        std::ofstream out(out_path);
        if (out)
            out << bench_json.str() << "\n";
        else
            std::printf("note: could not write %s\n", out_path.c_str());
    }

    // CI gate rows at 8 channels: threads=1 dense against threads=1
    // skipping (QPRAC_ASSERT_SKIP) and against threads=4 dense
    // (QPRAC_ASSERT_SCALING; dense rows give each shard enough work per
    // epoch for threads to pay). Each gated row is timed three times,
    // the sides alternating, every run identity-checked, and the gates
    // compare best against best: one sample per side let a single
    // descheduled run fail a bar on host noise alone.
    const bool gate_skip = std::getenv("QPRAC_ASSERT_SKIP") != nullptr;
    const bool gate_scaling =
        std::getenv("QPRAC_ASSERT_SCALING") != nullptr;
    double best_dense = 0.0, best_skip = 0.0, best_t4 = 0.0;
    auto timeGateRow = [&](const char* skip, int threads, double* best) {
        if (!gate_cfg.set("skip", skip, &set_err))
            fatal(strCat("bad skip override: ", set_err));
        gate_cfg.threads = threads;
        auto run = sim::runSweep(gate_cfg, SweepSpec{}, &err);
        if (run.size() != 1)
            fatal(strCat("gate run failed: ", err));
        if (run.front().result.resultJson() != gate_ref)
            fatal(strCat("engine diverged at gate row skip=", skip,
                         " threads=", threads));
        if (*best == 0.0 || run.front().wall_ms < *best)
            *best = run.front().wall_ms;
    };
    for (int rep = 0; (gate_skip || gate_scaling) && rep < 3; ++rep) {
        timeGateRow("off", 1, &best_dense);
        if (gate_skip)
            timeGateRow("on", 1, &best_skip);
        if (gate_scaling)
            timeGateRow("off", 4, &best_t4);
    }

    // CI smoke hook: on a multi-core runner the pipelined engine at 4
    // threads must clearly beat the alternating engine at 1 thread on
    // the dense 8-channel point (generous 1.5x bar; scaling is machine
    // noise on fewer than 4 hardware threads, so the assert is opt-in
    // and self-skipping).
    if (gate_scaling) {
        if (hardwareThreads() < 4) {
            std::printf("scaling assert skipped: only %d hardware "
                        "threads\n",
                        hardwareThreads());
        } else {
            const double ratio =
                best_t4 > 0 ? best_dense / best_t4 : 0.0;
            std::printf("scaling assert: 4t vs 1t at 8 channels, "
                        "skip=off, best of 3 = %.2fx\n",
                        ratio);
            if (ratio < 1.5)
                fatal(strCat("engine thread scaling below bar: ",
                             Table::num(ratio, 2), "x < 1.5x"));
        }
    }

    // CI smoke hook: next-event skipping must clearly pay for itself on
    // the idle-heavy 8-channel point (each striped shard idles through
    // the vast majority of its cycles) — >= 2x wall clock over dense
    // ticking, single-threaded on the same box, so no core-count
    // self-skip is needed.
    if (gate_skip) {
        const double ratio = best_skip > 0 ? best_dense / best_skip : 0.0;
        std::printf("skip assert: next-event vs dense at 8 channels, "
                    "best of 3 = %.2fx\n",
                    ratio);
        if (ratio < 2.0)
            fatal(strCat("cycle skipping below bar: ",
                         Table::num(ratio, 2), "x < 2x"));
    }

    std::printf(
        "\nTakeaway: sharding the memory system across channels spreads "
        "activations, so per-bank PRAC counts grow more slowly and both "
        "designs alert less; QPRAC's slowdown stays near zero at every "
        "channel count. The engine matrix shows the pipelined overlap "
        "plus the next-event cycle skipping: identical "
        "simulation output to dense serial ticking at every row, wall clock "
        "bounded by the physical core count (%d here), full numbers in "
        "%s.\n",
        hardwareThreads(), out_path.c_str());
    return 0;
}
