/**
 * @file
 * Golden tests for the qprac_sim CLI: the legacy flag surface must
 * stay bit-identical to the pre-scenario-API driver (outputs below
 * were captured from commit 76ee0a9), and the same run expressed as a
 * config file plus --set overrides must reproduce it exactly.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>

#include "common/json.h"
#include "sim/scenario.h"
#include "sim/scenario_cli.h"

using qprac::sim::runQpracSimCli;
using qprac::sim::ScenarioConfig;

namespace {

/** The goldens were captured with no QPRAC_* env overrides. */
void
clearHarnessEnv()
{
    unsetenv("QPRAC_INSTS");
    unsetenv("QPRAC_LLC_MB");
    unsetenv("QPRAC_THREADS");
    unsetenv("QPRAC_SEED");
    unsetenv("QPRAC_CSV_DIR");
}

std::string
run(const std::vector<std::string>& args, int expect_status = 0)
{
    std::string out;
    std::string err;
    int status = runQpracSimCli(args, &out, &err);
    EXPECT_EQ(status, expect_status) << err;
    return out;
}

std::string
writeTemp(const std::string& name, const std::string& text)
{
    std::string path = testing::TempDir() + name;
    std::ofstream f(path);
    f << text;
    return path;
}

// Captured from the pre-redesign qprac_sim (see file header).
const char* const kGoldenStats = R"QPGOLD(=== qprac_sim: qprac+proactive-ea on 450.soplex, 2 cores x 10000 insts, 1 channel (row-major) ===
metric                 value 
-----------------------------
cycles                 8861  
IPC (sum)              1.836 
RBMPKI                 15.44 
alerts/tREFI           0.0000
activations            315   
RFM mitigations        0     
proactive mitigations  0     
core0.cpu_cycles = 11077
core0.finish_cycles = 11077
core0.ipc = 0.902772
core0.loads = 2818
core0.retired = 10003
core0.stall_cycles = 8446
core0.stores = 695
core1.cpu_cycles = 11077
core1.finish_cycles = 10720
core1.ipc = 0.932836
core1.loads = 2931
core1.retired = 10395
core1.stall_cycles = 8353
core1.stores = 716
ctrl.alerts = 0
ctrl.policy_rfms = 0
ctrl.read_latency_sum = 115679
ctrl.reads_done = 490
ctrl.reads_enqueued = 502
ctrl.refs = 1
ctrl.rfms = 0
ctrl.row_hits = 490
ctrl.row_misses = 315
ctrl.writes_enqueued = 0
dram.acts = 315
dram.pres = 269
dram.reads = 490
dram.refs = 1
dram.rfms = 0
dram.writes = 0
llc.load_hits = 5247
llc.load_misses = 502
llc.loads = 5749
llc.mshr_merges = 0
llc.store_hits = 1295
llc.store_misses = 116
llc.stores = 1411
llc.writebacks = 0
mit.alerts = 0
mit.dropped_mitigations = 0
mit.proactive_mitigations = 0
mit.psq_evictions = 0
mit.psq_hits = 48
mit.psq_insertions = 243
mit.rfm_mitigations = 0
mit.victim_refreshes = 0
sim.alerts_per_trefi = 0
sim.cycles = 8861
sim.ipc_sum = 1.83561
sim.rbmpki = 15.4427
)QPGOLD";

const char* const kGoldenMultiChannel = R"QPGOLD(=== qprac_sim: qprac+proactive-ea on 429.mcf, 2 cores x 8000 insts, 2 channels (channel-striped) ===
metric                 value 
-----------------------------
cycles                 6139  
IPC (sum)              2.114 
RBMPKI                 29.97 
alerts/tREFI           0.0000
activations            481   
RFM mitigations        0     
proactive mitigations  0     
ch0.activations        256   
ch0.alerts             0     
ch1.activations        225   
ch1.alerts             0     
)QPGOLD";

const char* const kGoldenBaseline = R"QPGOLD(=== qprac_sim: qprac on 429.mcf, 1 cores x 6000 insts, 1 channel (row-major) ===
metric                  value 
------------------------------
cycles                  4827  
IPC (sum)               0.994 
RBMPKI                  29.50 
alerts/tREFI            0.0000
activations             177   
RFM mitigations         0     
proactive mitigations   0     
normalized performance  1.0000
)QPGOLD";

} // namespace

TEST(QpracSimCliGolden, LegacyFlagsWithStatsDump)
{
    clearHarnessEnv();
    EXPECT_EQ(run({"--workload", "450.soplex", "--insts", "10000",
                   "--cores", "2", "--nbo", "8", "--stats"}),
              kGoldenStats);
}

TEST(QpracSimCliGolden, LegacyMultiChannelRun)
{
    clearHarnessEnv();
    EXPECT_EQ(run({"--workload", "429.mcf", "--insts", "8000", "--cores",
                   "2", "--channels", "2", "--mapping",
                   "channel-striped"}),
              kGoldenMultiChannel);
}

TEST(QpracSimCliGolden, LegacyBaselineRun)
{
    clearHarnessEnv();
    EXPECT_EQ(run({"--insts", "6000", "--cores", "1", "--mitigation",
                   "qprac", "--backend", "heap", "--psq-size", "3",
                   "--baseline"}),
              kGoldenBaseline);
}

TEST(QpracSimCliGolden, ConfigFileReproducesLegacyRunExactly)
{
    clearHarnessEnv();
    std::string path = writeTemp("golden_baseline.ini",
                                 "# golden baseline run as a config\n"
                                 "[design]\n"
                                 "mitigation = qprac\n"
                                 "backend = heap\n"
                                 "psq_size = 3\n"
                                 "[run]\n"
                                 "insts = 6000\n"
                                 "cores = 1\n"
                                 "baseline = true\n");
    EXPECT_EQ(run({"--config", path}), kGoldenBaseline);
}

TEST(QpracSimCliGolden, SetOverridesReproduceLegacyRunExactly)
{
    clearHarnessEnv();
    std::string path =
        writeTemp("golden_sparse.ini", "insts = 6000\ncores = 1\n");
    // Later --set wins over both the file and earlier --set values.
    EXPECT_EQ(run({"--config", path, "--set", "mitigation=qprac",
                   "--set", "backend=linear", "--set", "backend=heap",
                   "--set", "psq_size=3", "--set", "baseline=true"}),
              kGoldenBaseline);
}

TEST(QpracSimCli, RejectsGarbageNumbersLoudly)
{
    clearHarnessEnv();
    std::string out;
    std::string err;
    // Pre-redesign these passed through atoi/atoll silently.
    EXPECT_EQ(runQpracSimCli({"--insts", "12abc"}, &out, &err), 2);
    EXPECT_NE(err.find("insts"), std::string::npos);
    err.clear();
    EXPECT_EQ(runQpracSimCli({"--psq-size", "-3"}, &out, &err), 2);
    EXPECT_NE(err.find("psq_size"), std::string::npos);
    err.clear();
    EXPECT_EQ(runQpracSimCli({"--channels", "3"}, &out, &err), 2);
    EXPECT_NE(err.find("power of two"), std::string::npos);
    err.clear();
    EXPECT_EQ(runQpracSimCli({"--set", "nonsense"}, &out, &err), 2);
    err.clear();
    EXPECT_EQ(runQpracSimCli({"--insts", "0"}, &out, &err), 2);
    err.clear();
    EXPECT_EQ(runQpracSimCli({"--sweep", "nbo=8,16", "--sweep",
                              "nbo=32", "--insts", "2000"},
                             &out, &err),
              2);
    EXPECT_NE(err.find("duplicate axis"), std::string::npos);
}

TEST(QpracSimCli, JsonRunIsValidAndCarriesAggregates)
{
    clearHarnessEnv();
    std::string json = run({"--insts", "5000", "--cores", "1", "--json"});
    EXPECT_TRUE(qprac::jsonValid(json)) << json;
    for (const char* key : {"\"scenario\"", "\"result\"", "\"cycles\"",
                            "\"ipc_sum\"", "\"rbmpki\"", "\"stats\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(QpracSimCli, SweepJsonEnumeratesCrossProduct)
{
    clearHarnessEnv();
    std::string json =
        run({"--insts", "4000", "--cores", "1", "--sweep",
             "psq_size=1:2", "--sweep", "nmit=1,2", "--json"});
    EXPECT_TRUE(qprac::jsonValid(json)) << json;
    EXPECT_NE(json.find("\"sweep\""), std::string::npos);
    // 2 x 2 cross product -> 4 result objects.
    std::size_t count = 0;
    for (std::size_t at = json.find("\"overrides\"");
         at != std::string::npos;
         at = json.find("\"overrides\"", at + 1))
        ++count;
    EXPECT_EQ(count, 4u);
}

TEST(QpracSimCli, TraceFlagOutranksWorkloadFlagLikeLegacyDriver)
{
    clearHarnessEnv();
    // The pre-redesign driver always preferred --trace when both flags
    // were given, regardless of order.
    std::string trace = writeTemp("cli_prec.trace",
                                  "1 0x1000\n2 0x2000 0x3000\n");
    std::string out = run({"--trace", trace, "--workload", "429.mcf",
                           "--insts", "2000", "--cores", "1"});
    EXPECT_NE(out.find(trace), std::string::npos) << out;
    EXPECT_EQ(out.find("429.mcf"), std::string::npos) << out;
    // --set source=... stays strictly positional (it is the new,
    // explicitly-ordered surface).
    out = run({"--trace", trace, "--set", "source=workload:429.mcf",
               "--insts", "2000", "--cores", "1"});
    EXPECT_NE(out.find("429.mcf"), std::string::npos) << out;
}

TEST(QpracSimCli, MixedKindSweepReportsBothColumnSets)
{
    clearHarnessEnv();
    std::string out =
        run({"--insts", "3000", "--cores", "1", "--sweep",
             "source=429.mcf,attack:wave"});
    // Mixed sweeps label each row and show both metric families.
    EXPECT_NE(out.find("kind"), std::string::npos) << out;
    EXPECT_NE(out.find("cycles"), std::string::npos) << out;
    EXPECT_NE(out.find("attack.max_count"), std::string::npos) << out;
}

TEST(QpracSimCli, AttackScenarioRunsFromCli)
{
    clearHarnessEnv();
    std::string out =
        run({"--set", "source=attack:fill-escape", "--nmit", "1"});
    EXPECT_NE(out.find("attack.target_unmitigated_acts"),
              std::string::npos);
    std::string json =
        run({"--set", "source=attack:wave", "--json"});
    EXPECT_TRUE(qprac::jsonValid(json)) << json;
    EXPECT_NE(json.find("\"kind\":\"attack\""), std::string::npos);
}

TEST(QpracSimCli, ThreadsFlagNeverChangesOutput)
{
    clearHarnessEnv();
    // --threads selects the execution engine's parallelism only; the
    // rendered report (cycles, IPC, per-channel stats) is bit-identical
    // at every value, including the "auto" spelling.
    std::vector<std::string> base = {"--workload", "450.soplex",
                                     "--insts",    "5000",
                                     "--cores",    "2",
                                     "--channels", "2",
                                     "--mapping",  "channel-striped",
                                     "--stats"};
    auto with_threads = [&](const std::string& t) {
        std::vector<std::string> args = base;
        args.insert(args.end(), {"--threads", t});
        return run(args);
    };
    std::string serial = with_threads("1");
    EXPECT_NE(serial.find("ch0.activations"), std::string::npos);
    EXPECT_EQ(serial, with_threads("2"));
    EXPECT_EQ(serial, with_threads("4"));
    EXPECT_EQ(serial, with_threads("auto"));
}

TEST(QpracSimCli, ThreadsFlagRejectsGarbage)
{
    clearHarnessEnv();
    run({"--threads", "zippy"}, 2);
    run({"--threads", "-3"}, 2);
}

TEST(QpracSimCli, HashViewReportsPointsWithoutSimulating)
{
    clearHarnessEnv();
    // --hash resolves and hashes; nothing runs, so even a huge insts
    // value returns instantly.
    std::string out = run({"--workload", "429.mcf", "--insts",
                           "900000000", "--cores", "1", "--sweep",
                           "nmit=1,2", "--hash"});
    EXPECT_NE(out.find("=== qprac_sim hash: 2 points ==="),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("hash"), std::string::npos);
    // Without --cache-dir the cache column is a dash.
    EXPECT_NE(out.find("-"), std::string::npos);
    // --dry-run is the same view.
    EXPECT_EQ(out, run({"--workload", "429.mcf", "--insts", "900000000",
                        "--cores", "1", "--sweep", "nmit=1,2",
                        "--dry-run"}));
}

TEST(QpracSimCli, CacheDirMakesRerunsByteIdenticalAndHashesHit)
{
    clearHarnessEnv();
    std::string dir = testing::TempDir() + "cli_cache";
    std::filesystem::remove_all(dir);
    std::vector<std::string> base = {"--workload", "429.mcf", "--insts",
                                     "3000",       "--cores", "1",
                                     "--cache-dir", dir};

    // Single runs consult the cache: the warm report must reproduce
    // the cold one byte for byte (it is derived from the cached result
    // document alone).
    auto with_stats = [&](std::vector<std::string> args) {
        args.push_back("--stats");
        return run(args);
    };
    std::string cold = with_stats(base);
    std::string warm = with_stats(base);
    EXPECT_EQ(cold, warm);

    // And the hash view now reports a hit for the same scenario.
    std::vector<std::string> hash_args = base;
    hash_args.push_back("--hash");
    std::string view = run(hash_args);
    EXPECT_NE(view.find("hit"), std::string::npos) << view;
    EXPECT_NE(view.find("cache dir: " + dir), std::string::npos) << view;
}

TEST(QpracSimCli, CachedSweepJsonMarksHitsAndCountsThem)
{
    clearHarnessEnv();
    std::string dir = testing::TempDir() + "cli_sweep_cache";
    std::filesystem::remove_all(dir);
    std::vector<std::string> args = {"--workload", "429.mcf", "--insts",
                                     "3000",       "--cores", "1",
                                     "--sweep",    "nmit=1,2",
                                     "--cache-dir", dir,     "--json"};
    std::string cold = run(args);
    EXPECT_TRUE(qprac::jsonValid(cold)) << cold;
    EXPECT_NE(cold.find("\"cached\":false"), std::string::npos) << cold;
    EXPECT_NE(cold.find("\"hits\":0"), std::string::npos) << cold;
    EXPECT_NE(cold.find("\"computed\":2"), std::string::npos) << cold;

    std::string warm = run(args);
    EXPECT_TRUE(qprac::jsonValid(warm)) << warm;
    EXPECT_NE(warm.find("\"cached\":true"), std::string::npos) << warm;
    EXPECT_NE(warm.find("\"hits\":2"), std::string::npos) << warm;
    EXPECT_NE(warm.find("\"computed\":0"), std::string::npos) << warm;

    // The result documents themselves are byte-identical cold vs warm:
    // everything that may differ (timing, cached flags, counters)
    // lives outside the "result" objects.
    auto results_only = [](const std::string& json) {
        std::vector<std::string> docs;
        for (std::size_t at = json.find("\"result\":");
             at != std::string::npos;
             at = json.find("\"result\":", at + 1)) {
            std::size_t end = json.find(",\"cached\":", at);
            EXPECT_NE(end, std::string::npos);
            docs.push_back(json.substr(at, end - at));
        }
        return docs;
    };
    EXPECT_EQ(results_only(cold), results_only(warm));
    EXPECT_EQ(results_only(cold).size(), 2u);
}

TEST(QpracSimCli, HelpNamesEveryKeyAndItsTraceExampleParses)
{
    const std::string help = run({"--help"});
    for (const auto& key : ScenarioConfig::keys())
        EXPECT_TRUE(help.find("\n  " + key + " ") != std::string::npos ||
                    help.find("\n  " + key + "*") != std::string::npos)
            << key << " missing from --help:\n" << help;
    // The trace row's example is a value the trace key accepts, on
    // the config surface and on the command line.
    const std::size_t at = help.find("e.g. trace=");
    ASSERT_NE(at, std::string::npos) << help;
    const std::size_t start = at + std::string("e.g. trace=").size();
    const std::string example =
        help.substr(start, help.find_first_of(" \n", start) - start);
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("trace", example, &err)) << example << ": " << err;
    run({"--set", "trace=" + example, "--hash"});
}

TEST(QpracSimCli, LegacyFlagsHashLikeTheirSetForm)
{
    clearHarnessEnv();
    // One non-default value per legacy flag in the key table; the map
    // must cover exactly the flagged rows, so a new flag cannot skip.
    const std::map<std::string, std::string> values = {
        {"mitigation", "moat"}, {"backend", "coalescing"},
        {"psq_size", "3"},      {"nbo", "16"},
        {"nmit", "2"},          {"recovery", "bank-isolated"},
        {"channels", "2"},      {"ranks", "1"},
        {"mapping", "channel-striped"},
        {"insts", "12345"},     {"cores", "3"},
        {"seed", "7"},          {"threads", "3"}};
    const std::string base = run({"--hash"});
    std::size_t flagged = 0;
    for (const auto& k : qprac::sim::scenarioKeyTable()) {
        if (!k.flag)
            continue;
        ++flagged;
        const auto it = values.find(k.name);
        ASSERT_NE(it, values.end()) << k.flag << " has no test value";
        const std::string by_flag = run({k.flag, it->second, "--hash"});
        EXPECT_EQ(by_flag,
                  run({"--set", std::string(k.name) + "=" + it->second,
                       "--hash"}))
            << k.flag;
        if (!k.neutral) {
            EXPECT_NE(by_flag, base) << k.flag << " did not move the hash";
        }
    }
    EXPECT_EQ(flagged, values.size());
}
