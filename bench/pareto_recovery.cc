/**
 * @file
 * The recovery Pareto frontier: timing-channel leakage vs delivered
 * IPC over the (recovery x nbo x nmit x channels) grid — 16
 * configurations, each simulated twice (once under the workload for
 * IPC, once under attack:rfm-probe for the leakage signal), joined on
 * the grid key and charted as a frontier: a point is Pareto-optimal
 * when no other point both performs at least as well and leaks at most
 * as much.
 *
 * The grid is also the experiment service's showcase: the whole thing
 * runs cold through the content-addressed result cache, then again
 * warm, asserts every warm result is byte-identical to its cold
 * counterpart, and reports the speedup. QPRAC_ASSERT_CACHE=1 turns the
 * >= 10x warm-speedup expectation into a hard failure for CI.
 *
 * Everything derives from examples/scenarios/pareto_recovery.ini plus
 * the axes below. Results go to pareto_recovery.{csv,json} (ResultSink)
 * and the frontier document to BENCH_pareto.json
 * (QPRAC_BENCH_PARETO_OUT moves it; the checked-in copy records a
 * reference machine).
 */
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <map>

using namespace qprac;
using sim::ScenarioConfig;
using sim::SweepCounters;
using sim::SweepPointResult;

using bench::overrideValue;

namespace {

const std::vector<std::string> kAxes = {
    "recovery=channel-stall,bank-isolated",
    "nbo=4,8",
    "nmit=1,2",
    "channels=1,2",
};

constexpr const char* kAxisKeys[] = {"recovery", "nbo", "nmit",
                                     "channels"};

/** The grid key a perf point and its leakage twin share. */
std::string
gridKey(const SweepPointResult& p)
{
    std::string key;
    for (const char* axis : kAxisKeys)
        key += overrideValue(p, axis) + "|";
    return key;
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Pareto",
                  "recovery frontier: leakage vs IPC over recovery x "
                  "nbo x nmit x channels, cold vs warm through the "
                  "result cache");

    // The cache is the point of this bench, so unlike the other
    // figures it is always on: --cache-dir / QPRAC_CACHE_DIR, default
    // ./pareto_cache.
    std::string cache_dir = bench::cacheDirFromArgs(argc, argv);
    if (cache_dir.empty())
        cache_dir = "pareto_cache";
    sim::ResultCache cache(cache_dir);
    if (!cache.enabled())
        fatal(strCat("cannot use cache dir '", cache_dir, "'"));

    ScenarioConfig base = bench::loadBaseScenario(
        "../examples/scenarios/pareto_recovery.ini",
        {{"source", "workload:510.parest_r"},
         {"nbo", "8"},
         {"insts", "30000"},
         {"cores", "2"},
         {"mapping", "channel-striped"},
         {"attack_cycles", "200000"}});

    // The cold pass runs with next-event cycle skipping on, explicitly:
    // skip is result-neutral and hash-excluded, so the sidecars the
    // skipping run writes (and verifies against, byte for byte, in the
    // warm pass below) are the same entries a dense pre-skip cache
    // holds — PR 7 caches stay valid and the identity asserts prove it.
    std::string set_err;
    if (!base.set("skip", "on", &set_err))
        fatal(strCat("bad skip override: ", set_err));

    ScenarioConfig probe = base;
    if (!probe.set("source", "attack:rfm-probe", &set_err))
        fatal(strCat("bad probe scenario: ", set_err));

    // --- Cold pass (computes whatever the cache can't answer) ----------
    SweepCounters perf_cold, leak_cold;
    const double cold_start = nowMs();
    auto perf = bench::runSweepAxes(base, kAxes, &cache, &perf_cold);
    auto leak = bench::runSweepAxes(probe, kAxes, &cache, &leak_cold);
    const double cold_ms = nowMs() - cold_start;

    // --- Warm pass: every point must come back from the cache, -------
    // byte-identical to what the cold pass produced.
    SweepCounters perf_warm, leak_warm;
    const double warm_start = nowMs();
    auto perf2 = bench::runSweepAxes(base, kAxes, &cache, &perf_warm);
    auto leak2 = bench::runSweepAxes(probe, kAxes, &cache, &leak_warm);
    const double warm_ms = nowMs() - warm_start;

    if (perf_warm.hits != perf_warm.points ||
        leak_warm.hits != leak_warm.points)
        fatal("warm pass missed the cache");
    for (std::size_t i = 0; i < perf.size(); ++i)
        if (perf2[i].result.resultJson() != perf[i].result.resultJson())
            fatal(strCat("cached perf point ", i,
                         " is not byte-identical to the fresh run"));
    for (std::size_t i = 0; i < leak.size(); ++i)
        if (leak2[i].result.resultJson() != leak[i].result.resultJson())
            fatal(strCat("cached leakage point ", i,
                         " is not byte-identical to the fresh run"));

    const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
    std::printf("cold: %.0f ms (%zu computed, %zu cached), warm: "
                "%.0f ms (all %zu cached), speedup %.1fx\n",
                cold_ms, perf_cold.computed + leak_cold.computed,
                perf_cold.hits + leak_cold.hits, warm_ms,
                perf_warm.hits + leak_warm.hits, speedup);
    // A fully-warm "cold" pass (rerunning the bench over a populated
    // cache) proves resume but can't demonstrate the speedup, so the
    // assert only arms when the cold pass actually simulated.
    if (std::getenv("QPRAC_ASSERT_CACHE")) {
        if (perf_cold.computed + leak_cold.computed == 0)
            std::printf("cache assert skipped: cold pass was already "
                        "fully cached\n");
        else if (speedup < 10.0)
            fatal(strCat("warm/cold speedup below bar: ",
                         Table::num(speedup, 1), "x < 10x"));
    }

    // --- Join the two sides and find the frontier ----------------------
    std::map<std::string, double> leak_by_key;
    for (const auto& p : leak)
        leak_by_key[gridKey(p)] = p.result.stats.get(
            "attack.leakage_signal");

    struct Row
    {
        const SweepPointResult* perf;
        double ipc;
        double leakage;
        bool pareto;
    };
    std::vector<Row> rows;
    for (const auto& p : perf)
        rows.push_back({&p, p.result.sim.ipc_sum,
                        leak_by_key.at(gridKey(p)), false});
    for (auto& r : rows) {
        r.pareto = true;
        for (const auto& other : rows) {
            if (&other == &r)
                continue;
            const bool no_worse = other.ipc >= r.ipc &&
                                  other.leakage <= r.leakage;
            const bool better = other.ipc > r.ipc ||
                                other.leakage < r.leakage;
            if (no_worse && better) {
                r.pareto = false;
                break;
            }
        }
    }

    bench::ResultSink csv("pareto_recovery",
                          {"recovery", "nbo", "nmit", "channels",
                           "ipc_sum", "leakage_signal",
                           "alerts_per_trefi", "pareto"});
    Table t({"recovery", "nbo", "nmit", "channels", "IPC (sum)",
             "leakage (cyc)", "frontier"});
    std::size_t frontier_points = 0;
    for (const auto& r : rows) {
        const auto& p = *r.perf;
        csv.addRow({overrideValue(p, "recovery"),
                    overrideValue(p, "nbo"), overrideValue(p, "nmit"),
                    overrideValue(p, "channels"), Table::num(r.ipc, 4),
                    Table::num(r.leakage, 2),
                    Table::num(p.result.sim.alerts_per_trefi, 4),
                    r.pareto ? "1" : "0"});
        if (!r.pareto)
            continue;
        ++frontier_points;
        t.addRow({overrideValue(p, "recovery"), overrideValue(p, "nbo"),
                  overrideValue(p, "nmit"),
                  overrideValue(p, "channels"), Table::num(r.ipc, 4),
                  Table::num(r.leakage, 2), "*"});
    }
    t.print();

    // --- BENCH_pareto.json ---------------------------------------------
    JsonWriter w;
    w.beginObject();
    w.key("bench").value("pareto_recovery");
    w.key("grid_points").value(static_cast<std::uint64_t>(rows.size()));
    w.key("simulations").value(
        static_cast<std::uint64_t>(perf.size() + leak.size()));
    w.key("frontier_points")
        .value(static_cast<std::uint64_t>(frontier_points));
    w.key("cold_ms").value(cold_ms);
    w.key("warm_ms").value(warm_ms);
    w.key("warm_speedup").value(speedup);
    w.key("cold_computed")
        .value(static_cast<std::uint64_t>(perf_cold.computed +
                                          leak_cold.computed));
    w.key("cold_hits").value(
        static_cast<std::uint64_t>(perf_cold.hits + leak_cold.hits));
    w.key("rows").beginArray();
    for (const auto& r : rows) {
        const auto& p = *r.perf;
        w.beginObject();
        for (const char* axis : kAxisKeys)
            w.key(axis).value(overrideValue(p, axis));
        w.key("hash").value(p.hash);
        w.key("ipc_sum").value(r.ipc);
        w.key("leakage_signal").value(r.leakage);
        w.key("pareto").value(r.pareto);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    const char* out_env = std::getenv("QPRAC_BENCH_PARETO_OUT");
    const std::string out_path = out_env ? out_env : "BENCH_pareto.json";
    {
        std::ofstream out(out_path);
        if (out)
            out << w.str() << "\n";
        else
            std::printf("note: could not write %s\n", out_path.c_str());
    }

    std::printf(
        "\nTakeaway: bank-isolated recovery holds the high-IPC end of "
        "the frontier and channel stall the low-leakage end, and the "
        "%zu-point grid that found it reruns %.1fx faster warm than "
        "cold, byte-identical, from %s (full numbers in %s).\n",
        rows.size(), speedup, cache.dir().c_str(), out_path.c_str());
    return 0;
}
