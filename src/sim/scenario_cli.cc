#include "sim/scenario_cli.h"

#include <algorithm>
#include <cstdio>

#include "common/csv.h"
#include "common/json.h"
#include "common/log.h"
#include "common/table.h"
#include "mitigations/factory.h"
#include "obs/obs.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "sim/scenario_hash.h"
#include "sim/workloads.h"

namespace qprac::sim {

namespace {

const char* const kUsage =
    "usage: qprac_sim [--workload NAME | --trace PATH] [KEY-FLAG VALUE]...\n"
    "                 [--baseline] [--stats] [--metrics] "
    "[--profile[=SECTIONS]]\n"
    "                 [--list] [--list-designs] [--list-attacks]\n"
    "                 [--config FILE] [--set key=value]... "
    "[--sweep key=values]...\n"
    "                 [--json] [--csv PATH] [--cache-dir PATH] [--isolate]\n"
    "                 [--hash | --dry-run]\n"
    "\n"
    "Every run is a scenario: legacy flags and --set overrides apply\n"
    "in command-line order on top of --config FILE (an INI of\n"
    "key = value lines; the keys are listed below, each with the\n"
    "legacy KEY-FLAG that sets it, if any). Sources: workload:NAME,\n"
    "trace:PATH, attack:NAME (--list-attacks shows each family's\n"
    "accepted keys).\n"
    "--sweep takes key=v1,v2 or key=lo:hi[:step] and runs the\n"
    "cross-product. --threads is the sweep fan-out budget: how many\n"
    "points run side by side. Each point runs on one thread, so\n"
    "results are bit-identical at every thread count.\n"
    "--metrics prints the metrics report (and defaults\n"
    "metrics-interval to 10000 when unset). trace writes Perfetto JSON\n"
    "(categories: cmd refresh abo rfm recovery psq cuq attack).\n"
    "--profile prints post-run profiling sections; pass\n"
    "--profile=engine,cache,wall to select a subset (--profile-engine\n"
    "is the historical alias for --profile=engine).\n"
    "--json / --csv emit structured results.\n"
    "--cache-dir keeps one content-addressed JSON sidecar per point\n"
    "(named by the scenario hash, which excludes the result-neutral\n"
    "keys marked * below); reruns and resumed grids reuse hits\n"
    "byte-for-byte. --isolate forks one qprac_sim per sweep point so a\n"
    "crashing config becomes a recorded failed point instead of killing\n"
    "the grid. --hash (alias --dry-run) prints each resolved point's\n"
    "hash and cache status without simulating.\n";

/** kUsage plus the key reference, generated from the key table. */
std::string
usage()
{
    std::string out =
        strCat(kUsage, "\nScenario keys (* = result-neutral):\n");
    for (const ScenarioKey& k : scenarioKeyTable()) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-17s %-12s %s\n",
                      strCat(k.name, k.neutral ? "*" : "").c_str(),
                      k.flag ? k.flag : "", k.values);
        if (!k.retired)
            out += line;
    }
    return out;
}

std::string
listEverything()
{
    std::string out = "mitigations:\n";
    for (const auto& m : mitigations::mitigationNames())
        out += strCat("  ", m, "\n");
    out += strCat("\nworkloads (", workloadSuite().size(), "):\n");
    Table t({"name", "suite", "mem/ki", "miss/ki", "seq", "est. RBMPKI"});
    for (const auto& w : workloadSuite())
        t.addRow({w.name, w.suite, Table::num(w.mem_per_kilo, 0),
                  Table::num(w.miss_per_kilo, 1), Table::num(w.seq_frac, 2),
                  Table::num(w.expectedRbmpki(), 1)});
    out += t.toString();
    out += "\nattack scenarios (select with --set source=attack:NAME):\n";
    Table a({"source", "description"});
    for (const auto& s : ScenarioRegistry::instance().sources())
        if (s.kind == SourceKind::Attack)
            a.addRow({s.name, s.description});
    out += a.toString();
    return out;
}

std::string
listDesigns()
{
    auto& registry = mitigations::MitigationRegistry::instance();
    std::string out = "designs (select with --mitigation):\n";
    Table t({"name", "description"});
    for (const auto& name : registry.names())
        t.addRow({name, registry.description(name)});
    out += t.toString();
    out += "\nqprac designs pick their service queue with --backend "
           "(linear | coalescing).\n";
    return out;
}

std::string
listAttacks()
{
    std::string out =
        "attack scenarios (select with --set source=attack:NAME):\n";
    Table t({"source", "description", "accepted keys"});
    for (const auto& s : ScenarioRegistry::instance().sources()) {
        if (s.kind != SourceKind::Attack)
            continue;
        std::string keys;
        for (const auto& key : s.keys)
            keys += (keys.empty() ? "" : " ") + key;
        t.addRow({s.name, s.description, keys});
    }
    out += t.toString();
    out += "\nEvery family also honours the shared run keys (seed, "
           "threads);\nkeys not listed are ignored by that family.\n";
    return out;
}

/** The paper-style attack stat counters are integers; print them so. */
std::string
statCell(double v)
{
    if (v == static_cast<double>(static_cast<long long>(v)))
        return Table::num(v, 0);
    return Table::num(v, 4);
}

std::string
legacyRunReport(const ScenarioResult& res, bool dump_stats)
{
    const ScenarioConfig& cfg = res.config;
    ExperimentConfig ecfg = cfg.experiment();
    char banner[512];
    std::snprintf(banner, sizeof banner,
                  "=== qprac_sim: %s on %s, %d cores x %llu insts, "
                  "%d channel%s (%s) ===\n",
                  cfg.mitigation.c_str(), cfg.sourceName().c_str(),
                  cfg.cores,
                  static_cast<unsigned long long>(ecfg.insts_per_core),
                  cfg.channels, cfg.channels == 1 ? "" : "s",
                  cfg.mapping.c_str());
    std::string out = banner;

    Table t({"metric", "value"});
    t.addRow({"cycles",
              Table::num(static_cast<double>(res.sim.cycles), 0)});
    t.addRow({"IPC (sum)", Table::num(res.sim.ipc_sum, 3)});
    t.addRow({"RBMPKI", Table::num(res.sim.rbmpki, 2)});
    t.addRow({"alerts/tREFI", Table::num(res.sim.alerts_per_trefi, 4)});
    t.addRow({"activations", Table::num(res.sim.acts, 0)});
    t.addRow({"RFM mitigations",
              Table::num(res.sim.stats.getOr("mit.rfm_mitigations", 0),
                         0)});
    t.addRow(
        {"proactive mitigations",
         Table::num(res.sim.stats.getOr("mit.proactive_mitigations", 0),
                    0)});
    if (cfg.channels > 1) {
        for (int c = 0; c < cfg.channels; ++c) {
            std::string p = "ch" + std::to_string(c) + ".";
            t.addRow(
                {p + "activations",
                 Table::num(res.sim.stats.getOr(p + "dram.acts", 0), 0)});
            t.addRow(
                {p + "alerts",
                 Table::num(res.sim.stats.getOr(p + "ctrl.alerts", 0),
                            0)});
        }
    }
    if (res.has_baseline)
        t.addRow(
            {"normalized performance", Table::num(res.norm_perf, 4)});
    out += t.toString();
    if (dump_stats)
        out += res.sim.stats.toString();
    return out;
}

// --profile section bits. --profile-engine is the historical alias
// for --profile=engine.
constexpr unsigned kProfileEngine = 1u << 0;
constexpr unsigned kProfileCache = 1u << 1;
constexpr unsigned kProfileWall = 1u << 2;
constexpr unsigned kProfileAll =
    kProfileEngine | kProfileCache | kProfileWall;

bool
parseProfileSections(const std::string& list, unsigned* sections,
                     std::string* err)
{
    *sections = 0;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        std::string name = list.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (name == "engine" || name == "engine-skip" || name == "skip")
            *sections |= kProfileEngine;
        else if (name == "cache")
            *sections |= kProfileCache;
        else if (name == "wall" || name == "time")
            *sections |= kProfileWall;
        else if (name == "all")
            *sections |= kProfileAll;
        else {
            *err = strCat("unknown profile section '", name,
                          "' (expected engine, cache, wall or all)");
            return false;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

/**
 * The --profile view: post-run profiling sections. Everything here is
 * derived from fields deliberately excluded from the result document
 * (SimResult::skip, wall_ms) or from stats already inside it, so it
 * never perturbs byte-compared outputs.
 */
std::string
profileReport(const ScenarioResult& res, unsigned sections)
{
    std::string out;

    if (sections & kProfileEngine) {
        const ctrl::SkipStats& sk = res.sim.skip;
        out += "--- profile: engine (cycle skipping) ---\n";
        // A run with skipping enabled always records wakes (every
        // window ends in an EpochBoundary wake); all-zero counters
        // mean skipping was off or no MemorySystem ran here at all.
        // Say so instead of printing a zero table that reads like "the
        // skipper never fired".
        const bool skipped_ran =
            sk.cycles_skipped != 0 || sk.dense_ticks != 0 ||
            sk.wakes_command != 0 ||
            sk.wakes_refresh != 0 || sk.wakes_recovery != 0 ||
            sk.wakes_cuq != 0 || sk.wakes_mailbox != 0 ||
            sk.wakes_epoch != 0;
        if (!skipped_ran) {
            out += "cycle skipping disabled for this run (skip=off, a\n"
                   "cache hit, or an event-level attack family) -- no\n"
                   "skip counters.\n";
        } else {
            // Attack points report no sim.cycles, so the rows derived
            // from it are omitted for them.
            const double shard_cycles =
                static_cast<double>(res.sim.cycles) *
                static_cast<double>(res.config.channels);
            const double skipped = static_cast<double>(sk.cycles_skipped);
            Table t({"counter", "value"});
            if (shard_cycles > 0)
                t.addRow({"shard cycles", Table::num(shard_cycles, 0)});
            t.addRow({"cycles skipped", Table::num(skipped, 0)});
            if (shard_cycles > 0)
                t.addRow({"skipped %",
                          Table::num(100.0 * skipped / shard_cycles, 1)});
            t.addRow({"dense ticks (horizon now+1)",
                      Table::num(static_cast<double>(sk.dense_ticks), 0)});
            t.addRow(
                {"dense: command-ready",
                 Table::num(static_cast<double>(sk.dense_command), 0)});
            t.addRow(
                {"dense: refresh",
                 Table::num(static_cast<double>(sk.dense_refresh), 0)});
            t.addRow(
                {"dense: recovery",
                 Table::num(static_cast<double>(sk.dense_recovery), 0)});
            t.addRow(
                {"wakes: command-ready",
                 Table::num(static_cast<double>(sk.wakes_command), 0)});
            t.addRow(
                {"wakes: refresh",
                 Table::num(static_cast<double>(sk.wakes_refresh), 0)});
            t.addRow(
                {"wakes: recovery",
                 Table::num(static_cast<double>(sk.wakes_recovery), 0)});
            t.addRow({"wakes: cuq-drain",
                      Table::num(static_cast<double>(sk.wakes_cuq), 0)});
            t.addRow(
                {"wakes: mailbox",
                 Table::num(static_cast<double>(sk.wakes_mailbox), 0)});
            t.addRow(
                {"wakes: epoch-boundary",
                 Table::num(static_cast<double>(sk.wakes_epoch), 0)});
            out += t.toString();
        }
    }

    if (sections & kProfileCache) {
        out += "--- profile: cache (shared LLC) ---\n";
        const StatSet& st = res.sim.stats;
        if (!st.has("llc.loads")) {
            out += "no LLC counters for this point (attack scenarios\n"
                   "run without a cache hierarchy).\n";
        } else {
            const double loads = st.getOr("llc.loads", 0);
            const double load_hits = st.getOr("llc.load_hits", 0);
            const double stores = st.getOr("llc.stores", 0);
            const double store_hits = st.getOr("llc.store_hits", 0);
            Table t({"counter", "value"});
            t.addRow({"loads", Table::num(loads, 0)});
            t.addRow({"load hits", Table::num(load_hits, 0)});
            t.addRow({"load hit %",
                      Table::num(loads > 0 ? 100.0 * load_hits / loads
                                           : 0.0,
                                 1)});
            t.addRow({"stores", Table::num(stores, 0)});
            t.addRow({"store hits", Table::num(store_hits, 0)});
            t.addRow({"store hit %",
                      Table::num(stores > 0 ? 100.0 * store_hits / stores
                                            : 0.0,
                                 1)});
            t.addRow({"writebacks",
                      Table::num(st.getOr("llc.writebacks", 0), 0)});
            t.addRow({"MSHR merges",
                      Table::num(st.getOr("llc.mshr_merges", 0), 0)});
            out += t.toString();
        }
    }

    if (sections & kProfileWall) {
        out += "--- profile: wall time ---\n";
        if (res.sim.wall_ms <= 0.0) {
            out += "no timing for this point (a cache hit replays the\n"
                   "stored result; nothing ran).\n";
        } else {
            const double shard_cycles =
                static_cast<double>(res.sim.cycles) *
                static_cast<double>(res.config.channels);
            Table t({"counter", "value"});
            t.addRow({"wall ms", Table::num(res.sim.wall_ms, 1)});
            // Attack points report wall time only (no sim.cycles).
            if (shard_cycles > 0) {
                t.addRow({"simulated cycles",
                          Table::num(static_cast<double>(res.sim.cycles),
                                     0)});
                t.addRow({"sim cycles/sec",
                          Table::num(res.sim.simCyclesPerSec(), 0)});
                t.addRow({"host ns / shard cycle",
                          Table::num(res.sim.wall_ms * 1e6 / shard_cycles,
                                     1)});
            }
            out += t.toString();
        }
    }

    return out;
}

std::string
attackRunReport(const ScenarioResult& res)
{
    const ScenarioConfig& cfg = res.config;
    std::string out = strCat("=== qprac_sim: ", cfg.source,
                             " (mitigation ", cfg.mitigation, ", NBO ",
                             cfg.nbo, ", Nmit ", cfg.nmit, ") ===\n");
    Table t({"metric", "value"});
    for (const auto& [name, value] : res.stats.entries())
        t.addRow({name, statCell(value)});
    out += t.toString();
    return out;
}

std::string
sweepReport(const SweepSpec& spec,
            const std::vector<SweepPointResult>& results,
            const ResultCache* cache, const SweepCounters& counters)
{
    std::string out =
        strCat("=== qprac_sim sweep: ", results.size(), " point",
               results.size() == 1 ? "" : "s", " ===\n");

    // The status column only appears when it can say something: a
    // cache is wired up (hit vs run) or isolation recorded failures.
    // Plain sweeps keep the historical table shape.
    bool any_failed = false;
    for (const auto& point : results)
        any_failed = any_failed || point.failed;
    const bool show_status =
        (cache && cache->enabled()) || any_failed;

    // A sweep can mix kinds (e.g. source=429.mcf,attack:wave) and
    // attack families with different counters, so the columns are the
    // union over all points; cells that don't apply to a row are
    // blank, never zero.
    bool any_system = false;
    bool any_attack = false;
    bool any_baseline = false;
    std::vector<std::string> attack_stats; // union, first-seen order
    for (const auto& point : results) {
        if (point.failed)
            continue;
        const ScenarioResult& r = point.result;
        if (r.is_attack) {
            any_attack = true;
            for (const auto& [name, value] : r.stats.entries()) {
                (void)value;
                if (std::find(attack_stats.begin(), attack_stats.end(),
                              name) == attack_stats.end())
                    attack_stats.push_back(name);
            }
        } else {
            any_system = true;
            any_baseline = any_baseline || r.has_baseline;
        }
    }

    std::vector<std::string> header;
    for (const auto& axis : spec.axes)
        header.push_back(axis.key);
    bool mixed = any_system && any_attack;
    if (mixed)
        header.push_back("kind");
    if (any_system || results.empty()) {
        header.insert(header.end(),
                      {"cycles", "IPC (sum)", "RBMPKI", "alerts/tREFI"});
        if (any_baseline)
            header.push_back("norm perf");
    }
    header.insert(header.end(), attack_stats.begin(), attack_stats.end());
    if (show_status)
        header.push_back("status");

    Table t(header);
    for (const auto& point : results) {
        std::vector<std::string> row;
        for (const auto& [key, value] : point.overrides) {
            (void)key;
            row.push_back(value);
        }
        if (point.failed) {
            if (mixed)
                row.push_back("");
            if (any_system)
                row.insert(row.end(), any_baseline ? 5 : 4, "");
            row.insert(row.end(), attack_stats.size(), "");
            row.push_back("failed");
            t.addRow(row);
            continue;
        }
        const ScenarioResult& r = point.result;
        if (mixed)
            row.push_back(r.is_attack ? "attack" : "system");
        if (any_system) {
            if (r.is_attack) {
                row.insert(row.end(), any_baseline ? 5 : 4, "");
            } else {
                row.push_back(
                    Table::num(static_cast<double>(r.sim.cycles), 0));
                row.push_back(Table::num(r.sim.ipc_sum, 3));
                row.push_back(Table::num(r.sim.rbmpki, 2));
                row.push_back(Table::num(r.sim.alerts_per_trefi, 4));
                if (any_baseline)
                    row.push_back(
                        r.has_baseline ? Table::num(r.norm_perf, 4)
                                       : "");
            }
        }
        for (const auto& name : attack_stats)
            row.push_back(r.is_attack && r.stats.has(name)
                              ? statCell(r.stats.get(name))
                              : "");
        if (show_status)
            row.push_back(point.cached ? "hit" : "run");
        t.addRow(row);
    }
    out += t.toString();

    for (std::size_t i = 0; i < results.size(); ++i)
        if (results[i].failed)
            out += strCat("point ", i, ": ", results[i].error, "\n");
    if (cache && cache->enabled())
        out += strCat("cache: ", counters.hits, " hit, ",
                      counters.computed, " computed, ", counters.failed,
                      " failed, ", cache->counters().rejected,
                      " rejected sidecar(s); dir ", cache->dir(), "\n");
    return out;
}

std::string
sweepJson(const ScenarioConfig& base,
          const std::vector<SweepPointResult>& results,
          const ResultCache* cache, const SweepCounters& counters)
{
    JsonWriter w;
    w.beginObject();
    w.key("scenario").beginObject();
    for (const auto& key : base.printedKeys())
        w.key(key).value(base.get(key));
    w.endObject();
    w.key("sweep").beginArray();
    for (const auto& point : results) {
        w.beginObject();
        w.key("overrides").beginObject();
        for (const auto& [key, value] : point.overrides)
            w.key(key).value(value);
        w.endObject();
        if (!point.hash.empty())
            w.key("hash").value(point.hash);
        if (point.failed) {
            // A failed isolated point has no result document at all —
            // consumers key off "failed", not a sentinel result.
            w.key("failed").value(true);
            w.key("error").value(point.error);
        } else {
            w.key("result").raw(point.result.resultJson());
            w.key("cached").value(point.cached);
            // Observability rides beside the result document, like the
            // timing fields below: the result stays byte-identical
            // whether or not the run was traced/sampled. Absent for
            // cache hits (nothing ran, nothing was sampled).
            if (point.result.obs) {
                w.key("metrics");
                point.result.obs->toJson(w);
            }
        }
        // Timing lives beside the result object, never inside it: the
        // result document stays bit-identical across machines, thread
        // counts and engine modes. For a cache hit wall_ms is the
        // lookup cost and sim_cycles_per_sec is 0 (nothing ran).
        w.key("wall_ms").value(point.wall_ms);
        w.key("sim_cycles_per_sec").value(point.sim_cycles_per_sec);
        // Skip-efficiency observability, same contract as the timing
        // fields (zeros for cache hits and event-level attack families).
        const ctrl::SkipStats& sk = point.result.sim.skip;
        w.key("cycles_skipped").value(sk.cycles_skipped);
        w.key("dense_ticks").value(sk.dense_ticks);
        w.key("dense_reasons").beginObject();
        w.key("command_ready").value(sk.dense_command);
        w.key("refresh").value(sk.dense_refresh);
        w.key("recovery").value(sk.dense_recovery);
        w.endObject();
        w.key("wake_reasons").beginObject();
        w.key("command_ready").value(sk.wakes_command);
        w.key("refresh").value(sk.wakes_refresh);
        w.key("recovery").value(sk.wakes_recovery);
        w.key("cuq_drain").value(sk.wakes_cuq);
        w.key("mailbox").value(sk.wakes_mailbox);
        w.key("epoch_boundary").value(sk.wakes_epoch);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    if (cache && cache->enabled()) {
        const ResultCache::Counters cc = cache->counters();
        w.key("cache").beginObject();
        w.key("dir").value(cache->dir());
        w.key("points").value(static_cast<std::uint64_t>(counters.points));
        w.key("hits").value(static_cast<std::uint64_t>(counters.hits));
        w.key("computed")
            .value(static_cast<std::uint64_t>(counters.computed));
        w.key("failed").value(static_cast<std::uint64_t>(counters.failed));
        w.key("stored").value(static_cast<std::uint64_t>(cc.stored));
        w.key("rejected").value(static_cast<std::uint64_t>(cc.rejected));
        w.endObject();
    }
    w.endObject();
    return w.str();
}

/**
 * The --hash / --dry-run view: every resolved point's canonical hash
 * and, when a cache directory is wired up, whether a verified sidecar
 * already answers it. No simulation runs.
 */
std::string
hashReport(const SweepSpec& spec,
           const std::vector<std::vector<
               std::pair<std::string, std::string>>>& points,
           const std::vector<ScenarioConfig>& configs,
           ResultCache* cache)
{
    std::string out =
        strCat("=== qprac_sim hash: ", configs.size(), " point",
               configs.size() == 1 ? "" : "s", " ===\n");
    std::vector<std::string> header;
    for (const auto& axis : spec.axes)
        header.push_back(axis.key);
    header.push_back("hash");
    header.push_back("cache");
    Table t(header);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        std::vector<std::string> row;
        for (const auto& [key, value] : points[i]) {
            (void)key;
            row.push_back(value);
        }
        row.push_back(scenarioHashHex(configs[i]));
        std::string status = "-";
        if (cache && cache->enabled()) {
            ScenarioResult probe;
            status = cache->lookup(configs[i], &probe) ? "hit" : "miss";
        }
        row.push_back(status);
        t.addRow(row);
    }
    out += t.toString();
    if (cache && cache->enabled())
        out += strCat("cache dir: ", cache->dir(), "\n");
    return out;
}

} // namespace

int
runQpracSimCli(const std::vector<std::string>& args, std::string* out,
               std::string* err)
{
    ScenarioConfig cfg;
    cfg.insts = 400'000; // the CLI's historical default run length
    // Overrides apply in command-line order, except that --workload and
    // --trace keep the legacy driver's fixed precedence (see below).
    enum class OpOrigin
    {
        Generic,
        WorkloadFlag,
        TraceFlag,
    };
    struct Op
    {
        std::string key;
        std::string value;
        OpOrigin origin = OpOrigin::Generic;
    };
    std::vector<Op> ops;
    SweepSpec sweep;
    std::string config_path;
    std::string csv_path;
    std::string cache_dir;
    bool dump_stats = false;
    bool metrics = false;
    unsigned profile_sections = 0;
    bool json = false;
    bool isolate = false;
    bool hash_only = false;

    auto usageError = [&](const std::string& msg) {
        if (!msg.empty())
            *err += msg + "\n";
        *err += usage();
        return 2;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        auto need = [&](const char* flag,
                        std::string* value) -> bool {
            if (i + 1 >= args.size()) {
                *err += strCat(flag, " requires a value\n");
                return false;
            }
            *value = args[++i];
            return true;
        };
        // Legacy value flags that map 1:1 onto a scenario key.
        const char* mapped_key = nullptr;
        for (const ScenarioKey& k : scenarioKeyTable())
            if (k.flag && arg == k.flag)
                mapped_key = k.name;
        std::string v;
        if (mapped_key) {
            if (!need(arg.c_str(), &v))
                return usageError("");
            ops.push_back({mapped_key, v});
        } else if (arg == "--workload") {
            if (!need("--workload", &v))
                return usageError("");
            ops.push_back({"source", strCat("workload:", v),
                           OpOrigin::WorkloadFlag});
        } else if (arg == "--trace") {
            if (!need("--trace", &v))
                return usageError("");
            ops.push_back(
                {"source", strCat("trace:", v), OpOrigin::TraceFlag});
        } else if (arg == "--baseline") {
            ops.push_back({"baseline", "true"});
        } else if (arg == "--set") {
            if (!need("--set", &v))
                return usageError("");
            std::size_t eq = v.find('=');
            if (eq == std::string::npos)
                return usageError(
                    strCat("--set expects key=value, got '", v, "'"));
            ops.push_back({v.substr(0, eq), v.substr(eq + 1)});
        } else if (arg == "--sweep") {
            if (!need("--sweep", &v))
                return usageError("");
            std::string sweep_err;
            if (!sweep.add(v, &sweep_err))
                return usageError(sweep_err);
        } else if (arg == "--config") {
            if (!need("--config", &v))
                return usageError("");
            config_path = v;
        } else if (arg == "--csv") {
            if (!need("--csv", &v))
                return usageError("");
            csv_path = v;
        } else if (arg == "--cache-dir") {
            if (!need("--cache-dir", &v))
                return usageError("");
            cache_dir = v;
        } else if (arg == "--isolate") {
            isolate = true;
        } else if (arg == "--hash" || arg == "--dry-run") {
            hash_only = true;
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--metrics") {
            metrics = true;
        } else if (arg == "--profile") {
            profile_sections = kProfileAll;
        } else if (arg.rfind("--profile=", 0) == 0) {
            unsigned parsed = 0;
            std::string perr;
            if (!parseProfileSections(arg.substr(10), &parsed, &perr))
                return usageError(perr);
            profile_sections |= parsed;
        } else if (arg == "--profile-engine") {
            profile_sections |= kProfileEngine;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--list") {
            *out += listEverything();
            return 0;
        } else if (arg == "--list-designs") {
            *out += listDesigns();
            return 0;
        } else if (arg == "--list-attacks") {
            *out += listAttacks();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            *out += usage();
            return 0;
        } else {
            return usageError(strCat("unknown argument '", arg, "'"));
        }
    }

    // Legacy precedence: the pre-scenario driver kept --workload and
    // --trace in separate variables and always ran the trace when both
    // were given, regardless of flag order. Preserve that by dropping
    // --workload ops whenever a --trace op is present (--set source=...
    // stays strictly positional).
    bool has_trace_flag = false;
    for (const auto& op : ops)
        if (op.origin == OpOrigin::TraceFlag)
            has_trace_flag = true;
    if (has_trace_flag)
        std::erase_if(ops, [](const Op& op) {
            return op.origin == OpOrigin::WorkloadFlag;
        });

    std::string cfg_err;
    if (!config_path.empty() &&
        !ScenarioConfig::fromFile(config_path, &cfg, &cfg_err))
        return usageError(cfg_err);
    for (const auto& op : ops)
        if (!cfg.set(op.key, op.value, &cfg_err))
            return usageError(cfg_err);
    // --metrics asks for the report; make sure something gets sampled
    // even when the scenario never set an interval. An explicit
    // metrics-interval (config file or --set, either order) wins.
    if (metrics && cfg.metrics_interval == 0 &&
        !cfg.set("metrics-interval", "10000", &cfg_err))
        return usageError(cfg_err);
    if (!cfg.validate(&cfg_err))
        return usageError(cfg_err);

    ResultCache cache(cache_dir);
    ResultCache* cache_ptr = cache.enabled() ? &cache : nullptr;

    if (hash_only) {
        // Resolve every point (the single run is a one-point grid with
        // no axes) and report hash + cache status without simulating.
        std::vector<std::vector<std::pair<std::string, std::string>>>
            points;
        if (sweep.axes.empty())
            points.push_back({});
        else
            points = sweep.enumerate();
        std::vector<ScenarioConfig> configs;
        configs.reserve(points.size());
        for (const auto& overrides : points) {
            ScenarioConfig pc = cfg;
            for (const auto& [key, value] : overrides)
                if (!pc.set(key, value, &cfg_err))
                    return usageError(cfg_err);
            if (!pc.validate(&cfg_err))
                return usageError(cfg_err);
            configs.push_back(std::move(pc));
        }
        *out += hashReport(sweep, points, configs, cache_ptr);
        return 0;
    }

    if (!sweep.axes.empty()) {
        std::string sweep_err;
        SweepOptions options;
        options.cache = cache_ptr;
        options.isolate = isolate;
        SweepCounters counters;
        auto results =
            runSweep(cfg, sweep, options, &sweep_err, &counters);
        if (results.empty() && !sweep_err.empty())
            return usageError(sweep_err);
        if (json)
            *out += sweepJson(cfg, results, cache_ptr, counters) + "\n";
        else
            *out += sweepReport(sweep, results, cache_ptr, counters);
        if (!csv_path.empty()) {
            CsvWriter csv(csv_path, ScenarioResult::csvHeader());
            for (const auto& point : results)
                if (!point.failed)
                    csv.addRow(point.result.csvRow());
        }
        return 0;
    }

    // Single runs consult the cache too, so `qprac_sim --config x.ini
    // --cache-dir d` is free the second time. The report is derived
    // purely from the (byte-identical) result document, so a hit
    // reproduces the fresh run's output exactly.
    ScenarioResult res;
    if (!cache_ptr || !cache.lookup(cfg, &res)) {
        res = runScenario(cfg);
        if (cache_ptr)
            cache.store(cfg, res);
    }
    if (json)
        *out += res.toJson() + "\n";
    else if (res.is_attack)
        *out += attackRunReport(res);
    else
        *out += legacyRunReport(res, dump_stats);
    if (metrics) {
        if (res.obs) {
            *out += res.obs->report();
        } else {
            // A cache hit replays the stored result document, which
            // deliberately excludes observability (traces and samples
            // exist only for runs that actually executed).
            *out += "--- metrics ---\n"
                    "no metrics for this point: the result came from "
                    "the cache.\nRerun without --cache-dir (or clear "
                    "the sidecar) to sample.\n";
        }
    }
    if (profile_sections != 0)
        *out += profileReport(res, profile_sections);
    if (!csv_path.empty()) {
        CsvWriter csv(csv_path, ScenarioResult::csvHeader());
        csv.addRow(res.csvRow());
    }
    return 0;
}

} // namespace qprac::sim
