/**
 * @file
 * Shared helpers for the figure/table benches, built on the scenario
 * API (sim/scenario.h): every bench runs its grid as sweeps over one
 * base ScenarioConfig (so `--cache-dir` resumes any of them), pairs
 * each design point with a shared insecure baseline, and emits results
 * through one structured sink (CSV + JSON).
 */
#ifndef QPRAC_BENCH_BENCH_COMMON_H
#define QPRAC_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"
#include "common/stats.h"
#include "common/table.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "sim/workloads.h"

namespace qprac::bench {

/** Print the standard experiment banner. */
inline void
banner(const std::string& id, const std::string& what)
{
    std::printf("=== %s: %s ===\n", id.c_str(), what.c_str());
}

/** Where CSV copies of the results go (QPRAC_CSV_DIR, default "."). */
inline std::string
csvPath(const std::string& name)
{
    const char* dir = std::getenv("QPRAC_CSV_DIR");
    return std::string(dir ? dir : ".") + "/" + name;
}

/**
 * The bench suite's base scenario: the single config surface every
 * bench derives its harness knobs from. Field defaults of 0 resolve to
 * the harness env defaults (QPRAC_INSTS, QPRAC_LLC_MB, QPRAC_THREADS,
 * QPRAC_SEED) inside ScenarioConfig::experiment().
 */
inline sim::ScenarioConfig
baseScenario()
{
    return sim::ScenarioConfig{};
}

/** @p base with @p key set to @p value; fatal() on a bad value. */
inline sim::ScenarioConfig
withKey(sim::ScenarioConfig base, const std::string& key,
        const std::string& value)
{
    std::string err;
    if (!base.set(key, value, &err))
        fatal(strCat("bad bench scenario: ", err));
    return base;
}

/**
 * Load a checked-in base scenario (QPRAC_SCENARIO overrides the
 * path). When the file is not visible from the bench's cwd, fall back
 * to the given key=value settings so the bench still runs standalone.
 */
inline sim::ScenarioConfig
loadBaseScenario(
    const std::string& default_path,
    const std::vector<std::pair<std::string, std::string>>& fallback)
{
    sim::ScenarioConfig base;
    const char* env = std::getenv("QPRAC_SCENARIO");
    const std::string path = env ? env : default_path;
    std::string err;
    if (!sim::ScenarioConfig::fromFile(path, &base, &err)) {
        std::printf("note: %s; using built-in base scenario\n",
                    err.c_str());
        for (const auto& [key, value] : fallback)
            if (!base.set(key, value, &err))
                fatal(strCat("built-in base scenario invalid: ", err));
    }
    return base;
}

/** The value a sweep point's axis @p key took ("" when absent). */
inline std::string
overrideValue(const sim::SweepPointResult& p, const std::string& key)
{
    for (const auto& [k, v] : p.overrides)
        if (k == key)
            return v;
    return "";
}

/**
 * The bench suite's result-cache directory: `--cache-dir PATH` on the
 * bench's command line, else QPRAC_CACHE_DIR, else "" (caching off).
 * Every bench that takes sweeps through runSweepAxes() below honours
 * it, so an interrupted figure rerun only recomputes missing points.
 */
inline std::string
cacheDirFromArgs(int argc, char** argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--cache-dir")
            return argv[i + 1];
    const char* env = std::getenv("QPRAC_CACHE_DIR");
    return env ? env : "";
}

/** Parse the axes, run the cross-product over @p base, die on errors.
 * With a non-null enabled @p cache, points already answered by a
 * verified sidecar are reused byte-for-byte instead of re-simulated. */
inline std::vector<sim::SweepPointResult>
runSweepAxes(const sim::ScenarioConfig& base,
             const std::vector<std::string>& axes,
             sim::ResultCache* cache = nullptr,
             sim::SweepCounters* counters = nullptr)
{
    sim::SweepSpec spec;
    std::string err;
    for (const auto& axis : axes)
        if (!spec.add(axis, &err))
            fatal(strCat("bad sweep axis: ", err));
    sim::SweepOptions options;
    options.cache = cache && cache->enabled() ? cache : nullptr;
    auto points = sim::runSweep(base, spec, options, &err, counters);
    if (points.empty())
        fatal(strCat("sweep failed: ", err));
    return points;
}

/**
 * Insecure baselines shared by every design point of a bench: one
 * mitigation=none sweep over the cells that are not part of the
 * design (@p cell_axes: the workloads, and e.g. the mapping), after
 * which each design point is normalized against the baseline of its
 * cell. No baseline is simulated twice, however many designs or
 * design parameters the bench sweeps.
 */
class Baselines
{
  public:
    Baselines(const sim::ScenarioConfig& base,
              const std::vector<std::string>& cell_axes,
              sim::ResultCache* cache)
    {
        for (const auto& axis : cell_axes)
            keys_.push_back(axis.substr(0, axis.find('=')));
        for (const auto& p : runSweepAxes(withKey(base, "mitigation", "none"),
                                          cell_axes, cache))
            runs_[cell(p.result.config)] = p.result.sim;
    }

    /** The baseline run of @p r's cell. */
    const sim::SimResult& of(const sim::ScenarioResult& r) const
    {
        return runs_.at(cell(r.config));
    }

    /** Weighted speedup of @p r over its cell's baseline. */
    double normPerf(const sim::ScenarioResult& r) const
    {
        const double base_ipc = of(r).ipc_sum;
        return base_ipc > 0 ? r.sim.ipc_sum / base_ipc : 0.0;
    }

  private:
    std::string cell(const sim::ScenarioConfig& cfg) const
    {
        std::string out;
        for (const auto& key : keys_)
            out += cfg.get(key) + "|";
        return out;
    }

    std::vector<std::string> keys_;
    std::map<std::string, sim::SimResult> runs_;
};

/** One bench design: its display label and the keys that select it. */
struct Design
{
    std::string label;
    std::vector<std::pair<std::string, std::string>> keys;
};

/** Sweep @p axes once per design, over @p base with that design's
 * keys applied; result i holds design i's points in sweep order. */
inline std::vector<std::vector<sim::SweepPointResult>>
runDesigns(const sim::ScenarioConfig& base,
           const std::vector<Design>& designs,
           const std::vector<std::string>& axes, sim::ResultCache* cache)
{
    std::vector<std::vector<sim::SweepPointResult>> out;
    for (const auto& d : designs) {
        sim::ScenarioConfig cfg = base;
        for (const auto& [key, value] : d.keys)
            cfg = withKey(cfg, key, value);
        out.push_back(runSweepAxes(cfg, axes, cache));
    }
    return out;
}

/** The sweep axis over @p workloads ("source=workload:A,..."). */
inline std::string
sourceAxis(const std::vector<sim::Workload>& workloads)
{
    std::string axis = "source=";
    for (const auto& w : workloads)
        axis += (axis.back() == '=' ? "workload:" : ",workload:") + w.name;
    return axis;
}

/** The points whose config has @p key set to @p value, in sweep order
 * (with the workloads as the last axis: one cell's workloads, in
 * suite order). */
inline std::vector<const sim::SweepPointResult*>
where(const std::vector<sim::SweepPointResult>& points,
      const std::string& key, const std::string& value)
{
    std::vector<const sim::SweepPointResult*> out;
    for (const auto& p : points)
        if (p.result.config.get(key) == value)
            out.push_back(&p);
    return out;
}

/**
 * Structured result sink: a drop-in CsvWriter replacement that also
 * emits a JSON document (same rows, keyed by column) beside the CSV,
 * so benches and qprac_sim speak one machine-readable format.
 */
class ResultSink
{
  public:
    ResultSink(const std::string& name, std::vector<std::string> header)
        : name_(name), header_(std::move(header)),
          csv_(csvPath(name + ".csv"), header_)
    {
    }

    ~ResultSink()
    {
        JsonWriter w;
        w.beginObject();
        w.key("bench").value(name_);
        w.key("rows").beginArray();
        for (const auto& row : rows_) {
            w.beginObject();
            for (std::size_t i = 0;
                 i < row.size() && i < header_.size(); ++i)
                w.key(header_[i]).value(row[i]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::ofstream out(csvPath(name_ + ".json"));
        if (out)
            out << w.str() << "\n";
    }

    void addRow(const std::vector<std::string>& cells)
    {
        csv_.addRow(cells);
        rows_.push_back(cells);
    }

    bool ok() const { return csv_.ok(); }

  private:
    std::string name_;
    std::vector<std::string> header_;
    CsvWriter csv_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Representative 16-workload subset for the sensitivity sweeps
 * (Figs 16-22): the full 57-workload suite is used for the headline
 * Figs 14/15; sweeps use this mix of high/medium/low intensity unless
 * QPRAC_FULL_SUITE=1.
 */
inline std::vector<sim::Workload>
sweepWorkloads()
{
    if (const char* env = std::getenv("QPRAC_FULL_SUITE")) {
        bool full = false;
        if (!parseBool(env, &full))
            fatal(strCat("QPRAC_FULL_SUITE='", env,
                         "' is not a boolean"));
        if (full)
            return sim::workloadSuite();
    }
    std::vector<std::string> names = {
        "510.parest_r", "429.mcf",      "482.sphinx3", "450.soplex",
        "433.milc",     "462.libquantum", "471.omnetpp", "470.lbm",
        "tpcc64",       "ycsb-a",       "403.gcc",     "444.namd",
    };
    std::vector<sim::Workload> out;
    for (const auto& n : names)
        out.push_back(sim::findWorkload(n));
    return out;
}

/**
 * Summary of one bench series, computed with the shared common/stats
 * helpers so every table and the obs::Histogram trace metrics agree on
 * one mean/percentile rule (see percentileRank).
 */
struct SeriesSummary
{
    std::size_t n = 0;
    double mean = 0.0;
    double geomean = 0.0; ///< 0 when any value is non-positive
    double p50 = 0.0;
    double p95 = 0.0;
};

inline SeriesSummary
summarizeSeries(std::vector<double> values)
{
    SeriesSummary s;
    s.n = values.size();
    if (values.empty())
        return s;
    s.mean = qprac::mean(values);
    bool positive = true;
    for (double v : values)
        positive = positive && v > 0.0;
    s.geomean = positive ? qprac::geomean(values) : 0.0;
    std::sort(values.begin(), values.end());
    s.p50 = percentileSorted(values, 50.0);
    s.p95 = percentileSorted(values, 95.0);
    return s;
}

/** Normalized-performance geomean -> slowdown %, clamped at 0 (the
 * paper's tables never report speedups for a mitigation). */
inline double
slowdownPct(double geomean_norm_perf)
{
    double slow = 100.0 * (1.0 - geomean_norm_perf);
    return slow < 0.0 ? 0.0 : slow;
}

/** Aggregate (add semantics) the stat sets of every successful sweep
 * point — StatSet::merge over the grid, e.g. for suite-wide command or
 * alert totals. */
inline StatSet
mergedStats(const std::vector<sim::SweepPointResult>& points)
{
    StatSet out;
    for (const auto& p : points)
        if (!p.failed)
            out.merge(p.result.sim.stats);
    return out;
}

/** Normalized-performance geomean of @p points over their baselines. */
inline double
normPerfGeomean(const std::vector<const sim::SweepPointResult*>& points,
                const Baselines& base)
{
    std::vector<double> values;
    for (const auto* p : points)
        values.push_back(base.normPerf(p->result));
    return geomean(values);
}

/** Mean alerts per tREFI over @p points. */
inline double
meanAlerts(const std::vector<const sim::SweepPointResult*>& points)
{
    std::vector<double> values;
    for (const auto* p : points)
        values.push_back(p->result.sim.alerts_per_trefi);
    return mean(values);
}

/** Slowdown in percent over the memory-intensive subset only (baseline
 * rbmpki at or above @p rbmpki_cut). */
inline double
intensiveSlowdownPct(const std::vector<const sim::SweepPointResult*>& points,
                     const Baselines& base, double rbmpki_cut = 2.0)
{
    std::vector<double> values;
    for (const auto* p : points)
        if (base.of(p->result).rbmpki >= rbmpki_cut)
            values.push_back(base.normPerf(p->result));
    if (values.empty())
        return 0.0;
    return slowdownPct(summarizeSeries(std::move(values)).geomean);
}

} // namespace qprac::bench

#endif // QPRAC_BENCH_BENCH_COMMON_H
