/**
 * @file
 * Shared declarations of the repository benchmark (perfbench).
 *
 * The benchmark runs named workloads through the public scenario API
 * (ScenarioConfig, runSweep, ResultCache, makeSystemConfig + System)
 * and reports host-time end-to-end metrics with tracing off. A separate
 * traced run (layers.cc) times the calls into each module's public
 * entry points from the benchmark's own code and reports per-layer
 * metrics. Nothing here changes the simulator.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.h"

namespace perfbench {

// --- Clocks ----------------------------------------------------------------

/** Monotonic wall clock in seconds. */
double wallNow();

/** Process CPU time (user + sys, all threads) in seconds. */
double cpuNow();

/** Cheap cycle counter for per-call spans (TSC on x86-64). */
std::uint64_t ticks();

/** Nanoseconds per ticks() unit (calibrated once against wallNow()). */
double nsPerTick();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

// --- Statistics -------------------------------------------------------------

/** Quantile by linear interpolation (q in [0, 1]); 0 for empty input. */
double quantile(std::vector<double> v, double q);

inline double median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/** FNV-1a 64 of @p text as 16 lowercase hex digits. */
std::string digestHex(const std::string& text);

// --- Workloads --------------------------------------------------------------

/** One workload: a fully pinned base scenario and the sweeps run on it. */
struct Workload
{
    std::string name;
    qprac::sim::ScenarioConfig base;
    /** Run in order; each is one runSweep call over `base`. */
    std::vector<qprac::sim::SweepSpec> sweeps;
};

/** Names of every workload, in canonical order. */
const std::vector<std::string>& workloadNames();

/**
 * Build workload @p name for @p seed. Every ScenarioConfig key is set
 * explicitly; false with *err on an unknown name or a rejected key.
 */
bool makeWorkload(const std::string& name, std::uint64_t seed,
                  Workload* out, std::string* err);

/** One resolved point of a workload (sweeps flattened, in run order). */
struct Point
{
    qprac::sim::ScenarioConfig cfg;
    /** The sweep overrides applied to the workload's base config. */
    std::vector<std::pair<std::string, std::string>> overrides;
    std::string label; ///< "key=value,key=value" of the overrides
};

/** Flatten the workload's sweeps into points; false with *err. */
bool expandPoints(const Workload& w, std::vector<Point>* out,
                  std::string* err);

/** True when the point drives a full System (not an attack runner). */
bool isSystemPoint(const qprac::sim::ScenarioConfig& cfg);

/** Simulated DRAM cycles of a point (attacks: warm-up + attack_cycles). */
double simulatedCycles(const qprac::sim::ScenarioResult& r);

/**
 * 100 * (1 - geomean IPC(@p design) / IPC(none)) over the points that
 * have a matching `none` point; 0 when no pair exists.
 */
double slowdownPct(const std::vector<qprac::sim::ScenarioResult>& results,
                   const std::string& design);

// --- Traced run -------------------------------------------------------------

/** Per-layer metric values of one traced pass, by metric name. */
using LayerValues = std::map<std::string, double>;

/** Outcome of one traced pass over a workload. */
struct TracedPass
{
    LayerValues values;
    std::vector<std::string> digests;  ///< per point, run order
    std::vector<std::string> problems; ///< per point; empty = passed
};

/**
 * One instrumented pass over every point of @p w (cold + warm cache
 * passes in @p cache_dir, the serial reference loop, the command
 * replay and the observability run). @p print_points prints one line
 * of per-point findings (run time, skip fraction, ns per ticked cycle).
 */
TracedPass runTracedPass(const Workload& w, const std::vector<Point>& points,
                         const std::string& cache_dir, bool print_points);

/** Every per-layer metric name with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>>& layerMetrics();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
