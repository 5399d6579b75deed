/**
 * @file
 * Declarative scenario API — the single configuration surface for the
 * evaluation grid (paper Figs 14-22 and the attack studies).
 *
 * A ScenarioConfig is one flat, typed key=value record that fully
 * describes a run: the source (synthetic workload, trace file, or one
 * of the event-level attack families), the design under test
 * (mitigation + backend + PSQ/ABO knobs), the memory geometry, and the
 * run length/seed. It parses from an INI-style config file, accepts
 * `--set key=value` overrides, serializes back to canonical INI
 * (parse -> serialize -> parse is the identity), and builds the
 * concrete harness objects (ExperimentConfig, DesignSpec, traces) that
 * tools, benches and tests previously each wired up by hand.
 *
 * A SweepSpec enumerates axes over those keys
 * (`psq_size=1:9`, `backend=linear,heap`) and runSweep() executes the
 * cross-product in parallel with deterministic result ordering.
 * Results are emitted through one structured layer: ScenarioResult
 * carries a unified StatSet plus JSON/CSV serialization.
 */
#ifndef QPRAC_SIM_SCENARIO_H
#define QPRAC_SIM_SCENARIO_H

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "cpu/trace.h"
#include "sim/experiment.h"

namespace qprac {
struct JsonValue; // common/json.h
}

namespace qprac::obs {
class EventRecorder;
struct RunSummary;
} // namespace qprac::obs

namespace qprac::sim {

class ResultCache; // sim/result_cache.h

/** What a scenario's `source` key names. */
enum class SourceKind
{
    Workload, ///< synthetic workload profile ("workload:429.mcf")
    TraceFile, ///< Ramulator2-style trace file ("trace:path/to.trace")
    Attack, ///< event-level attack family ("attack:wave")
};

/** Split a source string into kind and name; false on unknown prefix. */
bool parseSource(const std::string& text, SourceKind* kind,
                 std::string* name);

/**
 * One fully-described run. Every field has a `key = value` form,
 * declared once as a row of the scenario key table
 * (scenarioKeyTable(); `qprac_sim --help` lists the rows with their
 * accepted values). set() validates through common/parse: garbage and
 * out-of-range values are rejected with a message, never coerced. A 0
 * in a field documented "(0 = X)" is spelled X in configs.
 */
struct ScenarioConfig
{
    // --- source -------------------------------------------------------
    std::string source = "workload:429.mcf";

    // --- design under test -------------------------------------------
    std::string mitigation = "qprac+proactive-ea";
    std::string backend; ///< QPRAC service-queue backend ("" = default)
    int psq_size = 0;    ///< PSQ entries per bank (0 = design default)
    int nbo = 32;        ///< Back-Off threshold
    int nmit = 1;        ///< RFMs per alert
    /** ALERT_n recovery blocking granularity (ctrl/recovery). */
    std::string recovery = "channel-stall";

    // --- geometry -----------------------------------------------------
    int channels = 1;
    int ranks = 2;
    std::string mapping = "row-major";

    // --- run ----------------------------------------------------------
    std::uint64_t insts = 0;  ///< per-core instructions (0 = default)
    int cores = 4;
    std::uint64_t seed = 0;   ///< extra trace-RNG seed (0 = base seeding)
    std::uint64_t llc_mb = 0; ///< LLC size (0 = harness default)
    /**
     * Sweep fan-out budget (0 = auto: QPRAC_THREADS or hardware
     * concurrency): how many points run side by side. Each point runs
     * on one thread, so the key never changes simulation results.
     */
    int threads = 0;
    bool baseline = false;    ///< also run the insecure baseline
    /** Engine switches (sim/system.h): `skip` only. There is one
     * schedule, so it has no key. */
    EngineOptions engine;

    // --- counter architecture (dram/counter_update.h) ------------------
    /** Subarrays per bank: pure storage layout with inline updates,
     * parallel write-back slots with queued/coalesced ones. */
    int subarrays = 64;
    std::string counter_update = "inline";
    int cuq_depth = 16; ///< per-bank counter write-back queue depth

    // --- observability (result-neutral, hash-excluded) -----------------
    std::string trace = "off"; ///< event-trace category set (obs/obs.h)
    std::string trace_out;     ///< trace path ("" = per-hash default)
    std::uint64_t metrics_interval = 0; ///< sampling period (0 = off)

    // --- attack-family knobs -------------------------------------------
    int r1 = 2000; ///< Wave/Feinting starting pool size (attack:wave)
    /** Cycle budget for the cycle-level attack families (perf,
     * rfm-probe, recovery-dos); 0 = family default. */
    std::uint64_t attack_cycles = 0;

    /** Canonical order of the live keys (serialization, listings). */
    static const std::vector<std::string>& keys();

    /**
     * Set one key from its string form; false (with *err) on unknown
     * keys or invalid values. Valid values are normalized (e.g. a bare
     * workload name becomes "workload:NAME").
     */
    bool set(const std::string& key, const std::string& value,
             std::string* err);

    /** Canonical string form of one key; fatal() on unknown keys. */
    std::string get(const std::string& key) const;

    /** Canonical INI serialization (one `key = value` line per key). */
    std::string toIni() const;

    /**
     * Parse INI text: `key = value` lines, '#'/';' comments, blank
     * lines and `[section]` headers (ignored) allowed. Unknown keys and
     * invalid values fail with a line-numbered *err.
     */
    static bool fromIniText(const std::string& text, ScenarioConfig* out,
                            std::string* err);

    /** fromIniText over a file's contents. */
    static bool fromFile(const std::string& path, ScenarioConfig* out,
                         std::string* err);

    /** Cross-field validation (source resolvable, geometry sane). */
    bool validate(std::string* err) const;

    /** Source kind of the current `source` value. */
    SourceKind sourceKind() const;

    /** Source name with the kind prefix stripped. */
    std::string sourceName() const;

    /** Harness config with 0-valued fields resolved to defaults. */
    ExperimentConfig experiment() const;

    /**
     * Design under test as a DesignSpec (registry-built factory, ABO
     * wiring, RFM pacing for PrIDE/Mithril) — the same construction
     * qprac_sim's legacy flags performed.
     */
    DesignSpec design() const;
};

/**
 * One row of the scenario key table (scenario.cc): all the code knows
 * about a key. ScenarioConfig::keys/set/get/toIni/validate, the hash
 * (sim/scenario_hash.h), `qprac_sim --help` and its legacy flags loop
 * over the rows, so a new key is one row plus its field.
 */
struct ScenarioKey
{
    const char* name;
    /** Parse @p value into the field, normalized. On failure *why may
     * say why; left empty, set() reports "expected <values>". */
    bool (*parse)(ScenarioConfig& cfg, const std::string& value,
                  std::string* why);
    /** Canonical spelling (get(), toIni(), the hash); null only on
     * retired neutral rows, which nothing prints. */
    std::string (*print)(const ScenarioConfig& cfg) = nullptr;
    const char* flag = nullptr; ///< legacy qprac_sim flag, or null
    bool neutral = false; ///< result-neutral: never hashed
    /** Hashed, but left out of the canonical key while this holds. */
    bool (*omit)(const ScenarioConfig& cfg) = nullptr;
    /** While this variable is set, the hash serializes the value the
     * run resolves, `experiment().*resolved`, instead of print(). */
    const char* env = nullptr;
    std::uint64_t ExperimentConfig::*resolved = nullptr;
    /** Accepted by set() so old configs load, but never listed or
     * printed; a hashed retired row keeps its constant line. */
    bool retired = false;
    const char* values = ""; ///< accepted values, for --help and errors
};

/** Every key row, live and retired, in canonical order. */
std::span<const ScenarioKey> scenarioKeyTable();

/** Per-core trace sources for a workload/trace scenario. */
std::vector<std::unique_ptr<cpu::TraceSource>>
buildScenarioTraces(const ScenarioConfig& cfg);

/** Structured result of one scenario run. */
struct ScenarioResult
{
    ScenarioConfig config;
    bool is_attack = false;
    SimResult sim;         ///< full-system result (zeroed for attacks)
    bool has_baseline = false;
    SimResult baseline_sim;
    double norm_perf = 0.0; ///< ipc_sum vs baseline (when has_baseline)
    StatSet stats; ///< unified stats: sim.stats or attack.* counters
    /**
     * Observability digest (null when trace and metrics are off).
     * Deliberately absent from toJson()/resultJson()/the result cache:
     * result documents are compared bit-for-bit across engine modes
     * and must not grow keys when tracing is toggled. `--metrics` and
     * the sweep sidecar read it.
     */
    std::shared_ptr<obs::RunSummary> obs;

    /** {"scenario": {...}, "result": {...}} document. */
    std::string toJson() const;

    /** Just the "result" object (sweep documents embed many of them). */
    std::string resultJson() const;

    /**
     * Rebuild a ScenarioResult from a parsed resultJson() document
     * (out->config is set to @p cfg). The inverse of resultJson() for
     * everything that serialization carries: kind, the aggregate
     * metrics, norm_perf presence and the stat set — re-serializing
     * the reconstruction yields byte-identical resultJson() output
     * (doubles survive the %.17g round trip exactly). Fields the
     * document never carried (baseline_sim details, per-core IPC
     * vectors, wall-clock timing) stay at their defaults. Used by the
     * result cache and the isolated-sweep child protocol. False with
     * *err on structurally-unexpected documents.
     */
    static bool fromResultJson(const JsonValue& doc,
                               const ScenarioConfig& cfg,
                               ScenarioResult* out, std::string* err);

    /** Column names for csvRow(). */
    static std::vector<std::string> csvHeader();

    /** One CSV row: config keys then the aggregate metrics. */
    std::vector<std::string> csvRow() const;
};

/**
 * Registry of runnable scenario sources: every synthetic workload, the
 * trace-file reader, and the event-level attack families, behind the
 * same run interface. Attack sources map the shared scenario knobs
 * (nbo, nmit, psq_size, mitigation) onto their family's config.
 */
class ScenarioRegistry
{
  public:
    /**
     * What a family runner returns: its attack.* counters and, for
     * drivers that step a MemorySystem, that system's skip counters
     * (zeros for event-level families). Runners returning a bare
     * StatSet convert implicitly.
     */
    struct AttackOutput
    {
        AttackOutput(StatSet s = {}, const ctrl::SkipStats& k = {})
            : stats(std::move(s)), skip(k)
        {
        }
        StatSet stats;
        ctrl::SkipStats skip; ///< engine-only, like SimResult::skip
    };

    /**
     * Family runner. @p recorder is the run's observability hub (null
     * when tracing and metrics are both off); event-level families
     * with no MemorySystem ignore it.
     */
    using AttackRunner = std::function<AttackOutput(const ScenarioConfig&,
                                                    obs::EventRecorder*)>;

    /** Registration metadata for one attack family. */
    struct AttackOptions
    {
        /** Scenario keys the family's runner maps onto its config
         * (printed by `qprac_sim --list-attacks`). */
        std::vector<std::string> keys;
        /** True when the family models multiple channels (validate()
         * rejects channels != 1 for single-channel event models). */
        bool multi_channel = false;
    };

    struct SourceInfo
    {
        std::string name; ///< canonical prefixed form ("attack:wave")
        SourceKind kind;
        std::string description;
        /** Accepted scenario keys (attack families only). */
        std::vector<std::string> keys;
    };

    static ScenarioRegistry& instance();

    /** True when `source` can run (named workload or known attack). */
    bool has(const std::string& source) const;

    /** All registered named sources (workloads, then attacks). */
    std::vector<SourceInfo> sources() const;

    /** Register (or replace) an attack family. */
    void registerAttack(const std::string& name,
                        const std::string& description, AttackRunner run);

    /** Register (or replace) an attack family with metadata. */
    void registerAttack(const std::string& name,
                        const std::string& description,
                        AttackOptions options, AttackRunner run);

    /** True when attack @p name models multiple channels. */
    bool attackSupportsChannels(const std::string& name) const;

    /** Run any scenario on the calling thread; fatal() on
     * unresolvable sources. */
    ScenarioResult run(const ScenarioConfig& cfg) const;

  private:
    ScenarioRegistry();

    struct AttackEntry
    {
        std::string description;
        AttackOptions options;
        AttackRunner run;
    };

    std::vector<std::string> attack_order_;
    std::map<std::string, AttackEntry> attacks_;
};

/** ScenarioRegistry::instance().run(cfg). */
ScenarioResult runScenario(const ScenarioConfig& cfg);

/** One sweep axis: a config key and its value list. */
struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;

    /**
     * Parse "key=v1,v2,..." or the integer range forms "key=lo:hi" /
     * "key=lo:hi:step". The key must name a ScenarioConfig key.
     */
    static bool parse(const std::string& text, SweepAxis* out,
                      std::string* err);
};

/** A cross-product of sweep axes over ScenarioConfig keys. */
struct SweepSpec
{
    std::vector<SweepAxis> axes;

    /** Parse and append one axis (the --sweep argument form). */
    bool add(const std::string& text, std::string* err);

    /** Number of cross-product points (1 when no axes). */
    std::size_t points() const;

    /**
     * Deterministic enumeration of the cross-product: the first axis
     * varies slowest. No axes yields one empty override set (the base
     * scenario); an axis with zero values yields zero points.
     */
    std::vector<std::vector<std::pair<std::string, std::string>>>
    enumerate() const;
};

/** One executed sweep point. */
struct SweepPointResult
{
    std::vector<std::pair<std::string, std::string>> overrides;
    ScenarioResult result;
    /** Canonical content hash of the point's resolved config
     * (sim/scenario_hash.h), 16 hex digits. */
    std::string hash;
    /**
     * Wall-clock time of this point. For a computed point that is the
     * runScenario call; for a cache hit it is the (near-zero) lookup
     * time — a cached point must never leak the original run's timing
     * into throughput summaries. Deliberately kept out of the result
     * stats: it is machine noise, and result documents stay
     * bit-identical across thread counts. The scaling bench reads it
     * to record speedups.
     */
    double wall_ms = 0.0;
    /**
     * Engine throughput for this point: simulated cycles / wall second
     * (0 for attack points, which report no cycle count, and for cache
     * hits, where no simulation ran). Same machine-noise caveat as
     * wall_ms — lives beside the result, never inside it.
     */
    double sim_cycles_per_sec = 0.0;
    /** True when the result came from the cache, not a simulation. */
    bool cached = false;
    /** True when the point did not produce a result (isolated child
     * crashed, or its config failed validation under isolation). The
     * `result` field is default-constructed in that case. */
    bool failed = false;
    std::string error; ///< why failed is true
};

/**
 * Batch-service options for runSweep (all default-off: the plain
 * overload behaves exactly as before).
 */
struct SweepOptions
{
    /**
     * Consult (and fill) this content-addressed cache per point:
     * already-emitted points are skipped, so an interrupted grid
     * rerun resumes where it died. Cached results are byte-identical
     * to fresh runs (the hash excludes only result-neutral keys).
     */
    ResultCache* cache = nullptr;
    /**
     * Run every computed point in its own qprac_sim child process
     * (fork/exec on the existing worker fan-out) so one crashing
     * config yields a `failed` point entry instead of killing the
     * grid. Also downgrades per-point validation errors to failed
     * entries. Cache hits never spawn a child.
     */
    bool isolate = false;
    /**
     * Executable for isolated points; empty resolves to the running
     * binary (/proc/self/exe). Must speak the qprac_sim CLI
     * (`--set key=value ... --json`).
     */
    std::string isolate_exe;
};

/** What a batch sweep did, per point disposition. */
struct SweepCounters
{
    std::size_t points = 0;
    std::size_t hits = 0;     ///< served from cache
    std::size_t computed = 0; ///< simulated (in-process or isolated)
    std::size_t stored = 0;   ///< sidecars written
    std::size_t failed = 0;   ///< failed point entries
};

/**
 * Run the sweep cross-product over @p base in parallel; results are in
 * enumerate() order regardless of execution interleaving. Up to
 * base.threads points (0 = hardware concurrency) run side by side,
 * each on one thread.
 * Returns an empty vector with *err set when an override is invalid.
 */
std::vector<SweepPointResult> runSweep(const ScenarioConfig& base,
                                       const SweepSpec& spec,
                                       std::string* err);

/**
 * The batch-service form: result cache, resumable grids and per-point
 * process isolation via @p options; per-point dispositions land in
 * *counters when given. Without isolation an invalid override still
 * fails the whole sweep up front (empty vector + *err); with it, bad
 * points become `failed` entries and the grid completes.
 */
std::vector<SweepPointResult> runSweep(const ScenarioConfig& base,
                                       const SweepSpec& spec,
                                       const SweepOptions& options,
                                       std::string* err,
                                       SweepCounters* counters = nullptr);

} // namespace qprac::sim

#endif // QPRAC_SIM_SCENARIO_H
