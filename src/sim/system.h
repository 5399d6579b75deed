/**
 * @file
 * Full-system wiring: cores + shared LLC + the N-channel sharded memory
 * system (one controller + DRAM device + mitigation instance per
 * channel), advanced on a single master clock (the DRAM command clock).
 *
 * The run loop is the epoch engine: a serial main phase (delivering
 * mailboxed completions, ticking the LLC and the cores in core order,
 * mailing new requests) alternating on the calling thread with a shard
 * phase that advances every channel over the same
 * MemorySystem::epochLength() cycles. There is one schedule and a run
 * uses one thread; parallelism belongs to the sweep layer, which
 * runs independent points side by side.
 * EngineOptions::skip adds next-event cycle skipping in each shard
 * window (ctrl/memory_system.h), bit-identical to dense ticking.
 */
#ifndef QPRAC_SIM_SYSTEM_H
#define QPRAC_SIM_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "cpu/core.h"
#include "cpu/llc.h"
#include "cpu/trace.h"
#include "ctrl/memory_system.h"

namespace qprac::obs {
class EventRecorder;
} // namespace qprac::obs

namespace qprac::sim {

/**
 * Builds one in-DRAM mitigation instance per channel from that
 * channel's counters (invoked once per channel by the MemorySystem).
 */
using MitigationFactory = ctrl::MitigationFactory;

/** Tri-state switch for an engine feature. */
enum class EngineToggle
{
    Auto,
    On,
    Off,
};

/** Parse "auto" / "on" / "off" (also accepts true/false spellings). */
bool parseEngineToggle(const std::string& text, EngineToggle* out);

/** Canonical spelling of @p t. */
std::string toString(EngineToggle t);

/**
 * Engine feature switches (see the file comment). Every resolution of
 * `auto` is a pure function of the config, never of the machine, so
 * results stay reproducible across hosts.
 */
struct EngineOptions
{
    /** Next-event cycle skipping in the shard loops (ctrl/
     * memory_system.h). Auto = on: the command sequence is
     * bit-identical to dense ticking by the horizon contract, so only
     * wall-clock changes — like threads, the key is hash-excluded. */
    EngineToggle skip = EngineToggle::Auto;
};

/** System-level configuration. */
struct SystemConfig
{
    dram::Organization org;
    dram::TimingParams timing = dram::TimingParams::ddr5Prac();
    dram::MappingScheme mapping = dram::MappingScheme::RoRaBgBaCo;
    ctrl::ControllerConfig ctrl;
    cpu::LlcConfig llc;
    cpu::CoreConfig core;
    int num_cores = 4;
    int blast_radius = 2;
    /** Subarray-level counter architecture (dram/counter_update.h).
     * The inline default is bit-identical to the pre-subarray system. */
    dram::CounterUpdateConfig counter_update;
    Cycle max_cycles = 500'000'000;
    /** Ignored by System, which always runs on the calling thread;
     * stays because perfbench's traced loop reads it. */
    int threads = 1;
    /** Engine switches (skip). */
    EngineOptions engine;
    /**
     * Observability hub (obs/obs.h); null = tracing and metrics off.
     * Result-neutral: recording never perturbs simulation state, and
     * the trace itself is byte-identical across engine modes. Not
     * owned; must outlive the System.
     */
    obs::EventRecorder* recorder = nullptr;
};

/** Results of one simulation (aggregated across channels). */
struct SimResult
{
    Cycle cycles = 0;
    std::vector<double> core_ipc;
    double ipc_sum = 0.0;         ///< Σ per-core IPC (weighted-speedup numerator)
    double alerts_per_trefi = 0.0; ///< Σ alerts over all channels / tREFIs
    double rbmpki = 0.0;          ///< ACTs per kilo-instruction
    double acts = 0.0;            ///< Σ ACTs over all channels
    StatSet stats; ///< aggregate keys plus chK.* copies when channels > 1
    /**
     * Wall-clock time of the run. Machine noise, so deliberately kept
     * out of toJson()/stats: result documents are compared bit-for-bit
     * across thread budgets and engine modes. Benches and sweeps read
     * it (and simCyclesPerSec()) for the throughput trajectory.
     */
    double wall_ms = 0.0;

    /** Engine throughput: simulated cycles per wall second (0 when
     * wall_ms was not recorded). Same caveat as wall_ms. */
    double simCyclesPerSec() const;

    /**
     * Cycle-skipping efficiency counters (ctrl::SkipStats). Like
     * wall_ms these depend on the engine configuration (the skip
     * mode), not on the simulated machine, so they are kept
     * out of toJson()/stats; sweeps emit them beside the result and
     * `qprac_sim --profile-engine` prints them.
     */
    ctrl::SkipStats skip;

    /**
     * Structured emission: one JSON object with the aggregate metrics
     * (cycles, ipc_sum, rbmpki, alerts_per_trefi, acts), the per-core
     * IPCs and the full stat set. Part of the scenario API's single
     * output format (see sim/scenario.h).
     */
    std::string toJson() const;
};

/** One simulated machine instance. */
class System
{
  public:
    System(const SystemConfig& config, MitigationFactory mitigation,
           std::vector<std::unique_ptr<cpu::TraceSource>> traces);

    /** Run until every core retires its instruction target. */
    SimResult run();

    ctrl::MemorySystem& memory() { return *memory_; }

    /** Channel-0 shard accessors (single-channel compatibility). */
    dram::DramDevice& device() { return memory_->device(0); }
    ctrl::MemoryController& controller() { return memory_->controller(0); }
    dram::RowhammerMitigation* mitigation() { return memory_->mitigation(0); }

    cpu::SharedLlc& llc() { return *llc_; }

    /** Resolved engine state (for tests and introspection). */
    bool skipping() const { return skip_; }

  private:
    /** Serial main phase over [begin, end): completions, LLC, cores.
     * Returns @p end, or one past the cycle the last core finished on
     * (then *all_done is set). */
    Cycle runMainPhase(Cycle begin, Cycle end, bool* all_done);
    /** The epoch loop (see the file comment); returns one past the
     * last simulated cycle. */
    Cycle runAlternating(bool* all_done);
    SimResult collectResult(Cycle cycles) const;

    SystemConfig cfg_;
    dram::AddressMapper mapper_;
    std::unique_ptr<ctrl::MemorySystem> memory_;
    std::unique_ptr<cpu::SharedLlc> llc_;
    std::vector<std::unique_ptr<cpu::TraceSource>> traces_;
    std::vector<std::unique_ptr<cpu::O3Core>> cores_;
    bool skip_ = false; ///< resolved cfg_.engine.skip
};

} // namespace qprac::sim

#endif // QPRAC_SIM_SYSTEM_H
