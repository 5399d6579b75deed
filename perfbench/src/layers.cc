/**
 * @file
 * The traced run: per-layer spans and counts, measured from the
 * benchmark's own code around the calls into each module's public
 * entry points.
 *
 *  - sim:   ScenarioConfig set/validate/design/experiment, the scenario
 *           hash, ResultCache lookup/store, trace building, System
 *           construction and System::run.
 *  - cpu:   a serial loop of our own over the calls System makes
 *           (MemorySystem::deliverCompletions, SharedLlc::tick,
 *           O3Core::tick per cycle, MemorySystem::runEpoch per window)
 *           that must reproduce System::run's finish cycle and stats.
 *           Timers sit at window boundaries; one cycle in
 *           kSampleEvery is timed call by call for the core/LLC split.
 *  - ctrl:  shard-phase spans, SkipStats and controller counters.
 *  - dram:  the command stream captured by obs::EventRecorder and
 *           replayed into a fresh DramDevice (device timing alone).
 *  - mit:   a RowhammerMitigation decorator that forwards every
 *           virtual and times the calls.
 *  - pool:  per-shard runShard tasks dispatched through WorkerPool::run
 *           with per-task timers (multi-threaded workloads only).
 *  - obs:   the cost of trace=all + metrics against tracing off.
 */
#include <algorithm>
#include <cstring>
#include <memory>

#include "attacks/recovery_attacks.h"
#include "bench.h"
#include "common/parallel.h"
#include "cpu/core.h"
#include "cpu/llc.h"
#include "cpu/trace.h"
#include "ctrl/memory_system.h"
#include "dram/address.h"
#include "dram/dram_device.h"
#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/scenario_hash.h"
#include "sim/system.h"

namespace perfbench {

using namespace qprac;

namespace {

/** Cycles between call-by-call timed main-phase cycles. */
constexpr Cycle kSampleEvery = 16;

/** Metrics sampling period of the observability-overhead run. */
constexpr Cycle kObsMetricsInterval = 10'000;

/** Accumulated span: call count and total ticks(). */
struct Span
{
    std::uint64_t calls = 0;
    std::uint64_t ticks = 0;

    void add(std::uint64_t t)
    {
        ++calls;
        ticks += t;
    }
    void add(const Span& o)
    {
        calls += o.calls;
        ticks += o.ticks;
    }
    double ns() const { return static_cast<double>(ticks) * nsPerTick(); }
    double nsPerCall() const
    {
        return calls ? ns() / static_cast<double>(calls) : 0.0;
    }
};

/** Times every next() of the wrapped trace source. */
class TimedTrace final : public cpu::TraceSource
{
  public:
    TimedTrace(std::unique_ptr<cpu::TraceSource> inner, Span* span)
        : inner_(std::move(inner)), span_(span)
    {
    }

    bool next(cpu::TraceEntry& out) override
    {
        const std::uint64_t t0 = ticks();
        const bool ok = inner_->next(out);
        span_->add(ticks() - t0);
        return ok;
    }

    void warmupAddrs(std::vector<Addr>& out) const override
    {
        inner_->warmupAddrs(out);
    }

  private:
    std::unique_ptr<cpu::TraceSource> inner_;
    Span* span_;
};

/** Per-instance mitigation spans, plus its stats at destruction. */
struct MitProbe
{
    Span act, rfm, ref, poll;
    std::uint64_t acts = 0; ///< ACTs delivered (batched or single)
    dram::MitigationStats stats;

    void add(const MitProbe& o)
    {
        act.add(o.act);
        rfm.add(o.rfm);
        ref.add(o.ref);
        poll.add(o.poll);
        acts += o.acts;
        stats.add(o.stats);
    }
};

/**
 * Forwards every RowhammerMitigation virtual to the registry-built
 * instance, so the device sees the same call pattern, and times them.
 */
class TimedMitigation final : public dram::RowhammerMitigation
{
  public:
    TimedMitigation(std::unique_ptr<dram::RowhammerMitigation> inner,
                    MitProbe* probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    ~TimedMitigation() override { probe_->stats.add(inner_->stats()); }

    void onActivate(int flat_bank, int row, ActCount count,
                    Cycle cycle) override
    {
        const std::uint64_t t0 = ticks();
        inner_->onActivate(flat_bank, row, count, cycle);
        probe_->act.add(ticks() - t0);
        ++probe_->acts;
    }

    void onActivateBatch(const dram::ActEvent* events, int n) override
    {
        const std::uint64_t t0 = ticks();
        inner_->onActivateBatch(events, n);
        probe_->act.add(ticks() - t0);
        probe_->acts += static_cast<std::uint64_t>(n);
    }

    bool wantsAlert() const override
    {
        const std::uint64_t t0 = ticks();
        const bool v = inner_->wantsAlert();
        probe_->poll.add(ticks() - t0);
        return v;
    }

    ActCount alertRiseThreshold() const override
    {
        return inner_->alertRiseThreshold();
    }

    void onRfm(int flat_bank, dram::RfmScope scope, bool alerting_bank,
               Cycle cycle) override
    {
        const std::uint64_t t0 = ticks();
        inner_->onRfm(flat_bank, scope, alerting_bank, cycle);
        probe_->rfm.add(ticks() - t0);
    }

    void onRefresh(int flat_bank, Cycle cycle) override
    {
        const std::uint64_t t0 = ticks();
        inner_->onRefresh(flat_bank, cycle);
        probe_->ref.add(ticks() - t0);
    }

    int alertingBank() const override
    {
        const std::uint64_t t0 = ticks();
        const int v = inner_->alertingBank();
        probe_->poll.add(ticks() - t0);
        return v;
    }

    bool bankWantsAlert(int bank) const override
    {
        const std::uint64_t t0 = ticks();
        const bool v = inner_->bankWantsAlert(bank);
        probe_->poll.add(ticks() - t0);
        return v;
    }

    const dram::MitigationStats& stats() const override
    {
        return inner_->stats();
    }
    std::string name() const override { return inner_->name(); }
    int queueOccupancy() const override { return inner_->queueOccupancy(); }
    std::int64_t maxTrackedCount() const override
    {
        return inner_->maxTrackedCount();
    }

  private:
    std::unique_ptr<dram::RowhammerMitigation> inner_;
    MitProbe* probe_;
};

/** Wrap @p inner so every instance it builds is a TimedMitigation. */
sim::MitigationFactory
timedFactory(const sim::MitigationFactory& inner,
             std::vector<std::unique_ptr<MitProbe>>* probes)
{
    if (!inner)
        return nullptr;
    return [inner, probes](dram::PracCounters* counters)
               -> std::unique_ptr<dram::RowhammerMitigation> {
        auto m = inner(counters);
        if (!m)
            return nullptr;
        probes->push_back(std::make_unique<MitProbe>());
        return std::make_unique<TimedMitigation>(std::move(m),
                                                 probes->back().get());
    };
}

/** Everything one traced pass accumulates across its points. */
struct Acc
{
    // sim
    std::size_t points = 0;
    double config_ns = 0, hash_ns = 0;
    std::vector<double> lookup_us, store_us;
    double traces_ms = 0, build_ms = 0, run_ms = 0;
    double system_run_ms = 0; ///< System::run only (system points)
    // cpu (serial loop)
    double loop_ms = 0, main_ns = 0, deliver_ns = 0, shard_ns = 0;
    Span core_tick, llc_tick;
    std::uint64_t core_ticks = 0;
    double insts = 0;
    cpu::LlcStats llc;
    Span trace_next;
    // ctrl
    double shard_cycles = 0;
    ctrl::SkipStats skip;
    ctrl::CtrlStats ctrl;
    // dram (replay)
    double replay_ns = 0, replay_cmds = 0;
    dram::DeviceStats dev;
    dram::CounterUpdateStats cuq;
    // mitigation
    MitProbe mit;
    double attack_decorated_ms = 0;
    // pool
    std::uint64_t dispatches = 0;
    std::vector<double> barrier_us;
    double task_ns = 0, lane_ns = 0;
    // obs
    double obs_ms = 0;
};

/** The simulated-result half of System's collectResult(). */
StatSet
collectStats(Cycle cycles, const sim::SystemConfig& sys,
             const std::vector<std::unique_ptr<cpu::O3Core>>& cores,
             const ctrl::MemorySystem& memory, const cpu::SharedLlc& llc)
{
    StatSet s;
    double total_insts = 0.0, ipc_sum = 0.0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        ipc_sum += cores[i]->ipc();
        total_insts += static_cast<double>(cores[i]->retired());
        cores[i]->exportStats(s, "core" + std::to_string(i) + ".");
    }
    memory.exportStats(s, "");
    llc.stats().exportTo(s, "llc.");
    const double acts = static_cast<double>(memory.deviceStats().acts);
    const double trefis = static_cast<double>(cycles) /
                          static_cast<double>(sys.timing.tREFI);
    s.set("sim.cycles", static_cast<double>(cycles));
    s.set("sim.ipc_sum", ipc_sum);
    s.set("sim.rbmpki",
          total_insts > 0 ? acts / (total_insts / 1000.0) : 0.0);
    s.set("sim.alerts_per_trefi",
          trefis > 0 ? static_cast<double>(memory.alerts()) / trefis
                     : 0.0);
    return s;
}

/**
 * The alternating epoch schedule, driven from here: per cycle deliver
 * completions, tick the LLC and every core; per window advance every
 * shard (across a WorkerPool when the config has threads > 1). Returns
 * the finish cycle; *stats gets the exported result stats.
 */
Cycle
runSerialLoop(const sim::SystemConfig& sys,
              const sim::MitigationFactory& factory,
              std::vector<std::unique_ptr<cpu::TraceSource>> traces,
              StatSet* stats, Acc& acc)
{
    dram::AddressMapper mapper(sys.org, sys.mapping);
    ctrl::MemorySystem memory(sys.org, sys.timing, sys.ctrl, factory,
                              sys.blast_radius, sys.counter_update);
    cpu::SharedLlc llc(sys.llc, memory, mapper);
    memory.setCycleSkipping(sys.engine.skip != sim::EngineToggle::Off);
    std::vector<std::unique_ptr<cpu::O3Core>> cores;
    for (int i = 0; i < sys.num_cores; ++i)
        cores.push_back(std::make_unique<cpu::O3Core>(
            i, sys.core, *traces[static_cast<std::size_t>(i)], llc));
    std::vector<Addr> warm;
    for (const auto& trace : traces) {
        warm.clear();
        trace->warmupAddrs(warm);
        for (Addr a : warm)
            llc.warmInstall(a);
    }
    const int nch = memory.channels();
    const int degree = std::min(std::max(1, sys.threads), nch);
    std::unique_ptr<WorkerPool> pool;
    if (degree > 1)
        pool = std::make_unique<WorkerPool>(degree);
    std::vector<double> task_ns(static_cast<std::size_t>(nch));

    const double tick_ns = nsPerTick();
    const double loop_start = wallNow();
    const Cycle epoch = memory.epochLength();
    std::uint64_t main_cycles = 0, sampled = 0, deliver_ticks = 0;
    Cycle cycle = 0;
    bool all_done = false;
    while (cycle < sys.max_cycles && !all_done) {
        const Cycle epoch_end = std::min(cycle + epoch, sys.max_cycles);
        Cycle shard_end = epoch_end;
        const std::uint64_t m0 = ticks();
        for (Cycle u = cycle; u < epoch_end; ++u) {
            ++main_cycles;
            all_done = true;
            if (u % kSampleEvery == 0) {
                ++sampled;
                const std::uint64_t a = ticks();
                memory.deliverCompletions(u);
                const std::uint64_t b = ticks();
                llc.tick(u);
                std::uint64_t c = ticks();
                deliver_ticks += b - a;
                acc.llc_tick.add(c - b);
                for (auto& core : cores) {
                    core->tick(u);
                    const std::uint64_t d = ticks();
                    acc.core_tick.add(d - c);
                    c = d;
                    all_done = all_done && core->done();
                }
            } else {
                memory.deliverCompletions(u);
                llc.tick(u);
                for (auto& core : cores) {
                    core->tick(u);
                    all_done = all_done && core->done();
                }
            }
            acc.core_ticks += cores.size();
            if (all_done) {
                shard_end = u + 1;
                break;
            }
        }
        const std::uint64_t m1 = ticks();
        if (pool) {
            memory.syncSubmitMailboxes();
            const Cycle b = cycle, e = shard_end;
            const std::uint64_t d0 = ticks();
            pool->run(static_cast<std::size_t>(nch),
                      [&memory, &task_ns, tick_ns, b, e](std::size_t i) {
                          const std::uint64_t t0 = ticks();
                          memory.runShard(static_cast<int>(i), b, e, e);
                          task_ns[i] =
                              static_cast<double>(ticks() - t0) * tick_ns;
                      });
            const double wall =
                static_cast<double>(ticks() - d0) * tick_ns;
            double longest = 0.0;
            for (double t : task_ns) {
                longest = std::max(longest, t);
                acc.task_ns += t;
            }
            acc.lane_ns += wall * degree;
            acc.barrier_us.push_back(std::max(0.0, wall - longest) / 1e3);
            ++acc.dispatches;
        } else {
            memory.runEpoch(cycle, shard_end, nullptr);
        }
        const std::uint64_t m2 = ticks();
        acc.main_ns += static_cast<double>(m1 - m0) * tick_ns;
        acc.shard_ns += static_cast<double>(m2 - m1) * tick_ns;
        cycle = shard_end;
    }
    if (all_done)
        --cycle;
    memory.flushMitigationActs();
    acc.loop_ms += (wallNow() - loop_start) * 1e3;

    // Deliveries are timed on the sampled cycles only; scale them to
    // the whole main phase and move them out of the main-phase total.
    const double deliver =
        sampled ? static_cast<double>(deliver_ticks) * tick_ns *
                      static_cast<double>(main_cycles) /
                      static_cast<double>(sampled)
                : 0.0;
    acc.deliver_ns += deliver;
    acc.main_ns -= deliver;
    acc.shard_cycles +=
        static_cast<double>(nch) * static_cast<double>(cycle + 1);
    acc.skip.add(memory.skipStats());
    acc.ctrl.add(memory.ctrlStats());
    for (const auto& core : cores)
        acc.insts += static_cast<double>(core->retired());
    const cpu::LlcStats& ls = llc.stats();
    acc.llc.loads += ls.loads;
    acc.llc.load_misses += ls.load_misses;
    acc.llc.writebacks += ls.writebacks;
    acc.llc.mshr_merges += ls.mshr_merges;
    *stats = collectStats(cycle, sys, cores, memory, llc);
    return cycle;
}

/** Geometry and device parameters a command replay needs. */
struct DeviceSpec
{
    dram::Organization org;
    dram::TimingParams timing;
    int blast_radius = 2;
    dram::CounterUpdateConfig counter_update;
    int nmit = 1;
    sim::MitigationFactory factory;
};

/**
 * Replay every channel's captured cmd/refresh/rfm events into a fresh
 * DramDevice + mitigation through the public issue* calls. Returns the
 * per-channel device stats of the replay.
 */
std::vector<dram::DeviceStats>
replayCommands(obs::EventRecorder& rec, const DeviceSpec& spec, Acc& acc)
{
    std::vector<dram::DeviceStats> out;
    const double tick_ns = nsPerTick();
    for (int ch = 0; ch < spec.org.channels; ++ch) {
        std::vector<obs::Event> cmds;
        for (const auto& [seq, e] : rec.sink(ch)->drain())
            if (e.cat == obs::kCmd || e.cat == obs::kRefresh ||
                e.cat == obs::kRfm)
                cmds.push_back(e);
        dram::DramDevice dev(spec.org, spec.timing, spec.blast_radius,
                             spec.counter_update);
        std::unique_ptr<dram::RowhammerMitigation> mit;
        if (spec.factory)
            mit = spec.factory(&dev.pracCounters());
        dev.setMitigation(mit.get());
        dev.setAboDelay(std::max(1, spec.nmit));
        const std::uint64_t t0 = ticks();
        for (const obs::Event& e : cmds) {
            const int a = static_cast<int>(e.v0);
            if (std::strcmp(e.name, "ACT") == 0)
                dev.issueAct(a, static_cast<int>(e.v1), e.cycle);
            else if (std::strcmp(e.name, "PRE") == 0)
                dev.issuePre(a, e.cycle);
            else if (std::strcmp(e.name, "RD") == 0)
                dev.issueRead(a, e.cycle);
            else if (std::strcmp(e.name, "WR") == 0)
                dev.issueWrite(a, e.cycle);
            else if (std::strcmp(e.name, "REF") == 0)
                dev.issueRefresh(a, e.cycle);
            else if (std::strcmp(e.name, "RFM") == 0)
                dev.issueRfm(static_cast<dram::RfmScope>(a),
                             static_cast<int>(e.v1), e.cycle);
        }
        dev.flushMitigationActs();
        acc.replay_ns += static_cast<double>(ticks() - t0) * tick_ns;
        acc.replay_cmds += static_cast<double>(cmds.size());
        acc.dev.add(dev.stats());
        acc.cuq.add(dev.counterUpdateStats());
        out.push_back(dev.stats());
    }
    return out;
}

/**
 * Run @p body (which returns its timed run in ms) with a recorder
 * holding every category, growing the per-lane ring until nothing was
 * dropped. Returns the recorder of the drop-free run (null if none
 * fit); its run time lands in acc.obs_ms.
 */
template <typename Body>
std::unique_ptr<obs::EventRecorder>
recordRun(int channels, std::size_t capacity, Acc& acc, Body body)
{
    for (int attempt = 0; attempt < 4; ++attempt, capacity *= 4) {
        obs::RecorderConfig rc;
        rc.mask = obs::kAllCategories;
        rc.ring_capacity = capacity;
        rc.metrics_interval = kObsMetricsInterval;
        auto rec = std::make_unique<obs::EventRecorder>(rc, channels);
        const double ms = body(rec.get());
        if (rec->totalDropped() == 0) {
            acc.obs_ms += ms;
            return rec;
        }
    }
    return nullptr;
}

bool
sameDeviceStats(const dram::DeviceStats& a, const dram::DeviceStats& b)
{
    return a.acts == b.acts && a.pres == b.pres && a.reads == b.reads &&
           a.writes == b.writes && a.refs == b.refs && a.rfms == b.rfms;
}

std::uint64_t
commandCount(const dram::DeviceStats& s)
{
    return s.acts + s.pres + s.reads + s.writes + s.refs + s.rfms;
}

/** The scenario layer's rfm-probe mapping, rebuilt from public parts. */
attacks::RecoveryAttackConfig
rfmProbeConfig(const sim::ScenarioConfig& cfg, const sim::DesignSpec& d,
               const sim::ExperimentConfig& e)
{
    attacks::RecoveryAttackConfig a;
    a.org.channels = cfg.channels;
    a.org.ranks = cfg.ranks;
    a.timing = d.timing;
    a.ctrl.abo = d.abo;
    a.ctrl.rfm_policy = d.rfm_policy;
    a.mitigation = d.factory;
    a.mapping = e.mapping;
    if (cfg.attack_cycles)
        a.attack_cycles = static_cast<Cycle>(cfg.attack_cycles);
    a.counter_update = e.counter_update;
    a.attack_banks = std::min(1, a.org.banksPerRank() - 1);
    return a;
}

/** Per-point detail printed beside the pass (per-policy findings). */
void
printPointLine(const Point& p, double run_ms, const Acc& before,
               const Acc& after)
{
    const double shard_cycles = after.shard_cycles - before.shard_cycles;
    const double skipped =
        static_cast<double>(after.skip.cycles_skipped -
                            before.skip.cycles_skipped);
    const double shard_ns = after.shard_ns - before.shard_ns;
    const double ticked = shard_cycles - skipped;
    if (shard_cycles <= 0) { // attack point: no serial loop
        std::printf("  point %-58s run_ms=%9.3f\n", p.label.c_str(),
                    run_ms);
        return;
    }
    std::printf("  point %-58s run_ms=%9.3f skip_frac=%.4f "
                "ns_per_ticked_cycle=%.1f\n",
                p.label.c_str(), run_ms, skipped / shard_cycles,
                ticked > 0 ? shard_ns / ticked : 0.0);
}

} // namespace

const std::vector<std::pair<std::string, std::string>>&
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"sim.config_us", "us"},
        {"sim.hash_us", "us"},
        {"sim.cache_lookup_us_p50", "us"},
        {"sim.cache_lookup_us_max", "us"},
        {"sim.cache_store_us_p50", "us"},
        {"sim.cache_store_us_max", "us"},
        {"sim.cache_hits", "count"},
        {"sim.cache_stored", "count"},
        {"sim.traces_ms", "ms"},
        {"sim.system_build_ms", "ms"},
        {"sim.run_ms", "ms"},
        {"sim.slowdown_pct", "%"},
        {"cpu.main_phase_ms", "ms"},
        {"cpu.main_phase_share", "ratio"},
        {"cpu.core_tick_ns", "ns"},
        {"cpu.llc_tick_ns", "ns"},
        {"cpu.core_ticks", "count"},
        {"cpu.insts_retired", "count"},
        {"cpu.trace_next_ns", "ns"},
        {"cpu.trace_entries", "count"},
        {"llc.loads", "count"},
        {"llc.load_misses", "count"},
        {"llc.writebacks", "count"},
        {"llc.mshr_merges", "count"},
        {"ctrl.shard_phase_ms", "ms"},
        {"ctrl.deliver_ms", "ms"},
        {"ctrl.ns_per_ticked_cycle", "ns"},
        {"ctrl.skip_frac", "ratio"},
        {"ctrl.wakes_command", "count"},
        {"ctrl.wakes_mailbox", "count"},
        {"ctrl.wakes_recovery", "count"},
        {"ctrl.wakes_epoch", "count"},
        {"ctrl.reads_done", "count"},
        {"ctrl.row_hits", "count"},
        {"ctrl.alerts", "count"},
        {"ctrl.rfms", "count"},
        {"ctrl.refs", "count"},
        {"dram.replay_ns_per_cmd", "ns"},
        {"dram.acts", "count"},
        {"dram.pres", "count"},
        {"dram.refs", "count"},
        {"dram.rfms", "count"},
        {"dram.cuq_enqueued", "count"},
        {"dram.cuq_stalls", "count"},
        {"mit.act_ns", "ns"},
        {"mit.batch_size", "count"},
        {"mit.rfm_ns", "ns"},
        {"mit.ref_ns", "ns"},
        {"mit.poll_ns", "ns"},
        {"mit.share", "ratio"},
        {"mit.psq_insertions", "count"},
        {"mit.psq_evictions", "count"},
        {"mit.psq_hits", "count"},
        {"mit.rfm_mitigations", "count"},
        {"mit.proactive_mitigations", "count"},
        {"pool.dispatches", "count"},
        {"pool.barrier_us_p50", "us"},
        {"pool.barrier_us_p99", "us"},
        {"pool.idle_frac", "ratio"},
        {"obs.enabled_overhead_pct", "%"},
        {"trace.overhead_pct", "%"},
        {"trace.loop_ms", "ms"},
        {"trace.unaccounted_pct", "%"},
    };
    return m;
}

TracedPass
runTracedPass(const Workload& w, const std::vector<Point>& points,
              const std::string& cache_dir, bool print_points)
{
    TracedPass pass;
    Acc acc;
    const double tick_ns = nsPerTick();
    sim::ResultCache cache(cache_dir);
    std::vector<sim::ScenarioResult> cold(points.size());
    pass.digests.resize(points.size());
    pass.problems.resize(points.size());
    auto fail = [&pass](std::size_t i, const std::string& why) {
        std::string& p = pass.problems[i];
        p += (p.empty() ? "" : "; ") + why;
    };

    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        const Acc before = acc;
        ++acc.points;
        std::string err;

        // sim: configuration, hash, cold lookup.
        std::uint64_t t0 = ticks();
        sim::ScenarioConfig cfg = w.base;
        bool ok = true;
        for (const auto& [key, value] : p.overrides)
            ok = ok && cfg.set(key, value, &err);
        ok = ok && cfg.validate(&err);
        if (!ok) {
            fail(i, err);
            continue;
        }
        const sim::DesignSpec design = cfg.design();
        const sim::ExperimentConfig exp = cfg.experiment();
        acc.config_ns += static_cast<double>(ticks() - t0) * tick_ns;
        t0 = ticks();
        const std::string hash = sim::scenarioHashHex(cfg);
        acc.hash_ns += static_cast<double>(ticks() - t0) * tick_ns;
        {
            sim::ScenarioResult probe;
            if (cache.lookup(cfg, &probe))
                fail(i, "cold cache already held " + hash);
        }

        sim::ScenarioResult& res = cold[i];
        std::vector<std::unique_ptr<MitProbe>> probes;
        DeviceSpec dspec;
        dspec.factory = design.factory;
        dspec.nmit = cfg.nmit;
        std::unique_ptr<obs::EventRecorder> rec;
        std::vector<dram::DeviceStats> ref_dev;
        if (isSystemPoint(cfg)) {
            const sim::SystemConfig sys = sim::makeSystemConfig(design, exp);
            dspec.org = sys.org;
            dspec.timing = sys.timing;
            dspec.blast_radius = sys.blast_radius;
            dspec.counter_update = sys.counter_update;

            // sim: traces, System build, System::run.
            const double w0 = wallNow();
            auto traces = sim::buildScenarioTraces(cfg);
            const double w1 = wallNow();
            acc.traces_ms += (w1 - w0) * 1e3;
            std::uint64_t cmds = 0;
            {
                sim::System system(sys, design.factory, std::move(traces));
                const double w2 = wallNow();
                acc.build_ms += (w2 - w1) * 1e3;
                res.sim = system.run();
                const double run_ms = (wallNow() - w2) * 1e3;
                acc.run_ms += run_ms;
                acc.system_run_ms += run_ms;
                for (int ch = 0; ch < system.memory().channels(); ++ch) {
                    ref_dev.push_back(system.memory().device(ch).stats());
                    cmds += commandCount(ref_dev.back());
                }
            }
            res.config = cfg;
            res.stats = res.sim.stats;

            // cpu + ctrl + mit + pool: the serial loop.
            std::vector<std::unique_ptr<cpu::TraceSource>> timed;
            for (auto& t : sim::buildScenarioTraces(cfg))
                timed.push_back(std::make_unique<TimedTrace>(
                    std::move(t), &acc.trace_next));
            StatSet loop_stats;
            const Cycle finish =
                runSerialLoop(sys, timedFactory(design.factory, &probes),
                              std::move(timed), &loop_stats, acc);
            if (finish != res.sim.cycles ||
                loop_stats.entries() != res.sim.stats.entries())
                fail(i, "serial loop diverged from System::run (finish " +
                            std::to_string(finish) + " vs " +
                            std::to_string(res.sim.cycles) + ")");

            // obs: trace=all + metrics, whose command stream feeds the
            // dram replay.
            rec = recordRun(sys.org.channels, cmds * 4 + 65536, acc,
                            [&](obs::EventRecorder* r) {
                                sim::SystemConfig traced = sys;
                                traced.recorder = r;
                                sim::System system(
                                    traced, design.factory,
                                    sim::buildScenarioTraces(cfg));
                                const double r0 = wallNow();
                                system.run();
                                return (wallNow() - r0) * 1e3;
                            });
        } else {
            if (cfg.sourceName() != "rfm-probe") {
                fail(i, "traced run supports attack:rfm-probe only");
                continue;
            }
            attacks::RecoveryAttackConfig a =
                rfmProbeConfig(cfg, design, exp);
            dspec.org = a.org;
            dspec.timing = a.timing;
            dspec.counter_update = a.counter_update;

            double w0 = wallNow();
            res = sim::runScenario(cfg);
            acc.run_ms += (wallNow() - w0) * 1e3;

            a.mitigation = timedFactory(design.factory, &probes);
            w0 = wallNow();
            const attacks::RfmProbeResult r = attacks::runRfmProbeAttack(a);
            acc.attack_decorated_ms += (wallNow() - w0) * 1e3;
            if (static_cast<double>(r.alerts) !=
                    res.stats.get("attack.alerts") ||
                static_cast<double>(r.rfms) != res.stats.get("attack.rfms") ||
                r.leakageSignal() != res.stats.get("attack.leakage_signal"))
                fail(i, "decorated rfm-probe run diverged");
            acc.ctrl.alerts += r.alerts;
            acc.ctrl.rfms += r.rfms;

            a.mitigation = design.factory;
            rec = recordRun(cfg.channels, std::size_t{1} << 18, acc,
                            [&](obs::EventRecorder* rr) {
                                attacks::RecoveryAttackConfig traced = a;
                                traced.recorder = rr;
                                const double r0 = wallNow();
                                attacks::runRfmProbeAttack(traced);
                                return (wallNow() - r0) * 1e3;
                            });
        }
        for (const auto& probe : probes)
            acc.mit.add(*probe);

        // dram: replay the captured command stream.
        if (!rec) {
            fail(i, "event ring dropped commands at every capacity tried");
        } else {
            const auto replayed = replayCommands(*rec, dspec, acc);
            for (std::size_t ch = 0; ch < ref_dev.size(); ++ch)
                if (!sameDeviceStats(replayed[ch], ref_dev[ch]))
                    fail(i, "command replay diverged on channel " +
                                std::to_string(ch));
        }

        // sim: cache store.
        t0 = ticks();
        if (!cache.store(cfg, res))
            fail(i, "cache store failed");
        acc.store_us.push_back(static_cast<double>(ticks() - t0) *
                               tick_ns / 1e3);
        pass.digests[i] = digestHex(res.resultJson());
        if (print_points)
            printPointLine(p, acc.run_ms - before.run_ms, before, acc);
    }

    // Warm pass: every point must hit and match its cold result.
    for (std::size_t i = 0; i < points.size(); ++i) {
        sim::ScenarioResult warm;
        const std::uint64_t t0 = ticks();
        const bool hit = cache.lookup(points[i].cfg, &warm);
        acc.lookup_us.push_back(static_cast<double>(ticks() - t0) *
                                tick_ns / 1e3);
        if (!hit || warm.resultJson() != cold[i].resultJson())
            fail(i, "warm cache result differs from cold");
    }

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const sim::ResultCache::Counters cc = cache.counters();
    const double n = static_cast<double>(std::max<std::size_t>(1, acc.points));
    const double phases = acc.main_ns + acc.shard_ns + acc.deliver_ns;
    const double ticked =
        acc.shard_cycles - static_cast<double>(acc.skip.cycles_skipped);
    const double mit_ns = acc.mit.act.ns() + acc.mit.rfm.ns() +
                          acc.mit.ref.ns() + acc.mit.poll.ns();
    const double loop_ns = acc.loop_ms * 1e6;
    LayerValues& v = pass.values;
    v["sim.config_us"] = acc.config_ns / 1e3 / n;
    v["sim.hash_us"] = acc.hash_ns / 1e3 / n;
    v["sim.cache_lookup_us_p50"] = quantile(acc.lookup_us, 0.5);
    v["sim.cache_lookup_us_max"] = quantile(acc.lookup_us, 1.0);
    v["sim.cache_store_us_p50"] = quantile(acc.store_us, 0.5);
    v["sim.cache_store_us_max"] = quantile(acc.store_us, 1.0);
    v["sim.cache_hits"] = static_cast<double>(cc.hits);
    v["sim.cache_stored"] = static_cast<double>(cc.stored);
    v["sim.traces_ms"] = acc.traces_ms;
    v["sim.system_build_ms"] = acc.build_ms;
    v["sim.run_ms"] = acc.run_ms;
    v["sim.slowdown_pct"] = slowdownPct(cold, "qprac");
    v["cpu.main_phase_ms"] = acc.main_ns / 1e6;
    v["cpu.main_phase_share"] = ratio(acc.main_ns, phases);
    v["cpu.core_tick_ns"] = acc.core_tick.nsPerCall();
    v["cpu.llc_tick_ns"] = acc.llc_tick.nsPerCall();
    v["cpu.core_ticks"] = static_cast<double>(acc.core_ticks);
    v["cpu.insts_retired"] = acc.insts;
    v["cpu.trace_next_ns"] = acc.trace_next.nsPerCall();
    v["cpu.trace_entries"] = static_cast<double>(acc.trace_next.calls);
    v["llc.loads"] = static_cast<double>(acc.llc.loads);
    v["llc.load_misses"] = static_cast<double>(acc.llc.load_misses);
    v["llc.writebacks"] = static_cast<double>(acc.llc.writebacks);
    v["llc.mshr_merges"] = static_cast<double>(acc.llc.mshr_merges);
    v["ctrl.shard_phase_ms"] = acc.shard_ns / 1e6;
    v["ctrl.deliver_ms"] = acc.deliver_ns / 1e6;
    v["ctrl.ns_per_ticked_cycle"] = ratio(acc.shard_ns, ticked);
    v["ctrl.skip_frac"] =
        ratio(static_cast<double>(acc.skip.cycles_skipped), acc.shard_cycles);
    v["ctrl.wakes_command"] = static_cast<double>(acc.skip.wakes_command);
    v["ctrl.wakes_mailbox"] = static_cast<double>(acc.skip.wakes_mailbox);
    v["ctrl.wakes_recovery"] = static_cast<double>(acc.skip.wakes_recovery);
    v["ctrl.wakes_epoch"] = static_cast<double>(acc.skip.wakes_epoch);
    v["ctrl.reads_done"] = static_cast<double>(acc.ctrl.reads_done);
    v["ctrl.row_hits"] = static_cast<double>(acc.ctrl.row_hits);
    v["ctrl.alerts"] = static_cast<double>(acc.ctrl.alerts);
    v["ctrl.rfms"] = static_cast<double>(acc.ctrl.rfms);
    v["ctrl.refs"] = static_cast<double>(acc.ctrl.refs);
    v["dram.replay_ns_per_cmd"] = ratio(acc.replay_ns, acc.replay_cmds);
    v["dram.acts"] = static_cast<double>(acc.dev.acts);
    v["dram.pres"] = static_cast<double>(acc.dev.pres);
    v["dram.refs"] = static_cast<double>(acc.dev.refs);
    v["dram.rfms"] = static_cast<double>(acc.dev.rfms);
    v["dram.cuq_enqueued"] = static_cast<double>(acc.cuq.enqueued);
    v["dram.cuq_stalls"] = static_cast<double>(acc.cuq.stalls);
    v["mit.act_ns"] =
        ratio(acc.mit.act.ns(), static_cast<double>(acc.mit.acts));
    v["mit.batch_size"] = ratio(static_cast<double>(acc.mit.acts),
                                static_cast<double>(acc.mit.act.calls));
    v["mit.rfm_ns"] = acc.mit.rfm.nsPerCall();
    v["mit.ref_ns"] = acc.mit.ref.nsPerCall();
    v["mit.poll_ns"] = acc.mit.poll.nsPerCall();
    v["mit.share"] =
        ratio(mit_ns, acc.shard_ns + acc.attack_decorated_ms * 1e6);
    v["mit.psq_insertions"] = static_cast<double>(acc.mit.stats.psq_insertions);
    v["mit.psq_evictions"] = static_cast<double>(acc.mit.stats.psq_evictions);
    v["mit.psq_hits"] = static_cast<double>(acc.mit.stats.psq_hits);
    v["mit.rfm_mitigations"] =
        static_cast<double>(acc.mit.stats.rfm_mitigations);
    v["mit.proactive_mitigations"] =
        static_cast<double>(acc.mit.stats.proactive_mitigations);
    v["pool.dispatches"] = static_cast<double>(acc.dispatches);
    v["pool.barrier_us_p50"] = quantile(acc.barrier_us, 0.5);
    v["pool.barrier_us_p99"] = quantile(acc.barrier_us, 0.99);
    v["pool.idle_frac"] =
        acc.lane_ns > 0 ? 1.0 - acc.task_ns / acc.lane_ns : 0.0;
    v["obs.enabled_overhead_pct"] =
        100.0 * (ratio(acc.obs_ms, acc.run_ms) - 1.0);
    v["trace.overhead_pct"] =
        acc.system_run_ms > 0
            ? 100.0 * (acc.loop_ms / acc.system_run_ms - 1.0)
            : 0.0;
    v["trace.loop_ms"] = acc.loop_ms;
    v["trace.unaccounted_pct"] =
        loop_ns > 0 ? 100.0 * (loop_ns - phases) / loop_ns : 0.0;
    return pass;
}

} // namespace perfbench
