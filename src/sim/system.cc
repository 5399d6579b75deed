#include "sim/system.h"

#include <algorithm>
#include <chrono>

#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"

namespace qprac::sim {

bool
parseEngineToggle(const std::string& text, EngineToggle* out)
{
    const std::string t = trimmed(text);
    if (t == "auto")
        *out = EngineToggle::Auto;
    else if (t == "on" || t == "true" || t == "1")
        *out = EngineToggle::On;
    else if (t == "off" || t == "false" || t == "0")
        *out = EngineToggle::Off;
    else
        return false;
    return true;
}

std::string
toString(EngineToggle t)
{
    switch (t) {
    case EngineToggle::Auto:
        return "auto";
    case EngineToggle::On:
        return "on";
    case EngineToggle::Off:
        return "off";
    }
    return "auto";
}

System::System(const SystemConfig& config, MitigationFactory mitigation,
               std::vector<std::unique_ptr<cpu::TraceSource>> traces)
    : cfg_(config),
      mapper_(config.org, config.mapping),
      traces_(std::move(traces))
{
    QP_ASSERT(static_cast<int>(traces_.size()) == cfg_.num_cores,
              "one trace per core required");
    memory_ = std::make_unique<ctrl::MemorySystem>(
        cfg_.org, cfg_.timing, cfg_.ctrl, mitigation, cfg_.blast_radius,
        cfg_.counter_update);
    llc_ = std::make_unique<cpu::SharedLlc>(cfg_.llc, *memory_, mapper_);

    // Cycle skipping is bit-identical to dense ticking (the horizon
    // contract, ctrl/memory_system.h), so auto = on.
    skip_ = cfg_.engine.skip != EngineToggle::Off;
    memory_->setCycleSkipping(skip_);
    if (cfg_.recorder)
        memory_->setEventRecorder(cfg_.recorder);

    for (int i = 0; i < cfg_.num_cores; ++i)
        cores_.push_back(std::make_unique<cpu::O3Core>(
            i, cfg_.core, *traces_[static_cast<std::size_t>(i)], *llc_));

    // Pre-warm each trace's resident set so short runs are not
    // dominated by cold-start misses.
    std::vector<Addr> warm;
    for (const auto& trace : traces_) {
        warm.clear();
        trace->warmupAddrs(warm);
        for (Addr a : warm)
            llc_->warmInstall(a);
    }
}

Cycle
System::runMainPhase(Cycle begin, Cycle end, bool* all_done)
{
    for (Cycle u = begin; u < end; ++u) {
        memory_->deliverCompletions(u);
        llc_->tick(u);
        *all_done = true;
        for (auto& core : cores_) {
            core->tick(u);
            *all_done = *all_done && core->done();
        }
        // The serial loop still ticked memory at the finish cycle; the
        // shard window ends after it too.
        if (*all_done)
            return u + 1;
    }
    return end;
}

Cycle
System::runAlternating(bool* all_done)
{
    // Epoch-phased execution (see ctrl/memory_system.h). Each
    // iteration runs the serial main phase over [cycle, epoch_end)
    // and then advances every shard over the same cycles on this
    // thread. The interleaving is bit-identical to the historical
    // one-cycle loop: submits stamped t reach their controller before
    // its tick t+1, and every completion firing in this main phase was
    // mailed by an earlier shard phase (the epoch length is the
    // completion lookahead).
    const Cycle epoch = memory_->epochLength();
    Cycle cycle = 0;
    while (cycle < cfg_.max_cycles && !*all_done) {
        const Cycle shard_end = runMainPhase(
            cycle, std::min(cycle + epoch, cfg_.max_cycles), all_done);
        memory_->runEpoch(cycle, shard_end);
        cycle = shard_end;
    }
    return cycle;
}

SimResult
System::collectResult(Cycle cycles) const
{
    SimResult r;
    r.cycles = cycles;
    double total_insts = 0.0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        double ipc = cores_[i]->ipc();
        r.core_ipc.push_back(ipc);
        r.ipc_sum += ipc;
        total_insts += static_cast<double>(cores_[i]->retired());
        cores_[i]->exportStats(r.stats, strCat("core", i, "."));
    }
    memory_->exportStats(r.stats, "");
    llc_->stats().exportTo(r.stats, "llc.");

    r.acts = static_cast<double>(memory_->deviceStats().acts);
    r.rbmpki = total_insts > 0 ? r.acts / (total_insts / 1000.0) : 0.0;
    double trefis = static_cast<double>(cycles) /
                    static_cast<double>(cfg_.timing.tREFI);
    r.alerts_per_trefi =
        trefis > 0 ? static_cast<double>(memory_->alerts()) / trefis : 0.0;
    r.stats.set("sim.cycles", static_cast<double>(cycles));
    r.stats.set("sim.ipc_sum", r.ipc_sum);
    r.stats.set("sim.rbmpki", r.rbmpki);
    r.stats.set("sim.alerts_per_trefi", r.alerts_per_trefi);
    return r;
}

SimResult
System::run()
{
    const auto start = std::chrono::steady_clock::now();
    bool all_done = false;
    Cycle cycles = runAlternating(&all_done);
    if (all_done)
        --cycles; // report the cycle the last core finished on
    else
        warn("simulation hit max_cycles before cores finished");
    // Land any still-buffered ACT notifications before reading stats.
    memory_->flushMitigationActs();
    SimResult r = collectResult(cycles);
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    r.skip = memory_->skipStats(); // engine-only, like wall_ms
    return r;
}

double
SimResult::simCyclesPerSec() const
{
    if (wall_ms <= 0.0)
        return 0.0;
    return static_cast<double>(cycles) / (wall_ms / 1000.0);
}

std::string
SimResult::toJson() const
{
    // wall_ms / simCyclesPerSec() are deliberately absent: this
    // document is compared bit-for-bit across thread budgets and engine
    // modes (tests/test_determinism.cc); timing lives beside it in
    // SweepPointResult and the bench emitters.
    JsonWriter w;
    w.beginObject();
    w.key("cycles").value(static_cast<std::uint64_t>(cycles));
    w.key("ipc_sum").value(ipc_sum);
    w.key("rbmpki").value(rbmpki);
    w.key("alerts_per_trefi").value(alerts_per_trefi);
    w.key("acts").value(acts);
    w.key("core_ipc").beginArray();
    for (double ipc : core_ipc)
        w.value(ipc);
    w.endArray();
    w.key("stats").beginObject();
    for (const auto& [name, value] : stats.entries())
        w.key(name).value(value);
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace qprac::sim
