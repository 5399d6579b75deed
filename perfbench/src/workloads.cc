#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "attacks/recovery_attacks.h"
#include "bench.h"

namespace perfbench {

using qprac::sim::ScenarioConfig;
using qprac::sim::ScenarioResult;
using qprac::sim::SourceKind;
using qprac::sim::SweepAxis;
using qprac::sim::SweepSpec;

namespace {

using KeyValues = std::vector<std::pair<std::string, std::string>>;

/** Every ScenarioConfig key at the value the benchmark pins it to. */
KeyValues
commonKeys(std::uint64_t seed)
{
    return {
        {"source", "workload:429.mcf"},
        {"mitigation", "qprac+proactive-ea"},
        {"backend", ""},
        {"psq_size", "0"},
        {"nbo", "32"},
        {"nmit", "1"},
        {"recovery", "channel-stall"},
        {"channels", "1"},
        {"ranks", "2"},
        {"mapping", "row-major"},
        {"insts", "100000"},
        {"cores", "4"},
        {"seed", std::to_string(seed)},
        {"llc_mb", "2"},
        {"threads", "1"},
        {"baseline", "false"},
        {"r1", "2000"},
        {"attack_cycles", "100000"},
        {"pipeline", "auto"},
        {"steal", "auto"},
        {"corepar", "auto"},
        {"skip", "auto"},
        {"subarrays", "64"},
        {"counter-update", "inline"},
        {"cuq_depth", "16"},
        {"trace", "off"},
        {"trace-out", ""},
        {"metrics-interval", "off"},
    };
}

SweepSpec
sweep(std::vector<SweepAxis> axes)
{
    SweepSpec s;
    s.axes = std::move(axes);
    return s;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"fig14-sample",
                                                   "abo-storm",
                                                   "engine-8ch"};
    return names;
}

bool
makeWorkload(const std::string& name, std::uint64_t seed, Workload* out,
             std::string* err)
{
    KeyValues keys = commonKeys(seed);
    auto pin = [&keys](const std::string& key, const std::string& value) {
        for (auto& kv : keys)
            if (kv.first == key)
                kv.second = value;
    };
    Workload w;
    w.name = name;
    if (name == "fig14-sample") {
        // The paper's default benign evaluation (Figs 14-15).
        w.sweeps.push_back(sweep(
            {{"source",
              {"workload:510.parest_r", "workload:429.mcf",
               "workload:470.lbm", "workload:444.namd"}},
             {"mitigation", {"none", "qprac", "qprac+proactive-ea"}}}));
    } else if (name == "abo-storm") {
        // PRACtical recovery grid at a low threshold: every mitigation
        // goes through ABO -> RFM (no proactive mitigation).
        pin("channels", "2");
        pin("nbo", "8");
        pin("mitigation", "qprac");
        pin("insts", "40000");
        w.sweeps.push_back(sweep(
            {{"recovery", {"channel-stall", "bank-isolated"}},
             {"counter-update", {"inline", "queued"}},
             {"source", {"workload:510.parest_r", "attack:rfm-probe"}}}));
    } else if (name == "engine-8ch") {
        // The engine-grid headline point: pool, mailboxes, pipelining.
        // threads = min(2, nproc) rather than min(4, nproc): on a 4-vCPU
        // VM a four-lane window barrier stalls whenever the hypervisor
        // steals any one vCPU, and ten 36 s runs at four threads spread
        // 0.28 (IQR / median of sim_mcycles_per_s) against 0.10 at two.
        // One sweep per source so each point gets the whole thread
        // budget (runSweep would otherwise run the two points side by
        // side on half of it each).
        const unsigned hw = std::thread::hardware_concurrency();
        pin("channels", "8");
        pin("insts", "200000");
        pin("threads", std::to_string(std::clamp(hw ? hw : 1u, 1u, 2u)));
        w.sweeps.push_back(sweep({{"source", {"workload:429.mcf"}}}));
        w.sweeps.push_back(sweep({{"source", {"workload:444.namd"}}}));
    } else {
        if (err)
            *err = "unknown workload '" + name + "'";
        return false;
    }
    // Pin every key the scenario schema knows; a key the table misses
    // is an input the benchmark does not control.
    for (const auto& key : ScenarioConfig::keys()) {
        const bool listed =
            std::any_of(keys.begin(), keys.end(),
                        [&key](const auto& kv) { return kv.first == key; });
        if (!listed) {
            if (err)
                *err = "scenario key '" + key + "' is not pinned";
            return false;
        }
    }
    for (const auto& [key, value] : keys)
        if (!w.base.set(key, value, err))
            return false;
    *out = std::move(w);
    return true;
}

bool
expandPoints(const Workload& w, std::vector<Point>* out, std::string* err)
{
    out->clear();
    for (const SweepSpec& spec : w.sweeps)
        for (const auto& overrides : spec.enumerate()) {
            Point p;
            p.cfg = w.base;
            p.overrides = overrides;
            for (const auto& [key, value] : overrides) {
                if (!p.cfg.set(key, value, err))
                    return false;
                p.label += (p.label.empty() ? "" : ",") + key + "=" + value;
            }
            if (!p.cfg.validate(err))
                return false;
            out->push_back(std::move(p));
        }
    return true;
}

bool
isSystemPoint(const ScenarioConfig& cfg)
{
    return cfg.sourceKind() != SourceKind::Attack;
}

double
simulatedCycles(const ScenarioResult& r)
{
    if (r.is_attack) // the recovery attack runners add a quiet warm-up
        return static_cast<double>(
            qprac::attacks::RecoveryAttackConfig{}.warmup_cycles +
            r.config.attack_cycles);
    return static_cast<double>(r.sim.cycles);
}

double
slowdownPct(const std::vector<ScenarioResult>& results,
            const std::string& design)
{
    // Pair points that differ only in the mitigation key.
    auto pairKey = [](const ScenarioConfig& c) {
        ScenarioConfig k = c;
        k.mitigation = "none";
        return k.toIni();
    };
    std::map<std::string, double> none_ipc;
    for (const auto& r : results)
        if (!r.is_attack && r.config.mitigation == "none")
            none_ipc[pairKey(r.config)] = r.sim.ipc_sum;
    double log_sum = 0.0;
    int n = 0;
    for (const auto& r : results) {
        if (r.is_attack || r.config.mitigation != design)
            continue;
        auto it = none_ipc.find(pairKey(r.config));
        if (it == none_ipc.end() || it->second <= 0.0)
            continue;
        log_sum += std::log(r.sim.ipc_sum / it->second);
        ++n;
    }
    return n ? 100.0 * (1.0 - std::exp(log_sum / n)) : 0.0;
}

} // namespace perfbench
