#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "attacks/panopticon_attacks.h"
#include "attacks/perf_attack.h"
#include "attacks/recovery_attacks.h"
#include "attacks/wave_attack.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"
#include "common/subprocess.h"
#include "core/service_queue.h"
#include "dram/address.h"
#include "mitigations/factory.h"
#include "obs/obs.h"
#include "sim/result_cache.h"
#include "sim/scenario_hash.h"
#include "sim/system.h"
#include "sim/workloads.h"

namespace qprac::sim {

namespace {

constexpr const char* kWorkloadPrefix = "workload:";
constexpr const char* kTracePrefix = "trace:";
constexpr const char* kAttackPrefix = "attack:";

bool
hasWorkload(const std::string& name)
{
    for (const auto& w : workloadSuite())
        if (w.name == name)
            return true;
    return false;
}

bool
startsWith(const std::string& s, const char* prefix)
{
    return s.rfind(prefix, 0) == 0;
}

} // namespace

bool
parseSource(const std::string& text, SourceKind* kind, std::string* name)
{
    std::string t = trimmed(text);
    if (startsWith(t, kWorkloadPrefix)) {
        *kind = SourceKind::Workload;
        *name = t.substr(std::string(kWorkloadPrefix).size());
        return !name->empty();
    }
    if (startsWith(t, kTracePrefix)) {
        *kind = SourceKind::TraceFile;
        *name = t.substr(std::string(kTracePrefix).size());
        return !name->empty();
    }
    if (startsWith(t, kAttackPrefix)) {
        *kind = SourceKind::Attack;
        *name = t.substr(std::string(kAttackPrefix).size());
        return !name->empty();
    }
    // Bare names are workloads (the legacy --workload form).
    *kind = SourceKind::Workload;
    *name = t;
    return !t.empty();
}

// --- The scenario key table -------------------------------------------

namespace {

using Cfg = ScenarioConfig;

constexpr char kDefault[] = "default";
constexpr char kOff[] = "off";
constexpr char kAuto[] = "auto";
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

bool
reject(std::string* why, const char* text)
{
    *why = text;
    return false;
}

template <auto F, std::uint64_t Lo, std::uint64_t Hi, bool Pow2 = false>
bool
number(Cfg& c, const std::string& v, std::string*)
{
    std::uint64_t n = 0;
    if (!parseU64(v, &n) || n < Lo || n > Hi || (Pow2 && !isPowerOfTwo(n)))
        return false;
    c.*F = static_cast<std::remove_reference_t<decltype(c.*F)>>(n);
    return true;
}

/** number(), or the sentinel Word stored as 0. The word keeps a
 * config from silently asking for, say, a zero-length run. */
template <auto F, const char* Word, std::uint64_t Lo, std::uint64_t Hi>
bool
numberOr(Cfg& c, const std::string& v, std::string* why)
{
    if (trimmed(v) != Word)
        return number<F, Lo, Hi>(c, v, why);
    c.*F = 0;
    return true;
}

/** A name Parse accepts, stored as Name's canonical spelling. */
template <typename E, std::string Cfg::*F,
          bool (*Parse)(const std::string&, E*), const char* (*Name)(E)>
bool
named(Cfg& c, const std::string& v, std::string*)
{
    E e;
    if (!Parse(trimmed(v), &e))
        return false;
    c.*F = Name(e);
    return true;
}

template <auto F>
std::string
print(const Cfg& c)
{
    if constexpr (std::is_same_v<decltype(c.*F), const std::string&>)
        return c.*F;
    else
        return std::to_string(c.*F);
}

template <auto F, const char* Word>
std::string
printOr(const Cfg& c)
{
    return c.*F ? std::to_string(c.*F) : Word;
}

/** A retired engine key: any toggle loads, and none has an effect. */
bool
ignoredToggle(Cfg&, const std::string& v, std::string*)
{
    EngineToggle t;
    return parseEngineToggle(v, &t);
}

/** Inline counter updates make the counter-architecture keys pure
 * storage layout, so the hash leaves them out. */
bool
inlineUpdates(const Cfg& c)
{
    return c.counter_update == "inline";
}

/** PrIDE and Mithril run conventional DDR5 timings with controller-
 * paced RFMs (no ABO); every other design runs the PRAC preset. */
bool
conventionalTiming(const Cfg& c)
{
    return c.mitigation == "pride" || c.mitigation == "mithril";
}

/** The designs whose proactive mitigation has a period to set. */
bool
hasProactivePeriod(const std::string& mitigation)
{
    return mitigation == "qprac+proactive" ||
           mitigation == "qprac+proactive-ea" || mitigation == "moat";
}

bool
parseSourceKey(Cfg& c, const std::string& v, std::string* why)
{
    SourceKind kind;
    std::string name;
    if (!parseSource(v, &kind, &name))
        return reject(why, "empty or malformed source");
    if (kind == SourceKind::Workload && !hasWorkload(name))
        return reject(why, "unknown workload");
    if (kind == SourceKind::Attack && !ScenarioRegistry::instance().has(v))
        return reject(why, "unknown attack family");
    // Normalize to the canonical prefixed form.
    c.source = strCat(kind == SourceKind::Workload    ? kWorkloadPrefix
                      : kind == SourceKind::TraceFile ? kTracePrefix
                                                      : kAttackPrefix,
                      name);
    return true;
}

// Row order is the canonical key order, which the hash depends on.
constexpr ScenarioKey kKeyTable[] = {
    {.name = "source", .parse = parseSourceKey, .print = print<&Cfg::source>,
     .values = "workload:NAME, trace:PATH or attack:NAME"},
    {.name = "mitigation",
     .parse = [](Cfg& c, const std::string& v, std::string* why) {
         const std::string m = trimmed(v);
         if (m.find('@') != std::string::npos)
             return reject(why, "design names take no @backend suffix; "
                                "pick the queue with backend=");
         if (!mitigations::MitigationRegistry::instance().has(m))
             return false;
         c.mitigation = m;
         return true;
     },
     .print = print<&Cfg::mitigation>, .flag = "--mitigation",
     .values = "a design name, e.g. qprac+proactive-ea (--list-designs)"},
    // One spelling per queue, so each design has one hash: the linear
    // CAM (and its aliases) is the default "", the rest canonical.
    {.name = "backend",
     .parse = [](Cfg& c, const std::string& v, std::string*) {
         const std::string b = trimmed(v);
         core::SqBackendKind kind = core::SqBackendKind::Linear;
         if (!b.empty() && !core::parseSqBackend(b, &kind))
             return false;
         c.backend = kind == core::SqBackendKind::Linear
                         ? ""
                         : core::sqBackendName(kind);
         return true;
     },
     .print = print<&Cfg::backend>, .flag = "--backend",
     .values = "linear or coalescing (empty = linear)"},
    {.name = "psq_size", .parse = number<&Cfg::psq_size, 0, 1024>,
     .print = print<&Cfg::psq_size>, .flag = "--psq-size",
     .values = "an integer in [0, 1024] (0 = design default)"},
    {.name = "proactive_period",
     .parse = number<&Cfg::proactive_period, 0, 1024>,
     .print = print<&Cfg::proactive_period>,
     .omit = [](const Cfg& c) { return c.proactive_period == 0; },
     .optional = true,
     .values = "an integer in [0, 1024] (REFs per proactive mitigation; "
               "0 = design default)"},
    {.name = "nbo", .parse = number<&Cfg::nbo, 1, 1'000'000>,
     .print = print<&Cfg::nbo>, .flag = "--nbo",
     .values = "an integer in [1, 1000000] (Back-Off threshold)"},
    {.name = "nmit", .parse = number<&Cfg::nmit, 1, 64>,
     .print = print<&Cfg::nmit>, .flag = "--nmit",
     .values = "an integer in [1, 64] (RFMs per alert)"},
    {.name = "recovery",
     .parse = named<ctrl::RecoveryKind, &Cfg::recovery,
                    ctrl::parseRecoveryKind, ctrl::recoveryKindName>,
     .print = print<&Cfg::recovery>, .flag = "--recovery",
     .values = "channel-stall or bank-isolated"},
    {.name = "channels", .parse = number<&Cfg::channels, 1, 64, true>,
     .print = print<&Cfg::channels>, .flag = "--channels",
     .values = "a power of two in [1, 64]"},
    {.name = "ranks", .parse = number<&Cfg::ranks, 1, 64, true>,
     .print = print<&Cfg::ranks>, .flag = "--ranks",
     .values = "a power of two in [1, 64] (per channel)"},
    {.name = "mapping",
     .parse = named<dram::MappingScheme, &Cfg::mapping,
                    dram::parseMappingScheme, dram::mappingSchemeName>,
     .print = print<&Cfg::mapping>, .flag = "--mapping",
     .values = "row-major, bank-striped or channel-striped"},
    {.name = "insts", .parse = numberOr<&Cfg::insts, kDefault, 1, kU64Max>,
     .print = printOr<&Cfg::insts, kDefault>, .flag = "--insts",
     .env = "QPRAC_INSTS", .resolved = &ExperimentConfig::insts_per_core,
     .values = "a positive integer or default (QPRAC_INSTS)"},
    {.name = "cores", .parse = number<&Cfg::cores, 1, 1024>,
     .print = print<&Cfg::cores>, .flag = "--cores",
     .values = "an integer in [1, 1024]"},
    {.name = "seed", .parse = number<&Cfg::seed, 0, kU64Max>,
     .print = print<&Cfg::seed>, .flag = "--seed", .env = "QPRAC_SEED",
     .resolved = &ExperimentConfig::seed,
     .values = "a non-negative integer (extra trace-RNG seed)"},
    {.name = "llc_mb", .parse = number<&Cfg::llc_mb, 0, 16384>,
     .print = print<&Cfg::llc_mb>, .env = "QPRAC_LLC_MB",
     .resolved = &ExperimentConfig::llc_mb,
     .values = "an integer in [0, 16384] (MiB; 0 = default)"},
    {.name = "threads", .parse = numberOr<&Cfg::threads, kAuto, 0, 4096>,
     .print = print<&Cfg::threads>, .flag = "--threads", .neutral = true,
     .values = "auto or an integer in [0, 4096] (0 = auto)"},
    // The baseline runs under the design's own timings. For the
    // conventional-timing designs true prints as noprac, so their
    // points hash apart from the PRAC-timed baselines they once had.
    {.name = "baseline",
     .parse = [](Cfg& c, const std::string& v, std::string*) {
         if (trimmed(v) != "noprac")
             return parseBool(v, &c.baseline);
         c.baseline = true;
         return true;
     },
     .print = [](const Cfg& c) -> std::string {
         if (!c.baseline)
             return "false";
         return conventionalTiming(c) ? "noprac" : "true";
     },
     .values = "true or false (also run the insecure baseline, under the "
               "design's timings: noprac for pride/mithril)"},
    {.name = "r1", .parse = number<&Cfg::r1, 1, 10'000'000>,
     .print = print<&Cfg::r1>,
     .values = "an integer in [1, 10000000] (attack:wave pool)"},
    {.name = "attack_cycles",
     .parse = numberOr<&Cfg::attack_cycles, kDefault, 1, 2'000'000'000>,
     .print = printOr<&Cfg::attack_cycles, kDefault>,
     .values = "an integer in [1, 2000000000] or default"},
    // Threaded cores were removed; only the spellings that meant the
    // serial core model load. The hash keeps this row's constant
    // `corepar=off` line, so older cache entries still hit.
    {.name = "corepar",
     .parse = [](Cfg&, const std::string& v, std::string* why) {
         EngineToggle t;
         return parseEngineToggle(v, &t) &&
                (t != EngineToggle::On ||
                 reject(why, "threaded cores (corepar=on) were removed; "
                             "use auto or off"));
     },
     .print = [](const Cfg&) -> std::string { return "off"; },
     .retired = true, .values = "auto or off"},
    // Work-stealing dispatch and the pipelined schedule are gone; a
    // run has one schedule (sim/system.h).
    {.name = "steal", .parse = ignoredToggle, .neutral = true,
     .retired = true, .values = "auto, on or off"},
    {.name = "pipeline", .parse = ignoredToggle, .neutral = true,
     .retired = true, .values = "auto, on or off"},
    {.name = "skip",
     .parse = [](Cfg& c, const std::string& v, std::string*) {
         return parseEngineToggle(v, &c.engine.skip);
     },
     .print = [](const Cfg& c) { return toString(c.engine.skip); },
     .neutral = true,
     .values = "auto, on or off (next-event cycle skipping)"},
    {.name = "subarrays", .parse = number<&Cfg::subarrays, 1, 1024, true>,
     .print = print<&Cfg::subarrays>, .omit = inlineUpdates,
     .values = "a power of two in [1, 1024] (per bank)"},
    {.name = "counter-update",
     .parse = named<dram::CounterUpdateMode, &Cfg::counter_update,
                    dram::parseCounterUpdateMode,
                    dram::counterUpdateModeName>,
     .print = print<&Cfg::counter_update>, .omit = inlineUpdates,
     .values = "inline, queued or coalesced"},
    {.name = "cuq_depth", .parse = number<&Cfg::cuq_depth, 1, 4096>,
     .print = print<&Cfg::cuq_depth>, .omit = inlineUpdates,
     .values = "an integer in [1, 4096] (write-back queue)"},
    {.name = "trace",
     .parse = [](Cfg& c, const std::string& v, std::string* why) {
         std::uint32_t mask = 0;
         if (!obs::parseCategoryMask(trimmed(v), &mask, why))
             return false;
         c.trace = obs::categoryMaskToString(mask);
         return true;
     },
     .print = print<&Cfg::trace>, .neutral = true,
     .values = "off, all or a comma list, e.g. trace=cmd,abo"},
    {.name = "trace-out",
     .parse = [](Cfg& c, const std::string& v, std::string*) {
         c.trace_out = trimmed(v);
         return true;
     },
     .print = print<&Cfg::trace_out>, .neutral = true,
     .values = "a path (default qprac_trace-<config digest>.json)"},
    {.name = "metrics-interval",
     .parse = numberOr<&Cfg::metrics_interval, kOff, 1, 1'000'000'000>,
     .print = printOr<&Cfg::metrics_interval, kOff>, .neutral = true,
     .values = "off or a sampling period in [1, 1000000000]"},
};

const ScenarioKey*
findKey(const std::string& name)
{
    for (const ScenarioKey& k : kKeyTable)
        if (name == k.name)
            return &k;
    return nullptr;
}

bool
applyKey(const ScenarioKey& k, Cfg& cfg, const std::string& value,
         std::string* err)
{
    std::string why;
    if (k.parse(cfg, value, &why))
        return true;
    if (err)
        *err = strCat(k.name, "='", value, "': ",
                      why.empty() ? strCat("expected ", k.values) : why);
    return false;
}

} // namespace

std::span<const ScenarioKey>
scenarioKeyTable()
{
    return kKeyTable;
}

// --- ScenarioConfig ---------------------------------------------------

const std::vector<std::string>&
ScenarioConfig::keys()
{
    static const std::vector<std::string> live = [] {
        std::vector<std::string> out;
        for (const ScenarioKey& k : kKeyTable)
            if (!k.retired && !k.optional)
                out.push_back(k.name);
        return out;
    }();
    return live;
}

namespace {

bool
printed(const ScenarioKey& k, const Cfg& cfg)
{
    return !k.retired && !(k.optional && k.omit(cfg));
}

} // namespace

std::vector<std::string>
ScenarioConfig::printedKeys() const
{
    std::vector<std::string> out;
    for (const ScenarioKey& k : kKeyTable)
        if (printed(k, *this))
            out.push_back(k.name);
    return out;
}

bool
ScenarioConfig::set(const std::string& key, const std::string& value,
                    std::string* err)
{
    if (const ScenarioKey* k = findKey(key))
        return applyKey(*k, *this, value, err);
    if (err)
        *err = strCat("unknown config key '", key, "'");
    return false;
}

std::string
ScenarioConfig::get(const std::string& key) const
{
    const ScenarioKey* k = findKey(key);
    if (!k || k->retired)
        fatal(strCat("ScenarioConfig::get: unknown key '", key, "'"));
    return k->print(*this);
}

std::string
ScenarioConfig::toIni() const
{
    std::string out = "# qprac scenario\n";
    for (const ScenarioKey& k : kKeyTable)
        if (printed(k, *this))
            out += strCat(k.name, " = ", k.print(*this), "\n");
    return out;
}

bool
ScenarioConfig::fromIniText(const std::string& text, ScenarioConfig* out,
                            std::string* err)
{
    // Applies onto *out, so a file can sparsely override a caller's
    // starting point (the CLI seeds its legacy defaults first); *out is
    // untouched on error.
    ScenarioConfig cfg = *out;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string t = trimmed(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        if (t.front() == '[') {
            // Section headers carry no meaning (the key space is flat)
            // but are accepted so configs can be visually grouped.
            if (t.back() != ']') {
                if (err)
                    *err = strCat("line ", lineno,
                                  ": unterminated section header");
                return false;
            }
            continue;
        }
        std::size_t eq = t.find('=');
        if (eq == std::string::npos) {
            if (err)
                *err = strCat("line ", lineno,
                              ": expected 'key = value', got '", t, "'");
            return false;
        }
        std::string key = trimmed(t.substr(0, eq));
        std::string value = trimmed(t.substr(eq + 1));
        std::string set_err;
        if (!cfg.set(key, value, &set_err)) {
            if (err)
                *err = strCat("line ", lineno, ": ", set_err);
            return false;
        }
    }
    *out = cfg;
    return true;
}

bool
ScenarioConfig::fromFile(const std::string& path, ScenarioConfig* out,
                         std::string* err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = strCat("cannot open config file '", path, "'");
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!fromIniText(text.str(), out, err)) {
        if (err)
            *err = strCat(path, ": ", *err);
        return false;
    }
    return true;
}

bool
ScenarioConfig::validate(std::string* err) const
{
    // Benches and tests may mutate fields directly, so re-run the
    // per-key validation on every field's canonical form.
    ScenarioConfig probe;
    for (const ScenarioKey& k : kKeyTable)
        if (!k.retired && !applyKey(k, probe, k.print(*this), err))
            return false;
    if (proactive_period != 0 && !hasProactivePeriod(mitigation)) {
        if (err)
            *err = strCat("proactive_period='", proactive_period,
                          "': mitigation '", mitigation,
                          "' has no proactive period");
        return false;
    }
    if (sourceKind() == SourceKind::Attack && channels != 1 &&
        !ScenarioRegistry::instance().attackSupportsChannels(
            sourceName())) {
        if (err)
            *err = strCat("attack '", sourceName(),
                          "' is a single-channel event model");
        return false;
    }
    return true;
}

SourceKind
ScenarioConfig::sourceKind() const
{
    SourceKind kind;
    std::string name;
    if (!parseSource(source, &kind, &name))
        fatal(strCat("bad scenario source '", source, "'"));
    return kind;
}

std::string
ScenarioConfig::sourceName() const
{
    SourceKind kind;
    std::string name;
    if (!parseSource(source, &kind, &name))
        fatal(strCat("bad scenario source '", source, "'"));
    return name;
}

ExperimentConfig
ScenarioConfig::experiment() const
{
    ExperimentConfig e;
    e.insts_per_core =
        insts ? insts : ExperimentConfig::defaultInstsPerCore();
    e.num_cores = cores;
    e.threads = threads ? threads : ExperimentConfig::defaultThreads();
    e.channels = channels;
    e.ranks = ranks;
    if (!dram::parseMappingScheme(mapping, &e.mapping))
        fatal(strCat("bad mapping scheme '", mapping, "'"));
    e.llc_mb = llc_mb ? llc_mb : ExperimentConfig::defaultLlcMb();
    e.seed = seed ? seed : ExperimentConfig::defaultSeed();
    e.engine = engine;
    if (!dram::parseCounterUpdateMode(counter_update,
                                      &e.counter_update.mode))
        fatal(strCat("bad counter-update mode '", counter_update, "'"));
    e.counter_update.subarrays = subarrays;
    e.counter_update.queue_depth = cuq_depth;
    return e;
}

DesignSpec
ScenarioConfig::design() const
{
    mitigations::MitigationParams params;
    params.nbo = nbo;
    params.nmit = nmit;
    params.psq_size = psq_size;
    params.proactive_period = proactive_period;
    if (!backend.empty()) {
        core::SqBackendKind kind;
        if (!core::parseSqBackend(backend, &kind))
            fatal(strCat("unknown backend '", backend, "'"));
        params.backend = kind;
    }

    DesignSpec d;
    d.abo.enabled = mitigation != "none";
    d.abo.nmit = nmit;
    if (!ctrl::parseRecoveryKind(recovery, &d.abo.recovery))
        fatal(strCat("bad recovery policy '", recovery, "'"));
    d.factory = [name = mitigation,
                 params](dram::PracCounters* counters) {
        return mitigations::MitigationRegistry::instance().create(
            name, params, counters);
    };
    // RFM-paced designs have no ABO alert; the controller supplies
    // their mitigation slots (nbo doubles as the target TRH).
    if (conventionalTiming(*this)) {
        d.abo.enabled = false;
        d.timing = dram::TimingParams::ddr5NoPrac();
        d.rfm_policy = mitigation == "pride"
                           ? mitigations::RfmPolicy::forPride(nbo)
                           : mitigations::RfmPolicy::forMithril(nbo);
    }
    return d;
}

std::vector<std::unique_ptr<cpu::TraceSource>>
buildScenarioTraces(const ScenarioConfig& cfg)
{
    ExperimentConfig ecfg = cfg.experiment();
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    switch (cfg.sourceKind()) {
    case SourceKind::Workload: {
        const Workload& w = findWorkload(cfg.sourceName());
        for (int c = 0; c < cfg.cores; ++c)
            traces.push_back(
                makeTrace(w, c, ecfg.insts_per_core, ecfg.seed));
        break;
    }
    case SourceKind::TraceFile:
        for (int c = 0; c < cfg.cores; ++c)
            traces.push_back(
                std::make_unique<cpu::FileTraceSource>(cfg.sourceName()));
        break;
    case SourceKind::Attack:
        fatal("attack scenarios have no trace sources");
    }
    return traces;
}

// --- ScenarioResult ---------------------------------------------------

std::string
ScenarioResult::resultJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("kind").value(is_attack ? "attack" : "system");
    w.key("cycles").value(static_cast<std::uint64_t>(sim.cycles));
    w.key("ipc_sum").value(sim.ipc_sum);
    w.key("rbmpki").value(sim.rbmpki);
    w.key("alerts_per_trefi").value(sim.alerts_per_trefi);
    w.key("acts").value(sim.acts);
    if (has_baseline)
        w.key("norm_perf").value(norm_perf);
    w.key("stats").beginObject();
    for (const auto& [name, value] : stats.entries())
        w.key(name).value(value);
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
ScenarioResult::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("scenario").beginObject();
    for (const auto& key : config.printedKeys())
        w.key(key).value(config.get(key));
    w.endObject();
    w.key("result").raw(resultJson());
    w.endObject();
    return w.str();
}

bool
ScenarioResult::fromResultJson(const JsonValue& doc,
                               const ScenarioConfig& cfg,
                               ScenarioResult* out, std::string* err)
{
    auto fail = [&](const std::string& why) {
        if (err)
            *err = strCat("result document: ", why);
        return false;
    };
    if (!doc.isObject())
        return fail("not an object");
    ScenarioResult res;
    res.config = cfg;

    const JsonValue* kind = doc.find("kind");
    if (!kind || !kind->isString() ||
        (kind->text != "attack" && kind->text != "system"))
        return fail("missing or unknown kind");
    res.is_attack = kind->text == "attack";

    const JsonValue* cycles = doc.find("cycles");
    const JsonValue* ipc = doc.find("ipc_sum");
    const JsonValue* rbmpki = doc.find("rbmpki");
    const JsonValue* alerts = doc.find("alerts_per_trefi");
    const JsonValue* acts = doc.find("acts");
    if (!cycles || !cycles->isNumber() || !ipc || !ipc->isNumber() ||
        !rbmpki || !rbmpki->isNumber() || !alerts ||
        !alerts->isNumber() || !acts || !acts->isNumber())
        return fail("missing aggregate metrics");
    res.sim.cycles = cycles->asU64();
    res.sim.ipc_sum = ipc->asDouble();
    res.sim.rbmpki = rbmpki->asDouble();
    res.sim.alerts_per_trefi = alerts->asDouble();
    res.sim.acts = acts->asDouble();

    if (const JsonValue* np = doc.find("norm_perf")) {
        if (!np->isNumber())
            return fail("norm_perf is not a number");
        res.has_baseline = true;
        res.norm_perf = np->asDouble();
    }

    const JsonValue* stats = doc.find("stats");
    if (!stats || !stats->isObject())
        return fail("missing stats object");
    for (const auto& [name, value] : stats->members) {
        if (!value.isNumber())
            return fail(strCat("stat '", name, "' is not a number"));
        res.stats.set(name, value.asDouble());
    }
    // System runs emit res.stats = sim.stats, so the legacy report and
    // --stats dump work from a reconstruction too.
    if (!res.is_attack)
        res.sim.stats = res.stats;
    *out = std::move(res);
    return true;
}

namespace {

/** CSV rows need fixed columns, so they carry every live key. */
std::vector<std::string>
csvKeys()
{
    std::vector<std::string> out;
    for (const ScenarioKey& k : kKeyTable)
        if (!k.retired)
            out.push_back(k.name);
    return out;
}

} // namespace

std::vector<std::string>
ScenarioResult::csvHeader()
{
    std::vector<std::string> h = csvKeys();
    h.insert(h.end(), {"kind", "cycles", "ipc_sum", "rbmpki",
                       "alerts_per_trefi", "acts", "norm_perf",
                       "attack_stats"});
    return h;
}

std::vector<std::string>
ScenarioResult::csvRow() const
{
    std::vector<std::string> row;
    for (const auto& key : csvKeys())
        row.push_back(config.get(key));
    row.push_back(is_attack ? "attack" : "system");
    // Cells that don't apply to a row are blank, never zero (an attack
    // row has no cycle/IPC aggregates for a consumer to average).
    if (is_attack) {
        row.insert(row.end(), 6, "");
    } else {
        row.push_back(
            std::to_string(static_cast<std::uint64_t>(sim.cycles)));
        row.push_back(CsvWriter::num(sim.ipc_sum));
        row.push_back(CsvWriter::num(sim.rbmpki));
        row.push_back(CsvWriter::num(sim.alerts_per_trefi));
        row.push_back(CsvWriter::num(sim.acts));
        row.push_back(has_baseline ? CsvWriter::num(norm_perf) : "");
    }
    // Attack families report through their attack.* counters, which
    // have no fixed column set; pack them as k=v pairs so the CSV
    // carries the full result (system rows leave the column empty —
    // their stats are the per-run stat dump, not row aggregates).
    std::string packed;
    if (is_attack)
        for (const auto& [name, value] : stats.entries()) {
            if (!packed.empty())
                packed += ';';
            packed += name + "=" + CsvWriter::num(value);
        }
    row.push_back(packed);
    return row;
}

// --- ScenarioRegistry -------------------------------------------------

namespace {

bool
mentionsProactive(const std::string& mitigation)
{
    return mitigation.find("proactive") != std::string::npos;
}

StatSet
runWaveScenario(const ScenarioConfig& cfg, obs::EventRecorder*)
{
    // Event-level model: no MemorySystem to instrument.
    attacks::WaveAttackConfig a;
    a.nbo = cfg.nbo;
    a.nmit = cfg.nmit;
    a.r1 = cfg.r1;
    if (cfg.psq_size > 0)
        a.psq_size = cfg.psq_size;
    a.ideal = cfg.mitigation.find("ideal") != std::string::npos;
    a.proactive = mentionsProactive(cfg.mitigation);
    attacks::WaveAttackResult r = attacks::simulateWaveAttack(a);
    StatSet s;
    s.set("attack.max_count", static_cast<double>(r.max_count));
    s.set("attack.rounds", static_cast<double>(r.rounds));
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.total_acts", static_cast<double>(r.total_acts));
    s.set("attack.pool_after_setup",
          static_cast<double>(r.pool_after_setup));
    return s;
}

ScenarioRegistry::AttackOutput
runPerfScenario(const ScenarioConfig& cfg, obs::EventRecorder*)
{
    attacks::PerfAttackConfig a;
    a.nbo = cfg.nbo;
    a.nmit = cfg.nmit;
    if (cfg.attack_cycles)
        a.sim_cycles = static_cast<Cycle>(cfg.attack_cycles);
    a.proactive = mentionsProactive(cfg.mitigation);
    a.mitigation_enabled = cfg.mitigation != "none";
    attacks::PerfAttackResult r = attacks::runPerfAttack(a);
    StatSet s;
    s.set("attack.acts", static_cast<double>(r.acts));
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.cycles", static_cast<double>(r.cycles));
    s.set("attack.acts_per_kcycle", r.actsPerKiloCycle());
    if (cfg.baseline)
        s.set("attack.bandwidth_loss_pct", attacks::bandwidthLossPct(a));
    return {s, r.skip};
}

StatSet
panopticonStats(const attacks::AttackOutcome& r)
{
    StatSet s;
    s.set("attack.target_unmitigated_acts",
          static_cast<double>(r.target_unmitigated_acts));
    s.set("attack.total_acts", static_cast<double>(r.total_acts));
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.target_mitigated", r.target_was_mitigated ? 1.0 : 0.0);
    return s;
}

attacks::PanopticonAttackConfig
panopticonConfig(const ScenarioConfig& cfg)
{
    attacks::PanopticonAttackConfig a;
    if (cfg.psq_size > 0)
        a.queue_size = cfg.psq_size;
    a.nmit = cfg.nmit;
    return a;
}

/** Map the shared scenario knobs onto the recovery attack driver. */
attacks::RecoveryAttackConfig
recoveryAttackConfig(const ScenarioConfig& cfg, int attack_banks)
{
    attacks::RecoveryAttackConfig a;
    a.org.channels = cfg.channels;
    a.org.ranks = cfg.ranks;
    DesignSpec d = cfg.design();
    a.timing = d.timing;
    a.ctrl.abo = d.abo;
    a.ctrl.rfm_policy = d.rfm_policy;
    a.mitigation = d.factory;
    if (!dram::parseMappingScheme(cfg.mapping, &a.mapping))
        fatal(strCat("bad mapping scheme '", cfg.mapping, "'"));
    if (cfg.attack_cycles)
        a.attack_cycles = static_cast<Cycle>(cfg.attack_cycles);
    a.counter_update = cfg.experiment().counter_update;
    a.attack_banks = std::min(attack_banks, a.org.banksPerRank() - 1);
    return a;
}

void
probeStatsTo(StatSet& s, const std::string& prefix,
             const attacks::ProbeStats& quiet,
             const attacks::ProbeStats& attacked)
{
    s.set(prefix + "_quiet_lat", quiet.mean());
    s.set(prefix + "_attack_lat", attacked.mean());
    s.set(prefix + "_probes",
          static_cast<double>(quiet.probes + attacked.probes));
}

ScenarioRegistry::AttackOutput
runRfmProbeScenario(const ScenarioConfig& cfg,
                    obs::EventRecorder* recorder)
{
    attacks::RecoveryAttackConfig a = recoveryAttackConfig(cfg, 1);
    a.recorder = recorder;
    attacks::RfmProbeResult r = attacks::runRfmProbeAttack(a);
    StatSet s;
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.rfms", static_cast<double>(r.rfms));
    s.set("attack.attacker_acts",
          static_cast<double>(r.attacker_acts));
    probeStatsTo(s, "attack.near", r.near_quiet, r.near_attack);
    probeStatsTo(s, "attack.far", r.far_quiet, r.far_attack);
    s.set("attack.near_excess", r.nearExcess());
    s.set("attack.far_excess", r.farExcess());
    s.set("attack.leakage_signal", r.leakageSignal());
    return {s, r.skip};
}

ScenarioRegistry::AttackOutput
runRecoveryDosScenario(const ScenarioConfig& cfg,
                       obs::EventRecorder* recorder)
{
    attacks::RecoveryAttackConfig a = recoveryAttackConfig(cfg, 8);
    a.recorder = recorder;
    attacks::RecoveryDosResult r = attacks::runRecoveryDosAttack(a);
    StatSet s;
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.rfms", static_cast<double>(r.rfms));
    s.set("attack.attacker_acts",
          static_cast<double>(r.attacker_acts));
    s.set("attack.peak_concurrent_recoveries",
          static_cast<double>(r.peak_concurrent_recoveries));
    probeStatsTo(s, "attack.victim", r.victim_quiet, r.victim_attack);
    s.set("attack.victim_slowdown", r.victimSlowdown());
    return {s, r.skip};
}

void
registerRecoveryAttacks(ScenarioRegistry& reg)
{
    const std::vector<std::string> keys = {
        "recovery", "channels", "ranks",   "mitigation",
        "backend",  "psq_size", "nbo",     "nmit",
        "mapping",  "attack_cycles", "counter-update", "subarrays",
        "cuq_depth"};
    reg.registerAttack(
        "rfm-probe",
        "cross-bank/cross-channel recovery timing channel "
        "(\"When Mitigations Backfire\")",
        {keys, /*multi_channel=*/true}, runRfmProbeScenario);
    reg.registerAttack(
        "recovery-dos",
        "worst-case multi-bank alert storm against recovery blocking "
        "(PRACtical)",
        {keys, /*multi_channel=*/true}, runRecoveryDosScenario);
}

} // namespace

ScenarioRegistry::ScenarioRegistry()
{
    registerAttack(
        "wave",
        "Wave/Feinting attack on QPRAC's bounded PSQ (paper §IV-A/B)",
        {{"nbo", "nmit", "psq_size", "mitigation", "r1"}, false},
        runWaveScenario);
    registerAttack(
        "perf",
        "multi-bank alert-storm performance attack (paper §VI-E)",
        {{"nbo", "nmit", "mitigation", "baseline", "attack_cycles"},
         false},
        runPerfScenario);
    registerAttack(
        "toggle-forget",
        "Toggle+Forget on t-bit FIFO PRAC (paper Fig 2)",
        {{"psq_size", "nmit"}, false},
        [](const ScenarioConfig& cfg, obs::EventRecorder*) {
            return panopticonStats(
                attacks::toggleForgetAttack(panopticonConfig(cfg)));
        });
    registerAttack(
        "fill-escape",
        "Fill+Escape on full-counter FIFO PRAC (paper Fig 3)",
        {{"psq_size", "nmit"}, false},
        [](const ScenarioConfig& cfg, obs::EventRecorder*) {
            return panopticonStats(
                attacks::fillEscapeAttack(panopticonConfig(cfg)));
        });
    registerAttack(
        "blocking-tbit",
        "blocking t-bit variant, ABO_ACT cannot toggle (paper Fig 23)",
        {{"psq_size", "nmit"}, false},
        [](const ScenarioConfig& cfg, obs::EventRecorder*) {
            return panopticonStats(
                attacks::blockingTbitAttack(panopticonConfig(cfg)));
        });
    registerRecoveryAttacks(*this);
}

ScenarioRegistry&
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

bool
ScenarioRegistry::has(const std::string& source) const
{
    SourceKind kind;
    std::string name;
    if (!parseSource(source, &kind, &name))
        return false;
    switch (kind) {
    case SourceKind::Workload:
        return hasWorkload(name);
    case SourceKind::TraceFile:
        return !name.empty();
    case SourceKind::Attack:
        return attacks_.count(name) > 0;
    }
    return false;
}

std::vector<ScenarioRegistry::SourceInfo>
ScenarioRegistry::sources() const
{
    std::vector<SourceInfo> out;
    for (const auto& w : workloadSuite())
        out.push_back({strCat(kWorkloadPrefix, w.name),
                       SourceKind::Workload,
                       strCat(w.suite, " profile, ~",
                              static_cast<int>(w.expectedRbmpki()),
                              " RBMPKI"),
                       {}});
    for (const auto& name : attack_order_) {
        const AttackEntry& e = attacks_.at(name);
        out.push_back({strCat(kAttackPrefix, name), SourceKind::Attack,
                       e.description, e.options.keys});
    }
    return out;
}

void
ScenarioRegistry::registerAttack(const std::string& name,
                                 const std::string& description,
                                 AttackRunner run)
{
    registerAttack(name, description, AttackOptions{}, std::move(run));
}

void
ScenarioRegistry::registerAttack(const std::string& name,
                                 const std::string& description,
                                 AttackOptions options, AttackRunner run)
{
    if (!attacks_.count(name))
        attack_order_.push_back(name);
    attacks_[name] =
        AttackEntry{description, std::move(options), std::move(run)};
}

bool
ScenarioRegistry::attackSupportsChannels(const std::string& name) const
{
    auto it = attacks_.find(name);
    return it != attacks_.end() && it->second.options.multi_channel;
}

ScenarioResult
ScenarioRegistry::run(const ScenarioConfig& cfg) const
{
    std::string err;
    if (!cfg.validate(&err))
        fatal(strCat("invalid scenario: ", err));

    ScenarioResult res;
    res.config = cfg;

    // Observability hub (hash-excluded keys; result-neutral). Only the
    // primary run is instrumented — a `baseline=true` companion run
    // would interleave a second machine's events into the same lanes.
    std::uint32_t trace_mask = 0;
    {
        std::string mask_err;
        if (!obs::parseCategoryMask(cfg.trace, &trace_mask, &mask_err))
            fatal(strCat("invalid scenario: trace: ", mask_err));
    }
    std::unique_ptr<obs::EventRecorder> recorder;
    if (trace_mask != 0 || cfg.metrics_interval != 0) {
        obs::RecorderConfig rc;
        rc.mask = trace_mask;
        rc.metrics_interval = static_cast<Cycle>(cfg.metrics_interval);
        recorder =
            std::make_unique<obs::EventRecorder>(rc, cfg.channels);
    }
    auto finishObs = [&] {
        if (!recorder)
            return;
        res.obs = recorder->summary();
        if (recorder->tracing()) {
            // Default path keyed by a digest of every key, neutral
            // ones included: sweep points that differ only in trace,
            // skip or threads are distinct points with distinct
            // traces. Only identical configs share a file, and they
            // write identical traces.
            const std::string path =
                cfg.trace_out.empty()
                    ? strCat("qprac_trace-", hex64(fnv1a64(cfg.toIni())),
                             ".json")
                    : cfg.trace_out;
            std::string werr;
            if (recorder->writeTrace(path, &werr))
                res.obs->trace_path = path;
            else
                warn(strCat("trace not written: ", werr));
        }
    };

    if (cfg.sourceKind() == SourceKind::Attack) {
        auto it = attacks_.find(cfg.sourceName());
        if (it == attacks_.end())
            fatal(strCat("unknown attack scenario '", cfg.source, "'"));
        res.is_attack = true;
        // Wall time and skip counters ride in res.sim like a system
        // run's: outside resultJson() and the hash. sim.cycles stays 0.
        const auto start = std::chrono::steady_clock::now();
        AttackOutput out = it->second.run(cfg, recorder.get());
        res.sim.wall_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        res.stats = std::move(out.stats);
        res.sim.skip = out.skip;
        finishObs();
        return res;
    }

    const ExperimentConfig ecfg = cfg.experiment();
    DesignSpec d = cfg.design();
    {
        SystemConfig sys = makeSystemConfig(d, ecfg);
        sys.recorder = recorder.get();
        System system(sys, d.factory, buildScenarioTraces(cfg));
        res.sim = system.run();
    }
    finishObs();
    res.stats = res.sim.stats;
    if (cfg.baseline) {
        // The insecure baseline: no ABO, no mitigation, and the
        // design's own timing preset, so norm_perf isolates the
        // mitigation cost. PRAC-timed designs thus keep the reference
        // qprac_sim --baseline always ran (golden-pinned), and
        // pride/mithril normalize against conventional DDR5 timings,
        // the paper's Fig 20 methodology (§VI-G).
        DesignSpec base;
        base.timing = d.timing;
        base.abo.enabled = false;
        SystemConfig sys = makeSystemConfig(base, ecfg);
        System system(sys, base.factory, buildScenarioTraces(cfg));
        res.baseline_sim = system.run();
        res.has_baseline = true;
        res.norm_perf = res.baseline_sim.ipc_sum > 0
                            ? res.sim.ipc_sum / res.baseline_sim.ipc_sum
                            : 0.0;
    }
    return res;
}

ScenarioResult
runScenario(const ScenarioConfig& cfg)
{
    return ScenarioRegistry::instance().run(cfg);
}

// --- Sweeps -----------------------------------------------------------

bool
SweepAxis::parse(const std::string& text, SweepAxis* out, std::string* err)
{
    auto fail = [&](const std::string& why) {
        if (err)
            *err = strCat("sweep '", text, "': ", why);
        return false;
    };
    std::size_t eq = text.find('=');
    if (eq == std::string::npos)
        return fail("expected key=values");
    std::string key = trimmed(text.substr(0, eq));
    std::string rest = trimmed(text.substr(eq + 1));
    const ScenarioKey* row = findKey(key);
    if (!row || row->retired)
        return fail(strCat("unknown config key '", key, "'"));
    if (rest.empty())
        return fail("empty value list");

    SweepAxis axis;
    axis.key = key;

    // "lo:hi" / "lo:hi:step" integer ranges; anything else is a comma
    // list (so trace paths containing ':' still work as list values).
    std::vector<std::string> colon_parts;
    {
        std::size_t start = 0;
        while (true) {
            std::size_t c = rest.find(':', start);
            if (c == std::string::npos) {
                colon_parts.push_back(rest.substr(start));
                break;
            }
            colon_parts.push_back(rest.substr(start, c - start));
            start = c + 1;
        }
    }
    if (colon_parts.size() == 2 || colon_parts.size() == 3) {
        std::int64_t lo = 0, hi = 0, step = 1;
        bool ints = parseI64(colon_parts[0], &lo) &&
                    parseI64(colon_parts[1], &hi) &&
                    (colon_parts.size() == 2 ||
                     parseI64(colon_parts[2], &step));
        if (ints) {
            if (step < 1)
                return fail("range step must be >= 1");
            if (lo > hi)
                return fail("range low end exceeds high end");
            // Unsigned span arithmetic: correct for any int64 pair
            // with hi >= lo, no signed overflow. Bound the axis before
            // materializing anything — a typo'd range must fail
            // loudly, not eat all memory. The guard compares span/step
            // (not span/step + 1, which wraps to 0 for a full-int64
            // span at step 1).
            std::uint64_t span = static_cast<std::uint64_t>(hi) -
                                 static_cast<std::uint64_t>(lo);
            constexpr std::uint64_t kMaxRangePoints = 100'000;
            if (span / static_cast<std::uint64_t>(step) >=
                kMaxRangePoints)
                return fail(strCat("range enumerates more than ",
                                   kMaxRangePoints, " values"));
            std::uint64_t count =
                span / static_cast<std::uint64_t>(step) + 1;
            std::int64_t v = lo;
            for (std::uint64_t i = 0; i < count; ++i) {
                axis.values.push_back(std::to_string(v));
                // lo + (count-1)*step <= hi, so the increments taken
                // here never pass hi and cannot overflow.
                if (i + 1 < count)
                    v += step;
            }
            *out = axis;
            return true;
        }
    }

    std::size_t start = 0;
    while (start <= rest.size()) {
        std::size_t comma = rest.find(',', start);
        std::string item =
            trimmed(comma == std::string::npos
                        ? rest.substr(start)
                        : rest.substr(start, comma - start));
        if (item.empty())
            return fail("empty value in list");
        axis.values.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    *out = axis;
    return true;
}

bool
SweepSpec::add(const std::string& text, std::string* err)
{
    SweepAxis axis;
    if (!SweepAxis::parse(text, &axis, err))
        return false;
    // A duplicate key would enumerate a grid where the later axis
    // silently overwrites the earlier one's override on every point
    // (mislabeled rows, duplicate JSON keys).
    for (const auto& existing : axes)
        if (existing.key == axis.key) {
            if (err)
                *err = strCat("sweep '", text, "': duplicate axis '",
                              axis.key, "'");
            return false;
        }
    axes.push_back(std::move(axis));
    return true;
}

std::size_t
SweepSpec::points() const
{
    std::size_t n = 1;
    for (const auto& axis : axes)
        n *= axis.values.size();
    return n;
}

std::vector<std::vector<std::pair<std::string, std::string>>>
SweepSpec::enumerate() const
{
    std::vector<std::vector<std::pair<std::string, std::string>>> out;
    out.emplace_back(); // the base point: no overrides
    for (const auto& axis : axes) {
        std::vector<std::vector<std::pair<std::string, std::string>>> next;
        for (const auto& point : out) {
            for (const auto& value : axis.values) {
                auto extended = point;
                extended.emplace_back(axis.key, value);
                next.push_back(std::move(extended));
            }
        }
        out = std::move(next);
    }
    return out;
}

namespace {

/**
 * Run one point in a fresh qprac_sim child process: every config key
 * is handed over as a `--set` (the INI round-trip guarantees the
 * canonical forms re-parse), the child's `--json` document comes back
 * over a pipe, and its `result` object is reconstructed. Any child
 * death — a fatal() config error, a crash, a kill — comes back as
 * false with a one-line diagnosis instead of taking down the sweep.
 */
bool
runIsolatedPoint(const ScenarioConfig& cfg, const std::string& exe,
                 ScenarioResult* out, std::string* err)
{
    std::vector<std::string> args;
    for (const auto& key : cfg.printedKeys()) {
        args.push_back("--set");
        args.push_back(strCat(key, "=", cfg.get(key)));
    }
    args.push_back("--json");

    SubprocessResult r = runCaptureStdout(exe, args);
    if (!r.ran) {
        *err = strCat("point failed: spawn: ", r.spawn_error);
        return false;
    }
    if (r.exit_code != 0) {
        // Surface the child's first stderr line (fatal() prints one).
        std::string detail = trimmed(r.err);
        std::size_t nl = detail.find('\n');
        if (nl != std::string::npos)
            detail = detail.substr(0, nl);
        *err = strCat("point failed: exit status ", r.exit_code,
                      detail.empty() ? "" : strCat(": ", detail));
        return false;
    }
    JsonValue doc;
    std::string jerr;
    if (!jsonParse(trimmed(r.out), &doc, &jerr)) {
        *err = strCat("point failed: bad child JSON: ", jerr);
        return false;
    }
    const JsonValue* result = doc.find("result");
    if (!result) {
        *err = "point failed: child JSON has no result object";
        return false;
    }
    if (!ScenarioResult::fromResultJson(*result, cfg, out, err)) {
        *err = strCat("point failed: ", *err);
        return false;
    }
    return true;
}

} // namespace

std::vector<SweepPointResult>
runSweep(const ScenarioConfig& base, const SweepSpec& spec,
         std::string* err)
{
    return runSweep(base, spec, SweepOptions{}, err, nullptr);
}

std::vector<SweepPointResult>
runSweep(const ScenarioConfig& base, const SweepSpec& spec,
         const SweepOptions& options, std::string* err,
         SweepCounters* counters)
{
    auto points = spec.enumerate();

    std::string exe = options.isolate_exe;
    if (options.isolate && exe.empty()) {
        exe = selfExePath();
        if (exe.empty()) {
            if (err)
                *err = "process isolation unavailable: cannot resolve "
                       "the running executable";
            return {};
        }
    }

    // Materialize and validate every point's config up front so a bad
    // override fails fast instead of mid-sweep. Under isolation the
    // contract flips: a bad point must not take down the grid, so it
    // becomes a recorded failure and the rest still runs.
    std::vector<ScenarioConfig> configs(points.size());
    std::vector<SweepPointResult> results(points.size());
    std::vector<char> runnable(points.size(), 1);
    for (std::size_t i = 0; i < points.size(); ++i) {
        results[i].overrides = points[i];
        ScenarioConfig cfg = base;
        std::string point_err;
        bool ok = true;
        for (const auto& [key, value] : points[i])
            if (!cfg.set(key, value, &point_err)) {
                ok = false;
                break;
            }
        if (ok && !cfg.validate(&point_err))
            ok = false;
        if (!ok) {
            if (!options.isolate) {
                if (err)
                    *err = point_err;
                return {};
            }
            results[i].failed = true;
            results[i].error = strCat("point failed: ", point_err);
            runnable[i] = 0;
            continue;
        }
        configs[i] = std::move(cfg);
        results[i].hash = scenarioHashHex(configs[i]);
    }

    const int threads =
        base.threads ? base.threads : ExperimentConfig::defaultThreads();
    parallelFor(results.size(), threads, [&](std::size_t i) {
        if (!runnable[i])
            return;
        const auto start = std::chrono::steady_clock::now();
        auto elapsedMs = [&] {
            return std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                .count();
        };
        if (options.cache &&
            options.cache->lookup(configs[i], &results[i].result)) {
            // A hit reports the lookup cost, never the cached run's
            // wall clock, and no engine throughput (nothing ran).
            results[i].cached = true;
            results[i].wall_ms = elapsedMs();
            return;
        }
        if (options.isolate) {
            std::string point_err;
            if (!runIsolatedPoint(configs[i], exe, &results[i].result,
                                  &point_err)) {
                results[i].failed = true;
                results[i].error = std::move(point_err);
                results[i].result = ScenarioResult{};
                results[i].wall_ms = elapsedMs();
                return;
            }
        } else {
            results[i].result = runScenario(configs[i]);
        }
        results[i].wall_ms = elapsedMs();
        if (!results[i].result.is_attack && results[i].wall_ms > 0.0)
            results[i].sim_cycles_per_sec =
                static_cast<double>(results[i].result.sim.cycles) /
                (results[i].wall_ms / 1000.0);
        if (options.cache)
            options.cache->store(configs[i], results[i].result);
    });

    if (counters) {
        SweepCounters c;
        c.points = results.size();
        for (const auto& r : results) {
            if (r.failed)
                ++c.failed;
            else if (r.cached)
                ++c.hits;
            else
                ++c.computed;
        }
        if (options.cache)
            c.stored = options.cache->counters().stored;
        *counters = c;
    }
    return results;
}

} // namespace qprac::sim
