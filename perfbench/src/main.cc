/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --digests FILE --tmp-dir DIR [--source-digest HEX]
 *             [--commit SHA] [--corrupt-digest] [--print-digests]
 *
 * With --trace 0 it repeats the workload until S seconds have passed
 * (at least once) and reports the median of each end-to-end metric;
 * with --trace 1 it repeats the instrumented pass (layers.cc) instead
 * and reports per-layer metrics. Every repetition is checked: each
 * point's result document must match its pinned digest (when the seed
 * is pinned) and the first repetition's, and every warm cache result
 * must match its cold result byte for byte. The last stdout line is
 * one JSON object {correct, attempted, failed, metrics}; the exit code
 * is non-zero when any check failed.
 */
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/json.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/system.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace qprac;
using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    std::string tmp_dir;
    std::string source_digest = "unknown";
    std::string commit = "unknown";
    bool corrupt_digest = false;
    bool print_digests = false;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --digests FILE --tmp-dir DIR "
                 "[--source-digest HEX] [--commit SHA] [--corrupt-digest] "
                 "[--print-digests]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(value().c_str(), nullptr);
        else if (flag == "--trace")
            a.trace = value() == "1";
        else if (flag == "--digests")
            a.digests = value();
        else if (flag == "--tmp-dir")
            a.tmp_dir = value();
        else if (flag == "--source-digest")
            a.source_digest = value();
        else if (flag == "--commit")
            a.commit = value();
        else if (flag == "--corrupt-digest")
            a.corrupt_digest = true;
        else if (flag == "--print-digests")
            a.print_digests = true;
        else
            usage("unknown argument " + flag);
    }
    if (a.workload.empty() || a.tmp_dir.empty())
        usage("--workload and --tmp-dir are required");
    return a;
}

/** Drop every QPRAC_* variable: harness defaults must not resize runs. */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char** e = environ; *e; ++e)
        if (std::strncmp(*e, "QPRAC_", 6) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const auto& n : names)
        unsetenv(n.c_str());
}

/** Pinned per-point digests for (workload, seed); empty when unpinned. */
std::vector<std::string>
loadPins(const std::string& path, const std::string& workload,
         std::uint64_t seed)
{
    std::vector<std::string> pins;
    std::ifstream in(path);
    if (!in)
        return pins;
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue doc;
    std::string err;
    if (!jsonParse(ss.str(), &doc, &err)) {
        std::fprintf(stderr, "perfbench: bad digest file %s: %s\n",
                     path.c_str(), err.c_str());
        std::exit(2);
    }
    const JsonValue* w = doc.find(workload);
    const JsonValue* s = w ? w->find(std::to_string(seed)) : nullptr;
    if (s && s->isArray())
        for (const JsonValue& d : s->items)
            pins.push_back(d.text);
    return pins;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
        s = s.c_str();
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

/** Checks every repetition against the pins and the first repetition. */
struct Gate
{
    std::vector<std::string> pins;
    std::vector<std::string> first;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;

    void point(const Point& p, std::size_t i, const std::string& digest,
               const std::string& problem)
    {
        ++attempted;
        std::string why = problem;
        if (why.empty() && !pins.empty() &&
            (i >= pins.size() || pins[i] != digest))
            why = "result digest " + digest + " differs from pinned " +
                  (i < pins.size() ? pins[i] : std::string("(none)"));
        if (why.empty() && i < first.size() && first[i] != digest)
            why = "result digest " + digest +
                  " differs from the first repetition's " + first[i];
        if (first.size() <= i)
            first.resize(i + 1);
        if (first[i].empty())
            first[i] = digest;
        if (!why.empty()) {
            ++failed;
            errors.push_back(p.label + ": " + why);
        }
    }
};

/** Set-up-only passes per repetition (setup_s samples). */
constexpr int kSetupPasses = 3;

/** All-hit warm passes per repetition (warm_sweep_ms samples). */
constexpr int kWarmPasses = 5;

/** Raw per-repetition samples of the end-to-end metrics. */
struct E2eSamples
{
    std::vector<double> sim_mcycles_per_s, wall_s, setup_s, cpu_s,
        warm_sweep_ms;
};

/**
 * Set-up cost as users pay it: buildScenarioTraces + System
 * construction for every system point (the destructor is not timed).
 */
double
measureSetup(const std::vector<Point>& points)
{
    double total = 0.0;
    for (const Point& p : points) {
        if (!isSystemPoint(p.cfg))
            continue;
        const sim::DesignSpec design = p.cfg.design();
        const sim::SystemConfig sys =
            sim::makeSystemConfig(design, p.cfg.experiment());
        const double t0 = wallNow();
        sim::System system(sys, design.factory,
                           sim::buildScenarioTraces(p.cfg));
        total += wallNow() - t0;
    }
    return total;
}

/** One untraced repetition: cold then warm runSweep passes. */
void
runRepetition(const Workload& w, const std::vector<Point>& points,
              const std::string& cache_dir, Gate& gate, E2eSamples& e2e,
              std::vector<sim::ScenarioResult>* cold_out)
{
    for (int k = 0; k < kSetupPasses; ++k)
        e2e.setup_s.push_back(measureSetup(points));

    fs::remove_all(cache_dir);
    sim::ResultCache cache(cache_dir);
    sim::SweepOptions opt;
    opt.cache = &cache;
    std::vector<sim::SweepPointResult> cold, warm;
    std::size_t warm_extra = 0;
    std::string err;
    const double c0 = cpuNow();
    const double t0 = wallNow();
    for (const auto& spec : w.sweeps) {
        auto r = sim::runSweep(w.base, spec, opt, &err);
        cold.insert(cold.end(), std::make_move_iterator(r.begin()),
                    std::make_move_iterator(r.end()));
    }
    const double t1 = wallNow();
    for (const auto& spec : w.sweeps) {
        auto r = sim::runSweep(w.base, spec, opt, &err);
        warm.insert(warm.end(), std::make_move_iterator(r.begin()),
                    std::make_move_iterator(r.end()));
    }
    const double t2 = wallNow();
    const double c2 = cpuNow();
    e2e.warm_sweep_ms.push_back((t2 - t1) * 1e3);
    // The warm pass is a few milliseconds; repeat it for more samples.
    for (int k = 1; k < kWarmPasses; ++k) {
        const double w0 = wallNow();
        for (const auto& spec : w.sweeps)
            warm_extra += sim::runSweep(w.base, spec, opt, &err).size();
        e2e.warm_sweep_ms.push_back((wallNow() - w0) * 1e3);
    }
    const sim::ResultCache::Counters cc = cache.counters();
    fs::remove_all(cache_dir);

    double run_s = 0.0, cycles = 0.0;
    for (const auto& r : cold) {
        run_s += (r.result.is_attack ? r.wall_ms : r.result.sim.wall_ms) /
                 1e3;
        cycles += simulatedCycles(r.result);
    }
    e2e.sim_mcycles_per_s.push_back(run_s > 0 ? cycles / run_s / 1e6 : 0);
    e2e.wall_s.push_back(t2 - t0);
    e2e.cpu_s.push_back(c2 - c0);

    cold_out->clear();
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::string problem;
        std::string digest;
        if (cold.size() != points.size() || warm.size() != points.size()) {
            problem = "sweep returned no results: " + err;
        } else if (cc.hits != points.size() * kWarmPasses ||
                   warm_extra != points.size() * (kWarmPasses - 1)) {
            problem = "warm passes did not all hit the cache";
        } else if (cold[i].failed || warm[i].failed) {
            problem = "point failed: " + cold[i].error + warm[i].error;
        } else {
            const std::string doc = cold[i].result.resultJson();
            digest = digestHex(doc);
            if (cold[i].cached)
                problem = "cold pass hit the cache";
            else if (!warm[i].cached)
                problem = "warm pass missed the cache";
            else if (warm[i].result.resultJson() != doc)
                problem = "warm result differs from cold";
            cold_out->push_back(cold[i].result);
        }
        gate.point(points[i], i, digest, problem);
    }
}

void
printFingerprint(const Args& a, const Workload& w)
{
    std::printf("host: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s "
                "commit=%s source_digest=%s\n",
                cpuModel().c_str(), std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, a.commit.c_str(),
                a.source_digest.c_str());
    std::printf("workload: %s seed=%llu threads=%d channels=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                w.base.threads, w.base.channels);
}

/** A metric's median, unit and raw samples for the report line. */
struct Reported
{
    std::string name;
    std::string unit;
    std::vector<double> samples;
};

void
printResult(const Args& a, const std::vector<Reported>& metrics,
            std::size_t attempted, std::size_t failed,
            const std::vector<std::string>& errors)
{
    std::printf("%-28s %16s %-6s %4s %14s %14s\n", "metric", "median", "unit",
                "n", "p25", "p75");
    for (const auto& m : metrics)
        std::printf("%-28s %16.6g %-6s %4zu %14.6g %14.6g\n", m.name.c_str(),
                    median(m.samples), m.unit.c_str(), m.samples.size(),
                    quantile(m.samples, 0.25), quantile(m.samples, 0.75));
    for (const auto& e : errors)
        std::printf("FAILED %s\n", e.c_str());
    std::printf("failed_frac %.6g (%zu of %zu point checks)\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 1.0,
                failed, attempted);

    // Raw samples and fingerprint, machine-readable.
    std::string raw = "{\"host\": {\"cpu\": \"" + jsonEscape(cpuModel()) +
                      "\", \"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"compiler\": \"" + PERFBENCH_COMPILER +
                      "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
                      "\", \"commit\": \"" + jsonEscape(a.commit) +
                      "\", \"source_digest\": \"" +
                      jsonEscape(a.source_digest) + "\"}, \"samples\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        raw += (i ? ", \"" : "\"") + metrics[i].name + "\": [";
        for (std::size_t j = 0; j < metrics[i].samples.size(); ++j)
            raw += (j ? ", " : "") + jsonNumber(metrics[i].samples[j]);
        raw += "]";
    }
    std::printf("raw %s}}\n", raw.c_str());

    std::string out = "{\"correct\": ";
    out += failed == 0 && attempted > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + jsonNumber(median(metrics[i].samples)) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    scrubEnvironment();
    const Args args = parseArgs(argc, argv);
    Workload w;
    std::vector<Point> points;
    std::string err;
    if (!makeWorkload(args.workload, args.seed, &w, &err) ||
        !expandPoints(w, &points, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }
    fs::create_directories(args.tmp_dir);
    const std::string cache_dir =
        (fs::path(args.tmp_dir) /
         ("cache-" + std::to_string(getpid())))
            .string();
    printFingerprint(args, w);
    nsPerTick(); // calibrate outside any timed region

    Gate gate;
    gate.pins = loadPins(args.digests, w.name, args.seed);
    if (args.corrupt_digest) {
        if (gate.pins.empty()) {
            std::fprintf(stderr, "perfbench: --corrupt-digest needs a "
                                 "pinned seed\n");
            return 2;
        }
        gate.pins[0][0] = gate.pins[0][0] == '0' ? '1' : '0';
    }
    std::printf("pinned digests: %s\n",
                gate.pins.empty() ? "none for this seed" : "checked");

    std::vector<Reported> metrics;
    const double deadline = wallNow() + args.seconds;
    if (!args.trace) {
        E2eSamples e2e;
        std::vector<sim::ScenarioResult> cold;
        // Stop when the next repetition would end mostly past the
        // deadline, so a run lasts about --seconds.
        double rep_s = 0.0;
        do {
            const double t0 = wallNow();
            runRepetition(w, points, cache_dir, gate, e2e, &cold);
            rep_s = wallNow() - t0;
        } while (wallNow() + 0.5 * rep_s < deadline);
        metrics = {
            {"sim_mcycles_per_s", "Mcycle/s", e2e.sim_mcycles_per_s},
            {"wall_s", "s", e2e.wall_s},
            {"setup_s", "s", e2e.setup_s},
            {"cpu_s", "s", e2e.cpu_s},
            {"peak_rss_mb", "MiB", {peakRssMb()}},
            {"warm_sweep_ms", "ms", e2e.warm_sweep_ms},
        };
        const bool has_baseline = std::any_of(
            cold.begin(), cold.end(), [](const sim::ScenarioResult& r) {
                return r.config.mitigation == "none";
            });
        if (has_baseline)
            std::printf("slowdown_pct (simulated, exact): qprac %.4f%% "
                        "(paper: 0.8%%), qprac+proactive-ea %.4f%% "
                        "(paper: 0%%); the model is unvalidated against "
                        "hardware\n",
                        slowdownPct(cold, "qprac"),
                        slowdownPct(cold, "qprac+proactive-ea"));
        if (args.print_digests) {
            std::printf("digests:");
            for (const auto& d : gate.first)
                std::printf(" \"%s\",", d.c_str());
            std::printf("\n");
        }
    } else {
        std::map<std::string, std::vector<double>> values;
        double pass_s = 0.0;
        do {
            const double t0 = wallNow();
            TracedPass pass =
                runTracedPass(w, points, cache_dir, values.empty());
            pass_s = wallNow() - t0;
            fs::remove_all(cache_dir);
            for (std::size_t i = 0; i < points.size(); ++i)
                gate.point(points[i], i, pass.digests[i], pass.problems[i]);
            for (const auto& [name, value] : pass.values)
                values[name].push_back(value);
        } while (wallNow() + 0.5 * pass_s < deadline);
        for (const auto& [name, unit] : layerMetrics())
            metrics.push_back({name, unit, values[name]});
    }
    fs::remove_all(cache_dir);
    printResult(args, metrics, gate.attempted, gate.failed, gate.errors);
    return gate.failed == 0 ? 0 : 1;
}
