/**
 * @file
 * Microbenchmarks (google-benchmark) of the PSQ datapath — the
 * operations the paper synthesizes at 2.5ns in 45nm CMOS (§VI-F) — and
 * of the competing tracker structures, as an ablation of the design
 * choice "priority CAM vs FIFO vs oracular heap".
 *
 * In addition to the google-benchmark timings, main() runs a
 * deterministic throughput sweep of every service-queue backend across
 * PSQ sizes {5, 16, 64, 256} and emits an ops/sec CSV
 * (micro_psq_backends.csv, under QPRAC_CSV_DIR or "."): the data behind
 * the backend-selection guidance in the README. Pass --sweep-only to
 * skip the google-benchmark section, or --no-sweep to skip the sweep
 * (e.g. when iterating with --benchmark_filter).
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/coalescing_queue.h"
#include "core/psq.h"
#include "core/qprac.h"
#include "core/service_queue.h"
#include "dram/prac_counters.h"
#include "mitigations/mithril.h"

using namespace qprac;

// ---- google-benchmark section ----------------------------------------

template <class Backend>
static void
BM_BackendActivate(benchmark::State& state)
{
    Backend q(static_cast<int>(state.range(0)));
    Rng rng(7);
    ActCount count = 0;
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(64));
        benchmark::DoNotOptimize(q.onActivate(row, ++count));
    }
}
BENCHMARK_TEMPLATE(BM_BackendActivate, core::LinearCamQueue)
    ->Arg(5)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_TEMPLATE(BM_BackendActivate, core::CoalescingQueue)
    ->Arg(5)->Arg(16)->Arg(64)->Arg(256);

static void
BM_PsqTop(benchmark::State& state)
{
    core::PriorityServiceQueue psq(5);
    for (int i = 0; i < 5; ++i)
        psq.onActivate(i, static_cast<ActCount>(i + 1));
    for (auto _ : state)
        benchmark::DoNotOptimize(psq.top());
}
BENCHMARK(BM_PsqTop);

static void
BM_FifoQueueActivate(benchmark::State& state)
{
    // The Panopticon-style alternative: FIFO push/pop with membership.
    std::deque<int> fifo;
    Rng rng(7);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(64));
        if (fifo.size() >= 5)
            fifo.pop_front();
        fifo.push_back(row);
        benchmark::DoNotOptimize(fifo.back());
    }
}
BENCHMARK(BM_FifoQueueActivate);

static void
BM_QpracFullActivatePath(benchmark::State& state)
{
    // ACT -> PRAC counter increment -> PSQ insert -> alert-flag update.
    dram::PracCounters ctrs(1, 4096);
    core::Qprac qprac(core::QpracConfig::base(32, 1), &ctrs);
    Rng rng(7);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(512)) * 8;
        ActCount c = ctrs.onActivate(0, row);
        qprac.onActivate(0, row, c, 0);
        if (qprac.wantsAlert())
            qprac.onRfm(0, dram::RfmScope::AllBank, true, 0);
    }
}
BENCHMARK(BM_QpracFullActivatePath);

static void
BM_QpracBatchedActivatePath(benchmark::State& state)
{
    // The devirtualized path the DRAM device uses: one onActivateBatch
    // call per command-burst instead of a virtual call per ACT.
    dram::PracCounters ctrs(1, 4096);
    core::Qprac qprac(core::QpracConfig::base(32, 1), &ctrs);
    dram::RowhammerMitigation* mit = &qprac; // virtual boundary
    Rng rng(7);
    std::vector<dram::ActEvent> batch;
    batch.reserve(64);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(512)) * 8;
        batch.push_back({0, row, ctrs.onActivate(0, row), 0});
        if (batch.size() == 64) {
            mit->onActivateBatch(batch.data(),
                                 static_cast<int>(batch.size()));
            batch.clear();
            if (mit->wantsAlert())
                mit->onRfm(0, dram::RfmScope::AllBank, true, 0);
        }
    }
}
BENCHMARK(BM_QpracBatchedActivatePath);

static void
BM_IdealHeapActivatePath(benchmark::State& state)
{
    // The "oracular" UPRAC-style tracker QPRAC-Ideal models.
    dram::PracCounters ctrs(1, 4096);
    core::Qprac ideal(core::QpracConfig::idealTopN(32, 1), &ctrs);
    Rng rng(7);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(512)) * 8;
        ActCount c = ctrs.onActivate(0, row);
        ideal.onActivate(0, row, c, 0);
        if (ideal.wantsAlert())
            ideal.onRfm(0, dram::RfmScope::AllBank, true, 0);
    }
}
BENCHMARK(BM_IdealHeapActivatePath);

static void
BM_MithrilActivate(benchmark::State& state)
{
    dram::PracCounters ctrs(1, 8192);
    mitigations::MithrilConfig cfg;
    cfg.entries = static_cast<int>(state.range(0));
    mitigations::Mithril mithril(cfg, &ctrs);
    Rng rng(7);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(4096));
        ActCount c = ctrs.onActivate(0, row);
        mithril.onActivate(0, row, c, 0);
    }
}
BENCHMARK(BM_MithrilActivate)->Arg(64)->Arg(512);

// ---- Deterministic backend sweep (CSV) -------------------------------

namespace {

/**
 * Activation-throughput measurement mimicking QPRAC's per-bank usage:
 * a stream of activations over a row space 8x the queue size, with a
 * top-entry mitigation (top + remove) every 2048 ACTs standing in for
 * the RFM/REF drain rate.
 */
template <class Backend>
double
opsPerSec(int psq_size)
{
    const int kOps = 1 << 20;
    // Pre-generate the stream so RNG cost is outside the timed region.
    Rng rng(42);
    std::vector<int> rows(kOps);
    std::vector<ActCount> stream_counts(kOps);
    std::vector<ActCount> per_row(
        static_cast<std::size_t>(psq_size) * 8, 0);
    for (int i = 0; i < kOps; ++i) {
        auto r = static_cast<std::size_t>(
            rng.nextBelow(static_cast<std::uint64_t>(psq_size) * 8));
        rows[static_cast<std::size_t>(i)] = static_cast<int>(r);
        stream_counts[static_cast<std::size_t>(i)] = ++per_row[r];
    }

    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) { // first rep doubles as warmup
        Backend q(psq_size);
        auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < kOps; ++i) {
            benchmark::DoNotOptimize(q.onActivate(
                rows[static_cast<std::size_t>(i)],
                stream_counts[static_cast<std::size_t>(i)]));
            if ((i & 2047) == 2047) {
                const core::SqEntry* t = q.top();
                if (t)
                    q.remove(t->row);
            }
        }
        auto end = std::chrono::steady_clock::now();
        double secs = std::chrono::duration<double>(end - start).count();
        best = std::max(best, secs > 0 ? kOps / secs : 0.0);
    }
    return best;
}

void
runBackendSweep()
{
    bench::banner("micro_psq", "backend activation throughput sweep");
    const std::vector<int> sizes = {5, 16, 64, 256};
    bench::ResultSink csv("micro_psq_backends",
                  {"backend", "psq_size", "ops_per_sec"});
    Table table({"psq_size", "linear (Mops/s)", "coalescing (Mops/s)"});
    for (int size : sizes) {
        double linear = opsPerSec<core::LinearCamQueue>(size);
        double coalescing = opsPerSec<core::CoalescingQueue>(size);
        csv.addRow({"linear", std::to_string(size), CsvWriter::num(linear)});
        csv.addRow({"coalescing", std::to_string(size),
                    CsvWriter::num(coalescing)});
        table.addRow({std::to_string(size), Table::num(linear / 1e6, 1),
                      Table::num(coalescing / 1e6, 1)});
    }
    table.print();
    std::printf("\nThe linear CAM's scan grows with the queue; the "
                "paper's PSQ is 5 entries (Fig 17 sweeps 1-5).\n"
                "CSV: %s\n\n",
                bench::csvPath("micro_psq_backends.csv").c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    // Strip our flags before google-benchmark sees (and rejects) them.
    bool sweep_only = false;
    bool no_sweep = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sweep-only") == 0)
            sweep_only = true;
        else if (std::strcmp(argv[i], "--no-sweep") == 0)
            no_sweep = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;

    if (!no_sweep)
        runBackendSweep();
    if (sweep_only)
        return 0;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
