/**
 * @file
 * Subarray-level counter architecture (dram/subarray.h,
 * dram/counter_update.h) and its scenario plumbing.
 *
 * The load-bearing contracts:
 *  - counter-update=inline is bit-identical to the pre-subarray
 *    simulator: same result JSON, no counter_update stats exported,
 *    subarrays/cuq_depth spellings result-neutral.
 *  - Queued/coalesced modes never lose a counter increment: every ACT
 *    either enqueues (possibly merging) or pays an inline stall, and
 *    every enqueued increment is accounted to exactly one drain
 *    channel or still pending — checked as conservation ledgers both
 *    at the unit level and over a full simulation.
 *  - A full queue stalls the activating bank (Bank::stallRowCycle),
 *    it never drops the increment.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dram/counter_update.h"
#include "dram/subarray.h"
#include "dram/timing.h"
#include "sim/scenario.h"

using namespace qprac;
using dram::CounterUpdateConfig;
using dram::CounterUpdateMode;
using dram::CounterUpdateQueue;
using dram::CounterUpdateStats;
using dram::SubarrayGeometry;
using sim::ScenarioConfig;
using sim::ScenarioResult;

namespace {

ScenarioConfig
simConfig(const std::string& mode)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", "workload:429.mcf", &err)) << err;
    EXPECT_TRUE(cfg.set("counter-update", mode, &err)) << err;
    cfg.cores = 2;
    cfg.insts = 10'000;
    cfg.llc_mb = 2;
    return cfg;
}

/** enqueued+stalls accounts every ACT; every increment lands once. */
void
expectConserved(const CounterUpdateStats& s, std::uint64_t acts)
{
    EXPECT_EQ(s.enqueued + s.stalls, acts);
    EXPECT_EQ(s.enqueued, s.drained_idle + s.drained_act +
                              s.drained_flush + s.pending);
}

} // namespace

// --- Mode names --------------------------------------------------------

TEST(CounterUpdateMode, NamesRoundTrip)
{
    for (auto mode : {CounterUpdateMode::Inline, CounterUpdateMode::Queued,
                      CounterUpdateMode::Coalesced}) {
        CounterUpdateMode parsed;
        ASSERT_TRUE(dram::parseCounterUpdateMode(
            dram::counterUpdateModeName(mode), &parsed));
        EXPECT_EQ(parsed, mode);
    }
    CounterUpdateMode parsed;
    EXPECT_FALSE(dram::parseCounterUpdateMode("batched", &parsed));
    EXPECT_FALSE(dram::parseCounterUpdateMode("", &parsed));
}

// --- Subarray geometry -------------------------------------------------

TEST(SubarrayGeometry, MapsRowsToTiles)
{
    const SubarrayGeometry g(1024, 4);
    EXPECT_EQ(g.count(), 4);
    EXPECT_EQ(g.rowsPerSubarray(), 256);
    EXPECT_EQ(g.rowsPerBank(), 1024);
    EXPECT_EQ(g.subarrayOf(0), 0);
    EXPECT_EQ(g.subarrayOf(255), 0);
    EXPECT_EQ(g.subarrayOf(256), 1);
    EXPECT_EQ(g.subarrayOf(1023), 3);
    EXPECT_EQ(g.firstRow(2), 512);
    EXPECT_TRUE(g.sameSubarray(512, 767));
    EXPECT_FALSE(g.sameSubarray(511, 512));
}

TEST(SubarrayGeometry, MoreSubarraysThanRowsClampsToOneRowTiles)
{
    const SubarrayGeometry g(256, 1024);
    EXPECT_EQ(g.rowsPerSubarray(), 1);
    EXPECT_EQ(g.count(), 256);
    EXPECT_EQ(g.subarrayOf(17), 17);
}

TEST(SubarrayGeometry, MonolithicBankAcceptsAnyRowCount)
{
    // subarrays=1 is the pre-subarray layout and must not require a
    // power-of-two row count.
    const SubarrayGeometry g(300, 1);
    EXPECT_EQ(g.count(), 1);
    EXPECT_EQ(g.rowsPerSubarray(), 300);
    EXPECT_EQ(g.subarrayOf(299), 0);
}

// --- Write-back queue unit semantics -----------------------------------

namespace {

CounterUpdateQueue
makeQueue(CounterUpdateMode mode, int subarrays, int depth,
          Cycle drain = 64, int rows = 1024)
{
    CounterUpdateConfig cfg;
    cfg.mode = mode;
    cfg.subarrays = subarrays;
    cfg.queue_depth = depth;
    return CounterUpdateQueue(cfg, SubarrayGeometry(rows, subarrays),
                              drain);
}

} // namespace

TEST(CounterUpdateQueue, IdleGapDrainsOneEntryPerDrainPeriod)
{
    CounterUpdateQueue q = makeQueue(CounterUpdateMode::Queued, 1, 16);
    EXPECT_EQ(q.onActivate(0, 100), 0);
    EXPECT_EQ(q.occupancy(), 1);
    // 64 idle cycles retire exactly the one pending write-back.
    EXPECT_EQ(q.onActivate(1, 164), 0);
    const CounterUpdateStats s = q.stats();
    EXPECT_EQ(s.drained_idle, 1u);
    EXPECT_EQ(q.occupancy(), 1); // row 1 newly pending
    expectConserved(s, 2);
}

TEST(CounterUpdateQueue, ShortGapKeepsTheEntryPending)
{
    CounterUpdateQueue q = makeQueue(CounterUpdateMode::Queued, 1, 16);
    q.onActivate(0, 100);
    q.onActivate(1, 163); // one cycle short of the drain period
    EXPECT_EQ(q.stats().drained_idle, 0u);
    EXPECT_EQ(q.occupancy(), 2);
}

TEST(CounterUpdateQueue, ActShadowRetiresOtherSubarraysForFree)
{
    // 4 subarrays x 256 rows; rows 0 and 1 stage in subarray 0.
    CounterUpdateQueue q = makeQueue(CounterUpdateMode::Queued, 4, 16);
    q.onActivate(0, 100);
    q.onActivate(1, 101);
    EXPECT_EQ(q.occupancy(), 2);
    // An ACT in subarray 2 shadows one retire slot per *other*
    // subarray: exactly one of the two subarray-0 entries goes.
    q.onActivate(512, 102);
    CounterUpdateStats s = q.stats();
    EXPECT_EQ(s.drained_act, 1u);
    EXPECT_EQ(q.occupancy(), 2); // row 1 + row 512
    // A same-subarray ACT shadows nothing of its own subarray: the
    // row-512 entry (subarray 2) survives an ACT to row 513.
    q.onActivate(513, 103);
    s = q.stats();
    EXPECT_EQ(s.drained_act, 2u); // ...but it retires the subarray-0 one
    expectConserved(s, 4);
}

TEST(CounterUpdateQueue, CoalescedMergesSameRowIncrements)
{
    CounterUpdateQueue q = makeQueue(CounterUpdateMode::Coalesced, 1, 16);
    q.onActivate(7, 100);
    q.onActivate(7, 101);
    q.onActivate(7, 102);
    const CounterUpdateStats s = q.stats();
    EXPECT_EQ(q.occupancy(), 1); // one entry, count 3
    EXPECT_EQ(s.enqueued, 3u);
    EXPECT_EQ(s.coalesced, 2u);
    EXPECT_EQ(s.pending, 3u); // merged increments both still owed
    expectConserved(s, 3);
}

TEST(CounterUpdateQueue, QueuedModeNeverMerges)
{
    CounterUpdateQueue q = makeQueue(CounterUpdateMode::Queued, 1, 16);
    q.onActivate(7, 100);
    q.onActivate(7, 101);
    EXPECT_EQ(q.occupancy(), 2);
    EXPECT_EQ(q.stats().coalesced, 0u);
}

TEST(CounterUpdateQueue, FullQueueStallsInsteadOfDropping)
{
    CounterUpdateQueue q = makeQueue(CounterUpdateMode::Queued, 1, 1);
    EXPECT_EQ(q.onActivate(0, 100), 0);
    // One cycle later nothing drained and the queue is full: the ACT
    // pays the inline RMW (a drain-period stall) and the increment is
    // committed synchronously — NOT enqueued, NOT dropped.
    EXPECT_EQ(q.onActivate(1, 101), 64);
    const CounterUpdateStats s = q.stats();
    EXPECT_EQ(s.stalls, 1u);
    EXPECT_EQ(s.enqueued, 1u);
    EXPECT_EQ(q.occupancy(), 1);
    expectConserved(s, 2);
}

TEST(CounterUpdateQueue, FlushRetiresEverythingPending)
{
    CounterUpdateQueue q = makeQueue(CounterUpdateMode::Coalesced, 4, 16);
    q.onActivate(0, 100);
    q.onActivate(0, 101);
    q.onActivate(1, 102);
    q.onFlush(5'000); // REF/RFM shadow write-back
    const CounterUpdateStats s = q.stats();
    EXPECT_EQ(q.occupancy(), 0);
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.drained_flush + s.drained_idle + s.drained_act,
              s.enqueued);
    // The port does not retroactively drain the covered window.
    q.onActivate(2, 5'001);
    EXPECT_EQ(q.occupancy(), 1);
}

TEST(CounterUpdateQueue, ConservationHoldsUnderRandomishTraffic)
{
    // A deterministic mixed pattern: bursts, repeats, flushes — the
    // ledger must balance after every step (the satellite-1 property).
    CounterUpdateQueue q = makeQueue(CounterUpdateMode::Coalesced, 4, 3);
    std::uint64_t acts = 0;
    Cycle now = 0;
    for (int i = 0; i < 500; ++i) {
        now += (i % 7 == 0) ? 200 : 3; // mostly sub-drain-period gaps
        q.onActivate((i * 37) % 1024, now);
        ++acts;
        if (i % 97 == 0)
            q.onFlush(now + 1'000);
        expectConserved(q.stats(), acts);
    }
    EXPECT_GT(q.stats().stalls, 0u) << "pattern too gentle to saturate";
}

// --- Device-level timing headroom --------------------------------------

TEST(CounterUpdateTiming, PracSplitCarriesConventionalBase)
{
    const auto t = dram::TimingParams::ddr5Prac();
    // PRAC folds the counter RMW into the precharge: tRAS 16ns /
    // tRP 36ns. The counter-free base split is the conventional
    // 32ns / 16ns — strictly shorter row cycle.
    EXPECT_GT(t.tRP, t.tRP_base);
    EXPECT_LT(t.tRAS, t.tRAS_base);
    EXPECT_GT(t.tRAS + t.tRP, t.tRAS_base + t.tRP_base);
    const auto np = dram::TimingParams::ddr5NoPrac();
    EXPECT_EQ(np.tRAS, np.tRAS_base);
    EXPECT_EQ(np.tRP, np.tRP_base);
}

// --- Full-simulation contracts -----------------------------------------

TEST(CounterUpdateSim, InlineIsBitIdenticalAndExportsNoQueueStats)
{
    // The golden-pin contract: inline mode must not change a byte of
    // the result document, whatever the storage-layout spellings say.
    ScenarioConfig plain = simConfig("inline");
    ScenarioConfig spelled = simConfig("inline");
    std::string err;
    ASSERT_TRUE(spelled.set("subarrays", "128", &err)) << err;
    ASSERT_TRUE(spelled.set("cuq_depth", "64", &err)) << err;
    const std::string a = sim::runScenario(plain).resultJson();
    const std::string b = sim::runScenario(spelled).resultJson();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.find("counter_update"), std::string::npos)
        << "inline result document polluted with queue stats";
}

TEST(CounterUpdateSim, QueuedLedgerConservesEveryActIncrement)
{
    for (const char* mode : {"queued", "coalesced"}) {
        ScenarioConfig cfg = simConfig(mode);
        ScenarioResult res = sim::runScenario(cfg);
        const auto& st = res.sim.stats;
        const auto stat = [&](const char* key) {
            return static_cast<std::uint64_t>(
                st.getOr(std::string("dram.counter_update.") + key, 0));
        };
        CounterUpdateStats s;
        s.enqueued = stat("enqueued");
        s.coalesced = stat("coalesced");
        s.drained_idle = stat("drained_idle");
        s.drained_act = stat("drained_act");
        s.drained_flush = stat("drained_flush");
        s.stalls = stat("stalls");
        s.pending = stat("pending");
        const auto acts =
            static_cast<std::uint64_t>(st.getOr("dram.acts", 0));
        EXPECT_GT(acts, 0u) << mode;
        EXPECT_GT(s.enqueued, 0u) << mode;
        expectConserved(s, acts);
    }
}

TEST(CounterUpdateSim, QueuedRecoversRowCycleThroughput)
{
    // The whole point: off-critical-path counter updates run banks on
    // the conventional split, so an ACT-heavy run finishes no later —
    // and strictly earlier unless it never row-conflicts.
    ScenarioConfig inline_cfg = simConfig("inline");
    ScenarioConfig queued_cfg = simConfig("queued");
    ScenarioResult a = sim::runScenario(inline_cfg);
    ScenarioResult b = sim::runScenario(queued_cfg);
    EXPECT_GT(a.sim.stats.getOr("dram.acts", 0), 0.0);
    EXPECT_LT(b.sim.cycles, a.sim.cycles);
}

TEST(CounterUpdateSim, TinyQueueStillLosesNothing)
{
    // Satellite 1 at system scale: depth 1, one subarray — the most
    // saturation-prone shape — still conserves every increment.
    ScenarioConfig cfg = simConfig("queued");
    std::string err;
    ASSERT_TRUE(cfg.set("subarrays", "1", &err)) << err;
    ASSERT_TRUE(cfg.set("cuq_depth", "1", &err)) << err;
    ScenarioResult res = sim::runScenario(cfg);
    const auto& st = res.sim.stats;
    const auto stat = [&](const char* key) {
        return static_cast<std::uint64_t>(
            st.getOr(std::string("dram.counter_update.") + key, 0));
    };
    CounterUpdateStats s;
    s.enqueued = stat("enqueued");
    s.drained_idle = stat("drained_idle");
    s.drained_act = stat("drained_act");
    s.drained_flush = stat("drained_flush");
    s.stalls = stat("stalls");
    s.pending = stat("pending");
    expectConserved(
        s, static_cast<std::uint64_t>(st.getOr("dram.acts", 0)));
}

TEST(CounterUpdateSim, KeysValidateAndRoundTrip)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_EQ(cfg.get("counter-update"), "inline");
    EXPECT_EQ(cfg.get("subarrays"), "64");
    EXPECT_EQ(cfg.get("cuq_depth"), "16");
    EXPECT_FALSE(cfg.set("counter-update", "batched", &err));
    EXPECT_FALSE(cfg.set("subarrays", "3", &err)); // not a power of two
    EXPECT_FALSE(cfg.set("subarrays", "2048", &err));
    EXPECT_FALSE(cfg.set("cuq_depth", "0", &err));
    ASSERT_TRUE(cfg.set("counter-update", "coalesced", &err)) << err;
    ASSERT_TRUE(cfg.set("subarrays", "128", &err)) << err;
    ASSERT_TRUE(cfg.set("cuq_depth", "8", &err)) << err;
    ASSERT_TRUE(cfg.validate(&err)) << err;
    ScenarioConfig parsed;
    ASSERT_TRUE(ScenarioConfig::fromIniText(cfg.toIni(), &parsed, &err))
        << err;
    EXPECT_EQ(parsed.get("counter-update"), "coalesced");
    EXPECT_EQ(parsed.get("subarrays"), "128");
    EXPECT_EQ(parsed.get("cuq_depth"), "8");
}
