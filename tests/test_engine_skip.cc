/**
 * @file
 * Cycle-skipping engine suite. Two halves:
 *
 *  - Equivalence properties: skip=on must reproduce skip=off bit for
 *    bit — same resultJson() — across the determinism grid (channel
 *    counts, thread budgets, recovery policies, counter-update modes).
 *    Attack families, which always skip, are pinned to digests of
 *    their dense-stepped output instead. The horizon contract makes
 *    skipping a pure engine optimization; these tests are the
 *    enforcement.
 *  - Horizon honesty: MemoryController::nextEventAt must never
 *    over-advertise. Dense-tick a controller and assert that no
 *    observable state (issued commands, fired completions, alerts,
 *    refreshes, RFMs) changes strictly before each advertised horizon.
 *    A component whose state changes before its horizon is a bug even
 *    if today's scheduler happens to mask it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/qprac.h"
#include "ctrl/memory_controller.h"
#include "obs/obs.h"
#include "sim/scenario.h"
#include "sim/scenario_hash.h"

using namespace qprac;
using core::Qprac;
using core::QpracConfig;
using ctrl::ControllerConfig;
using ctrl::MemoryController;
using ctrl::WakeSource;
using dram::AddressMapper;
using dram::DramDevice;
using dram::Organization;
using dram::TimingParams;
using sim::ScenarioConfig;
using sim::ScenarioResult;

namespace {

// --- Equivalence half -------------------------------------------------

ScenarioConfig
baseConfig(int channels, const std::string& source)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", source, &err)) << err;
    cfg.channels = channels;
    cfg.mapping = channels > 1 ? "channel-striped" : "row-major";
    cfg.cores = 2;
    cfg.insts = 8'000;
    cfg.llc_mb = 2;
    return cfg;
}

std::string
runWithSkip(ScenarioConfig cfg, const char* skip, int threads = 1)
{
    std::string err;
    EXPECT_TRUE(cfg.set("skip", skip, &err)) << err;
    cfg.threads = threads;
    return sim::runScenario(cfg).resultJson();
}

// --- Honesty half -----------------------------------------------------

Organization
smallOrg(int ranks = 1)
{
    Organization org;
    org.ranks = ranks;
    org.bankgroups = 2;
    org.banks_per_group = 2;
    org.rows_per_bank = 1024;
    return org;
}

struct Fixture
{
    Fixture(const ControllerConfig& cfg, QpracConfig* qc = nullptr,
            int ranks = 1)
        : org(smallOrg(ranks)),
          timing(TimingParams::ddr5Prac()),
          mapper(org),
          dev(org, timing)
    {
        if (qc)
            mit = std::make_unique<Qprac>(*qc, &dev.pracCounters());
        dev.setMitigation(mit.get());
        mc = std::make_unique<MemoryController>(dev, cfg);
    }

    /** Address of @p row in per-channel flat bank @p bank_flat. */
    Addr
    addrOf(int bank_flat, int row) const
    {
        const int in_rank = bank_flat % org.banksPerRank();
        return mapper.makeAddr(0, bank_flat / org.banksPerRank(),
                               in_rank / org.banks_per_group,
                               in_rank % org.banks_per_group, row, 0);
    }

    bool
    enqueueRead(int bank_flat, int row, Cycle now)
    {
        Addr a = addrOf(bank_flat, row);
        return mc->enqueueRead(a, mapper.decode(a), 0, {}, now);
    }

    bool
    enqueueWrite(int bank_flat, int row, Cycle now)
    {
        Addr a = addrOf(bank_flat, row);
        return mc->enqueueWrite(a, mapper.decode(a), 0, now);
    }

    /** Everything a skipped cycle is forbidden to change: issued
     * commands, completions, protocol events. Pure machine transitions
     * are allowed inside a span only if they are externally silent
     * until the next wake (the induction argument in
     * MemoryController::nextEventAt). */
    std::string
    fingerprint() const
    {
        const auto& d = dev.stats();
        const auto c = mc->stats();
        std::ostringstream os;
        os << d.acts << ' ' << d.pres << ' ' << d.reads << ' '
           << d.writes << ' ' << d.refs << ' ' << d.rfms << ' '
           << c.reads_done << ' ' << c.alerts << ' ' << c.rfms << ' '
           << c.policy_rfms << ' ' << c.refs;
        return os.str();
    }

    Organization org;
    TimingParams timing;
    AddressMapper mapper;
    DramDevice dev;
    std::unique_ptr<Qprac> mit;
    std::unique_ptr<MemoryController> mc;
};

/**
 * Dense-tick [0, limit) while auditing every advertised horizon: after
 * tick(t) the controller promises no observable event strictly before
 * nextEventAt(t), provided no enqueue arrives in between — so
 * @p enqueue_at only runs at span boundaries (exactly how the skipping
 * shard loop re-computes the horizon after every wake). Reports the
 * number of in-span cycles audited via @p audited_out, so callers can
 * assert the horizons actually had teeth (spans longer than one
 * cycle), and the number of dense (now + 1) horizons via
 * @p dense_out. @p from starts the audit mid-run, after the caller has
 * dense-ticked [0, from) itself. Void so gtest ASSERTs can abort it.
 */
template <typename EnqueueFn>
void
auditHorizons(Fixture& f, Cycle limit, EnqueueFn enqueue_at,
              std::uint64_t* audited_out = nullptr, Cycle from = 0,
              std::uint64_t* dense_out = nullptr)
{
    std::uint64_t audited = 0;
    std::uint64_t dense = 0;
    Cycle t = from;
    while (t < limit) {
        enqueue_at(t);
        f.mc->tick(t);
        const Cycle h = f.mc->nextEventAt(t);
        ASSERT_GT(h, t) << "horizon must be strictly in the future";
        if (h == t + 1)
            ++dense;
        const std::string fp = f.fingerprint();
        const Cycle stop = std::min(h, limit);
        for (Cycle u = t + 1; u < stop; ++u) {
            f.mc->tick(u);
            ++audited;
            ASSERT_EQ(f.fingerprint(), fp)
                << "observable state changed at cycle " << u
                << " before the horizon " << h << " advertised at " << t;
        }
        t = std::max(stop, t + 1);
    }
    if (audited_out)
        *audited_out = audited;
    if (dense_out)
        *dense_out = dense;
}

/** Banks that received a PRE among the kCmd events @p sink kept. */
std::set<int>
prechargedBanks(const obs::EventSink& sink)
{
    EXPECT_EQ(sink.dropped(), 0u) << "event ring too small for the test";
    std::set<int> banks;
    for (const auto& [seq, e] : sink.drain())
        if (std::string(e.name) == "PRE")
            banks.insert(static_cast<int>(e.v0));
    return banks;
}

/**
 * Audit [from, to) with @p enqueue run once, at @p from (a segment
 * boundary is where the skipping loop would re-read its inputs).
 */
template <typename Fn>
void
auditSegment(Fixture& f, Cycle from, Cycle to, Fn enqueue)
{
    auditHorizons(
        f, to,
        [&](Cycle t) {
            if (t == from)
                enqueue();
        },
        nullptr, from);
}

} // namespace

// --- skip=on is byte-identical to skip=off ----------------------------

TEST(EngineSkip, ByteIdenticalAcrossChannelsAndThreads)
{
    for (int channels : {1, 2, 4}) {
        ScenarioConfig cfg = baseConfig(channels, "429.mcf");
        const std::string golden = runWithSkip(cfg, "off");
        for (int threads : {1, 4})
            EXPECT_EQ(golden, runWithSkip(cfg, "on", threads))
                << "channels=" << channels << " threads=" << threads;
    }
}

TEST(EngineSkip, ByteIdenticalUnderRecoveryPolicies)
{
    // Alert-active (low NBO) so recoveries actually run: skipping must
    // wake for every quiesce / pump transition or these diverge.
    for (const char* recovery : {"channel-stall", "bank-isolated"}) {
        ScenarioConfig cfg = baseConfig(2, "510.parest_r");
        cfg.nbo = 8;
        cfg.insts = 20'000;
        std::string err;
        ASSERT_TRUE(cfg.set("recovery", recovery, &err)) << err;
        ASSERT_TRUE(cfg.set("skip", "off", &err)) << err;
        ScenarioResult dense = sim::runScenario(cfg);
        EXPECT_GT(dense.sim.stats.getOr("ctrl.alerts", 0), 0.0)
            << recovery << ": config not alert-active, test is vacuous";
        ASSERT_TRUE(cfg.set("skip", "on", &err)) << err;
        EXPECT_EQ(dense.resultJson(), sim::runScenario(cfg).resultJson())
            << recovery;
    }
}

TEST(EngineSkip, ByteIdenticalUnderCounterUpdateModes)
{
    for (const char* mode : {"queued", "coalesced"}) {
        for (int channels : {1, 2}) {
            ScenarioConfig cfg = baseConfig(channels, "429.mcf");
            std::string err;
            ASSERT_TRUE(cfg.set("counter-update", mode, &err)) << err;
            const std::string dense = runWithSkip(cfg, "off");
            EXPECT_EQ(dense, runWithSkip(cfg, "on"))
                << mode << " channels=" << channels;
        }
    }
}

TEST(EngineSkip, ByteIdenticalOnAttackFamilies)
{
    // Attack families ignore the skip key, so skip on vs off proves
    // nothing here. Instead each row pins the fnv1a64 digest of the
    // result document (and, for traced rows, of the written trace
    // file) as captured at commit 3d78029, when every driver still
    // ticked densely cycle by cycle. Any change to how the drivers
    // step must reproduce these bytes exactly.
    struct Row
    {
        std::vector<std::pair<const char*, std::string>> keys;
        std::uint64_t result;
        std::uint64_t trace; // 0 = untraced row
    };
    std::vector<Row> rows;
    const std::vector<std::uint64_t> recovery_digests = {
        2121862921246866431u,  10945422127441916070u, // rfm-probe
        3127137722065421590u,  6063986030291935136u,
        12114524010408136342u, 11973657305706015032u, // recovery-dos
        7882161765853646914u,  357657339462825894u};
    std::size_t i = 0;
    for (const char* source : {"attack:rfm-probe", "attack:recovery-dos"})
        for (const char* recovery : {"channel-stall", "bank-isolated"})
            for (const char* cu : {"inline", "queued"})
                rows.push_back({{{"source", source},
                                 {"recovery", recovery},
                                 {"counter-update", cu},
                                 {"channels", "2"},
                                 {"nbo", "8"},
                                 {"attack_cycles", "60000"}},
                                recovery_digests[i++],
                                0});
    const std::vector<std::uint64_t> perf_digests = {
        3903858924665950963u,  3903858924665950963u, // none
        15866343669283899995u, 3903858924665950963u, // qprac
        12600297920379245170u, 3903858924665950963u}; // + proactive
    i = 0;
    for (const char* mitigation : {"none", "qprac", "qprac+proactive-ea"})
        for (const char* nbo : {"8", "32"})
            rows.push_back({{{"source", "attack:perf"},
                             {"mitigation", mitigation},
                             {"nbo", nbo},
                             {"attack_cycles", "200000"},
                             {"baseline", "true"}},
                            perf_digests[i++],
                            0});
    rows.push_back({{{"source", "attack:wave"}, {"nbo", "32"}},
                    15493651965599560160u,
                    0});
    rows.push_back({{{"source", "attack:rfm-probe"},
                     {"recovery", "bank-isolated"},
                     {"channels", "2"},
                     {"nbo", "8"},
                     {"attack_cycles", "60000"},
                     {"trace", "all"},
                     {"metrics-interval", "5000"}},
                    3127137722065421590u,
                    5324117006529440728u});
    rows.push_back({{{"source", "attack:recovery-dos"},
                     {"recovery", "channel-stall"},
                     {"channels", "2"},
                     {"nbo", "8"},
                     {"attack_cycles", "60000"},
                     {"trace", "all"},
                     {"metrics-interval", "5000"}},
                    12114524010408136342u,
                    14710962936840538847u});

    for (std::size_t r = 0; r < rows.size(); ++r) {
        const Row& row = rows[r];
        ScenarioConfig cfg;
        std::string err;
        std::string label;
        for (const auto& [key, value] : row.keys) {
            ASSERT_TRUE(cfg.set(key, value, &err)) << err;
            label += std::string(key) + "=" + value + " ";
        }
        const bool traced = cfg.trace != "off";
        const std::string path =
            testing::TempDir() + "attack_pin_" + std::to_string(r) + ".json";
        if (traced) {
            ASSERT_TRUE(cfg.set("trace-out", path, &err)) << err;
        }
        ScenarioResult res = sim::runScenario(cfg);
        EXPECT_EQ(sim::fnv1a64(res.resultJson()), row.result) << label;
        if (traced) {
            std::ifstream f(path, std::ios::binary);
            std::ostringstream buf;
            buf << f.rdbuf();
            EXPECT_EQ(sim::fnv1a64(buf.str()), row.trace) << label;
        }
    }
}

TEST(EngineSkip, BankIsolatedSkipsLikeChannelStall)
{
    // Per-bank recovery machines must not cost skipping: on an
    // alert-heavy run, bank-isolated recovery skips within 5 points of
    // channel-stall in both counter-update modes (the skip fraction
    // is a deterministic function of the run).
    auto skippedFrac = [](const char* recovery, const char* cu) {
        ScenarioConfig cfg;
        std::string err;
        for (const auto& [k, v] :
             std::vector<std::pair<const char*, const char*>>{
                 {"source", "workload:510.parest_r"},
                 {"mitigation", "qprac"},
                 {"nbo", "8"},
                 {"channels", "2"},
                 {"insts", "40000"},
                 {"recovery", recovery},
                 {"counter-update", cu},
                 {"skip", "on"}})
            EXPECT_TRUE(cfg.set(k, v, &err)) << err;
        const ScenarioResult res = sim::runScenario(cfg);
        EXPECT_GT(res.sim.stats.getOr("ctrl.alerts", 0), 0.0);
        const auto& sk = res.sim.skip;
        EXPECT_EQ(sk.dense_command + sk.dense_refresh + sk.dense_recovery,
                  sk.dense_ticks);
        return static_cast<double>(sk.cycles_skipped) /
               static_cast<double>(res.sim.cycles * 2);
    };
    for (const char* cu : {"inline", "queued"}) {
        const double stall = skippedFrac("channel-stall", cu);
        const double isolated = skippedFrac("bank-isolated", cu);
        EXPECT_GE(isolated, stall - 0.05)
            << cu << ": bank-isolated " << isolated
            << " vs channel-stall " << stall;
    }
}

TEST(EngineSkip, SkipKeyValidatesAndRoundTrips)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_EQ(cfg.get("skip"), "auto");
    EXPECT_TRUE(cfg.set("skip", "on", &err)) << err;
    EXPECT_EQ(cfg.get("skip"), "on");
    EXPECT_TRUE(cfg.set("skip", "off", &err)) << err;
    EXPECT_EQ(cfg.get("skip"), "off");
    EXPECT_FALSE(cfg.set("skip", "maybe", &err));
    ScenarioConfig parsed;
    ASSERT_TRUE(ScenarioConfig::fromIniText(cfg.toIni(), &parsed, &err))
        << err;
    EXPECT_EQ(parsed.get("skip"), "off");
}

TEST(EngineSkip, SkipActuallySkipsAndCountsWakes)
{
    ScenarioConfig cfg = baseConfig(2, "429.mcf");
    std::string err;
    ASSERT_TRUE(cfg.set("skip", "on", &err)) << err;
    ScenarioResult on = sim::runScenario(cfg);
    // The engine really jumped (an idle-heavy workload has dead spans),
    // and attributed every wake.
    EXPECT_GT(on.sim.skip.cycles_skipped, 0u);
    const auto& sk = on.sim.skip;
    EXPECT_GT(sk.wakes_command + sk.wakes_refresh + sk.wakes_recovery +
                  sk.wakes_mailbox + sk.wakes_epoch,
              0u);
    // Counter-update drains are command-lazy: never a wake source.
    EXPECT_EQ(sk.wakes_cuq, 0u);
    // Off = dense: all counters stay zero (no horizon is ever asked
    // for, so no tick counts as a back-to-back one either).
    ASSERT_TRUE(cfg.set("skip", "off", &err)) << err;
    ScenarioResult off = sim::runScenario(cfg);
    EXPECT_EQ(off.sim.skip.cycles_skipped, 0u);
    EXPECT_EQ(off.sim.skip.dense_ticks, 0u);
    EXPECT_EQ(off.sim.skip.wakes_command, 0u);
    // And the stats never leak into the result document.
    EXPECT_EQ(on.resultJson().find("cycles_skipped"), std::string::npos);
    EXPECT_EQ(on.resultJson().find("dense_ticks"), std::string::npos);
    EXPECT_EQ(on.resultJson(), off.resultJson());
}

// --- nextEventAt never over-advertises --------------------------------

TEST(EngineSkipHorizon, IdleControllerSleepsUntilRefresh)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    f.mc->tick(0);
    WakeSource why = WakeSource::CommandReady;
    const Cycle h = f.mc->nextEventAt(0, &why);
    // Nothing queued: the only concern is the tREFI deadline, and the
    // horizon is a bulk jump, not a token now+1.
    EXPECT_EQ(why, WakeSource::Refresh);
    EXPECT_GT(h, static_cast<Cycle>(f.timing.tREFI) / 2);
    EXPECT_LE(h, static_cast<Cycle>(f.timing.tREFI) + 1);
}

TEST(EngineSkipHorizon, HonestOverQuietDrainWithRefresh)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    const Cycle limit = static_cast<Cycle>(f.timing.tREFI) * 3;
    std::uint64_t audited = 0;
    auditHorizons(
        f, limit,
        [&](Cycle t) {
            if (t != 0)
                return;
            // A front-loaded burst: hits, misses, conflicts and writes,
            // then a long drained tail crossing refresh deadlines.
            for (int i = 0; i < 8; ++i)
                ASSERT_TRUE(f.enqueueRead(i % 4, 100 + 64 * i, t));
            for (int i = 0; i < 6; ++i)
                ASSERT_TRUE(f.enqueueWrite(i % 4, 500 + 64 * i, t));
        },
        &audited);
    if (HasFatalFailure())
        return;
    EXPECT_TRUE(f.mc->drained());
    EXPECT_GE(f.mc->stats().refs, 2u);
    // Most of the window was provably dead (that is the whole point).
    EXPECT_GT(audited, static_cast<std::uint64_t>(limit) / 2);
}

TEST(EngineSkipHorizon, HonestUnderAboRecoveryFlow)
{
    ControllerConfig cfg;
    cfg.abo.enabled = true;
    cfg.abo.nmit = 2;
    QpracConfig qc = QpracConfig::base(4, 2); // alert after 4 ACTs
    Fixture f(cfg, &qc);
    // Hammer two alternating rows so every access misses and the ABO
    // machine walks Idle -> Window -> Quiesce -> Pumping repeatedly.
    int issued = 0;
    std::uint64_t audited = 0;
    auditHorizons(
        f, 30'000,
        [&](Cycle t) {
            if (issued < 40 && t >= static_cast<Cycle>(issued) * 700) {
                ASSERT_TRUE(
                    f.enqueueRead(0, (issued % 2) ? 100 : 300, t));
                ++issued;
            }
        },
        &audited);
    if (HasFatalFailure())
        return;
    // The recovery path genuinely ran under the audit.
    EXPECT_GE(f.mc->stats().alerts, 1u);
    EXPECT_GE(f.mc->stats().rfms, 2u);
    EXPECT_GT(audited, 0u);
}

TEST(EngineSkipHorizon, HonestUnderOverlappingBankRecoveries)
{
    // Bank-isolated recovery with two machines in flight at once while
    // traffic keeps flowing to the banks neither covers. Every machine
    // concern (alert start, window, quiesce, pump, the shared RFM bus)
    // must stay honest, and none may fall back to dense ticking while
    // its machine merely waits: a bank whose own recovery is running
    // still wants the alert, but that starts nothing.
    ControllerConfig cfg;
    cfg.abo.enabled = true;
    cfg.abo.nmit = 2;
    cfg.abo.recovery = ctrl::RecoveryKind::BankIsolated;
    QpracConfig qc = QpracConfig::base(4, 2); // alert after 4 ACTs
    Fixture f(cfg, &qc);
    // Banks 0 and 1 (one bank group) hammer two rows in lockstep, one
    // conflicting pair at a time, so both cross NBO together: the next
    // pair goes in at the span start that finds the read queue empty
    // (the reads carry completions, so the last data return is one).
    // Banks 2 and 3 get a paced stream of writes to fresh rows, none
    // of which ever reaches NBO.
    int pairs = 0;
    int paced = 0;
    auto read = [&](int bank, int row, Cycle t) {
        const Addr a = f.addrOf(bank, row);
        return f.mc->enqueueRead(a, f.mapper.decode(a), 0, [](Cycle) {},
                                 t);
    };
    std::uint64_t audited = 0;
    std::uint64_t dense = 0;
    auditHorizons(
        f, 20'000,
        [&](Cycle t) {
            if (pairs < 24 && f.mc->readQueueDepth() == 0) {
                const int row = (pairs % 2) ? 100 : 300;
                ASSERT_TRUE(read(0, row, t));
                ASSERT_TRUE(read(1, row, t));
                ++pairs;
            }
            while (paced < 48 && t >= static_cast<Cycle>(paced) * 150) {
                ASSERT_TRUE(f.enqueueWrite(2 + paced % 2, 500 + paced, t));
                ++paced;
            }
        },
        &audited, 0, &dense);
    if (HasFatalFailure())
        return;
    const ctrl::BankRecoveryEngine* engine = f.mc->abo().bankRecovery();
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(pairs, 24);
    EXPECT_EQ(engine->peakConcurrent(), 2) << "recoveries never overlapped";
    EXPECT_GE(f.mc->stats().alerts, 4u);
    EXPECT_EQ(f.mc->stats().rfms, 2 * f.mc->stats().alerts);
    EXPECT_TRUE(f.mc->drained());
    EXPECT_TRUE(f.mc->abo().idle());
    EXPECT_GT(audited, 10'000u);
    // 91 dense (now + 1) horizons with exact concerns; treating a
    // still-requested alert or a pump waiting on its banks as now + 1
    // makes it 2795.
    EXPECT_LE(dense, 200u);
}

TEST(EngineSkipHorizon, HonestUnderPolicyRfmPacing)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    cfg.rfm_policy.acts_per_rfm = 4;
    cfg.rfm_policy.scope = dram::RfmScope::AllBank;
    cfg.rfm_policy.per_bank = false;
    Fixture f(cfg);
    // Front-loaded: 16 row-conflicting reads (4 rows in each of 4
    // banks) -> 16 ACTs -> ~4 channel-aggregate policy RFMs, all
    // triggered and pumped while the audit is watching.
    auditHorizons(f, 12'000, [&](Cycle t) {
        if (t != 0)
            return;
        for (int i = 0; i < 16; ++i)
            ASSERT_TRUE(f.enqueueRead(i % 4, 100 + 64 * i, t));
    });
    if (HasFatalFailure())
        return;
    EXPECT_TRUE(f.mc->drained());
    EXPECT_GE(f.mc->stats().policy_rfms, 3u);
}

TEST(EngineSkipHorizon, HonestUnderPerBankRfmPacing)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    cfg.rfm_policy.acts_per_rfm = 3;
    cfg.rfm_policy.scope = dram::RfmScope::PerBank;
    cfg.rfm_policy.per_bank = true;
    Fixture f(cfg);
    // 9 row-conflicting reads to bank 0 -> 9 ACTs -> 3 per-bank RFMs
    // (RAA counter trips every 3), exercising the pending-RFM
    // coverage-drain concern in nextEventAt.
    auditHorizons(f, 10'000, [&](Cycle t) {
        if (t != 0)
            return;
        for (int i = 0; i < 9; ++i)
            ASSERT_TRUE(f.enqueueRead(0, 100 + 64 * i, t));
    });
    if (HasFatalFailure())
        return;
    EXPECT_TRUE(f.mc->drained());
    EXPECT_GE(f.mc->stats().policy_rfms, 2u);
}

TEST(EngineSkipHorizon, HitSuppressedPreDoesNotForceDenseTicks)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    // Banks 0 and 1 share a bank group, so their CASes serialize at
    // tCCD_L. Open a row on each and let both age past tRAS: bank 0's
    // conflict PRE is then ready long before its hits can issue.
    ASSERT_TRUE(f.enqueueRead(0, 100, 0));
    ASSERT_TRUE(f.enqueueRead(1, 200, 0));
    const Cycle t0 = static_cast<Cycle>(f.timing.tRCD + f.timing.tRAS +
                                        f.timing.tCL + f.timing.tBL) +
                     50;
    for (Cycle t = 0; t < t0; ++t)
        f.mc->tick(t);
    ASSERT_EQ(f.dev.bank(0).openRow(), 100);
    ASSERT_EQ(f.dev.bank(1).openRow(), 200);
    const auto pres_before = f.dev.stats().pres;
    // Six older hits on bank 1 stream first; behind them wait three
    // hits on bank 0 and one conflict on bank 0. While the bank-0 hits
    // wait on CAS timing, pickFrFcfs cannot issue the conflict PRE, so
    // the horizon must follow the CAS stream, not the ready PRE.
    const int stream = 6;
    auto enqueue = [&](Cycle t) {
        if (t != t0)
            return;
        for (int i = 0; i < stream; ++i)
            ASSERT_TRUE(f.enqueueRead(1, 200, t));
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(f.enqueueRead(0, 100, t));
        ASSERT_TRUE(f.enqueueRead(0, 300, t));
    };
    const Cycle phase_end =
        t0 + static_cast<Cycle>(stream - 1) *
                 static_cast<Cycle>(f.timing.tCCD_L);
    std::uint64_t audited = 0;
    auditHorizons(f, phase_end, enqueue, &audited, t0);
    if (HasFatalFailure())
        return;
    // Still inside the bank-1 stream: bank 0 untouched, hits queued.
    EXPECT_EQ(f.dev.stats().pres, pres_before);
    EXPECT_EQ(f.dev.bank(0).openRow(), 100);
    EXPECT_LE(f.mc->stats().reads_done, 2u + stream);
    EXPECT_GT(audited, 0u) << "hit-suppressed PRE forced dense ticks";
    // Audit the rest of the drain too: hits first, then the PRE.
    auditHorizons(f, phase_end + 1'000, enqueue, nullptr, phase_end);
    if (HasFatalFailure())
        return;
    EXPECT_TRUE(f.mc->drained());
    EXPECT_EQ(f.dev.stats().pres, pres_before + 1);
    EXPECT_EQ(f.mc->stats().reads_done, 2u + stream + 4);
}

TEST(EngineSkipHorizon, EachDemandSourcePrechargesOnlyItsBanks)
{
    // One quiesce-demand source live at a time, with open rows and
    // queued hits on banks it does not cover: the demand gates and the
    // per-bank scans must precharge exactly the demanded banks, and
    // the horizons must stay honest throughout.
    const Cycle trefi = static_cast<Cycle>(TimingParams::ddr5Prac().tREFI);
    const Cycle trfc = static_cast<Cycle>(TimingParams::ddr5Prac().tRFC);

    {
        SCOPED_TRACE("REF pending on rank 1");
        ControllerConfig cfg;
        cfg.abo.enabled = false;
        Fixture f(cfg, nullptr, 2);
        const int per_rank = f.org.banksPerRank();
        obs::EventSink sink(obs::kCmd, 1 << 14);
        f.dev.setEventSink(&sink);
        // Rank 0 refreshes at tREFI/2 with every bank closed; rank 1
        // is due at tREFI. Open a row on every bank in between, then
        // queue hits on rank 0 just before rank 1's REF falls due.
        const Cycle open_at = trefi / 2 + trfc + 100;
        const Cycle hits_at = trefi - 20;
        const Cycle end = trefi + trfc + 500;
        auditSegment(f, 0, open_at, [] {});
        auditSegment(f, open_at, hits_at, [&] {
            for (int b = 0; b < 2 * per_rank; ++b)
                ASSERT_TRUE(f.enqueueRead(b, 100 + b, open_at));
        });
        auditSegment(f, hits_at, end, [&] {
            for (int i = 0; i < 4; ++i)
                for (int b = 0; b < per_rank; ++b)
                    ASSERT_TRUE(f.enqueueRead(b, 100 + b, hits_at));
        });
        if (HasFatalFailure())
            return;
        EXPECT_EQ(f.mc->stats().refs, 2u);
        std::set<int> rank1;
        for (int b = per_rank; b < 2 * per_rank; ++b)
            rank1.insert(b);
        EXPECT_EQ(prechargedBanks(sink), rank1);
        for (int b = 0; b < per_rank; ++b)
            EXPECT_EQ(f.dev.bank(b).openRow(), 100 + b) << "bank " << b;
        EXPECT_TRUE(f.mc->drained());
    }

    // Bank 0 is hammered with row conflicts; banks 1..3 hold open rows
    // and keep receiving hits. The conflicts precharge bank 0 too, so
    // the check is that no other bank ever sees a PRE, and that the
    // demanded RFMs issued (each needs bank 0 closed first). A new
    // pair of reads arrives at each span start that finds the read
    // queue empty; the reads carry completions, so the last one's data
    // return is such a span start and the hammer keeps going.
    auto hammerBank0 = [&](Fixture& f, obs::EventSink& sink) {
        f.dev.setEventSink(&sink);
        auto read = [&](int bank, int row, Cycle t) {
            const Addr a = f.addrOf(bank, row);
            return f.mc->enqueueRead(a, f.mapper.decode(a), 0,
                                     [](Cycle) {}, t);
        };
        // 12 pairs finish well inside tREFI, so no REF (a demand
        // source of its own) joins in.
        const int pairs = 12;
        int issued = 0;
        auditHorizons(f, trefi - 100, [&](Cycle t) {
            if (issued == pairs || f.mc->readQueueDepth() != 0)
                return;
            ASSERT_TRUE(read(0, (issued % 2) ? 10 : 20, t));
            ASSERT_TRUE(read(1 + issued % 3, 101 + issued % 3, t));
            ++issued;
        });
        EXPECT_EQ(issued, pairs);
        EXPECT_EQ(f.mc->stats().refs, 0u);
    };

    {
        SCOPED_TRACE("one bank-isolated recovery machine");
        ControllerConfig cfg;
        cfg.abo.enabled = true;
        cfg.abo.recovery = ctrl::RecoveryKind::BankIsolated;
        QpracConfig qc = QpracConfig::base(4, 1);
        Fixture f(cfg, &qc);
        obs::EventSink sink(obs::kCmd, 1 << 14);
        hammerBank0(f, sink);
        if (HasFatalFailure())
            return;
        EXPECT_GE(f.mc->stats().alerts, 1u);
        EXPECT_EQ(f.mc->stats().rfms, f.mc->stats().alerts);
        EXPECT_TRUE(f.mc->abo().idle());
        EXPECT_EQ(prechargedBanks(sink), std::set<int>{0});
        EXPECT_TRUE(f.mc->drained());
    }

    {
        SCOPED_TRACE("one pending per-bank policy RFM");
        ControllerConfig cfg;
        cfg.abo.enabled = false;
        cfg.rfm_policy.acts_per_rfm = 3;
        cfg.rfm_policy.scope = dram::RfmScope::PerBank;
        cfg.rfm_policy.per_bank = true;
        Fixture f(cfg);
        obs::EventSink sink(obs::kCmd, 1 << 14);
        hammerBank0(f, sink);
        if (HasFatalFailure())
            return;
        // Every third ACT to bank 0 trips its RFM, the last one with
        // no conflict left to close the row: only the quiesce PRE can.
        EXPECT_EQ(f.mc->stats().policy_rfms, 4u);
        EXPECT_EQ(prechargedBanks(sink), std::set<int>{0});
        EXPECT_TRUE(f.mc->drained());
    }
}
