/**
 * @file
 * Tests for the N-channel sharded memory system: channel-aware address
 * mapping, bit-exact single-channel compatibility with the pre-shard
 * single-controller path, cross-channel isolation, and per-channel bank
 * state sizing.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/qprac.h"
#include "ctrl/memory_system.h"
#include "mitigations/factory.h"
#include "obs/obs.h"
#include "sim/scenario.h"
#include "sim/system.h"
#include "sim/workloads.h"

using namespace qprac;
using ctrl::MemorySystem;
using dram::AddressMapper;
using dram::DecodedAddr;
using dram::MappingScheme;
using dram::Organization;

namespace {

Organization
orgWithChannels(int channels, int ranks = 2)
{
    Organization org;
    org.channels = channels;
    org.ranks = ranks;
    return org;
}

} // namespace

// --- Channel-aware address mapping ------------------------------------

TEST(ChannelMapping, RoundTripPropertyAllSchemesAndChannelCounts)
{
    Rng rng(91);
    for (auto scheme :
         {MappingScheme::RoRaBgBaCo, MappingScheme::RoCoRaBgBa,
          MappingScheme::RoRaBgBaCoCh}) {
        for (int channels : {1, 2, 4}) {
            Organization org = orgWithChannels(channels);
            AddressMapper m(org, scheme);
            const Addr capacity =
                static_cast<Addr>(org.line_bytes) *
                static_cast<Addr>(org.columnsPerRow()) *
                static_cast<Addr>(org.totalBanks()) *
                static_cast<Addr>(org.rows_per_bank);
            for (int i = 0; i < 500; ++i) {
                // Coordinates -> address -> coordinates.
                DecodedAddr d;
                d.channel = static_cast<int>(
                    rng.nextBelow(static_cast<std::uint64_t>(channels)));
                d.rank = static_cast<int>(rng.nextBelow(2));
                d.bankgroup = static_cast<int>(rng.nextBelow(8));
                d.bank = static_cast<int>(rng.nextBelow(4));
                d.row = static_cast<int>(rng.nextBelow(128 * 1024));
                d.column = static_cast<int>(rng.nextBelow(128));
                Addr a = m.encode(d);
                ASSERT_EQ(m.decode(a), d);
                ASSERT_EQ(m.channelOf(a), d.channel);

                // Line-aligned address -> coordinates -> address.
                Addr raw = rng.nextBelow(capacity) &
                           ~static_cast<Addr>(org.line_bytes - 1);
                ASSERT_EQ(m.encode(m.decode(raw)), raw);

                // Global vs per-channel flat-bank spaces are consistent.
                int in_channel = m.flatBankInChannel(d);
                ASSERT_GE(in_channel, 0);
                ASSERT_LT(in_channel, org.banksPerChannel());
                int global = m.flatBank(d);
                ASSERT_EQ(global,
                          d.channel * org.banksPerChannel() + in_channel);
                ASSERT_LT(global, org.totalBanks());
            }
        }
    }
}

TEST(ChannelMapping, ChannelStripedAlternatesChannelsPerLine)
{
    Organization org = orgWithChannels(2);
    AddressMapper m(org, MappingScheme::RoRaBgBaCoCh);
    DecodedAddr a = m.decode(0);
    DecodedAddr b = m.decode(64);
    EXPECT_NE(a.channel, b.channel);
    EXPECT_EQ(m.decode(128).channel, a.channel);
}

TEST(ChannelMapping, RowMajorKeepsLinesOfARowInOneChannel)
{
    Organization org = orgWithChannels(2);
    AddressMapper m(org, MappingScheme::RoRaBgBaCo);
    Addr base = m.makeAddr(1, 0, 2, 1, 1000, 0);
    for (int c = 1; c < org.columnsPerRow(); ++c) {
        DecodedAddr d = m.decode(base + static_cast<Addr>(c) * 64);
        EXPECT_EQ(d.channel, 1);
        EXPECT_EQ(d.row, 1000);
    }
}

// --- Single-channel determinism vs the pre-refactor path --------------

// Golden values captured from the seed's single-controller System (one
// MemoryController + DramDevice wired directly to the LLC, commit
// af87140) with this exact configuration. A 1-channel MemorySystem must
// reproduce them bit-for-bit: cycles, every command count, the PSQ
// decisions (insertions/evictions/hits) and the IPC doubles.
namespace {

/** runScenario of @p sets over a 2-core QPRAC scenario. */
sim::SimResult
runQprac(const std::vector<std::pair<std::string, std::string>>& sets)
{
    sim::ScenarioConfig cfg;
    std::string err;
    for (const auto& [key, value] :
         {std::pair<std::string, std::string>{"mitigation", "qprac"},
          {"cores", "2"},
          {"threads", "1"}})
        EXPECT_TRUE(cfg.set(key, value, &err)) << err;
    for (const auto& [key, value] : sets)
        EXPECT_TRUE(cfg.set(key, value, &err)) << err;
    return sim::runScenario(cfg).sim;
}

sim::SimResult
runGolden(const std::string& workload, std::uint64_t insts)
{
    // llc_mb pinned: goldens were captured without QPRAC_LLC_MB.
    return runQprac({{"source", workload},
                     {"insts", std::to_string(insts)},
                     {"nbo", "8"},
                     {"llc_mb", "2"}});
}

} // namespace

TEST(SingleChannelDeterminism, QuietWorkloadMatchesPreShardGolden)
{
    sim::SimResult r = runGolden("450.soplex", 10'000);
    EXPECT_EQ(r.cycles, 8861u);
    EXPECT_DOUBLE_EQ(r.ipc_sum, 0x1.d5ea5ca82f858p+0);
    EXPECT_EQ(r.stats.get("dram.acts"), 315.0);
    EXPECT_EQ(r.stats.get("dram.pres"), 269.0);
    EXPECT_EQ(r.stats.get("dram.reads"), 490.0);
    EXPECT_EQ(r.stats.get("dram.refs"), 1.0);
    EXPECT_EQ(r.stats.get("ctrl.alerts"), 0.0);
    EXPECT_EQ(r.stats.get("ctrl.read_latency_sum"), 115679.0);
    EXPECT_EQ(r.stats.get("llc.load_misses"), 502.0);
    EXPECT_EQ(r.stats.get("mit.psq_insertions"), 243.0);
    EXPECT_EQ(r.stats.get("mit.psq_hits"), 48.0);
    // Single-channel runs must not grow per-channel stat prefixes.
    EXPECT_FALSE(r.stats.has("ch0.dram.acts"));
}

TEST(SingleChannelDeterminism, AlertActiveWorkloadMatchesPreShardGolden)
{
    sim::SimResult r = runGolden("510.parest_r", 40'000);
    EXPECT_EQ(r.cycles, 57751u);
    EXPECT_DOUBLE_EQ(r.ipc_sum, 0x1.1bb22020e8a17p+0);
    EXPECT_EQ(r.stats.get("dram.acts"), 2834.0);
    EXPECT_EQ(r.stats.get("dram.pres"), 2805.0);
    EXPECT_EQ(r.stats.get("dram.reads"), 3086.0);
    EXPECT_EQ(r.stats.get("dram.refs"), 9.0);
    EXPECT_EQ(r.stats.get("dram.rfms"), 7.0);
    EXPECT_EQ(r.stats.get("ctrl.alerts"), 7.0);
    EXPECT_EQ(r.stats.get("ctrl.read_latency_sum"), 1157382.0);
    EXPECT_EQ(r.stats.get("llc.load_misses"), 3096.0);
    EXPECT_EQ(r.stats.get("mit.psq_insertions"), 1386.0);
    EXPECT_EQ(r.stats.get("mit.psq_evictions"), 618.0);
    EXPECT_EQ(r.stats.get("mit.psq_hits"), 858.0);
    EXPECT_EQ(r.stats.get("mit.rfm_mitigations"), 448.0);
    EXPECT_EQ(r.stats.get("mit.victim_refreshes"), 1705.0);
    EXPECT_DOUBLE_EQ(r.alerts_per_trefi, 1.5127010787691988);
}

// --- Multi-channel behaviour ------------------------------------------

namespace {

ctrl::MitigationFactory
qpracFactory(int nbo)
{
    return [nbo](dram::PracCounters* counters) {
        return mitigations::createMitigation("qprac", nbo, 1, counters);
    };
}

} // namespace

TEST(MemorySystem, PerChannelBankStateSizedForOneChannel)
{
    Organization org = orgWithChannels(2);
    MemorySystem msys(org, dram::TimingParams::ddr5Prac(),
                      ctrl::ControllerConfig{}, qpracFactory(32));
    ASSERT_EQ(msys.channels(), 2);
    for (int c = 0; c < 2; ++c) {
        // Each shard owns one channel's worth of banks — never the
        // totalBanks() global space.
        EXPECT_EQ(msys.device(c).numBanks(), org.banksPerChannel());
        EXPECT_EQ(msys.device(c).organization().channels, 1);
        EXPECT_EQ(msys.device(c).pracCounters().numBanks(),
                  org.banksPerChannel());
        // rankOf stays in range over the whole per-channel space.
        for (int b = 0; b < msys.device(c).numBanks(); ++b) {
            EXPECT_GE(msys.device(c).rankOf(b), 0);
            EXPECT_LT(msys.device(c).rankOf(b), org.ranks);
        }
    }
    // One spec, two independent mitigation instances.
    EXPECT_NE(msys.mitigation(0), nullptr);
    EXPECT_NE(msys.mitigation(1), nullptr);
    EXPECT_NE(msys.mitigation(0), msys.mitigation(1));
}

TEST(MemorySystem, AttackOnChannel0NeverPerturbsChannel1)
{
    Organization org = orgWithChannels(2);
    org.ranks = 1;
    dram::TimingParams timing = dram::TimingParams::ddr5Prac();
    AddressMapper mapper(org);
    MemorySystem msys(org, timing, ctrl::ControllerConfig{},
                      qpracFactory(8));

    // Hammer rows of channel 0, bank 0 with row-conflict reads until
    // the PRAC counters cross NBO=8 and alerts fire.
    int row_toggle = 0;
    for (Cycle now = 0; now < 120'000;) {
        if (!msys.readQueueFull(0)) {
            Addr addr =
                mapper.makeAddr(0, 0, 0, 0, 8 + 32 * (row_toggle++ % 2),
                                0);
            msys.enqueueRead(addr, mapper.decode(addr), 0, {}, now);
        }
        now = msys.step(now, 120'000);
    }
    msys.flushMitigationActs();

    // Channel 0 saw the attack and serviced alerts.
    EXPECT_GT(msys.device(0).stats().acts, 0u);
    EXPECT_GT(msys.controller(0).abo().alerts(), 0u);
    EXPECT_GT(msys.mitigation(0)->stats().psq_insertions, 0u);

    // Channel 1: no command ever reached it and its mitigation state is
    // untouched — PSQ empty, ABO idle, zero alerts.
    EXPECT_EQ(msys.device(1).stats().acts, 0u);
    EXPECT_EQ(msys.device(1).stats().rfms, 0u);
    EXPECT_EQ(msys.controller(1).abo().alerts(), 0u);
    EXPECT_TRUE(msys.controller(1).abo().idle());
    const dram::MitigationStats& quiet = msys.mitigation(1)->stats();
    EXPECT_EQ(quiet.psq_insertions, 0u);
    EXPECT_EQ(quiet.alerts, 0u);
    EXPECT_EQ(quiet.rfm_mitigations, 0u);
    EXPECT_EQ(quiet.victim_refreshes, 0u);
}

TEST(MemorySystem, TwoChannelRunSplitsTrafficAndExportsPerChannelStats)
{
    sim::SimResult r = runQprac(
        {{"source", "429.mcf"}, {"insts", "20000"}, {"channels", "2"}});
    ASSERT_TRUE(r.stats.has("ch0.dram.acts"));
    ASSERT_TRUE(r.stats.has("ch1.dram.acts"));
    // Both channels served traffic, and the aggregate is their sum.
    EXPECT_GT(r.stats.get("ch0.dram.acts"), 0.0);
    EXPECT_GT(r.stats.get("ch1.dram.acts"), 0.0);
    EXPECT_EQ(r.stats.get("dram.acts"),
              r.stats.get("ch0.dram.acts") +
                  r.stats.get("ch1.dram.acts"));
    EXPECT_EQ(r.stats.get("ctrl.reads_done"),
              r.stats.get("ch0.ctrl.reads_done") +
                  r.stats.get("ch1.ctrl.reads_done"));
}

TEST(MemorySystem, TwoChannelRunIsDeterministic)
{
    const std::vector<std::pair<std::string, std::string>> point = {
        {"source", "450.soplex"},
        {"insts", "10000"},
        {"channels", "2"},
        {"mapping", "channel-striped"}};
    sim::SimResult a = runQprac(point);
    sim::SimResult b = runQprac(point);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_DOUBLE_EQ(a.ipc_sum, b.ipc_sum);
}

// --- Driver stepping (MemorySystem::step) -----------------------------

namespace {

/** Everything a direct driver run can observe, for exact comparison. */
struct DriverRun
{
    std::vector<std::pair<Cycle, Cycle>> reads; ///< (issue, done) stamps
    std::string stats;    ///< deviceStats() + ctrlStats()
    std::string commands; ///< the kCmd event stream (CSV)
    std::uint64_t refused = 0; ///< attacker enqueues refused (queue full)
    std::uint64_t alerts = 0;
    ctrl::SkipStats skip;
};

/**
 * A small recovery-attack-style driver on 2 channels (QPRAC, NBO 8,
 * bank-isolated recovery, a 4-entry read queue): paced probes
 * alternate between channel 0 and channel 1, an attacker keeps 4 reads
 * in flight on channel 0 bank 0 and retries whenever the queue refused
 * one, then a drain phase lets everything complete. The reference run
 * (@p skip false) steps one cycle at a time with skipping off, which is
 * per-cycle driving; the skipping run lets step() choose each window.
 */
DriverRun
runStepDriver(bool skip)
{
    Organization org = orgWithChannels(2, 1);
    AddressMapper mapper(org);
    ctrl::ControllerConfig cc;
    cc.read_q_capacity = 4;
    cc.abo.recovery = ctrl::RecoveryKind::BankIsolated;
    MemorySystem msys(org, dram::TimingParams::ddr5Prac(), cc,
                      qpracFactory(8));
    obs::RecorderConfig rc;
    rc.mask = obs::kCmd;
    obs::EventRecorder recorder(rc, msys.channels());
    msys.setEventRecorder(&recorder);
    msys.setCycleSkipping(skip);

    DriverRun out;
    auto read = [&](int channel, int bank, int row, Cycle now,
                    int* outstanding) {
        const Addr addr = mapper.makeAddr(channel, 0, bank % 8, bank / 8,
                                          row, 0);
        const std::size_t idx = out.reads.size();
        const bool ok = msys.enqueueRead(
            addr, mapper.decode(addr), 0,
            [&out, idx, outstanding](Cycle done) {
                out.reads[idx].second = done;
                if (outstanding)
                    --*outstanding;
            },
            now);
        if (ok)
            out.reads.push_back({now, 0});
        return ok;
    };

    constexpr Cycle kProbePeriod = 613;
    constexpr Cycle kTotal = 40'000;
    int outstanding = 0;
    int next_row = 0;
    int probe_row = 0;
    for (Cycle now = 0; now < kTotal;) {
        if (now % kProbePeriod == 0) {
            // A probe the full queue refuses is dropped, never retried.
            read(static_cast<int>(now / kProbePeriod % 2), 5,
                 4096 + 2 * (probe_row++ % 32), now, nullptr);
        }
        while (outstanding < 4) {
            if (!read(0, 0, 64 + 4 * (next_row % 16), now, &outstanding)) {
                ++out.refused;
                break;
            }
            ++next_row;
            ++outstanding;
        }
        const Cycle due = (now / kProbePeriod + 1) * kProbePeriod;
        now = msys.step(now, skip ? std::min(due, kTotal) : now + 1);
    }
    const Cycle limit = kTotal + 100'000;
    for (Cycle now = kTotal; !msys.drained() && now < limit;)
        now = msys.step(now, skip ? limit : now + 1);

    StatSet st;
    msys.deviceStats().exportTo(st, "dram.");
    msys.ctrlStats().exportTo(st, "ctrl.");
    for (const auto& [name, value] : st.entries())
        out.stats += name + "=" + std::to_string(value) + "\n";
    out.commands = recorder.toCsv();
    out.alerts = msys.alerts();
    out.skip = msys.skipStats();
    return out;
}

} // namespace

TEST(MemorySystemStep, SkippingStepsMatchPerCycleDriving)
{
    const DriverRun dense = runStepDriver(false);
    const DriverRun skipped = runStepDriver(true);
    // The scenario exercises what step() must be exact about: alerts
    // and recoveries, refused enqueues, completions on both channels.
    EXPECT_GT(dense.alerts, 0u);
    EXPECT_GT(dense.refused, 0u);
    EXPECT_GT(dense.reads.size(), 100u);
    for (const auto& [issue, done] : dense.reads)
        EXPECT_GT(done, issue) << "read issued at " << issue
                               << " never completed";

    EXPECT_EQ(skipped.refused, dense.refused);
    EXPECT_EQ(skipped.reads, dense.reads);
    EXPECT_EQ(skipped.stats, dense.stats);
    EXPECT_EQ(skipped.commands, dense.commands);
    EXPECT_EQ(dense.skip.cycles_skipped, 0u);
    EXPECT_GT(skipped.skip.cycles_skipped, 0u);
}
