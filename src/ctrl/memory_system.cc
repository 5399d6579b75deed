#include "ctrl/memory_system.h"

#include <algorithm>

#include "common/log.h"
#include "obs/obs.h"

namespace qprac::ctrl {

namespace {

/**
 * Mailbox sizing. Reads are bounded by the LLC's MSHR file (64 by
 * default) plus one epoch of completion-freed re-issues. Writebacks have
 * no architectural bound — the LLC keeps its unbounded pending deque
 * as the overflow buffer and retries when submitWrite reports a full
 * ring — so the ring only needs to cover the in-flight window.
 */
constexpr std::size_t kMailboxCapacity = 4096;

} // namespace

void
SkipStats::note(WakeSource why)
{
    switch (why) {
      case WakeSource::CommandReady:
        ++wakes_command;
        break;
      case WakeSource::Refresh:
        ++wakes_refresh;
        break;
      case WakeSource::Recovery:
        ++wakes_recovery;
        break;
      case WakeSource::Mailbox:
        ++wakes_mailbox;
        break;
      case WakeSource::EpochBoundary:
        ++wakes_epoch;
        break;
    }
}

void
SkipStats::noteDense(WakeSource why)
{
    ++dense_ticks;
    switch (why) {
      case WakeSource::CommandReady:
        ++dense_command;
        break;
      case WakeSource::Refresh:
        ++dense_refresh;
        break;
      case WakeSource::Recovery:
        ++dense_recovery;
        break;
      case WakeSource::Mailbox:
      case WakeSource::EpochBoundary:
        panic("dense tick attributed to a non-controller wake source");
    }
}

void
SkipStats::add(const SkipStats& o)
{
    cycles_skipped += o.cycles_skipped;
    dense_ticks += o.dense_ticks;
    dense_command += o.dense_command;
    dense_refresh += o.dense_refresh;
    dense_recovery += o.dense_recovery;
    wakes_command += o.wakes_command;
    wakes_refresh += o.wakes_refresh;
    wakes_recovery += o.wakes_recovery;
    wakes_mailbox += o.wakes_mailbox;
    wakes_epoch += o.wakes_epoch;
}

MemorySystem::MemorySystem(const dram::Organization& org,
                           const dram::TimingParams& timing,
                           const ControllerConfig& ctrl_config,
                           const MitigationFactory& mitigation,
                           int blast_radius,
                           const dram::CounterUpdateConfig& counter_update)
    : org_(org)
{
    QP_ASSERT(org.channels >= 1, "need at least one channel");
    // The epoch bound: a read completion is scheduled at CAS issue and
    // fires tCL + tBL cycles later (Bank::doRead), so shards may run
    // that many cycles ahead of the LLC without a completion ever
    // landing in a main-phase cycle that already executed.
    epoch_ = std::max<Cycle>(
        1, static_cast<Cycle>(timing.tCL) + static_cast<Cycle>(timing.tBL));
    shards_.reserve(static_cast<std::size_t>(org.channels));
    for (int c = 0; c < org.channels; ++c) {
        Shard s;
        s.device = std::make_unique<dram::DramDevice>(
            org, timing, blast_radius, counter_update);
        if (mitigation)
            s.mitigation = mitigation(&s.device->pracCounters());
        s.device->setMitigation(s.mitigation.get());
        s.controller =
            std::make_unique<MemoryController>(*s.device, ctrl_config);
        s.read_in = std::make_unique<SpscRing<SubmitMsg>>(kMailboxCapacity);
        s.write_in =
            std::make_unique<SpscRing<SubmitMsg>>(kMailboxCapacity);
        shards_.push_back(std::move(s));
    }
}

MemorySystem::Shard&
MemorySystem::shard(int channel)
{
    QP_ASSERT(channel >= 0 && channel < channels(),
              "channel out of range");
    return shards_[static_cast<std::size_t>(channel)];
}

const MemorySystem::Shard&
MemorySystem::shard(int channel) const
{
    QP_ASSERT(channel >= 0 && channel < channels(),
              "channel out of range");
    return shards_[static_cast<std::size_t>(channel)];
}

bool
MemorySystem::enqueueRead(Addr addr, const dram::DecodedAddr& dec,
                          int source, std::uint32_t tag, Cycle now)
{
    // Direct enqueues bypass the mailboxes, so the persisted horizon
    // no longer bounds the next event: tick densely until recomputed.
    shard(dec.channel).wake_at = 0;
    return shard(dec.channel)
        .controller->enqueueRead(addr, dec, source, tag, now);
}

bool
MemorySystem::enqueueWrite(Addr addr, const dram::DecodedAddr& dec,
                           int source, Cycle now)
{
    shard(dec.channel).wake_at = 0;
    return shard(dec.channel).controller->enqueueWrite(addr, dec, source,
                                                       now);
}

bool
MemorySystem::readQueueFull(int channel) const
{
    return shard(channel).controller->readQueueFull();
}

bool
MemorySystem::writeQueueFull(int channel) const
{
    return shard(channel).controller->writeQueueFull();
}

void
MemorySystem::submitRead(Addr addr, const dram::DecodedAddr& dec,
                         int source, std::uint32_t tag, Cycle now)
{
    bool ok =
        shard(dec.channel).read_in->push({addr, dec, source, now, tag});
    QP_ASSERT(ok, "read mailbox overflow (MSHR file larger than the "
                  "mailbox capacity?)");
}

bool
MemorySystem::submitWrite(Addr addr, const dram::DecodedAddr& dec,
                          int source, Cycle now)
{
    return shard(dec.channel)
        .write_in->push({addr, dec, source, now, kNoCompletion});
}

void
MemorySystem::ingest(Shard& s, Cycle now)
{
    // A submit stamped t becomes visible at shard tick t+1 — the cycle
    // the serial loop's controller first scheduled it. Writes drain
    // first, mirroring the serial order (LLC writeback drain ran
    // before the cores' reads within a cycle); entries blocked by a
    // full controller queue stay mailboxed, FIFO intact, exactly like
    // the serial loop left them in the LLC's pending deque.
    //
    // Requests are enqueued with arrive = now - 1, the cycle the serial
    // loop's (retrying) enqueue call succeeded: for an unblocked entry
    // that equals its submit stamp, and for a backpressured one it is
    // the retry cycle that finally found queue space — so quiesce-drain
    // decisions keyed on arrival (issueQuiescePre) match the serial
    // engine under saturation too. now >= 1 whenever an entry is
    // eligible (stamps are >= 0 and must be < now).
    while (SubmitMsg* m = s.write_in->peek()) {
        if (m->stamp >= now || s.controller->writeQueueFull())
            break;
        bool ok = s.controller->enqueueWrite(m->addr, m->dec, m->source,
                                             now - 1);
        QP_ASSERT(ok, "write admission raced with writeQueueFull()");
        s.write_in->popFront();
    }
    while (SubmitMsg* m = s.read_in->peek()) {
        if (m->stamp >= now || s.controller->readQueueFull())
            break;
        bool ok = s.controller->enqueueRead(m->addr, m->dec, m->source,
                                            m->tag, now - 1);
        QP_ASSERT(ok, "read admission raced with readQueueFull()");
        s.read_in->popFront();
    }
}

void
MemorySystem::sampleShard(Shard& s, Cycle at)
{
    // Land buffered ACT notifications before reading mitigation state:
    // batching is delivery-timing transparent (every decision point
    // flushes first), but the lazy flush points differ between the
    // dense and next-event loops — forcing the flush here pins the
    // sampled occupancy/count to "all ACTs issued before this tick",
    // identical in every engine mode.
    s.device->flushMitigationActs();
    const dram::RowhammerMitigation* mit = s.mitigation.get();
    // Column order must match obs::metricsTrackNames().
    s.metrics->series.append(
        at,
        {mit ? static_cast<std::int64_t>(mit->queueOccupancy()) : -1,
         mit ? mit->maxTrackedCount() : -1,
         static_cast<std::int64_t>(s.device->actsSinceAlertService()),
         static_cast<std::int64_t>(s.device->cuqOccupancy()),
         static_cast<std::int64_t>(s.controller->readQueueDepth())});
}

void
MemorySystem::sampleUpTo(Shard& s, Cycle limit)
{
    obs::ShardMetrics& m = *s.metrics;
    while (m.next_sample_at <= limit) {
        sampleShard(s, m.next_sample_at);
        m.next_sample_at += m.interval;
    }
}

void
MemorySystem::tickShard(Shard& s, Cycle now)
{
    // Samples stamped in (last executed tick, now] fire here, before
    // the tick mutates anything. Skipped spans change no sampled state
    // (no commands, no ingest — both are wakes), so a sample fired
    // "late" after a jump reads exactly the values dense execution
    // would have read at its stamp.
    if (s.metrics)
        sampleUpTo(s, now);
    ingest(s, now);
    s.controller->tick(now);
}

void
MemorySystem::deliverCompletions(Cycle now)
{
    for (auto& s : shards_) {
        std::deque<ReadDone>& done = s.controller->completions();
        while (!done.empty() && done.front().at <= now) {
            const ReadDone d = done.front();
            done.pop_front();
            QP_ASSERT(client_, "tagged read completed with no ReadClient");
            client_->readDone(d.tag, d.at);
        }
    }
}

Cycle
MemorySystem::mailboxWakeAt(Shard& s) const
{
    Cycle at = kNeverCycle;
    if (SubmitMsg* m = s.write_in->peek())
        at = std::min(at, m->stamp + 1);
    if (SubmitMsg* m = s.read_in->peek())
        at = std::min(at, m->stamp + 1);
    return at;
}

void
MemorySystem::runShard(int channel, Cycle begin, Cycle end,
                       Cycle emit_guard)
{
    Shard& s = shard(channel);
    s.controller->setCompletionFloor(emit_guard);
    // Next-event loop: after each tick the controller advertises the
    // earliest cycle it could act again (nextEventAt, a conservative
    // bound), and the loop jumps straight there. Two clamps keep the
    // jump sound against external input: the submit mailbox heads (a
    // submit stamped t must be ingested before tick t+1 — nothing is
    // mailed while the window runs, and heads only advance at ticks we
    // execute) and the window end (the LLC interacts at
    // window boundaries; the persisted wake_at survives into the next
    // window). Everything else the controller can do is, by the
    // horizon contract, not before wake_at — so the skipped cycles are
    // exactly the ticks dense execution would have spent doing nothing.
    // With skipping off the horizon is simply u + 1: the same loop
    // ticks every cycle and never jumps.
    for (Cycle u = begin; u < end;) {
        Cycle wake = s.wake_at;
        WakeSource why = s.wake_why;
        Cycle mb = mailboxWakeAt(s);
        if (mb < wake) {
            wake = mb;
            why = WakeSource::Mailbox;
        }
        if (wake > u) {
            Cycle to = std::min(wake, end);
            s.skip.cycles_skipped += to - u;
            u = to;
            if (u >= end) {
                // The window closed before the horizon. Samples the
                // jump skipped over still belong to this window (dense
                // execution fires them at ticks <= end - 1).
                if (s.metrics)
                    sampleUpTo(s, end - 1);
                s.skip.note(WakeSource::EpochBoundary);
                break;
            }
            s.skip.note(why);
        }
        tickShard(s, u);
        if (!skip_) {
            s.wake_at = u + 1;
        } else {
            s.wake_at = s.controller->nextEventAt(u, &s.wake_why);
            if (s.wake_at == u + 1)
                s.skip.noteDense(s.wake_why);
        }
        ++u;
    }
}

void
MemorySystem::runEpoch(Cycle begin, Cycle end, WorkerPool*)
{
    QP_ASSERT(end > begin, "empty epoch");
    QP_ASSERT(end - begin <= epoch_,
              "epoch longer than the completion lookahead");
    for (std::size_t i = 0; i < shards_.size(); ++i)
        runShard(static_cast<int>(i), begin, end, end);
}

Cycle
MemorySystem::step(Cycle now, Cycle limit)
{
    QP_ASSERT(limit > now, "empty step");
    // Completions are delivered at their FIFO stamps; queue space
    // frees only at a controller event, which the horizon bounds (0
    // right after a direct enqueue); the epoch bound keeps every
    // completion emitted inside the window at or after `next`.
    Cycle next = std::min(limit, now + epoch_);
    for (auto& s : shards_) {
        const std::deque<ReadDone>& done = s.controller->completions();
        if (!done.empty())
            next = std::min(next, done.front().at + 1);
        if (s.wake_at < next)
            next = std::max(s.wake_at, now) + 1;
    }
    runEpoch(now, next);
    deliverCompletions(next - 1);
    return next;
}

void
MemorySystem::setEventRecorder(obs::EventRecorder* recorder)
{
    for (int c = 0; c < channels(); ++c) {
        Shard& s = shards_[static_cast<std::size_t>(c)];
        obs::EventSink* sink = recorder ? recorder->sink(c) : nullptr;
        s.metrics = recorder ? recorder->metrics(c) : nullptr;
        s.controller->setObservability(sink, s.metrics);
        if (s.mitigation)
            s.mitigation->setEventSink(sink);
    }
}

void
MemorySystem::setCycleSkipping(bool on)
{
    skip_ = on;
    for (auto& s : shards_)
        s.wake_at = 0;
}

SkipStats
MemorySystem::skipStats() const
{
    SkipStats total;
    for (const auto& s : shards_)
        total.add(s.skip);
    return total;
}

bool
MemorySystem::drained() const
{
    for (const auto& s : shards_)
        if (!s.controller->drained() || !s.read_in->empty() ||
            !s.write_in->empty())
            return false;
    return true;
}

void
MemorySystem::flushMitigationActs() const
{
    for (const auto& s : shards_)
        s.device->flushMitigationActs();
}

dram::DramDevice&
MemorySystem::device(int channel)
{
    return *shard(channel).device;
}

const dram::DramDevice&
MemorySystem::device(int channel) const
{
    return *shard(channel).device;
}

MemoryController&
MemorySystem::controller(int channel)
{
    return *shard(channel).controller;
}

const MemoryController&
MemorySystem::controller(int channel) const
{
    return *shard(channel).controller;
}

dram::RowhammerMitigation*
MemorySystem::mitigation(int channel) const
{
    return shard(channel).mitigation.get();
}

dram::DeviceStats
MemorySystem::deviceStats() const
{
    dram::DeviceStats total;
    for (const auto& s : shards_)
        total.add(s.device->stats());
    return total;
}

dram::CounterUpdateStats
MemorySystem::counterUpdateStats() const
{
    dram::CounterUpdateStats total;
    for (const auto& s : shards_)
        total.add(s.device->counterUpdateStats());
    return total;
}

CtrlStats
MemorySystem::ctrlStats() const
{
    CtrlStats total;
    for (const auto& s : shards_)
        total.add(s.controller->stats());
    return total;
}

dram::MitigationStats
MemorySystem::mitigationStats() const
{
    dram::MitigationStats total;
    flushMitigationActs();
    for (const auto& s : shards_)
        if (s.mitigation)
            total.add(s.mitigation->stats());
    return total;
}

bool
MemorySystem::hasMitigation() const
{
    for (const auto& s : shards_)
        if (s.mitigation)
            return true;
    return false;
}

std::uint64_t
MemorySystem::alerts() const
{
    std::uint64_t total = 0;
    for (const auto& s : shards_)
        total += s.controller->abo().alerts();
    return total;
}

void
MemorySystem::exportStats(StatSet& out, const std::string& prefix) const
{
    // mitigationStats() flushes buffered ACTs before the per-channel
    // reads below; no separate flush needed here.
    deviceStats().exportTo(out, prefix + "dram.");
    ctrlStats().exportTo(out, prefix + "ctrl.");
    if (hasMitigation())
        mitigationStats().exportTo(out, prefix + "mit.");
    // Counter write-back stats exist only off the critical path; the
    // inline configuration's stat set stays byte-identical to pre-
    // subarray output (part of the golden-pin contract).
    const bool queued_updates =
        !shards_.empty() &&
        shards_.front().device->counterUpdateConfig().offCriticalPath();
    if (queued_updates)
        counterUpdateStats().exportTo(out, prefix + "dram.counter_update.");
    if (channels() > 1) {
        for (int c = 0; c < channels(); ++c) {
            const std::string ch = prefix + strCat("ch", c, ".");
            const Shard& s = shards_[static_cast<std::size_t>(c)];
            s.device->stats().exportTo(out, ch + "dram.");
            s.controller->stats().exportTo(out, ch + "ctrl.");
            if (queued_updates)
                s.device->counterUpdateStats().exportTo(
                    out, ch + "dram.counter_update.");
            if (s.mitigation)
                s.mitigation->stats().exportTo(out, ch + "mit.");
        }
    }
}

} // namespace qprac::ctrl
