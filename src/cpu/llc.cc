#include "cpu/llc.h"

#include "common/log.h"

namespace qprac::cpu {

void
LlcStats::exportTo(StatSet& out, const std::string& prefix) const
{
    out.set(prefix + "loads", static_cast<double>(loads));
    out.set(prefix + "stores", static_cast<double>(stores));
    out.set(prefix + "load_hits", static_cast<double>(load_hits));
    out.set(prefix + "load_misses", static_cast<double>(load_misses));
    out.set(prefix + "store_hits", static_cast<double>(store_hits));
    out.set(prefix + "store_misses", static_cast<double>(store_misses));
    out.set(prefix + "writebacks", static_cast<double>(writebacks));
    out.set(prefix + "mshr_merges", static_cast<double>(mshr_merges));
}

SharedLlc::SharedLlc(const LlcConfig& config, ctrl::MemorySystem& memory,
                     const dram::AddressMapper& mapper)
    : cfg_(config), memory_(memory), mapper_(mapper)
{
    memory_.setReadClient(this);
    pending_writebacks_.resize(
        static_cast<std::size_t>(memory_.channels()));
    // The LLC's admission control is its MSHR file; the per-channel
    // read queues apply backpressure shard-side at mailbox ingest.
    // That reproduces the old direct-enqueue timing only while the
    // MSHR file cannot outrun a single channel's read queue — enforce
    // the invariant instead of documenting it away.
    QP_ASSERT(cfg_.mshrs <= memory_.controller(0).readQueueCapacity(),
              "LLC mshrs must not exceed the controller read-queue "
              "capacity");
    num_sets_ = static_cast<int>(
        cfg_.size_bytes /
        (static_cast<std::uint64_t>(cfg_.ways) *
         static_cast<std::uint64_t>(cfg_.line_bytes)));
    QP_ASSERT(num_sets_ > 0 && (num_sets_ & (num_sets_ - 1)) == 0,
              "LLC sets must be a power of two");
    lines_.assign(static_cast<std::size_t>(num_sets_) *
                      static_cast<std::size_t>(cfg_.ways),
                  {});
    mshrs_.assign(static_cast<std::size_t>(cfg_.mshrs), {});
}

Addr
SharedLlc::lineAddr(Addr addr) const
{
    return addr / static_cast<Addr>(cfg_.line_bytes);
}

int
SharedLlc::setIndex(Addr line_addr) const
{
    return static_cast<int>(line_addr &
                            static_cast<Addr>(num_sets_ - 1));
}

SharedLlc::Line*
SharedLlc::findLine(Addr line_addr)
{
    const int set = setIndex(line_addr);
    Line* base = &lines_[static_cast<std::size_t>(set) *
                         static_cast<std::size_t>(cfg_.ways)];
    for (int w = 0; w < cfg_.ways; ++w)
        if (base[w].valid && base[w].tag == line_addr)
            return &base[w];
    return nullptr;
}

SharedLlc::Line&
SharedLlc::victimLine(Addr line_addr)
{
    const int set = setIndex(line_addr);
    Line* base = &lines_[static_cast<std::size_t>(set) *
                         static_cast<std::size_t>(cfg_.ways)];
    Line* victim = &base[0];
    for (int w = 0; w < cfg_.ways; ++w) {
        if (!base[w].valid)
            return base[w];
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    return *victim;
}

void
SharedLlc::pushWriteback(Addr line_addr)
{
    Addr addr = line_addr * static_cast<Addr>(cfg_.line_bytes);
    int channel = mapper_.channelOf(addr);
    pending_writebacks_[static_cast<std::size_t>(channel)].push_back(addr);
    ++stats_.writebacks;
}

void
SharedLlc::installLine(Addr line_addr, bool dirty, Cycle now)
{
    (void)now;
    Line& victim = victimLine(line_addr);
    if (victim.valid && victim.dirty)
        pushWriteback(victim.tag);
    victim.tag = line_addr;
    victim.valid = true;
    victim.dirty = dirty;
    victim.lru = ++lru_clock_;
}

int
SharedLlc::findMshr(Addr line_addr) const
{
    for (int i = 0; i < static_cast<int>(mshrs_.size()); ++i) {
        const Mshr& m = mshrs_[static_cast<std::size_t>(i)];
        if (m.valid && m.line_addr == line_addr)
            return i;
    }
    return -1;
}

bool
SharedLlc::access(Addr addr, bool is_store, int source, bool* done,
                  Cycle now)
{
    Addr line = lineAddr(addr);
    Line* hit = findLine(line);

    if (is_store) {
        ++stats_.stores;
        if (hit) {
            ++stats_.store_hits;
            hit->dirty = true;
            hit->lru = ++lru_clock_;
            return true;
        }
        int m = findMshr(line);
        if (m >= 0) {
            // Line is in flight: mark it dirty on arrival.
            mshrs_[static_cast<std::size_t>(m)].make_dirty = true;
            ++stats_.store_misses;
            return true;
        }
        // Write-allocate without fetch: install the line dirty.
        ++stats_.store_misses;
        installLine(line, true, now);
        return true;
    }

    ++stats_.loads;
    if (hit) {
        ++stats_.load_hits;
        hit->lru = ++lru_clock_;
        const Cycle at = now + static_cast<Cycle>(cfg_.hit_latency);
        QP_ASSERT(hits_.empty() || hits_.back().at <= at,
                  "LLC accessed with a decreasing cycle");
        hits_.push_back({at, done});
        return true;
    }

    int m = findMshr(line);
    if (m >= 0) {
        ++stats_.load_misses;
        ++stats_.mshr_merges;
        mshrs_[static_cast<std::size_t>(m)].waiters.push_back(done);
        return true;
    }
    if (mshrs_in_use_ >= cfg_.mshrs)
        return false;
    ++stats_.load_misses;

    // Allocate an MSHR and mail the fill request; controller read-queue
    // admission happens shard-side at ingest.
    int free = -1;
    for (int i = 0; i < static_cast<int>(mshrs_.size()); ++i)
        if (!mshrs_[static_cast<std::size_t>(i)].valid) {
            free = i;
            break;
        }
    QP_ASSERT(free >= 0, "MSHR accounting is inconsistent");
    Mshr& mshr = mshrs_[static_cast<std::size_t>(free)];
    mshr.valid = true;
    mshr.line_addr = line;
    mshr.make_dirty = false;
    mshr.waiters.clear();
    mshr.waiters.push_back(done);
    ++mshrs_in_use_;

    Addr full = line * static_cast<Addr>(cfg_.line_bytes);
    dram::DecodedAddr dec = mapper_.decode(full);
    memory_.submitRead(full, dec, source, static_cast<std::uint32_t>(free),
                       now);
    return true;
}

void
SharedLlc::readDone(std::uint32_t tag, Cycle at)
{
    QP_ASSERT(tag < mshrs_.size() && mshrs_[tag].valid,
              "fill without a matching MSHR");
    Mshr& mshr = mshrs_[tag];
    installLine(mshr.line_addr, mshr.make_dirty, at);
    for (bool* done : mshr.waiters)
        if (done)
            *done = true;
    mshr.valid = false;
    mshr.waiters.clear();
    --mshrs_in_use_;
}

void
SharedLlc::drainWritebacks(Cycle now)
{
    for (auto& q : pending_writebacks_) {
        // Hand the whole backlog to the channel's write mailbox; a full
        // ring (only possible behind a long controller-queue stall)
        // keeps the rest here, FIFO intact, for next cycle.
        while (!q.empty()) {
            Addr addr = q.front();
            if (!memory_.submitWrite(addr, mapper_.decode(addr), -1, now))
                break;
            q.pop_front();
        }
    }
}

void
SharedLlc::tick(Cycle now)
{
    while (!hits_.empty() && hits_.front().at <= now) {
        if (bool* done = hits_.front().done)
            *done = true;
        hits_.pop_front();
    }
    drainWritebacks(now);
}

void
SharedLlc::warmInstall(Addr addr)
{
    Addr line = lineAddr(addr);
    if (!findLine(line))
        installLine(line, false, 0);
}

bool
SharedLlc::quiesced() const
{
    for (const auto& q : pending_writebacks_)
        if (!q.empty())
            return false;
    return mshrs_in_use_ == 0 && hits_.empty();
}

} // namespace qprac::cpu
