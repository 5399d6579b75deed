/**
 * @file
 * Observability layer: cycle-stamped structured event tracing plus
 * distribution/time-series metrics.
 *
 * Tracing is flight-recorder style: each shard (channel) owns one
 * EventSink — a bounded ring that keeps the most recent events and
 * counts what it overwrote (no silent truncation; drops are reported
 * in every export). Components record only at state-change points
 * (command issues, machine transitions, queue operations), never from
 * per-cycle polling paths, so the per-shard event stream — and hence
 * the merged trace — is byte-identical across threads=1/2/4 (and so
 * the alternating and pipelined schedules) and skip=on/off, exactly
 * like the simulation result.
 *
 * The disabled path costs a single predictable branch: components hold
 * nullable EventSink / ShardMetrics pointers and test them before
 * recording.
 *
 * Exports: Chrome/Perfetto trace-event JSON ("traceEvents", one track
 * per channel plus a driver lane, counter tracks from the time-series
 * sampler) and a flat CSV. `tools/trace_summary` folds either back
 * into a terminal table.
 */
#ifndef QPRAC_OBS_OBS_H
#define QPRAC_OBS_OBS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace qprac {
class JsonWriter;
} // namespace qprac

namespace qprac::obs {

/** Event categories (bitmask; the `trace=` scenario key selects a set). */
enum Category : std::uint32_t
{
    kCmd = 1u << 0,      ///< DRAM commands: ACT/PRE/RD/WR
    kRefresh = 1u << 1,  ///< REF issue + tREFC windows
    kAbo = 1u << 2,      ///< ALERT_n / ABO machine transitions
    kRfm = 1u << 3,      ///< RFM commands (alert pumps + policy RFMs)
    kRecovery = 1u << 4, ///< per-bank recovery machine transitions
    kPsq = 1u << 5,      ///< PSQ service events (mitigation side)
    kCuq = 1u << 6,      ///< counter-update queue stalls/flushes
    kAttack = 1u << 7,   ///< attack-driver events (probe latencies)
};

inline constexpr int kNumCategories = 8;
inline constexpr std::uint32_t kAllCategories = 0xffu;

/** Name of one category bit (index 0..kNumCategories-1). */
const char* categoryName(int index);

/**
 * Parse a `trace=` value: "off"/"none", "all", or a comma-separated
 * list of category names. Returns false (and fills @p err) on unknown
 * names.
 */
bool parseCategoryMask(const std::string& text, std::uint32_t* mask,
                       std::string* err);

/** Canonical spelling of a mask: "off", "all", or a sorted name list. */
std::string categoryMaskToString(std::uint32_t mask);

/**
 * One recorded event. Name/arg-key pointers must be string literals
 * (static storage): events are stored by value and exported after the
 * run, and literal identity keeps recording allocation-free.
 */
struct Event
{
    Cycle cycle = 0;          ///< start cycle (stamp)
    Cycle dur = 0;            ///< duration in cycles; 0 = instant event
    std::uint32_t cat = 0;    ///< one Category bit
    const char* name = nullptr;
    const char* k0 = nullptr; ///< first arg key (nullptr = none)
    const char* k1 = nullptr; ///< second arg key (nullptr = none)
    std::int64_t v0 = 0;
    std::int64_t v1 = 0;
};

/**
 * Per-shard bounded event ring. Keeps the LAST `capacity` accepted
 * events; older events are overwritten and counted in dropped().
 * Not thread-safe by design: one sink belongs to one shard.
 */
class EventSink
{
  public:
    EventSink(std::uint32_t mask, std::size_t capacity);

    /** True when @p cat passes the category filter. */
    bool wants(Category cat) const { return (mask_ & cat) != 0; }

    std::uint32_t mask() const { return mask_; }

    /** Record an instant event. */
    void record(Category cat, Cycle cycle, const char* name,
                const char* k0 = nullptr, std::int64_t v0 = 0,
                const char* k1 = nullptr, std::int64_t v1 = 0)
    {
        if (!wants(cat))
            return;
        push(Event{cycle, 0, cat, name, k0, k1, v0, v1});
    }

    /** Record a duration event spanning [begin, end). */
    void recordSpan(Category cat, Cycle begin, Cycle end, const char* name,
                    const char* k0 = nullptr, std::int64_t v0 = 0,
                    const char* k1 = nullptr, std::int64_t v1 = 0)
    {
        if (!wants(cat))
            return;
        push(Event{begin, end > begin ? end - begin : 0, cat, name, k0, k1,
                   v0, v1});
    }

    /** Events accepted over the sink's lifetime (kept + dropped). */
    std::uint64_t total() const { return total_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const
    {
        return total_ > ring_.size()
                   ? total_ - static_cast<std::uint64_t>(ring_.size())
                   : 0;
    }

    /**
     * Kept events in recording order (oldest kept first), paired with
     * their global per-shard sequence number.
     */
    std::vector<std::pair<std::uint64_t, Event>> drain() const;

  private:
    void push(const Event& e)
    {
        ring_[static_cast<std::size_t>(total_ % ring_.size())] = e;
        ++total_;
    }

    std::uint32_t mask_;
    std::vector<Event> ring_;
    std::uint64_t total_ = 0;
};

/**
 * Log2-bucketed histogram of unsigned values: bucket b>=1 holds
 * [2^(b-1), 2^b), bucket 0 holds {0}. Percentiles are approximate
 * (bucket upper edge) under the shared nearest-rank rule
 * (qprac::percentileRank).
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    void record(std::uint64_t value);
    void merge(const Histogram& other);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return max_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /** Upper edge of the bucket holding the nearest-rank percentile. */
    std::uint64_t percentile(double p) const;

    const std::uint64_t* buckets() const { return buckets_; }

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/** A cycle-stamped multi-track series of integer samples. */
class TimeSeries
{
  public:
    struct Row
    {
        Cycle cycle;
        std::vector<std::int64_t> values;
    };

    TimeSeries() = default;
    explicit TimeSeries(std::vector<std::string> tracks)
        : tracks_(std::move(tracks))
    {
    }

    const std::vector<std::string>& tracks() const { return tracks_; }
    const std::vector<Row>& rows() const { return rows_; }

    void append(Cycle cycle, std::vector<std::int64_t> values)
    {
        rows_.push_back(Row{cycle, std::move(values)});
    }

  private:
    std::vector<std::string> tracks_;
    std::vector<Row> rows_;
};

/**
 * Per-shard metrics state: the epoch-aligned sampler position, the
 * sampled series, and the read-latency distribution. Owned by the
 * EventRecorder, written only by the owning shard.
 *
 * Sampling contract (skip-determinism): the engine samples at the top
 * of every EXECUTED tick with `while (next_sample_at <= now)`, and
 * fires the samples a window-end skip would jump over before leaving
 * the window. Skipped spans change no state, so dense and skip modes
 * sample identical values at identical stamps.
 */
struct ShardMetrics
{
    Cycle interval = 0; ///< sampling period in cycles (0 = disabled)
    Cycle next_sample_at = 0;
    TimeSeries series;
    Histogram read_latency;
};

/** Post-run digest consumed by `--metrics`, sweep JSON and reports. */
struct RunSummary
{
    std::uint32_t mask = 0;
    Cycle metrics_interval = 0;
    std::uint64_t events = 0;  ///< events accepted across all lanes
    std::uint64_t dropped = 0; ///< events overwritten across all lanes
    std::uint64_t per_category[kNumCategories] = {};
    Histogram read_latency; ///< merged over shards

    struct Track
    {
        std::string name;
        std::uint64_t samples = 0;
        std::int64_t min = 0;
        std::int64_t max = 0;
        std::int64_t last = 0;
        double mean = 0.0;
    };
    std::vector<Track> tracks;

    std::string trace_path; ///< trace file written for this run ("" = none)

    /** Human-readable `--metrics` report. */
    std::string report() const;

    /** Sweep-JSON sidecar object (written beside the result). */
    void toJson(JsonWriter& w) const;
};

/** EventRecorder construction parameters. */
struct RecorderConfig
{
    std::uint32_t mask = 0;        ///< 0 = tracing off
    std::size_t ring_capacity = 1u << 16; ///< events kept per lane
    Cycle metrics_interval = 0;    ///< 0 = metrics off
};

/**
 * The per-run observability hub: owns one EventSink per shard plus a
 * driver lane (attack drivers / host-side events), and one
 * ShardMetrics per shard. Merges lanes in canonical (cycle, shard,
 * sequence) order for export.
 */
class EventRecorder
{
  public:
    EventRecorder(const RecorderConfig& cfg, int num_shards);

    int numShards() const { return num_shards_; }
    bool tracing() const { return cfg_.mask != 0; }
    bool metricsEnabled() const { return cfg_.metrics_interval != 0; }
    Cycle metricsInterval() const { return cfg_.metrics_interval; }

    /** Event lane for shard @p shard; nullptr when tracing is off. */
    EventSink* sink(int shard);

    /** The extra lane for host/attack-driver events. */
    EventSink* driverSink() { return sink(num_shards_); }

    /** Metrics state for shard @p shard; nullptr when metrics are off. */
    ShardMetrics* metrics(int shard);

    std::uint64_t totalRecorded() const;
    std::uint64_t totalDropped() const;

    /** Chrome/Perfetto trace-event JSON (byte-deterministic). */
    std::string toPerfettoJson() const;

    /** Flat CSV: shard,seq,cycle,dur,category,name,k0,v0,k1,v1. */
    std::string toCsv() const;

    /**
     * Write the trace to @p path (CSV when the path ends in ".csv",
     * Perfetto JSON otherwise) via tmp+rename so concurrent sweep
     * points racing on one path never interleave.
     */
    bool writeTrace(const std::string& path, std::string* err) const;

    /** Build the post-run digest (merges per-shard metrics). */
    std::shared_ptr<RunSummary> summary() const;

  private:
    struct MergedEvent
    {
        int shard;
        std::uint64_t seq;
        Event e;
    };

    std::vector<MergedEvent> merged() const;

    RecorderConfig cfg_;
    int num_shards_;
    std::vector<std::unique_ptr<EventSink>> sinks_;   ///< num_shards_+1
    std::vector<std::unique_ptr<ShardMetrics>> metrics_; ///< num_shards_
};

/** Track names sampled by the engine, in series column order. */
const std::vector<std::string>& metricsTrackNames();

} // namespace qprac::obs

#endif // QPRAC_OBS_OBS_H
