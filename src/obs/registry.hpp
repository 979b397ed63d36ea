#pragma once
// The metrics registry: counters, gauges and power-of-two histograms,
// optionally labeled.  It is the only registry in the tree — the flow
// executor owns one (unlabeled series: stage latencies, cache and memo
// gauges, flow outcome counters) and the serving daemon keeps its own
// (labeled families per priority class).
//
//   * labels — "queue wait" is one *family* with one time series per
//     priority class, not three unrelated names, so a Prometheus scraper
//     can aggregate and a dashboard can facet.  Unlabeled series simply
//     have empty labels;
//   * windowed quantiles — SlidingHistogram keeps the *lifetime*
//     cumulative buckets Prometheus needs (monotone `_bucket` series) plus
//     a small ring of time slices for live p50/p95/p99 "over the last
//     minute", not "since the process started three weeks ago".
//
// Counters and gauges are single atomics (lock-free after the first
// lookup).  `snapshot()` copies everything under one mutex, and
// `set_gauges()` commits a batch under that same mutex, so a reader never
// sees torn totals.  Two renderings sit on top of one snapshot:
// `write_json()` (labeled series arrays, the serve `metrics` op) and
// `write_summary_json()` (name-keyed maps with lifetime quantiles, the
// `metrics` object of adc_dse --json / --metrics and the serve `stats`
// op).  One quantile function, histogram_quantile(), serves the summary
// and the windowed quantiles Prometheus exports.
//
// Instruments are never unregistered; returned references live as long as
// the registry, so hot paths capture them once and increment forever.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace adc {

class JsonWriter;

namespace obs {

// Sorted (key, value) pairs; part of a time series' identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void set(double v);
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  // Gauges that carry fractional values (EWMA milliseconds, hit ratios)
  // store fixed-point: value() * 1e-3.
  double value_scaled() const;
  bool scaled() const { return scaled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<bool> scaled_{false};
};

// Power-of-two-microsecond histogram: lifetime cumulative buckets for
// Prometheus (bucket i counts durations < 2^(i+1) µs) plus a ring of
// wall-clock slices so live quantiles answer "recently", not "ever".
class SlidingHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;
  static constexpr std::size_t kSlices = 6;
  static constexpr std::uint64_t kSliceSeconds = 10;  // 60 s window total

  void record_micros(std::uint64_t micros);

  struct Snapshot {
    // Lifetime (Prometheus: monotone counters).
    std::uint64_t count = 0;
    std::uint64_t sum_micros = 0;
    std::uint64_t max_micros = 0;
    std::uint64_t buckets[kBuckets] = {};  // non-cumulative per bucket
    // Windowed (last kSlices * kSliceSeconds seconds).
    std::uint64_t window_count = 0;
    std::uint64_t window_p50_micros = 0;
    std::uint64_t window_p95_micros = 0;
    std::uint64_t window_p99_micros = 0;
  };
  Snapshot snapshot() const;

  // Test hook: advance the slice clock as if `seconds` elapsed, expiring
  // old slices without sleeping.
  void advance_for_test(std::uint64_t seconds);

 private:
  struct Slice {
    std::uint64_t epoch = 0;  // slice index since process start; 0 = empty
    std::uint64_t count = 0;
    std::uint64_t buckets[kBuckets] = {};
  };
  std::uint64_t slice_epoch_now() const;
  Slice& slice_for_locked(std::uint64_t epoch);

  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
  Slice slices_[kSlices];
  std::uint64_t fake_advance_s_ = 0;
};

// Upper bound of `micros`'s power-of-two bucket; shared with the
// Prometheus renderer so `le=` edges and recorded buckets agree.
std::size_t histogram_bucket_index(std::uint64_t micros);
std::uint64_t histogram_bucket_upper_micros(std::size_t index);

// Quantile q (clamped to [0,1]) of a power-of-two histogram with `count`
// samples in `buckets`: the upper bound of the bucket holding the
// ceil(q * count)-th sample, capped by the recorded maximum so a lone
// 100 µs sample never reports as 128 µs.  0 when empty.
std::uint64_t histogram_quantile(const std::uint64_t (&buckets)[SlidingHistogram::kBuckets],
                                 std::uint64_t count, std::uint64_t max_micros, double q);

class Registry {
 public:
  // Instrument lookup-or-create.  `help` is kept from the *first*
  // registration of a family and feeds Prometheus # HELP lines.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  SlidingHistogram& histogram(const std::string& name,
                              const Labels& labels = {},
                              const std::string& help = "");

  struct Series {
    std::string name;
    Labels labels;
  };
  struct CounterSample : Series {
    std::uint64_t value = 0;
  };
  struct GaugeSample : Series {
    double value = 0;
    bool scaled = false;  // fixed-point gauge (Gauge::set(double))
  };
  struct HistogramSample : Series {
    SlidingHistogram::Snapshot hist;
  };
  struct Snapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;
    std::map<std::string, std::string> help;  // family name -> help text
  };
  // Sets a related batch of unlabeled gauges under the registry mutex —
  // the one snapshot() holds — so a reader sees all of the batch or none
  // of it (never disk.hits from one sample next to disk.misses from the
  // previous one).
  void set_gauges(const std::vector<std::pair<std::string, std::int64_t>>& values);

  // One mutex, one instant: no torn cross-metric invariants.
  Snapshot snapshot() const;

  // {"counters": [...], "gauges": [...], "histograms": [...]} — the
  // `metrics` protocol op's payload.
  void write_json(JsonWriter& w) const;

  // {"counters": {name: n}, "gauges": {name: v}, "histograms": {name:
  // {count, sum_us, mean_us, p50_us, p90_us, p99_us, max_us}}} over the
  // lifetime buckets.  Series are keyed by name alone, so this rendering
  // is for unlabeled registries (the flow executor's).
  void write_summary_json(JsonWriter& w) const;

  // Every distinct family name currently registered (the catalogue the
  // CI smoke diff pins down).
  std::vector<std::string> family_names() const;

 private:
  static std::string series_key(const std::string& name, const Labels& labels);
  template <typename T>
  T& instrument_locked(std::map<std::string, std::unique_ptr<T>>& slots,
                       const std::string& name, const Labels& labels,
                       const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<SlidingHistogram>> histograms_;
  std::map<std::string, Series> series_;  // key -> decoded identity
  std::map<std::string, std::string> help_;
};

}  // namespace obs
}  // namespace adc
