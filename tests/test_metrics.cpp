// Metrics tests: histogram quantiles at the edges (empty, q=0, q=1, out-of-
// range q), gauges, and the summary JSON consumed by adc_dse --json.

#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace adc {
namespace {

using obs::Gauge;
using obs::Registry;

// The lifetime quantile the metrics summary reports for `h`.
std::uint64_t quantile(const obs::SlidingHistogram& h, double q) {
  obs::SlidingHistogram::Snapshot s = h.snapshot();
  return obs::histogram_quantile(s.buckets, s.count, s.max_micros, q);
}

std::string summary_json(const Registry& reg) {
  JsonWriter w;
  reg.write_summary_json(w);
  return w.str();
}

TEST(Histogram, EmptyQuantilesAreZero) {
  obs::SlidingHistogram h;
  EXPECT_EQ(quantile(h, 0.0), 0u);
  EXPECT_EQ(quantile(h, 0.5), 0u);
  EXPECT_EQ(quantile(h, 1.0), 0u);
}

TEST(Histogram, SingleSampleEveryQuantileIsTheSample) {
  obs::SlidingHistogram h;
  h.record_micros(100);
  // Bucket bounds are powers of two; the recorded maximum caps the answer
  // so a lone 100µs sample never reports as 128µs.
  for (double q : {0.0, 0.5, 0.9, 1.0}) EXPECT_EQ(quantile(h, q), 100u) << q;
}

TEST(Histogram, QOneNeverExceedsTheMaximum) {
  obs::SlidingHistogram h;
  for (std::uint64_t v : {3u, 5u, 9u, 1000u, 70000u}) h.record_micros(v);
  EXPECT_EQ(quantile(h, 1.0), 70000u);
  EXPECT_LE(quantile(h, 0.99), 70000u);
}

TEST(Histogram, OutOfRangeQIsClamped) {
  obs::SlidingHistogram h;
  h.record_micros(10);
  EXPECT_EQ(quantile(h, -3.0), quantile(h, 0.0));
  EXPECT_EQ(quantile(h, 7.0), quantile(h, 1.0));
}

TEST(Histogram, QuantilesAreOrdered) {
  obs::SlidingHistogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record_micros(i);
  std::uint64_t p50 = quantile(h, 0.5);
  std::uint64_t p90 = quantile(h, 0.9);
  std::uint64_t p99 = quantile(h, 0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.snapshot().max_micros);
  EXPECT_GE(p50, 256u);  // the true median (500) lives in bucket [256,512)
}

TEST(Gauge, SetIsLastWriteWinsAndSigned) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(std::int64_t{10});
  g.set(std::int64_t{13});
  EXPECT_EQ(g.value(), 13);
  g.set(std::int64_t{-7});
  EXPECT_EQ(g.value(), -7) << "gauges are signed";
}

TEST(MetricsRegistry, NamesAreStableAndShared) {
  Registry reg;
  reg.counter("a").add(2);
  reg.counter("a").add(3);
  reg.gauge("q").set(std::int64_t{4});
  EXPECT_EQ(&reg.counter("a"), &reg.counter("a"));
  EXPECT_EQ(reg.counter("a").value(), 5u);
  EXPECT_EQ(reg.gauge("q").value(), 4);
}

TEST(MetricsRegistry, JsonSnapshotCarriesQuantilesAndGauges) {
  Registry reg;
  reg.counter("flow.runs").add(3);
  reg.set_gauges({{"pool.pending", 2}, {"cache.entries", 5}});
  for (std::uint64_t i = 1; i <= 100; ++i) reg.histogram("stage.sim").record_micros(i);

  JsonValue doc = parse_json(summary_json(reg));
  EXPECT_EQ(doc.at("counters").at("flow.runs").number, 3.0);
  EXPECT_EQ(doc.at("gauges").at("pool.pending").number, 2.0);
  EXPECT_EQ(doc.at("gauges").at("cache.entries").number, 5.0);
  const JsonValue& h = doc.at("histograms").at("stage.sim");
  EXPECT_EQ(h.at("count").number, 100.0);
  for (const char* key : {"p50_us", "p90_us", "p99_us", "mean_us", "max_us"})
    EXPECT_TRUE(h.find(key)) << key;
  EXPECT_LE(h.at("p50_us").number, h.at("p99_us").number);
  EXPECT_EQ(h.at("max_us").number, 100.0);
}

}  // namespace
}  // namespace adc
