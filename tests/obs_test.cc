// Tests for the observability layer (src/obs/): histogram bucket geometry
// and percentile accuracy against a brute-force oracle, striped counter and
// histogram merges under multi-threaded stress, the kill switch, the trace
// ring's overwrite-oldest policy, and the Chrome trace_event JSON shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace mvrc {
namespace {

// --- Histogram geometry.

TEST(HistogramTest, BoundariesStartAtZeroAndIncrease) {
  const std::vector<int64_t>& bounds = Histogram::BucketBoundaries();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds[0], 0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "at boundary " << i;
  }
  // The table covers the documented range: values up to ~2^40 get their own
  // buckets, everything above shares the overflow bucket.
  EXPECT_GE(bounds.back(), int64_t{1} << 40);
}

TEST(HistogramTest, BucketIndexMapsBoundariesToTheirOwnBucket) {
  const std::vector<int64_t>& bounds = Histogram::BucketBoundaries();
  const int last = static_cast<int>(bounds.size()) - 1;
  for (int i = 0; i < static_cast<int>(bounds.size()); ++i) {
    EXPECT_EQ(Histogram::BucketIndex(bounds[i]), i) << "lower bound of bucket " << i;
    if (i < last) {
      EXPECT_EQ(Histogram::BucketIndex(bounds[i + 1] - 1), i)
          << "inclusive upper bound of bucket " << i;
    }
  }
  EXPECT_EQ(Histogram::BucketIndex(bounds.back() + 12345), last);
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), last);
}

TEST(HistogramTest, SmallValuesAreExact) {
  // One bucket per value below 4 (bucket width 1), so quantiles are exact.
  Histogram hist;
  for (int64_t v : {0, 1, 1, 2, 3, 3, 3}) hist.Record(v);
  Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 7);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 3);
  EXPECT_EQ(snap.Percentile(0), 0);
  EXPECT_EQ(snap.Percentile(50), 2);
  EXPECT_EQ(snap.Percentile(100), 3);
}

// Brute-force oracle for the documented rank: the ⌈p/100·count⌉-th smallest
// sample (1-based), clamped to the first sample for p = 0.
int64_t OraclePercentile(std::vector<int64_t> samples, double p) {
  std::sort(samples.begin(), samples.end());
  int64_t rank = static_cast<int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  if (rank < 1) rank = 1;
  if (rank > static_cast<int64_t>(samples.size())) rank = samples.size();
  return samples[rank - 1];
}

TEST(HistogramTest, PercentilesWithinBucketBoundOfOracle) {
  Histogram hist;
  std::vector<int64_t> samples;
  // Deterministic LCG spanning several octaves, plus exact small values.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    int64_t value = static_cast<int64_t>((state >> 33) % 2000000);
    samples.push_back(value);
    hist.Record(value);
  }
  Histogram::Snapshot snap = hist.Snap();
  ASSERT_EQ(snap.count, static_cast<int64_t>(samples.size()));
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    const int64_t oracle = OraclePercentile(samples, p);
    const int64_t reported = snap.Percentile(p);
    EXPECT_GE(reported, oracle) << "p" << p;
    EXPECT_LE(reported, oracle + oracle / 4 + 1) << "p" << p;
  }
  EXPECT_EQ(snap.Percentile(100), *std::max_element(samples.begin(), samples.end()));
}

TEST(HistogramTest, SnapshotSumMinMaxMean) {
  Histogram hist;
  int64_t sum = 0;
  for (int64_t v = 10; v <= 1000; v += 37) {
    hist.Record(v);
    sum += v;
  }
  Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.min, 10);
  EXPECT_EQ(snap.max, 972);
  EXPECT_DOUBLE_EQ(snap.Mean(), static_cast<double>(sum) / snap.count);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram hist;
  hist.Record(7);
  hist.Reset();
  Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.Percentile(50), 0);
}

// --- Striped merges under concurrency.

TEST(MetricsTest, CounterMergesStripesUnderThreadStress) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("stress.counter");
  Histogram* hist = registry.histogram("stress.hist");
  constexpr int kThreads = 4;
  constexpr int kTasks = 64;  // split evenly across the threads
  constexpr int kPerTask = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int task = 0; task < kTasks / kThreads; ++task) {
        for (int i = 0; i < kPerTask; ++i) {
          counter->Add(1);
          hist->Record(i);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), int64_t{kTasks} * kPerTask);
  Histogram::Snapshot snap = hist->Snap();
  EXPECT_EQ(snap.count, int64_t{kTasks} * kPerTask);
  EXPECT_EQ(snap.sum, int64_t{kTasks} * kPerTask * (kPerTask - 1) / 2);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, kPerTask - 1);
}

TEST(MetricsTest, KillSwitchMakesMutationsNoOps) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("switch.counter");
  Gauge* gauge = registry.gauge("switch.gauge");
  Histogram* hist = registry.histogram("switch.hist");
  ASSERT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  counter->Add(5);
  gauge->Set(9);
  hist->Record(123);
  SetMetricsEnabled(true);
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(gauge->Value(), 0);
  EXPECT_EQ(hist->Snap().count, 0);
  counter->Add(5);
  EXPECT_EQ(counter->Value(), 5);
}

TEST(MetricsTest, GaugeSetAddValue) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.counter("same.name");
  Counter* b = registry.counter("same.name");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.histogram("other.name"), nullptr);
}

TEST(MetricsTest, ToJsonShape) {
  MetricsRegistry registry;
  registry.counter("c.events")->Add(3);
  registry.gauge("g.level")->Set(-2);
  Histogram* hist = registry.histogram("h.latency_us");
  for (int64_t v : {5, 10, 20}) hist->Record(v);

  Json doc = registry.ToJson();
  const Json* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("c.events"), nullptr);
  EXPECT_EQ(counters->Find("c.events")->int_value(), 3);
  const Json* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("g.level")->int_value(), -2);
  const Json* hists = doc.Find("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* entry = hists->Find("h.latency_us");
  ASSERT_NE(entry, nullptr);
  for (const char* key : {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}) {
    EXPECT_NE(entry->Find(key), nullptr) << key;
  }
  EXPECT_EQ(entry->Find("count")->int_value(), 3);
  EXPECT_EQ(entry->Find("sum")->int_value(), 35);

  registry.ResetAll();
  EXPECT_EQ(registry.counter("c.events")->Value(), 0);
  EXPECT_EQ(registry.histogram("h.latency_us")->Snap().count, 0);
}

// --- Trace ring + Chrome JSON.

TraceEvent MakeEvent(int i) {
  TraceEvent event;
  event.name = "ev" + std::to_string(i);
  event.tid = 1;
  event.ts_us = i;
  event.dur_us = 1;
  return event;
}

TEST(TraceTest, RingKeepsNewestAndCountsDrops) {
  TraceBuffer buffer;
  buffer.Start(TraceBuffer::kMinCapacity);  // 16 slots
  for (int i = 0; i < 20; ++i) buffer.Record(MakeEvent(i));
  buffer.Stop();
  EXPECT_EQ(buffer.recorded(), 20);
  EXPECT_EQ(buffer.dropped(), 4);

  Json doc = buffer.ToChromeJson();
  const Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 16);
  // Oldest-first, with the first four events overwritten.
  EXPECT_EQ(events->at(0).Find("name")->string_value(), "ev4");
  EXPECT_EQ(events->at(15).Find("name")->string_value(), "ev19");
}

TEST(TraceTest, RecordIsNoOpWhileDisabled) {
  TraceBuffer buffer;
  buffer.Record(MakeEvent(0));
  EXPECT_EQ(buffer.recorded(), 0);
  buffer.Start(64);
  buffer.Record(MakeEvent(1));
  buffer.Stop();
  buffer.Record(MakeEvent(2));
  EXPECT_EQ(buffer.recorded(), 1);
  EXPECT_EQ(buffer.dropped(), 0);
}

TEST(TraceTest, StartClampsCapacityAndClears) {
  TraceBuffer buffer;
  buffer.Start(1);  // clamped up to kMinCapacity
  for (int i = 0; i < 2 * static_cast<int>(TraceBuffer::kMinCapacity); ++i) {
    buffer.Record(MakeEvent(i));
  }
  EXPECT_EQ(buffer.dropped(), static_cast<int64_t>(TraceBuffer::kMinCapacity));
  buffer.Start(64);  // restart clears recorded/dropped and the ring
  EXPECT_EQ(buffer.recorded(), 0);
  EXPECT_EQ(buffer.dropped(), 0);
  EXPECT_EQ(buffer.ToChromeJson().Find("traceEvents")->size(), 0);
  buffer.Stop();
}

TEST(TraceTest, ChromeJsonRoundTripsWithSchemaFields) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Start(256);
  {
    TraceSpan span("test/outer", "k=v");
    span.AppendArgs("result=ok");
    TraceSpan inner("test/inner");
  }
  buffer.Stop();
  ASSERT_GE(buffer.recorded(), 2);

  // Round-trip through the parser: the dumped text must be valid JSON with
  // the Chrome trace_event schema fields on every event.
  Result<Json> parsed = Json::Parse(buffer.ToChromeJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  Json doc = std::move(parsed).value();
  EXPECT_EQ(doc.Find("displayTimeUnit")->string_value(), "ms");
  const Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_outer = false;
  for (int i = 0; i < events->size(); ++i) {
    const Json& event = events->at(i);
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      ASSERT_NE(event.Find(key), nullptr) << key;
    }
    EXPECT_EQ(event.Find("cat")->string_value(), "mvrc");
    EXPECT_EQ(event.Find("ph")->string_value(), "X");
    EXPECT_EQ(event.Find("pid")->int_value(), 1);
    EXPECT_GE(event.Find("ts")->int_value(), 0);
    if (event.Find("name")->string_value() == "test/outer") {
      saw_outer = true;
      const Json* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      const std::string detail = args->Find("detail")->string_value();
      EXPECT_NE(detail.find("k=v"), std::string::npos);
      EXPECT_NE(detail.find("result=ok"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_outer);
}

TEST(TraceTest, SpanIsInactiveWhenTracingDisabled) {
  TraceBuffer& buffer = TraceBuffer::Global();
  ASSERT_FALSE(buffer.enabled());
  const int64_t before = buffer.recorded();
  {
    TraceSpan span("test/ignored");
    span.AppendArgs("unused=1");
  }
  EXPECT_EQ(buffer.recorded(), before);
}

}  // namespace
}  // namespace mvrc
