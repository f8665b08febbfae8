// Zero-dependency metrics registry: named counters, gauges, and log-bucketed
// latency histograms, surfaced as one JSON snapshot (the `metrics` protocol
// command, `--metrics-json=` on both CLIs, and the BENCH_*.json trailer).
//
// Fast-path design: every mutation (Counter::Add, Histogram::Record) is one
// relaxed atomic RMW on a per-thread *stripe* — a cache-line-aligned slot
// selected by a thread-local ordinal — so instrumented hot paths (the masked
// detector's query counter, the server's per-request accounting) never share
// a contended line and never take a lock or allocate. Reads (Value /
// Snap / ToJson) merge the stripes; they are monotonic per stripe but not a
// consistent cut across metrics, which is exactly what an operational
// snapshot needs. A process-wide kill switch (SetMetricsEnabled) turns every
// mutation into a single relaxed load + branch; bench_masked_sweep uses it
// to measure the instrumentation overhead it gates in CI.
//
// Registration (MetricsRegistry::{counter,gauge,histogram}) takes a mutex
// and may allocate; instrumented code therefore resolves each metric once
// (function-local static) and caches the pointer, which stays valid for the
// registry's lifetime — metrics are never deleted.

#ifndef MVRC_OBS_METRICS_H_
#define MVRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace mvrc {

/// Process-wide instrumentation kill switch (default on). Disabling reduces
/// every Counter::Add / Gauge::Set / Histogram::Record to a relaxed load and
/// a branch — the "uninstrumented" baseline of the CI overhead gate.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Small dense ordinal for the calling thread, assigned on first use. Shared
/// by the metric stripes (slot = id % kStripes) and the trace buffer's tid.
uint32_t ObsThreadId();

namespace obs_internal {

/// Stripes per metric. Threads map onto stripes by ObsThreadId() modulo this,
/// so with up to kStripes concurrent writers no two threads contend on one
/// cache line; beyond that, collisions only cost sharing, never correctness.
inline constexpr int kStripes = 16;

struct alignas(64) StripedCell {
  std::atomic<int64_t> value{0};
};

}  // namespace obs_internal

/// Monotonically increasing sum (events, items, accumulated microseconds).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    cells_[ObsThreadId() % obs_internal::kStripes].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  int64_t Value() const {
    int64_t total = 0;
    for (const auto& cell : cells_) total += cell.value.load(std::memory_order_relaxed);
    return total;
  }

  /// Test/bench-only: not synchronized against concurrent writers.
  void Reset() {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  obs_internal::StripedCell cells_[obs_internal::kStripes];
};

/// Last-written level (live sessions, open connections). Single cell: set/load only.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed distribution of non-negative integer samples (latencies in
/// microseconds by convention). Buckets are powers of two refined into four
/// linear sub-buckets per octave, so any reported quantile is at most 25%
/// above the true sample value (exact below 4); values above ~2^40 share one
/// overflow bucket. Recording is one binary search over the static boundary
/// table plus striped relaxed RMWs.
class Histogram {
 public:
  /// Shared bucket geometry: boundaries[i] is bucket i's inclusive lower
  /// bound; bucket i covers [boundaries[i], boundaries[i+1]) and the last
  /// bucket is open-ended. boundaries[0] == 0.
  static const std::vector<int64_t>& BucketBoundaries();
  static int BucketIndex(int64_t value);

  /// Merged, read-time view of one histogram.
  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;  // 0 when empty
    int64_t max = 0;
    std::vector<int64_t> buckets;  // parallel to BucketBoundaries()

    /// The value at quantile `p` in [0, 100]: the inclusive upper bound of
    /// the bucket holding the rank-⌈p/100·count⌉ sample, clamped to the
    /// observed max (so P100 is exact). 0 when empty.
    int64_t Percentile(double p) const;
    double Mean() const { return count > 0 ? static_cast<double>(sum) / count : 0.0; }
  };

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value);
  Snapshot Snap() const;
  /// Test/bench-only: not synchronized against concurrent writers.
  void Reset();

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{INT64_MAX};
    std::atomic<int64_t> max{INT64_MIN};
    std::vector<std::atomic<int64_t>> buckets;
  };
  Stripe stripes_[obs_internal::kStripes];
};

/// Name -> metric registry. One process-wide instance (Global()); tests may
/// construct private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Finds or creates the named metric. The returned pointer is stable for
  /// the registry's lifetime; resolving the same name as a different kind is
  /// a programmer error (CHECK).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// {"counters":{name:value,...},"gauges":{...},"histograms":{name:
  ///  {"count","sum","min","max","mean","p50","p95","p99"},...}} with names
  /// in sorted order — snapshots diff cleanly across runs.
  Json ToJson() const;

  /// Zeroes every registered metric (test/bench-only; see Counter::Reset).
  void ResetAll();

 private:
  mutable std::mutex mutex_;  // guards the maps, not the metrics
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mvrc

#endif  // MVRC_OBS_METRICS_H_
