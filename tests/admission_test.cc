// The admission controller is the request-level backpressure primitive under
// real concurrency: N threads hammering the gate must never observe more
// than max_inflight admitted at once, every admit must pair with exactly one
// release, and the shed count (and its protocol.shed metric) must equal the
// number of refusals — no lost or double-counted slots under contention.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "service/admission.h"
#include "service/protocol.h"
#include "service/session_manager.h"

namespace mvrc {
namespace {

TEST(AdmissionControllerTest, ConcurrentHammeringNeverExceedsTheCap) {
  constexpr int kCap = 4;
  constexpr int kThreads = 16;
  constexpr int kAttemptsPerThread = 5000;

  AdmissionController gate(kCap);
  std::atomic<int> inside{0};
  std::atomic<int> max_seen{0};
  std::atomic<int64_t> admitted{0};
  std::atomic<int64_t> rejected{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttemptsPerThread; ++i) {
        if (!gate.TryEnter()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const int now = inside.fetch_add(1, std::memory_order_acq_rel) + 1;
        int seen = max_seen.load(std::memory_order_relaxed);
        while (now > seen &&
               !max_seen.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
        }
        admitted.fetch_add(1, std::memory_order_relaxed);
        // A tiny critical section so slots actually overlap across threads.
        if (i % 7 == 0) std::this_thread::yield();
        inside.fetch_sub(1, std::memory_order_acq_rel);
        gate.Exit();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_GT(max_seen.load(), 1) << "no concurrency was exercised";
  EXPECT_LE(max_seen.load(), kCap);
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_EQ(gate.shed(), rejected.load());
  EXPECT_EQ(admitted.load() + rejected.load(),
            static_cast<int64_t>(kThreads) * kAttemptsPerThread);
}

TEST(AdmissionControllerTest, ShedMetricTracksProtocolLevelRejections) {
  // A zero-capacity gate sheds every request; the protocol must answer each
  // with a retryable error and bump protocol.shed accordingly.
  AdmissionController gate(0);
  SessionManager manager;
  ProtocolOptions options;
  options.admission = &gate;

  Counter* shed_metric = MetricsRegistry::Global().counter("protocol.shed");
  const int64_t metric_before = shed_metric->Value();

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> retryable_errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string response = HandleRequestLine(
            manager, "{\"cmd\":\"check\",\"session\":\"s\"}", options);
        if (response.find("\"retryable\":true") != std::string::npos) {
          retryable_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr int64_t kTotal = static_cast<int64_t>(kThreads) * kRequestsPerThread;
  EXPECT_EQ(retryable_errors.load(), kTotal);
  EXPECT_EQ(gate.shed(), kTotal);
  EXPECT_EQ(shed_metric->Value() - metric_before, kTotal);
}

TEST(AdmissionControllerTest, SlotRaiiReleasesOnlyWhenAdmitted) {
  AdmissionController gate(1);
  {
    AdmissionController::Slot first(&gate);
    EXPECT_TRUE(first.admitted());
    EXPECT_EQ(gate.inflight(), 1);
    AdmissionController::Slot second(&gate);
    EXPECT_FALSE(second.admitted());
    EXPECT_EQ(gate.inflight(), 1);  // a refused slot must not release
  }
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_EQ(gate.shed(), 1);
  AdmissionController::Slot null_gate(nullptr);
  EXPECT_TRUE(null_gate.admitted());
}

}  // namespace
}  // namespace mvrc
