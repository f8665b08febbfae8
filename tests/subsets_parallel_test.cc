// The subset entry points must report the same lattice at every pool size:
// for every workload, setting, method and thread count, the robust_masks and
// maximal_masks of AnalyzeSubsets equal the per-mask oracle sweep's
// (tests/support/subset_oracle.h), and the cores and maximal sets equal the
// serial run's. Also covers the parallel summary-graph builder (identical
// edge lists) and the ThreadPool primitive itself.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "support/subset_oracle.h"
#include "util/thread_pool.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

std::vector<Workload> TestWorkloads() {
  std::vector<Workload> workloads;
  workloads.push_back(MakeSmallBank());
  workloads.push_back(MakeTpcc());
  workloads.push_back(MakeAuction());
  // 8 programs: large enough that the parallel search fans out real
  // candidate and chunk-probe batches.
  workloads.push_back(MakeAuctionN(4));
  return workloads;
}

const AnalysisSettings kAllSettings[] = {
    AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
    AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()};

TEST(SubsetsParallelTest, MatchesSerialForAllThreadCounts) {
  for (const Workload& workload : TestWorkloads()) {
    for (const AnalysisSettings& settings : kAllSettings) {
      for (Method method : {Method::kTypeI, Method::kTypeII}) {
        const std::string context = workload.name + " / " + settings.name() + " / " +
                                    (method == Method::kTypeI ? "type-I" : "type-II");
        const SubsetReport sweep = oracle::SweepSubsets(workload.programs, settings, method);
        SubsetReport serial = AnalyzeSubsets(workload.programs, settings, method);
        ASSERT_EQ(serial.num_threads, 1);
        for (int threads : {1, 2, 8}) {
          SubsetReport parallel =
              AnalyzeSubsets(workload.programs, settings.WithThreads(threads), method);
          EXPECT_EQ(parallel.num_threads, threads);
          EXPECT_EQ(parallel.num_programs, sweep.num_programs);
          EXPECT_EQ(parallel.robust_masks, sweep.robust_masks)
              << context << " / " << threads << " threads";
          EXPECT_EQ(parallel.maximal_masks, sweep.maximal_masks)
              << context << " / " << threads << " threads";
          EXPECT_EQ(parallel.cores, serial.cores) << context << " / " << threads << " threads";
          EXPECT_EQ(parallel.maximal_sets, serial.maximal_sets)
              << context << " / " << threads << " threads";
        }
      }
    }
  }
}

TEST(SubsetsParallelTest, ZeroThreadsMeansHardwareConcurrency) {
  Workload workload = MakeSmallBank();
  AnalysisSettings settings = AnalysisSettings::AttrDepFk().WithThreads(0);
  SubsetReport report =
      AnalyzeSubsets(workload.programs, settings, Method::kTypeII);
  EXPECT_EQ(report.num_threads, ThreadPool::ResolveThreadCount(0));
  EXPECT_EQ(report.robust_masks,
            oracle::SweepSubsets(workload.programs, AnalysisSettings::AttrDepFk(),
                                 Method::kTypeII)
                .robust_masks);
}

TEST(BuildSummaryParallelTest, EdgeListIdenticalToSerial) {
  for (const Workload& workload : TestWorkloads()) {
    for (const AnalysisSettings& settings : kAllSettings) {
      SummaryGraph serial =
          BuildSummaryGraph(UnfoldAtMost2(workload.programs), settings);
      for (int threads : {2, 8}) {
        SummaryGraph parallel = BuildSummaryGraph(UnfoldAtMost2(workload.programs),
                                                  settings.WithThreads(threads));
        ASSERT_EQ(parallel.num_edges(), serial.num_edges());
        EXPECT_EQ(parallel.edges(), serial.edges())
            << workload.name << " / " << settings.name() << " / " << threads << " threads";
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int64_t kCount = 10'000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.ParallelFor(kCount, [&visits](int64_t i) { visits[i].fetch_add(1); });
  for (int64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleItem) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int64_t) { FAIL() << "no items to visit"; });
  std::atomic<int> calls{0};
  pool.ParallelFor(1, [&calls](int64_t i) {
    EXPECT_EQ(i, 0);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, SubmitAndWaitDrainsQueue) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(5), 5);
}

}  // namespace
}  // namespace mvrc
