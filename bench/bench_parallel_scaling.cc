// Measures the parallel subset-robustness engine: wall-clock for the subset
// analysis of all 2^|programs| - 1 subsets (AnalyzeSubsets, the core-guided
// search) at 1/2/4/8 threads on SmallBank, TPC-C and Auction(n), and for
// summary-graph construction (Algorithm 1) on Auction(m). Every
// multi-threaded report is checked for equality with the single-threaded
// one, so the table doubles as an end-to-end determinism check.
//
// SmallBank and TPC-C have 5 programs (31 subsets) — they are listed for
// completeness but are too small to amortize fan-out. Auction(n) has 2n
// programs, and under tuple granularity without foreign keys most subsets
// are non-robust: the case with the most cores to extract.
//
// Usage: bench_parallel_scaling [auction_n] [repetitions]   (defaults 6, 3)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "robust/subsets.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

struct Case {
  Workload workload;
  AnalysisSettings settings;
  Method method;
};

struct SweepResult {
  double best_ms = 0;
  SubsetReport report;  // first repetition's report
  bool stable = true;   // every repetition reproduced the first
};

SweepResult MeasureSweep(const Case& c, int threads, int repetitions) {
  SweepResult result;
  for (int rep = 0; rep < repetitions; ++rep) {
    Stopwatch watch;
    SubsetReport current =
        AnalyzeSubsets(c.workload.programs, c.settings.WithThreads(threads), c.method);
    double ms = watch.ElapsedMillis();
    if (rep == 0) {
      result.best_ms = ms;
      result.report = std::move(current);
    } else {
      result.best_ms = std::min(result.best_ms, ms);
      result.stable = result.stable && current.robust_masks == result.report.robust_masks &&
                      current.maximal_masks == result.report.maximal_masks;
    }
  }
  return result;
}

// Returns true when every thread count reproduced the serial report.
bool RunSweepCase(const Case& c, int repetitions) {
  std::printf("\n%s, %s, %s (%zu programs, %u subsets)\n", c.workload.name.c_str(),
              c.settings.name(), c.method == Method::kTypeI ? "type-I" : "type-II",
              c.workload.programs.size(),
              (uint32_t{1} << c.workload.programs.size()) - 1);
  std::printf("  %8s %12s %9s %10s\n", "threads", "best (ms)", "speedup", "identical");
  SweepResult baseline = MeasureSweep(c, 1, repetitions);
  bool all_identical = baseline.stable;
  for (int threads : {1, 2, 4, 8}) {
    double ms = baseline.best_ms;
    bool identical = baseline.stable;
    if (threads > 1) {
      SweepResult result = MeasureSweep(c, threads, repetitions);
      identical = result.stable &&
                  result.report.robust_masks == baseline.report.robust_masks &&
                  result.report.maximal_masks == baseline.report.maximal_masks;
      ms = result.best_ms;
      all_identical = all_identical && identical;
    }
    std::printf("  %8d %12.2f %8.2fx %10s\n", threads, ms, baseline.best_ms / ms,
                identical ? "yes" : "NO");
  }
  return all_identical;
}

bool RunGraphBuildCase(int auction_n, int repetitions) {
  Workload workload = MakeAuctionN(auction_n);
  std::printf("\nsummary-graph construction, %s, attr dep + FK (%zu programs)\n",
              workload.name.c_str(), workload.programs.size());
  std::printf("  %8s %12s %9s %10s\n", "threads", "best (ms)", "speedup", "identical");
  AnalysisSettings settings = AnalysisSettings::AttrDepFk();
  SummaryGraph baseline = BuildSummaryGraph(workload.programs, settings);
  double baseline_ms = 0;
  bool all_identical = true;
  for (int threads : {1, 2, 4, 8}) {
    double best_ms = 0;
    bool identical = true;
    for (int rep = 0; rep < repetitions; ++rep) {
      Stopwatch watch;
      SummaryGraph graph = BuildSummaryGraph(workload.programs, settings.WithThreads(threads));
      double ms = watch.ElapsedMillis();
      if (rep == 0 || ms < best_ms) best_ms = ms;
      identical = identical && graph.edges() == baseline.edges();
    }
    if (threads == 1) baseline_ms = best_ms;
    all_identical = all_identical && identical;
    std::printf("  %8d %12.2f %8.2fx %10s\n", threads, best_ms, baseline_ms / best_ms,
                identical ? "yes" : "NO");
  }
  return all_identical;
}

}  // namespace
}  // namespace mvrc

int main(int argc, char** argv) {
  using namespace mvrc;
  const int auction_n = argc > 1 ? std::atoi(argv[1]) : 6;
  const int repetitions = argc > 2 ? std::atoi(argv[2]) : 3;
  if (auction_n < 1 || auction_n > 10 || repetitions < 1) {
    std::fprintf(stderr, "usage: bench_parallel_scaling [auction_n in 1..10] [repetitions]\n");
    return 2;
  }
  std::printf("Parallel scaling: subset analysis (best of %d)\n", repetitions);
  std::printf("hardware threads available: %d\n", ThreadPool::ResolveThreadCount(0));

  bool ok = true;
  ok &= RunSweepCase({MakeSmallBank(), AnalysisSettings::AttrDepFk(), Method::kTypeII},
                     repetitions);
  ok &= RunSweepCase({MakeTpcc(), AnalysisSettings::AttrDepFk(), Method::kTypeII},
                     repetitions);
  ok &= RunSweepCase({MakeAuctionN(auction_n), AnalysisSettings::TupleDep(), Method::kTypeII},
                     repetitions);
  ok &= RunSweepCase({MakeAuctionN(auction_n), AnalysisSettings::AttrDep(), Method::kTypeI},
                     repetitions);
  ok &= RunGraphBuildCase(10 * auction_n, repetitions);

  if (!ok) {
    std::printf("\nERROR: a multi-threaded run diverged from the serial report\n");
    return 1;
  }
  std::printf(
      "\nall multi-threaded reports identical to serial; speedup needs ≥ 4\n"
      "hardware threads to reach the 2x-at-4-threads target on Auction(n).\n");
  return 0;
}
