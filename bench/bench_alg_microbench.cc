// google-benchmark microbenchmarks for the analysis pipeline stages:
// Unfold≤2, Algorithm 1 (summary-graph construction), the type-II test
// (the production MaskedDetector, plus the optimized and naive graph-copy
// oracles of tests/support) and the type-I baseline, on the three
// benchmarks and on Auction(n).

#include <benchmark/benchmark.h>

#include "btp/unfold.h"
#include "robust/detector.h"
#include "summary/build_summary.h"
#include "support/cycle_oracle.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

void BM_Unfold_Tpcc(benchmark::State& state) {
  Workload workload = MakeTpcc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnfoldAtMost2(workload.programs));
  }
}
BENCHMARK(BM_Unfold_Tpcc);

void BM_BuildSummary_SmallBank(benchmark::State& state) {
  Workload workload = MakeSmallBank();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk()));
  }
}
BENCHMARK(BM_BuildSummary_SmallBank);

void BM_BuildSummary_Tpcc(benchmark::State& state) {
  Workload workload = MakeTpcc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk()));
  }
}
BENCHMARK(BM_BuildSummary_Tpcc);

void BM_BuildSummary_AuctionN(benchmark::State& state) {
  Workload workload = MakeAuctionN(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk()));
  }
}
BENCHMARK(BM_BuildSummary_AuctionN)->Arg(5)->Arg(20)->Arg(50)->Arg(100);

void BM_TypeII_AuctionN(benchmark::State& state) {
  Workload workload = MakeAuctionN(static_cast<int>(state.range(0)));
  SummaryGraph graph =
      BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsRobust(graph, Method::kTypeII));
  }
}
BENCHMARK(BM_TypeII_AuctionN)->Arg(5)->Arg(20)->Arg(50)->Arg(100);

void BM_TypeIIOracle_AuctionN(benchmark::State& state) {
  Workload workload = MakeAuctionN(static_cast<int>(state.range(0)));
  SummaryGraph graph =
      BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::FindTypeIICycle(graph));
  }
}
BENCHMARK(BM_TypeIIOracle_AuctionN)->Arg(5)->Arg(20)->Arg(50)->Arg(100);

void BM_TypeIINaive_AuctionN(benchmark::State& state) {
  Workload workload = MakeAuctionN(static_cast<int>(state.range(0)));
  SummaryGraph graph =
      BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::FindTypeIICycleNaive(graph));
  }
}
BENCHMARK(BM_TypeIINaive_AuctionN)->Arg(5)->Arg(10);

void BM_TypeI_Tpcc(benchmark::State& state) {
  Workload workload = MakeTpcc();
  SummaryGraph graph =
      BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsRobust(graph, Method::kTypeI));
  }
}
BENCHMARK(BM_TypeI_Tpcc);

void BM_EndToEnd_Tpcc(benchmark::State& state) {
  Workload workload = MakeTpcc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsRobustAgainstMvrc(
        workload.programs, AnalysisSettings::AttrDepFk(), Method::kTypeII));
  }
}
BENCHMARK(BM_EndToEnd_Tpcc);

}  // namespace
}  // namespace mvrc

BENCHMARK_MAIN();
