// Ablation study for the design choices DESIGN.md calls out:
//   (1) detection condition: type-II (Algorithm 2) vs type-I baseline [3]
//   (2) dependency granularity: attribute vs tuple
//   (3) foreign keys: on vs off
//   (4) implementation: literal O(n^6) Algorithm 2 vs the factored
//       boolean-matrix implementation — both graph-copy searches from the
//       test oracle (tests/support/cycle_oracle.h) — vs the production
//       MaskedDetector full-set query (equal verdicts, different cost)
// Reported per benchmark: summary-graph size and the number of robust
// subsets found, plus wall-clock for (4) on Auction(n).

#include <cstdio>

#include "robust/detector.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "support/cycle_oracle.h"
#include "util/stopwatch.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

void SettingsAblation(const Workload& workload) {
  std::printf("\n%s: edges (cf) and robust subsets per setting and condition\n",
              workload.name.c_str());
  std::printf("  %-14s %14s %14s %14s\n", "setting", "edges (cf)", "type-II robust",
              "type-I robust");
  for (AnalysisSettings settings :
       {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
        AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
    SummaryGraph graph = BuildSummaryGraph(workload.programs, settings);
    SubsetReport type2 = AnalyzeSubsets(workload.programs, settings, Method::kTypeII);
    SubsetReport type1 = AnalyzeSubsets(workload.programs, settings, Method::kTypeI);
    char edges[32];
    std::snprintf(edges, sizeof(edges), "%d (%d)", graph.num_edges(),
                  graph.num_counterflow_edges());
    std::printf("  %-14s %14s %14zu %14zu\n", settings.name(), edges,
                type2.robust_masks.size(), type1.robust_masks.size());
  }
}

void ImplementationAblation() {
  std::printf(
      "\nAlgorithm 2 implementation: literal O(n^6) loop vs boolean-matrix "
      "factoring (graph-copy oracles) vs the masked detector\n");
  std::printf("  %6s %10s %16s %16s %16s %8s\n", "n", "edges", "naive (ms)",
              "optimized (ms)", "detector (ms)", "agree");
  for (int n : {1, 2, 4, 8, 12, 16}) {
    Workload workload = MakeAuctionN(n);
    SummaryGraph graph =
        BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
    Stopwatch naive_watch;
    bool naive = !oracle::FindTypeIICycleNaive(graph).has_value();
    double naive_ms = naive_watch.ElapsedMillis();
    Stopwatch optimized_watch;
    bool optimized = !oracle::FindTypeIICycle(graph).has_value();
    double optimized_ms = optimized_watch.ElapsedMillis();
    Stopwatch detector_watch;
    bool detector = IsRobust(graph, Method::kTypeII);
    double detector_ms = detector_watch.ElapsedMillis();
    std::printf("  %6d %10d %16.3f %16.3f %16.3f %8s\n", n, graph.num_edges(), naive_ms,
                optimized_ms, detector_ms,
                naive == optimized && optimized == detector ? "yes" : "NO");
  }
}

}  // namespace
}  // namespace mvrc

int main() {
  using namespace mvrc;
  SettingsAblation(MakeSmallBank());
  SettingsAblation(MakeTpcc());
  SettingsAblation(MakeAuction());
  ImplementationAblation();
  return 0;
}
