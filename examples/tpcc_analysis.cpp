// TPC-C analysis: the benchmark the paper highlights as finally tractable
// once inserts, deletes and predicate reads are supported. Prints the
// unfolded programs, the Figure 6 / Figure 7 rows, the effect of each
// analysis ingredient (granularity, foreign keys, the type-II refinement),
// and a witness cycle explaining a rejected subset.

#include <cstdio>

#include "btp/unfold.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "workloads/tpcc.h"

using namespace mvrc;

int main() {
  Workload workload = MakeTpcc();

  std::printf("TPC-C unfolds from %zu BTPs into these linear programs:\n",
              workload.programs.size());
  for (const Ltp& ltp : UnfoldAtMost2(workload.programs)) {
    std::printf("  %s\n", ltp.ToDebugString().c_str());
  }

  std::printf("\nmaximal robust subsets by setting and method:\n");
  std::printf("  %-14s %-34s %s\n", "setting", "Algorithm 2 (type-II)",
              "baseline [3] (type-I)");
  for (AnalysisSettings settings :
       {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
        AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
    std::string type2_row, type1_row;
    SubsetReport type2 = AnalyzeSubsets(workload.programs, settings, Method::kTypeII);
    SubsetReport type1 = AnalyzeSubsets(workload.programs, settings, Method::kTypeI);
    for (uint32_t mask : type2.maximal_masks) {
      if (!type2_row.empty()) type2_row += ", ";
      type2_row += type2.DescribeMask(mask, workload.abbreviations);
    }
    for (uint32_t mask : type1.maximal_masks) {
      if (!type1_row.empty()) type1_row += ", ";
      type1_row += type1.DescribeMask(mask, workload.abbreviations);
    }
    std::printf("  %-14s %-34s %s\n", settings.name(), type2_row.c_str(),
                type1_row.c_str());
  }

  // {OS, Pay, SL} is the paper's headline: robust under attr+FK with the
  // type-II condition, invisible to every weaker configuration. Show the
  // type-I cycle that the weaker condition trips over.
  std::vector<Btp> os_pay_sl{workload.programs[2], workload.programs[1],
                             workload.programs[4]};
  SummaryGraph graph = BuildSummaryGraph(os_pay_sl, AnalysisSettings::AttrDepFk());
  std::printf("\n{OS, Pay, SL} summary graph: %d edges (%d counterflow)\n",
              graph.num_edges(), graph.num_counterflow_edges());
  const IsolationPolicy& mvrc = GetPolicy(IsolationLevel::kMvrc);
  CycleTestOutcome type1 = RunCycleTest(graph, Method::kTypeI, mvrc);
  if (!type1.robust) {
    std::printf("  type-I cycle exists (%s)\n  ... but no type-II cycle: %s\n",
                type1.witness.c_str(),
                IsRobust(graph, Method::kTypeII, mvrc) ? "robust" : "UNEXPECTED");
  }

  // NewOrder + Delivery: phantoms through inserts and deletes on New_Order.
  std::vector<Btp> no_del{workload.programs[0], workload.programs[3]};
  SummaryGraph no_del_graph = BuildSummaryGraph(no_del, AnalysisSettings::AttrDepFk());
  CycleTestOutcome no_del_outcome = RunCycleTest(no_del_graph, Method::kTypeII, mvrc);
  if (!no_del_outcome.robust) {
    std::printf("\n{NO, Del} rejected — %s\n", no_del_outcome.witness.c_str());
  }
  return 0;
}
