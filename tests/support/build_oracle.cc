#include "support/build_oracle.h"

#include <utility>

namespace mvrc::oracle {

std::vector<SummaryEdge> SummaryEdgesBetween(const Ltp& from, int from_index, const Ltp& to,
                                             int to_index, const AnalysisSettings& settings) {
  std::vector<SummaryEdge> edges;
  for (int qi = 0; qi < from.size(); ++qi) {
    for (int qj = 0; qj < to.size(); ++qj) {
      if (from.stmt(qi).rel() != to.stmt(qj).rel()) continue;
      if (AllowsNonCounterflow(from.stmt(qi), to.stmt(qj), settings)) {
        edges.push_back({from_index, qi, /*counterflow=*/false, qj, to_index});
      }
      if (AllowsCounterflow(from, qi, to, qj, settings)) {
        edges.push_back({from_index, qi, /*counterflow=*/true, qj, to_index});
      }
    }
  }
  return edges;
}

SummaryGraph BuildSummaryGraphLegacy(std::vector<Ltp> programs,
                                     const AnalysisSettings& settings) {
  // Faithful replica of the pre-interning serial builder: one heap-allocated
  // edge vector per LTP-pair cell, spliced into per-row buffers, appended
  // edge by edge, with the adjacency index finalized before return (the old
  // graph maintained per-program in/out index vectors eagerly on insertion).
  SummaryGraph graph(std::move(programs));
  const int n = graph.num_programs();
  for (int pi = 0; pi < n; ++pi) {
    std::vector<SummaryEdge> row;
    for (int pj = 0; pj < n; ++pj) {
      std::vector<SummaryEdge> cell =
          SummaryEdgesBetween(graph.program(pi), pi, graph.program(pj), pj, settings);
      row.insert(row.end(), cell.begin(), cell.end());
    }
    for (const SummaryEdge& edge : row) graph.AddEdge(edge);
  }
  graph.FinalizeIndex();
  return graph;
}

}  // namespace mvrc::oracle
