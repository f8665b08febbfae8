#include "support/cycle_oracle.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "util/bits.h"
#include "util/check.h"

namespace mvrc::oracle {

namespace {

// Boolean n x n matrix with 64-bit packed rows.
class BoolMatrix {
 public:
  explicit BoolMatrix(int n) : n_(n), words_(static_cast<size_t>(n) * WordsPerRow(), 0) {}

  int WordsPerRow() const { return (n_ + 63) / 64; }

  void Set(int r, int c) { row(r)[c / 64] |= uint64_t{1} << (c % 64); }
  bool At(int r, int c) const { return (row(r)[c / 64] >> (c % 64)) & 1; }

  uint64_t* row(int r) { return words_.data() + static_cast<size_t>(r) * WordsPerRow(); }
  const uint64_t* row(int r) const {
    return words_.data() + static_cast<size_t>(r) * WordsPerRow();
  }

 private:
  int n_;
  std::vector<uint64_t> words_;
};

}  // namespace

std::optional<TypeIWitness> FindTypeICycle(const SummaryGraph& graph) {
  Digraph program_graph = graph.ProgramGraph();
  Digraph::Reachability reach = program_graph.ComputeReachability();
  for (const SummaryEdge& edge : graph.edges()) {
    if (!edge.counterflow) continue;
    if (reach.At(edge.to_program, edge.from_program)) {
      TypeIWitness witness;
      witness.edge = edge;
      witness.return_path = program_graph.ShortestPath(edge.to_program, edge.from_program);
      return witness;
    }
  }
  return std::nullopt;
}

std::optional<TypeIIWitness> FindTypeIICycle(const SummaryGraph& graph,
                                             const IsolationPolicy& policy) {
  const int n = graph.num_programs();
  if (n == 0) return std::nullopt;
  Digraph program_graph = graph.ProgramGraph();
  Digraph::Reachability reach = program_graph.ComputeReachability();

  // nc_adj[P1][P2] = 1 iff a non-counterflow edge P1 -> P2 exists.
  BoolMatrix nc_adj(n);
  bool any_nc = false;
  for (const SummaryEdge& edge : graph.edges()) {
    if (!edge.counterflow) {
      nc_adj.Set(edge.from_program, edge.to_program);
      any_nc = true;
    }
  }
  if (!any_nc) return std::nullopt;

  // closes[P3][P5] = 1 iff some non-counterflow edge (P1 -> P2) satisfies
  // P2 ~> P3 and P5 ~> P1; i.e. the pair (e3, e4) can be closed into a
  // cycle through e1, stored transposed as
  //   through[y][x] = OR_{P1,P2} reach[y][P1] & nc_adj[P1][P2] & reach[P2][x]
  // and assembled straight from the closure's packed rows.
  const int wpr = reach.words_per_row();
  BoolMatrix through(n);
  std::vector<uint64_t> nc_targets(wpr);
  for (int y = 0; y < n; ++y) {
    std::fill(nc_targets.begin(), nc_targets.end(), 0);
    ForEachBit(reach.row(y), wpr, [&](int p1) {
      const uint64_t* nc_row = nc_adj.row(p1);
      for (int w = 0; w < wpr; ++w) nc_targets[w] |= nc_row[w];
    });
    uint64_t* through_row = through.row(y);
    ForEachBit(nc_targets.data(), wpr, [&](int p2) {
      const uint64_t* reach_row = reach.row(p2);
      for (int w = 0; w < wpr; ++w) through_row[w] |= reach_row[w];
    });
  }

  // Scan adjacent pairs (e3 into P4, counterflow e4 out of P4).
  for (int p4 = 0; p4 < n; ++p4) {
    for (int e4_index : graph.OutEdges(p4)) {
      const SummaryEdge& e4 = graph.edges()[e4_index];
      if (!e4.counterflow) continue;
      for (int e3_index : graph.InEdges(p4)) {
        const SummaryEdge& e3 = graph.edges()[e3_index];
        if (!AdjacentPairCondition(graph, e3, e4, policy)) continue;
        if (!through.At(e4.to_program, e3.from_program)) continue;
        // Reconstruct a witnessing e1.
        for (const SummaryEdge& e1 : graph.edges()) {
          if (e1.counterflow) continue;
          if (reach.At(e1.to_program, e3.from_program) &&
              reach.At(e4.to_program, e1.from_program)) {
            TypeIIWitness witness;
            witness.e1 = e1;
            witness.e3 = e3;
            witness.e4 = e4;
            witness.path_p2_to_p3 =
                program_graph.ShortestPath(e1.to_program, e3.from_program);
            witness.path_p5_to_p1 =
                program_graph.ShortestPath(e4.to_program, e1.from_program);
            return witness;
          }
        }
        MVRC_CHECK_MSG(false, "matrix said a closing nc edge exists but scan found none");
      }
    }
  }
  return std::nullopt;
}

std::optional<TypeIIWitness> FindTypeIICycleNaive(const SummaryGraph& graph,
                                                  const IsolationPolicy& policy) {
  Digraph program_graph = graph.ProgramGraph();
  Digraph::Reachability reach = program_graph.ComputeReachability();
  // Literal Algorithm 2: iterate e1, e3, e4.
  for (const SummaryEdge& e1 : graph.edges()) {
    if (e1.counterflow) continue;
    for (const SummaryEdge& e3 : graph.edges()) {
      if (!reach.At(e1.to_program, e3.from_program)) continue;
      for (int e4_index : graph.OutEdges(e3.to_program)) {
        const SummaryEdge& e4 = graph.edges()[e4_index];
        if (!e4.counterflow) continue;
        if (!reach.At(e4.to_program, e1.from_program)) continue;
        if (!AdjacentPairCondition(graph, e3, e4, policy)) continue;
        TypeIIWitness witness;
        witness.e1 = e1;
        witness.e3 = e3;
        witness.e4 = e4;
        witness.path_p2_to_p3 = program_graph.ShortestPath(e1.to_program, e3.from_program);
        witness.path_p5_to_p1 = program_graph.ShortestPath(e4.to_program, e1.from_program);
        return witness;
      }
    }
  }
  return std::nullopt;
}

std::optional<RcSplitWitness> FindRcSplitCycle(const SummaryGraph& graph,
                                               const IsolationPolicy& policy) {
  const int n = graph.num_programs();
  if (n == 0) return std::nullopt;
  Digraph program_graph = graph.ProgramGraph();
  Digraph::Reachability reach = program_graph.ComputeReachability();

  // Scan split candidates: a counterflow e4 out of P1 adjacent to a
  // non-counterflow e3 into P1 with e4's source occurrence strictly before
  // e3's target occurrence (the policy's DangerousAdjacentPair), closed by
  // any program path e4.to ~> e3.from. MaskedDetector::FindRcSplitCycle
  // mirrors this iteration order (P1 ascending, out-edges, then in-edges).
  for (int p1 = 0; p1 < n; ++p1) {
    for (int e4_index : graph.OutEdges(p1)) {
      const SummaryEdge& e4 = graph.edges()[e4_index];
      if (!e4.counterflow) continue;
      for (int e3_index : graph.InEdges(p1)) {
        const SummaryEdge& e3 = graph.edges()[e3_index];
        if (!AdjacentPairCondition(graph, e3, e4, policy)) continue;
        if (!reach.At(e4.to_program, e3.from_program)) continue;
        RcSplitWitness witness;
        witness.incoming = e3;
        witness.outgoing = e4;
        witness.return_path = program_graph.ShortestPath(e4.to_program, e3.from_program);
        return witness;
      }
    }
  }
  return std::nullopt;
}

bool IsRobust(const SummaryGraph& graph, Method method, const IsolationPolicy& policy) {
  switch (method) {
    case Method::kTypeI:
      return !FindTypeICycle(graph).has_value();
    case Method::kTypeII:
      return policy.closure() == CycleClosure::kDirect
                 ? !FindRcSplitCycle(graph, policy).has_value()
                 : !FindTypeIICycle(graph, policy).has_value();
  }
  MVRC_CHECK_MSG(false, "unreachable method");
  return false;
}

CycleTestOutcome RunCycleTest(const SummaryGraph& graph, Method method,
                              const IsolationPolicy& policy) {
  CycleTestOutcome outcome;
  auto record = [&](const auto& witness) {
    if (!witness.has_value()) return;
    outcome.robust = false;
    outcome.witness = witness->Describe(graph);
  };
  if (method == Method::kTypeI) {
    record(FindTypeICycle(graph));
  } else if (policy.closure() == CycleClosure::kDirect) {
    record(FindRcSplitCycle(graph, policy));
  } else {
    record(FindTypeIICycle(graph, policy));
  }
  return outcome;
}

}  // namespace mvrc::oracle
