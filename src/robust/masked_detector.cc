#include "robust/masked_detector.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mvrc {

namespace {

// Per-mask queries have a nanosecond budget and a zero-allocation contract
// (bench_masked_sweep enforces it), so instrumentation here is exactly one
// striped counter bump — the pointer resolves during the first (warm-up)
// query, never on the steady-state path.
void CountMaskedQuery() {
  static Counter* queries = MetricsRegistry::Global().counter("detector.masked_queries");
  queries->Add(1);
}

}  // namespace

MaskedDetector::MaskedDetector(const SummaryGraph& graph,
                               std::vector<std::pair<int, int>> ltp_range,
                               const IsolationPolicy& policy)
    : graph_(&graph),
      policy_(&policy),
      ltp_range_(std::move(ltp_range)),
      num_ltps_(graph.num_programs()),
      words_((num_ltps_ + 63) / 64 > 0 ? (num_ltps_ + 63) / 64 : 1),
      program_digraph_(graph.ProgramGraph()) {
  // No program-count ceiling here: uint32_t query masks require <= 32
  // programs (checked per query), but ProgramSet wide masks address any
  // count — the core-guided search builds detectors over 100+ programs.
  adj_.assign(static_cast<size_t>(num_ltps_) * words_, 0);
  nc_adj_.assign(static_cast<size_t>(num_ltps_) * words_, 0);
  for (const SummaryEdge& edge : graph.edges()) {
    SetBit(adj_.data() + static_cast<size_t>(edge.from_program) * words_, edge.to_program);
    if (!edge.counterflow) {
      SetBit(nc_adj_.data() + static_cast<size_t>(edge.from_program) * words_,
             edge.to_program);
    }
  }

  btp_ltps_.assign(ltp_range_.size() * static_cast<size_t>(words_), 0);
  for (size_t i = 0; i < ltp_range_.size(); ++i) {
    const auto& [begin, end] = ltp_range_[i];
    MVRC_CHECK(0 <= begin && begin <= end && end <= num_ltps_);
    uint64_t* row = btp_ltps_.data() + i * words_;
    for (int node = begin; node < end; ++node) SetBit(row, node);
  }

  for (int e = 0; e < graph.num_edges(); ++e) {
    if (graph.edges()[e].counterflow) cf_edges_.push_back(e);
  }
  // Per counterflow edge e4, the sources P3 of in-edges e3 of e4's source
  // program that satisfy the policy's adjacent-pair condition — the cycle
  // test's innermost disjunct, evaluated once here instead of once per mask.
  pair_srcs_.assign(cf_edges_.size() * static_cast<size_t>(words_), 0);
  for (size_t ordinal = 0; ordinal < cf_edges_.size(); ++ordinal) {
    const SummaryEdge& e4 = graph.edges()[cf_edges_[ordinal]];
    uint64_t* row = pair_srcs_.data() + ordinal * words_;
    for (int e3_index : graph.InEdges(e4.from_program)) {
      const SummaryEdge& e3 = graph.edges()[e3_index];
      if (AdjacentPairCondition(graph, e3, e4, *policy_)) SetBit(row, e3.from_program);
    }
  }
}

DetectorScratch MaskedDetector::MakeScratch() const {
  DetectorScratch scratch;
  scratch.active.assign(words_, 0);
  scratch.reach.assign(static_cast<size_t>(num_ltps_) * words_, 0);
  scratch.reach_done.assign(num_ltps_, 0);
  scratch.frontier.assign(words_, 0);
  scratch.next.assign(words_, 0);
  scratch.nc_reach.assign(words_, 0);
  scratch.pair_srcs.assign(words_, 0);
  scratch.bfs_parent.assign(num_ltps_, -1);
  return scratch;
}

void MaskedDetector::BeginQuery(uint32_t mask, DetectorScratch& scratch) const {
  MVRC_CHECK_MSG(ltp_range_.size() <= 32,
                 "uint32_t query masks encode at most 32 programs — use the ProgramSet "
                 "overloads for wider workloads");
  MVRC_CHECK(static_cast<int>(scratch.reach_done.size()) == num_ltps_ &&
             static_cast<int>(scratch.active.size()) == words_);
  CountMaskedQuery();
  std::fill(scratch.active.begin(), scratch.active.end(), 0);
  for (size_t i = 0; i < ltp_range_.size(); ++i) {
    if ((mask >> i) & 1) {
      const uint64_t* row = BtpRow(static_cast<int>(i));
      for (int w = 0; w < words_; ++w) scratch.active[w] |= row[w];
    }
  }
  if (num_ltps_ > 0) {
    std::memset(scratch.reach_done.data(), 0, scratch.reach_done.size());
  }
}

void MaskedDetector::BeginQuery(const ProgramSet& mask, DetectorScratch& scratch) const {
  MVRC_CHECK(mask.num_programs() == num_programs());
  MVRC_CHECK(static_cast<int>(scratch.reach_done.size()) == num_ltps_ &&
             static_cast<int>(scratch.active.size()) == words_);
  CountMaskedQuery();
  std::fill(scratch.active.begin(), scratch.active.end(), 0);
  for (size_t i = 0; i < ltp_range_.size(); ++i) {
    if (mask.Test(static_cast<int>(i))) {
      const uint64_t* row = BtpRow(static_cast<int>(i));
      for (int w = 0; w < words_; ++w) scratch.active[w] |= row[w];
    }
  }
  if (num_ltps_ > 0) {
    std::memset(scratch.reach_done.data(), 0, scratch.reach_done.size());
  }
}

const uint64_t* MaskedDetector::ReachRow(int node, DetectorScratch& scratch) const {
  uint64_t* row = scratch.reach.data() + static_cast<size_t>(node) * words_;
  if (scratch.reach_done[node]) return row;

  // Bitset BFS restricted to the active set; reflexive like
  // Digraph::ComputeReachability (`node` is active by caller contract).
  std::fill_n(row, words_, 0);
  std::fill(scratch.frontier.begin(), scratch.frontier.end(), 0);
  SetBit(scratch.frontier.data(), node);
  SetBit(row, node);
  while (true) {
    std::fill(scratch.next.begin(), scratch.next.end(), 0);
    ForEachBit(scratch.frontier.data(), words_, [&](int v) {
      const uint64_t* adj = AdjRow(v);
      for (int w = 0; w < words_; ++w) scratch.next[w] |= adj[w];
    });
    bool grew = false;
    for (int w = 0; w < words_; ++w) {
      const uint64_t fresh = scratch.next[w] & scratch.active[w] & ~row[w];
      scratch.next[w] = fresh;
      row[w] |= fresh;
      grew |= fresh != 0;
    }
    if (!grew) break;
    std::swap(scratch.frontier, scratch.next);
  }
  scratch.reach_done[node] = 1;
  return row;
}

bool MaskedDetector::Reaches(int from, int to, DetectorScratch& scratch) const {
  return TestBit(ReachRow(from, scratch), to);
}

bool MaskedDetector::ClosesThrough(int p5, const uint64_t* srcs,
                                   DetectorScratch& scratch) const {
  // nc_reach = the active programs P2 with an active non-counterflow edge
  // P1 -> P2 for some P1 reachable from P5. ReachRow only ever holds active
  // nodes, so the P1 side needs no extra masking.
  const uint64_t* from_p5 = ReachRow(p5, scratch);
  std::fill(scratch.nc_reach.begin(), scratch.nc_reach.end(), 0);
  ForEachBit(from_p5, words_, [&](int p1) {
    const uint64_t* nc = NcAdjRow(p1);
    for (int w = 0; w < words_; ++w) scratch.nc_reach[w] |= nc[w];
  });
  for (int w = 0; w < words_; ++w) scratch.nc_reach[w] &= scratch.active[w];

  // The pair closes iff some such P2 reaches one of the candidate P3s.
  // ReachRow may fill new rows while nc_reach is being walked; the walk
  // reads scratch.nc_reach, which ReachRow never touches.
  for (int w = 0; w < words_; ++w) {
    for (uint64_t rest = scratch.nc_reach[w]; rest != 0; rest &= rest - 1) {
      const int p2 = w * 64 + __builtin_ctzll(rest);
      const uint64_t* from_p2 = ReachRow(p2, scratch);
      for (int k = 0; k < words_; ++k) {
        if (from_p2[k] & srcs[k]) return true;
      }
    }
  }
  return false;
}

bool MaskedDetector::HasTypeICycle(uint32_t mask, DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return HasTypeICycleActive(scratch);
}

bool MaskedDetector::HasTypeICycle(const ProgramSet& mask, DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return HasTypeICycleActive(scratch);
}

bool MaskedDetector::HasTypeICycleActive(DetectorScratch& scratch) const {
  const uint64_t* active = scratch.active.data();
  for (int e : cf_edges_) {
    const SummaryEdge& edge = graph_->edges()[e];
    if (!TestBit(active, edge.from_program) || !TestBit(active, edge.to_program)) continue;
    if (Reaches(edge.to_program, edge.from_program, scratch)) return true;
  }
  return false;
}

bool MaskedDetector::HasTypeIICycle(uint32_t mask, DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return HasTypeIICycleActive(scratch);
}

bool MaskedDetector::HasTypeIICycle(const ProgramSet& mask, DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return HasTypeIICycleActive(scratch);
}

bool MaskedDetector::HasTypeIICycleActive(DetectorScratch& scratch) const {
  const uint64_t* active = scratch.active.data();
  for (size_t ordinal = 0; ordinal < cf_edges_.size(); ++ordinal) {
    const SummaryEdge& e4 = graph_->edges()[cf_edges_[ordinal]];
    if (!TestBit(active, e4.from_program) || !TestBit(active, e4.to_program)) continue;
    const uint64_t* srcs = PairSrcRow(static_cast<int>(ordinal));
    for (int w = 0; w < words_; ++w) scratch.pair_srcs[w] = srcs[w] & active[w];
    if (!AnyBit(scratch.pair_srcs.data(), words_)) continue;
    if (ClosesThrough(e4.to_program, scratch.pair_srcs.data(), scratch)) return true;
  }
  return false;
}

bool MaskedDetector::HasRcSplitCycle(uint32_t mask, DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return HasRcSplitCycleActive(scratch);
}

bool MaskedDetector::HasRcSplitCycle(const ProgramSet& mask, DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return HasRcSplitCycleActive(scratch);
}

bool MaskedDetector::HasRcSplitCycleActive(DetectorScratch& scratch) const {
  const uint64_t* active = scratch.active.data();
  for (size_t ordinal = 0; ordinal < cf_edges_.size(); ++ordinal) {
    const SummaryEdge& e4 = graph_->edges()[cf_edges_[ordinal]];
    if (!TestBit(active, e4.from_program) || !TestBit(active, e4.to_program)) continue;
    const uint64_t* srcs = PairSrcRow(static_cast<int>(ordinal));
    for (int w = 0; w < words_; ++w) scratch.pair_srcs[w] = srcs[w] & active[w];
    if (!AnyBit(scratch.pair_srcs.data(), words_)) continue;
    // The split cycle closes directly: e4's target must reach the source of
    // some valid closing non-counterflow edge (no separate e1 needed).
    const uint64_t* from_p2 = ReachRow(e4.to_program, scratch);
    for (int w = 0; w < words_; ++w) {
      if (from_p2[w] & scratch.pair_srcs[w]) return true;
    }
  }
  return false;
}

bool MaskedDetector::IsRobust(uint32_t mask, Method method, DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return IsRobustActive(method, scratch);
}

bool MaskedDetector::IsRobust(const ProgramSet& mask, Method method,
                              DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return IsRobustActive(method, scratch);
}

bool MaskedDetector::IsRobustActive(Method method, DetectorScratch& scratch) const {
  switch (method) {
    case Method::kTypeI:
      return !HasTypeICycleActive(scratch);
    case Method::kTypeII:
      return policy_->closure() == CycleClosure::kDirect ? !HasRcSplitCycleActive(scratch)
                                                         : !HasTypeIICycleActive(scratch);
  }
  MVRC_CHECK_MSG(false, "unreachable method");
  return false;
}

std::vector<int> MaskedDetector::MaskedShortestPath(int from, int to,
                                                    DetectorScratch& scratch) const {
  // FIFO BFS over active nodes, walking program_digraph_'s adjacency lists
  // (first-insertion order, inactive neighbors skipped). An induced
  // subgraph's program graph has the same lists filtered the same way —
  // duplicates of a program pair are kept or dropped together — so BFS
  // tie-breaking, and with it the returned path, matches
  // Digraph::ShortestPath on the subgraph exactly.
  if (from == to) return {from};
  std::fill(scratch.bfs_parent.begin(), scratch.bfs_parent.end(), -1);
  std::vector<int> queue{from};
  scratch.bfs_parent[from] = from;
  for (size_t head = 0; head < queue.size(); ++head) {
    const int node = queue[head];
    for (int next : program_digraph_.OutNeighbors(node)) {
      if (!TestBit(scratch.active.data(), next)) continue;
      if (scratch.bfs_parent[next] >= 0) continue;
      scratch.bfs_parent[next] = node;
      if (next == to) {
        std::vector<int> path{to};
        for (int v = to; v != from; v = scratch.bfs_parent[v]) {
          path.push_back(scratch.bfs_parent[v]);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(next);
    }
  }
  return {};
}

std::optional<TypeIWitness> MaskedDetector::FindTypeICycle(uint32_t mask,
                                                           DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return FindTypeICycleActive(scratch);
}

std::optional<TypeIWitness> MaskedDetector::FindTypeICycle(const ProgramSet& mask,
                                                           DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return FindTypeICycleActive(scratch);
}

std::optional<TypeIWitness> MaskedDetector::FindTypeICycleActive(
    DetectorScratch& scratch) const {
  const uint64_t* active = scratch.active.data();
  for (int e : cf_edges_) {
    const SummaryEdge& edge = graph_->edges()[e];
    if (!TestBit(active, edge.from_program) || !TestBit(active, edge.to_program)) continue;
    if (Reaches(edge.to_program, edge.from_program, scratch)) {
      TypeIWitness witness;
      witness.edge = edge;
      witness.return_path = MaskedShortestPath(edge.to_program, edge.from_program, scratch);
      return witness;
    }
  }
  return std::nullopt;
}

std::optional<TypeIIWitness> MaskedDetector::FindTypeIICycle(uint32_t mask,
                                                             DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return FindTypeIICycleActive(scratch);
}

std::optional<TypeIIWitness> MaskedDetector::FindTypeIICycle(const ProgramSet& mask,
                                                             DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return FindTypeIICycleActive(scratch);
}

std::optional<TypeIIWitness> MaskedDetector::FindTypeIICycleActive(
    DetectorScratch& scratch) const {
  const uint64_t* active = scratch.active.data();
  // Mirrors oracle::FindTypeIICycle (tests/support) on the induced subgraph:
  // same P4 order (active nodes ascending), same edge orders (induced
  // subgraphs preserve edge order), so the first witness found is the same.
  for (int p4 = 0; p4 < num_ltps_; ++p4) {
    if (!TestBit(active, p4)) continue;
    for (int e4_index : graph_->OutEdges(p4)) {
      const SummaryEdge& e4 = graph_->edges()[e4_index];
      if (!e4.counterflow) continue;
      if (!TestBit(active, e4.to_program)) continue;
      for (int e3_index : graph_->InEdges(p4)) {
        const SummaryEdge& e3 = graph_->edges()[e3_index];
        if (!TestBit(active, e3.from_program)) continue;
        if (!AdjacentPairCondition(*graph_, e3, e4, *policy_)) continue;
        std::fill(scratch.pair_srcs.begin(), scratch.pair_srcs.end(), 0);
        SetBit(scratch.pair_srcs.data(), e3.from_program);
        if (!ClosesThrough(e4.to_program, scratch.pair_srcs.data(), scratch)) continue;
        // Reconstruct a witnessing e1.
        for (const SummaryEdge& e1 : graph_->edges()) {
          if (e1.counterflow) continue;
          if (!TestBit(active, e1.from_program) || !TestBit(active, e1.to_program)) continue;
          if (Reaches(e1.to_program, e3.from_program, scratch) &&
              Reaches(e4.to_program, e1.from_program, scratch)) {
            TypeIIWitness witness;
            witness.e1 = e1;
            witness.e3 = e3;
            witness.e4 = e4;
            witness.path_p2_to_p3 =
                MaskedShortestPath(e1.to_program, e3.from_program, scratch);
            witness.path_p5_to_p1 =
                MaskedShortestPath(e4.to_program, e1.from_program, scratch);
            return witness;
          }
        }
        MVRC_CHECK_MSG(false, "closure said a closing nc edge exists but scan found none");
      }
    }
  }
  return std::nullopt;
}

std::optional<RcSplitWitness> MaskedDetector::FindRcSplitCycle(uint32_t mask,
                                                               DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return FindRcSplitCycleActive(scratch);
}

std::optional<RcSplitWitness> MaskedDetector::FindRcSplitCycle(const ProgramSet& mask,
                                                               DetectorScratch& scratch) const {
  BeginQuery(mask, scratch);
  return FindRcSplitCycleActive(scratch);
}

std::optional<RcSplitWitness> MaskedDetector::FindRcSplitCycleActive(
    DetectorScratch& scratch) const {
  const uint64_t* active = scratch.active.data();
  // Mirrors oracle::FindRcSplitCycle (tests/support) on the induced subgraph:
  // same split-program order (active nodes ascending), same edge orders
  // (induced subgraphs preserve edge order), so the first witness found is
  // the same.
  for (int p1 = 0; p1 < num_ltps_; ++p1) {
    if (!TestBit(active, p1)) continue;
    for (int e4_index : graph_->OutEdges(p1)) {
      const SummaryEdge& e4 = graph_->edges()[e4_index];
      if (!e4.counterflow) continue;
      if (!TestBit(active, e4.to_program)) continue;
      for (int e3_index : graph_->InEdges(p1)) {
        const SummaryEdge& e3 = graph_->edges()[e3_index];
        if (!TestBit(active, e3.from_program)) continue;
        if (!AdjacentPairCondition(*graph_, e3, e4, *policy_)) continue;
        if (!Reaches(e4.to_program, e3.from_program, scratch)) continue;
        RcSplitWitness witness;
        witness.incoming = e3;
        witness.outgoing = e4;
        witness.return_path = MaskedShortestPath(e4.to_program, e3.from_program, scratch);
        return witness;
      }
    }
  }
  return std::nullopt;
}

CycleTestOutcome RunCycleTest(const MaskedDetector& detector, const ProgramSet& subset,
                              Method method) {
  TraceSpan span("detect/cycle_test", "programs=" + std::to_string(detector.num_ltps()));
  Stopwatch timer;
  static Counter* tests = MetricsRegistry::Global().counter("detector.cycle_tests");
  static Histogram* test_us = MetricsRegistry::Global().histogram("detector.cycle_test_us");
  tests->Add(1);
  DetectorScratch scratch = detector.MakeScratch();
  CycleTestOutcome outcome;
  outcome.robust = detector.IsRobust(subset, method, scratch);
  if (!outcome.robust) {
    auto describe = [&](const auto& witness) {
      MVRC_CHECK_MSG(witness.has_value(), "a non-robust verdict must yield a witness");
      outcome.witness = witness->Describe(detector.graph());
    };
    if (method == Method::kTypeI) {
      describe(detector.FindTypeICycle(subset, scratch));
    } else if (detector.policy().closure() == CycleClosure::kDirect) {
      describe(detector.FindRcSplitCycle(subset, scratch));
    } else {
      describe(detector.FindTypeIICycle(subset, scratch));
    }
  }
  test_us->Record(timer.ElapsedMicros());
  return outcome;
}

}  // namespace mvrc
