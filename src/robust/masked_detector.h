// The cycle-test engine: every robustness verdict in the library — the
// full-set check and the core-guided subset search (Figures 6/7,
// Proposition 5.2) — is a MaskedDetector query.
//
// A MaskedDetector precomputes, once per SummaryGraph:
//
//   * flat per-LTP adjacency rows as word-packed bitsets (all edges, and
//     non-counterflow edges separately),
//   * a counterflow-edge index in summary-edge order,
//   * per counterflow edge e4, the bitset of source programs P3 with an
//     adjacent in-edge e3 of e4.from_program satisfying the isolation
//     policy's adjacent-pair condition (Algorithm 2's innermost disjunct
//     under MVRC, the strict split-order test under lock-based RC),
//   * per-BTP bitsets mapping subset-mask bits to the unfolded LTP nodes,
//
// and then answers IsRobust(mask) for any subset with zero heap allocation:
// the active-LTP set is the OR of the per-BTP bitsets, and reachability is
// a bitset BFS over adjacency rows ANDed with the active set, computed
// lazily per needed source row into caller-owned DetectorScratch. Detection
// is O(active edges) word operations, with no graph copy per subset. A
// whole-graph verdict is the full-set query on a detector with one program
// range (see RunCycleTest below and in robust/detector.h).
//
// Verdicts — and the witnesses of the Find* variants — are identical to
// running the graph-copy searches of tests/support/cycle_oracle.h on
// graph.InducedSubgraph(mask-selected programs): the masked search visits
// edges in the same order the induced subgraph would (induced subgraphs
// preserve edge order), so even the first-found witness matches up to the
// node re-indexing. Those searches are the parity oracle:
// tests/masked_detector_test.cc and tests/isolation_policy_test.cc assert
// verdict and witness agreement for every mask of randomized and builtin
// workloads, and tests/cycle_engine_test.cc does the same for the
// whole-graph RunCycleTest.
//
// Two mask encodings are accepted, selecting identical code paths after the
// active set is formed:
//
//   * `uint32_t` masks — the per-mask encoding of SubsetReport and of the
//     test oracles, valid only while num_programs() <= 32 (a bit per
//     program), and
//   * `ProgramSet` wide masks (robust/program_set.h) — word-packed subsets
//     with no program-count ceiling, the encoding of the core-guided search
//     (robust/core_search.h) and of the full-set check.
//
// For num_programs() <= 32 the two encodings of the same subset produce the
// same verdict and the same witness (tests/core_search_test.cc pins the
// parity), so callers may mix them freely against one detector.
//
// Thread safety: a MaskedDetector is immutable after construction and may
// be shared across threads; each thread needs its own DetectorScratch
// (the core-guided search keeps one per ThreadPool worker slot for its
// candidate and shrink fan-outs).

#ifndef MVRC_ROBUST_MASKED_DETECTOR_H_
#define MVRC_ROBUST_MASKED_DETECTOR_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "robust/detector.h"
#include "robust/program_set.h"
#include "summary/summary_graph.h"

namespace mvrc {

/// Reusable per-thread workspace for MaskedDetector queries. All buffers are
/// sized by MaskedDetector::MakeScratch and reused across masks; queries
/// never grow them. Treat the contents as private to MaskedDetector.
struct DetectorScratch {
  std::vector<uint64_t> active;     // active-LTP bitset, 1 row
  std::vector<uint64_t> reach;      // lazily filled reachability rows, n rows
  std::vector<char> reach_done;     // which reach rows are valid for this mask
  std::vector<uint64_t> frontier;   // BFS frontier, 1 row
  std::vector<uint64_t> next;       // BFS next frontier, 1 row
  std::vector<uint64_t> nc_reach;   // nc-successors of a reachable set, 1 row
  std::vector<uint64_t> pair_srcs;  // masked valid e3 sources, 1 row
  std::vector<int> bfs_parent;      // witness path reconstruction, n entries
};

/// Answers per-subset robustness queries against one summary graph without
/// copying it. `graph` is borrowed and must outlive the detector;
/// `ltp_range[i]` is the [begin, end) range of graph node indices holding
/// BTP i's unfolded LTPs (bit i of a mask selects exactly those nodes), as
/// in AnalyzeSubsetsOnGraph. `policy` selects the cycle certification the
/// per-mask precomputation (the adjacent-pair source bitsets) is built for;
/// it should match the isolation level the graph was built under.
class MaskedDetector {
 public:
  MaskedDetector(const SummaryGraph& graph, std::vector<std::pair<int, int>> ltp_range,
                 const IsolationPolicy& policy = GetPolicy(IsolationLevel::kMvrc));

  const SummaryGraph& graph() const { return *graph_; }
  const IsolationPolicy& policy() const { return *policy_; }
  /// Number of BTPs, i.e. of usable mask bits.
  int num_programs() const { return static_cast<int>(ltp_range_.size()); }
  /// Number of LTP nodes in the underlying summary graph.
  int num_ltps() const { return num_ltps_; }
  /// The per-BTP [begin, end) node ranges the detector was built over — what
  /// the core-guided search uses to map witness nodes back to mask bits.
  const std::vector<std::pair<int, int>>& ltp_range() const { return ltp_range_; }

  /// A scratch sized for this detector. One per querying thread.
  DetectorScratch MakeScratch() const;

  /// True when the subset selected by `mask` passes the chosen cycle test
  /// under the detector's policy. Equal to the test oracle's
  /// oracle::IsRobust(graph().InducedSubgraph(...), method, policy()) for
  /// every mask; performs no heap allocation.
  /// The uint32_t overloads require num_programs() <= 32; the ProgramSet
  /// overloads accept any program count and agree bit-for-bit where both
  /// encodings apply.
  bool IsRobust(uint32_t mask, Method method, DetectorScratch& scratch) const;
  bool IsRobust(const ProgramSet& mask, Method method, DetectorScratch& scratch) const;

  /// The cycle tests individually (verdict only, allocation-free).
  /// HasTypeIICycle is the through-nc-closure search and assumes a
  /// kThroughNonCounterflowEdge policy; HasRcSplitCycle assumes kDirect.
  /// IsRobust picks the right one — prefer it.
  bool HasTypeICycle(uint32_t mask, DetectorScratch& scratch) const;
  bool HasTypeIICycle(uint32_t mask, DetectorScratch& scratch) const;
  bool HasRcSplitCycle(uint32_t mask, DetectorScratch& scratch) const;
  bool HasTypeICycle(const ProgramSet& mask, DetectorScratch& scratch) const;
  bool HasTypeIICycle(const ProgramSet& mask, DetectorScratch& scratch) const;
  bool HasRcSplitCycle(const ProgramSet& mask, DetectorScratch& scratch) const;

  /// Witness-producing variants, mirroring the oracle's FindTypeICycle /
  /// FindTypeIICycle / FindRcSplitCycle on the induced subgraph: the
  /// returned witness references full-graph node indices (Describe it
  /// against graph()) and names the same edges and path programs the oracle
  /// would find. These allocate (witness vectors)
  /// and are meant for reporting (RunCycleTest) and for the core-guided
  /// search's witness extraction, not for per-subset verdict loops.
  std::optional<TypeIWitness> FindTypeICycle(uint32_t mask, DetectorScratch& scratch) const;
  std::optional<TypeIIWitness> FindTypeIICycle(uint32_t mask, DetectorScratch& scratch) const;
  std::optional<RcSplitWitness> FindRcSplitCycle(uint32_t mask, DetectorScratch& scratch) const;
  std::optional<TypeIWitness> FindTypeICycle(const ProgramSet& mask,
                                             DetectorScratch& scratch) const;
  std::optional<TypeIIWitness> FindTypeIICycle(const ProgramSet& mask,
                                               DetectorScratch& scratch) const;
  std::optional<RcSplitWitness> FindRcSplitCycle(const ProgramSet& mask,
                                                 DetectorScratch& scratch) const;

 private:
  int words() const { return words_; }
  const uint64_t* AdjRow(int node) const {
    return adj_.data() + static_cast<size_t>(node) * words_;
  }
  const uint64_t* NcAdjRow(int node) const {
    return nc_adj_.data() + static_cast<size_t>(node) * words_;
  }
  const uint64_t* BtpRow(int btp) const {
    return btp_ltps_.data() + static_cast<size_t>(btp) * words_;
  }
  const uint64_t* PairSrcRow(int cf_ordinal) const {
    return pair_srcs_.data() + static_cast<size_t>(cf_ordinal) * words_;
  }

  // Fills scratch.active from `mask` and invalidates the cached reach rows.
  // The uint32_t form requires num_programs() <= 32 (checked).
  void BeginQuery(uint32_t mask, DetectorScratch& scratch) const;
  void BeginQuery(const ProgramSet& mask, DetectorScratch& scratch) const;
  // The cycle searches proper, on whatever active set the last BeginQuery
  // installed — shared by both mask encodings.
  bool HasTypeICycleActive(DetectorScratch& scratch) const;
  bool HasTypeIICycleActive(DetectorScratch& scratch) const;
  bool HasRcSplitCycleActive(DetectorScratch& scratch) const;
  bool IsRobustActive(Method method, DetectorScratch& scratch) const;
  std::optional<TypeIWitness> FindTypeICycleActive(DetectorScratch& scratch) const;
  std::optional<TypeIIWitness> FindTypeIICycleActive(DetectorScratch& scratch) const;
  std::optional<RcSplitWitness> FindRcSplitCycleActive(DetectorScratch& scratch) const;
  // The reachability row of active node `node` under the current active set,
  // computed on first use by bitset BFS (reflexive: node reaches itself).
  const uint64_t* ReachRow(int node, DetectorScratch& scratch) const;
  // True when ReachRow(from)[to]; both must be active.
  bool Reaches(int from, int to, DetectorScratch& scratch) const;
  // Shortest active-node path from -> to as node indices (BFS, matching
  // Digraph::ShortestPath's tie-breaking on the induced subgraph).
  std::vector<int> MaskedShortestPath(int from, int to, DetectorScratch& scratch) const;
  // Whether some active non-counterflow edge (P1 -> P2) closes the pair
  // cycle: P5 ~> P1 and P2 ~> P3 for some P3 in `srcs` (word-packed row).
  bool ClosesThrough(int p5, const uint64_t* srcs, DetectorScratch& scratch) const;

  const SummaryGraph* graph_;
  const IsolationPolicy* policy_;
  std::vector<std::pair<int, int>> ltp_range_;
  int num_ltps_;
  int words_;
  Digraph program_digraph_;  // dedup'd LTP-level connectivity, edge order
  std::vector<uint64_t> adj_;       // num_ltps x words: all-edge adjacency
  std::vector<uint64_t> nc_adj_;    // num_ltps x words: non-counterflow only
  std::vector<uint64_t> btp_ltps_;  // num_programs x words: mask bit -> LTPs
  std::vector<int> cf_edges_;       // counterflow edge indices, edge order
  std::vector<uint64_t> pair_srcs_;  // |cf_edges_| x words: valid e3 sources
};

/// The cycle test of `method` under the detector's policy on `subset`, with
/// the witness rendered against detector.graph() when the subset is not
/// robust — the one check-and-describe path behind every full-set verdict
/// (WorkloadSession::Check, and through the SummaryGraph overload in
/// robust/detector.h the report builder, the CLI and the benchmarks).
/// Records the detector.cycle_tests counter and the
/// detector.cycle_test_us histogram. Allocates its own scratch; the
/// witness is searched only after the allocation-free verdict query says
/// there is one.
CycleTestOutcome RunCycleTest(const MaskedDetector& detector, const ProgramSet& subset,
                              Method method);

}  // namespace mvrc

#endif  // MVRC_ROBUST_MASKED_DETECTOR_H_
