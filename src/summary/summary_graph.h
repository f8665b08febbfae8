// Summary graphs SuG(P) (paper §6.2): nodes are LTPs; edges are quintuples
// (P_i, q_i, c, q_j, P_j) recording that instantiations of statement
// occurrence q_i of program P_i and occurrence q_j of P_j may admit a
// dependency of flow class c (counterflow / non-counterflow).
//
// Storage is a flat edge arena plus CSR indexes derived from it on demand:
// per-program out/in adjacency as offset+edge-index arrays (replacing the
// old vector-of-vectors), and — when the arena is sorted by
// (from_program, to_program), which every builder and materialization path
// guarantees — contiguous per-program-pair cell slices served by binary
// search. The counterflow-edge count is maintained on insertion (O(1) to
// read), and distinct-statement-edge counting dedups interned integer keys
// in a sorted vector instead of a std::set of string tuples.

#ifndef MVRC_SUMMARY_SUMMARY_GRAPH_H_
#define MVRC_SUMMARY_SUMMARY_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "btp/ltp.h"
#include "graph/digraph.h"

namespace mvrc {

struct AnalysisSettings;
class SummaryGraph;
SummaryGraph BuildSummaryGraph(std::vector<Ltp> programs, const AnalysisSettings& settings);

/// One edge (P_i, q_i, c, q_j, P_j). Programs and occurrences are indices
/// into the owning SummaryGraph.
struct SummaryEdge {
  int from_program;
  int from_occ;
  bool counterflow;
  int to_occ;
  int to_program;

  friend bool operator==(const SummaryEdge&, const SummaryEdge&) = default;
};

/// A view over the edge indices incident to one program. Two modes: an
/// indirect walk of a CSR index array, or — for the out-edges of a
/// cell-sorted arena, where a program's edges are one contiguous arena run —
/// a counting range [first, first + size) served without materializing the
/// identity permutation (4 bytes/edge saved on every built graph).
class EdgeIndexRange {
 public:
  class iterator {
   public:
    using value_type = int32_t;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    iterator(const int32_t* base, int32_t pos) : base_(base), pos_(pos) {}
    int32_t operator*() const { return base_ != nullptr ? base_[pos_] : pos_; }
    iterator& operator++() {
      ++pos_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++pos_;
      return copy;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const int32_t* base_ = nullptr;
    int32_t pos_ = 0;
  };

  /// Indirect mode over index[first .. first + size); pass base == nullptr
  /// for the counting range [first, first + size).
  EdgeIndexRange(const int32_t* base, int32_t first, int32_t size)
      : base_(base), first_(first), size_(size) {}

  iterator begin() const { return {base_, first_}; }
  iterator end() const { return {base_, first_ + size_}; }
  size_t size() const { return static_cast<size_t>(size_); }
  bool empty() const { return size_ == 0; }
  int32_t operator[](size_t i) const {
    const int32_t pos = first_ + static_cast<int32_t>(i);
    return base_ != nullptr ? base_[pos] : pos;
  }

 private:
  const int32_t* base_;
  int32_t first_;
  int32_t size_;
};

/// The summary graph for a set of LTPs. Owns the programs and the edge
/// arena.
class SummaryGraph {
 public:
  explicit SummaryGraph(std::vector<Ltp> programs);

  /// Bulk construction from a prebuilt edge arena: validates every edge,
  /// counts counterflow edges, and builds the CSR adjacency immediately
  /// (the graph is typically shared across threads right after a bulk
  /// build, and index construction is not thread-safe lazily).
  SummaryGraph(std::vector<Ltp> programs, std::vector<SummaryEdge> edges);

  int num_programs() const { return static_cast<int>(programs_.size()); }
  const Ltp& program(int index) const { return programs_.at(index); }
  const std::vector<Ltp>& programs() const { return programs_; }

  void AddEdge(SummaryEdge edge);

  const std::vector<SummaryEdge>& edges() const { return edges_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  /// Maintained on insertion — O(1).
  int num_counterflow_edges() const { return num_counterflow_; }
  int num_non_counterflow_edges() const { return num_edges() - num_counterflow_edges(); }

  /// Edges collapsed to distinct (source BTP, source statement, flow class,
  /// target statement, target BTP) tuples — loop and branch unfolding make
  /// the occurrence-level count larger (used in the Table 2 analysis, see
  /// EXPERIMENTS.md).
  int num_distinct_statement_edges() const;

  /// Edge indices leaving / entering a program node, in insertion order.
  /// Backed by the CSR index (out-edges of a cell-sorted arena are served
  /// as counting ranges, no index array at all); the first call after a
  /// mutation (re)builds the index, so interleaving AddEdge with adjacency
  /// reads is legal but costs a rebuild per alternation. Not safe to race
  /// with a concurrent first call — share a graph across threads only after
  /// FinalizeIndex() (the builders and the session materializer do this for
  /// you).
  EdgeIndexRange OutEdges(int program) const;
  EdgeIndexRange InEdges(int program) const;

  /// Builds the CSR adjacency now (idempotent). Call before sharing the
  /// graph across threads.
  void FinalizeIndex() const;

  /// True when the edge arena is sorted by (from_program, to_program) — the
  /// invariant of every builder/materialization path, making CellEdges
  /// available. Manual out-of-order AddEdge sequences clear it.
  bool cells_contiguous() const { return cell_sorted_; }

  /// The contiguous arena slice holding the edges from program `from` to
  /// program `to`. Requires cells_contiguous(); served by binary search
  /// (O(log E), no per-cell offset table).
  std::span<const SummaryEdge> CellEdges(int from, int to) const;

  /// The program-level connectivity graph (all edges, flow class ignored).
  Digraph ProgramGraph() const;

  /// The program-level graph restricted to non-counterflow edges.
  Digraph NonCounterflowProgramGraph() const;

  /// The subgraph induced by the programs with keep[index] set. Exact:
  /// Algorithm 1's edge conditions depend only on the two programs involved,
  /// so the induced subgraph equals the graph built for the subset alone —
  /// subset analysis can build the full graph once and restrict (used by
  /// AnalyzeSubsets).
  SummaryGraph InducedSubgraph(const std::vector<bool>& keep) const;

  /// Human-readable edge description: "FindBids --q2->q5 (cf)--> PlaceBid1".
  std::string DescribeEdge(const SummaryEdge& edge) const;

  /// Renders the graph as Graphviz DOT; counterflow edges are dashed
  /// (matching Figures 4, 11, 18, 19). With `merge_labels`, parallel edges
  /// between two programs are collapsed into one arrow with a multi-line
  /// label, as in the paper's figures.
  std::string ToDot(const std::string& name, bool merge_labels = true) const;

 private:
  friend SummaryGraph BuildSummaryGraph(std::vector<Ltp> programs,
                                        const AnalysisSettings& settings);

  /// Trusted bulk construction for the interned builder's template-replay
  /// path: `edges` must be in-bounds and cell-sorted, and the counterflow
  /// count, per-program CSR offsets and in-index permutation must match it
  /// (the builder derives all of them from shape-count algebra without
  /// scanning the arena; the out index needs no storage on a sorted arena).
  SummaryGraph(std::vector<Ltp> programs, std::vector<SummaryEdge> edges,
               int num_counterflow, std::vector<int32_t> out_offsets,
               std::vector<int32_t> in_offsets, std::vector<int32_t> in_index);

  void CheckEdge(const SummaryEdge& edge) const;

  std::vector<Ltp> programs_;
  std::vector<SummaryEdge> edges_;
  int num_counterflow_ = 0;
  bool cell_sorted_ = true;  // arena sorted by (from_program, to_program)

  // CSR adjacency over the arena, rebuilt lazily after mutations:
  // out_index_[out_offsets_[p] .. out_offsets_[p+1]) are the indices of p's
  // out-edges in insertion order (likewise in_*). For cell-sorted arenas
  // out_index_ stays empty: a program's out-edges are the contiguous arena
  // run [out_offsets_[p], out_offsets_[p+1]), served as a counting range.
  mutable bool index_built_ = false;
  mutable std::vector<int32_t> out_offsets_, out_index_;
  mutable std::vector<int32_t> in_offsets_, in_index_;
};

}  // namespace mvrc

#endif  // MVRC_SUMMARY_SUMMARY_GRAPH_H_
