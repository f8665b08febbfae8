#include "summary/build_summary.h"

#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>

#include "btp/unfold.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "summary/statement_interner.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mvrc {

namespace {

// One cell-template entry: an edge between two occurrence positions, with
// the (from_program, to_program) fields left to the replay site.
struct TemplateEdge {
  int32_t from_occ;
  int32_t to_occ;
  bool counterflow;
};

// Hash-consing whole LTPs caps the cell-template table at
// kMaxTemplatedLtpShapes² templates. Replicated workloads (the mvrcd
// serving case) have a handful of distinct LTP shapes; workloads whose
// shape count grows with the program count (e.g. Auction(n)'s per-item
// relations) blow past the cap — or show no reuse at all — and take the
// direct bucket-join path, whose cost is the same O(same-relation
// occurrence pairs) as one template fill.
constexpr int kMaxTemplatedLtpShapes = 512;

// The interned lowering of a whole program set: one interner, one Sync'd
// verdict matrix, one InternedLtp per program — plus, when the workload's
// distinct LTP-shape count is small, a dense (shape, shape) -> edge-template
// table that turns per-cell work into table replay.
struct InternedPrograms {
  StatementInterner interner;
  ShapeVerdictMatrix matrix;
  std::vector<InternedLtp> ltps;

  // LTP hash-consing: ltp_shape[p] identifies p's whole-LTP shape;
  // shape_rep[s] is the index of the first LTP with shape s.
  std::vector<int32_t> ltp_shape;
  std::vector<int32_t> shape_rep;

  // Dense template table (empty when over budget): for shapes (sa, sb),
  // templates[sa * num_shapes + sb] lists the cell's edges as
  // (from_occ, to_occ, counterflow) triples in emission order.
  std::vector<std::vector<TemplateEdge>> templates;
  bool use_templates = false;
};

InternedPrograms InternPrograms(const std::vector<Ltp>& programs,
                                const AnalysisSettings& settings) {
  InternedPrograms interned;
  interned.ltps.reserve(programs.size());
  for (const Ltp& program : programs) {
    interned.ltps.push_back(InternLtp(interned.interner, program));
  }
  interned.matrix.Sync(interned.interner, settings);

  // Hash-cons whole LTPs (bucketed by content hash, verified by full
  // comparison — hash collisions must not merge distinct shapes).
  interned.ltp_shape.resize(interned.ltps.size());
  std::unordered_map<uint64_t, std::vector<int32_t>> by_hash;
  for (size_t p = 0; p < interned.ltps.size(); ++p) {
    const uint64_t hash = HashLtpShape(interned.ltps[p]);
    std::vector<int32_t>& candidates = by_hash[hash];
    int32_t shape = -1;
    for (int32_t s : candidates) {
      if (SameLtpShape(interned.ltps[interned.shape_rep[s]], interned.ltps[p])) {
        shape = s;
        break;
      }
    }
    if (shape < 0) {
      shape = static_cast<int32_t>(interned.shape_rep.size());
      interned.shape_rep.push_back(static_cast<int32_t>(p));
      candidates.push_back(shape);
    }
    interned.ltp_shape[p] = shape;
  }

  // Precompute the cell template of every ordered shape pair: the edges two
  // LTPs of those shapes admit, which is the same for every replica pair
  // (cell edges are a pure function of the two LTPs' shapes and FK lists).
  // Only worthwhile when shapes are actually reused — with every LTP
  // distinct, filling shapes² templates is exactly the direct build's
  // dep-table work plus a second copy of every cell.
  const int num_shapes = static_cast<int>(interned.shape_rep.size());
  if (num_shapes <= kMaxTemplatedLtpShapes &&
      num_shapes < static_cast<int>(interned.ltps.size())) {
    interned.use_templates = true;
    interned.templates.resize(static_cast<size_t>(num_shapes) * num_shapes);
    std::vector<SummaryEdge> cell;
    for (int sa = 0; sa < num_shapes; ++sa) {
      for (int sb = 0; sb < num_shapes; ++sb) {
        cell.clear();
        AppendInternedCellEdges(interned.ltps[interned.shape_rep[sa]], 0,
                                interned.ltps[interned.shape_rep[sb]], 0, interned.matrix,
                                cell);
        std::vector<TemplateEdge>& tmpl =
            interned.templates[static_cast<size_t>(sa) * num_shapes + sb];
        tmpl.reserve(cell.size());
        for (const SummaryEdge& edge : cell) {
          tmpl.push_back({static_cast<int32_t>(edge.from_occ),
                          static_cast<int32_t>(edge.to_occ), edge.counterflow});
        }
      }
    }
  }
  return interned;
}

// Edges whose source is row `pi`, in the legacy loop's inner order (pj,
// then qi, then qj, non-counterflow before counterflow per statement pair).
// Appending these rows in pi order reproduces the legacy edge list bit for
// bit.
void AppendRowEdges(const InternedPrograms& interned, int pi,
                    std::vector<SummaryEdge>& out) {
  const int n = static_cast<int>(interned.ltps.size());
  const InternedLtp& from = interned.ltps[pi];
  for (int pj = 0; pj < n; ++pj) {
    AppendInternedCellEdges(from, pi, interned.ltps[pj], pj, interned.matrix, out);
  }
}

// The arena and CSR metadata of a template-replay build, handed to the
// trusted SummaryGraph constructor by BuildSummaryGraph (which befriends
// it).
struct ReplayArena {
  std::vector<SummaryEdge> edges;
  int num_counterflow = 0;
  std::vector<int32_t> out_offsets, in_offsets, in_index;
};

// The template-replay build: because every cell is a template of known size,
// the whole CSR layout — total edge count, per-row/per-column arena offsets
// and the counterflow count — follows from shape-count algebra in
// O(shapes² + n) before a single edge is written. Rows then write their
// edges back to back into the reserved arena, and the trusted SummaryGraph
// constructor skips everything but the in-index scatter.
ReplayArena ReplayBuild(const InternedPrograms& interned) {
  const int n = static_cast<int>(interned.ltps.size());
  const int num_shapes = static_cast<int>(interned.shape_rep.size());
  const auto tmpl = [&interned, num_shapes](int sa, int sb) -> const std::vector<TemplateEdge>& {
    return interned.templates[static_cast<size_t>(sa) * num_shapes + sb];
  };

  std::vector<int64_t> shape_count(num_shapes, 0);
  for (int32_t s : interned.ltp_shape) ++shape_count[s];
  // Edges emitted by one row/column of a given shape, and the counterflow
  // total, by summing template sizes weighted by shape multiplicity.
  std::vector<int64_t> row_edges(num_shapes, 0), col_edges(num_shapes, 0);
  int64_t cf_total = 0;
  for (int sa = 0; sa < num_shapes; ++sa) {
    for (int sb = 0; sb < num_shapes; ++sb) {
      const std::vector<TemplateEdge>& t = tmpl(sa, sb);
      int64_t cf = 0;
      for (const TemplateEdge& edge : t) cf += edge.counterflow ? 1 : 0;
      row_edges[sa] += shape_count[sb] * static_cast<int64_t>(t.size());
      col_edges[sb] += shape_count[sa] * static_cast<int64_t>(t.size());
      cf_total += shape_count[sa] * shape_count[sb] * cf;
    }
  }
  std::vector<int32_t> out_offsets(n + 1, 0), in_offsets(n + 1, 0);
  int64_t total = 0, in_total = 0;
  for (int p = 0; p < n; ++p) {
    total += row_edges[interned.ltp_shape[p]];
    in_total += col_edges[interned.ltp_shape[p]];
    MVRC_CHECK_MSG(total <= INT32_MAX && in_total <= INT32_MAX,
                   "summary graph exceeds 2^31 edges");
    out_offsets[p + 1] = static_cast<int32_t>(total);
    in_offsets[p + 1] = static_cast<int32_t>(in_total);
  }

  // Flatten the template table into one contiguous pool (plus per-pair
  // begin/size arrays) so the emission loop touches no vector headers.
  std::vector<TemplateEdge> tmpl_pool;
  std::vector<int32_t> tmpl_begin(interned.templates.size()), tmpl_size(interned.templates.size());
  for (size_t t = 0; t < interned.templates.size(); ++t) {
    tmpl_begin[t] = static_cast<int32_t>(tmpl_pool.size());
    tmpl_size[t] = static_cast<int32_t>(interned.templates[t].size());
    tmpl_pool.insert(tmpl_pool.end(), interned.templates[t].begin(),
                     interned.templates[t].end());
  }

  // Rows are appended into the reserved arena (appending avoids the
  // zero-fill a resize-then-overwrite would pay).
  std::vector<SummaryEdge> edges;
  edges.reserve(static_cast<size_t>(total));
  for (int pi = 0; pi < n; ++pi) {
    const size_t row = static_cast<size_t>(interned.ltp_shape[pi]) * num_shapes;
    const int32_t* begin_row = tmpl_begin.data() + row;
    const int32_t* size_row = tmpl_size.data() + row;
    for (int pj = 0; pj < n; ++pj) {
      const int32_t sb = interned.ltp_shape[pj];
      const TemplateEdge* t = tmpl_pool.data() + begin_row[sb];
      for (int32_t k = 0; k < size_row[sb]; ++k) {
        edges.push_back(SummaryEdge{pi, t[k].from_occ, t[k].counterflow, t[k].to_occ, pj});
      }
    }
  }
  // The in-index permutation, also by template algebra: target pj's
  // in-edges from source pi sit at arena positions out_offsets[pi] +
  // cell_prefix[shape(pi)][pj] + k — no arena scan, and each target's index
  // range is written sequentially. cell_prefix[sa][pj] is the edge count a
  // shape-sa row emits before reaching column pj.
  std::vector<int32_t> cell_prefix(static_cast<size_t>(num_shapes) * (n + 1));
  for (int sa = 0; sa < num_shapes; ++sa) {
    int32_t* prefix = cell_prefix.data() + static_cast<size_t>(sa) * (n + 1);
    int64_t run = 0;
    for (int pj = 0; pj < n; ++pj) {
      prefix[pj] = static_cast<int32_t>(run);
      run += static_cast<int64_t>(tmpl(sa, interned.ltp_shape[pj]).size());
    }
    prefix[n] = static_cast<int32_t>(run);
  }
  std::vector<int32_t> in_index(static_cast<size_t>(total));
  for (int pj = 0; pj < n; ++pj) {
    int32_t* out = in_index.data() + in_offsets[pj];
    const int32_t sj = interned.ltp_shape[pj];
    for (int pi = 0; pi < n; ++pi) {
      const int32_t sa = interned.ltp_shape[pi];
      const int32_t count = static_cast<int32_t>(tmpl(sa, sj).size());
      int32_t e = out_offsets[pi] + cell_prefix[static_cast<size_t>(sa) * (n + 1) + pj];
      for (int32_t k = 0; k < count; ++k) *out++ = e++;
    }
  }
  return {std::move(edges), static_cast<int>(cf_total), std::move(out_offsets),
          std::move(in_offsets), std::move(in_index)};
}

}  // namespace

SummaryGraph BuildSummaryGraph(std::vector<Ltp> programs, const AnalysisSettings& settings) {
  TraceSpan span("summary/build", "programs=" + std::to_string(programs.size()));
  Stopwatch timer;
  // The build proper runs in an immediately-invoked lambda (which inherits
  // this friend function's access to SummaryGraph's private constructor) so
  // the metrics epilogue below covers every return path.
  SummaryGraph graph = [&]() -> SummaryGraph {
    const InternedPrograms interned = InternPrograms(programs, settings);
    const int n = static_cast<int>(programs.size());

    if (interned.use_templates) {
      ReplayArena arena = ReplayBuild(interned);
      return SummaryGraph(std::move(programs), std::move(arena.edges), arena.num_counterflow,
                          std::move(arena.out_offsets), std::move(arena.in_offsets),
                          std::move(arena.in_index));
    }

    std::vector<SummaryEdge> edges;
    for (int pi = 0; pi < n; ++pi) AppendRowEdges(interned, pi, edges);
    return SummaryGraph(std::move(programs), std::move(edges));
  }();
  static Counter* builds = MetricsRegistry::Global().counter("summary.builds");
  static Counter* edges = MetricsRegistry::Global().counter("summary.edges_emitted");
  static Histogram* build_us = MetricsRegistry::Global().histogram("summary.build_us");
  builds->Add(1);
  edges->Add(graph.num_edges());
  build_us->Record(timer.ElapsedMicros());
  return graph;
}

SummaryGraph BuildSummaryGraph(const std::vector<Btp>& programs,
                               const AnalysisSettings& settings) {
  return BuildSummaryGraph(UnfoldAtMost2(programs), settings);
}

ProgramsSummary BuildProgramsSummary(const std::vector<Btp>& programs,
                                     const AnalysisSettings& settings) {
  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range;
  ltp_range.reserve(programs.size());
  for (const Btp& program : programs) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(program);
    ltp_range.push_back({static_cast<int>(all_ltps.size()),
                         static_cast<int>(all_ltps.size() + unfolded.size())});
    all_ltps.insert(all_ltps.end(), std::make_move_iterator(unfolded.begin()),
                    std::make_move_iterator(unfolded.end()));
  }
  return {BuildSummaryGraph(std::move(all_ltps), settings), std::move(ltp_range)};
}

}  // namespace mvrc
