// Algorithm 1 (paper §6.2): constructSuG — builds the summary graph for a
// set of LTPs under the chosen analysis settings.
//
// The builder is the *interned* one: statements are hash-consed into
// shapes (summary/statement_interner.h), a per-relation shape-pair verdict
// matrix is precomputed, and the per-occurrence-pair work of Algorithm 1
// collapses to a bucket join plus one byte lookup (plus a foreign-key
// suppression check only on kCounterflowFkCheck entries). The edge sequence
// is bit-identical to the pre-interning per-pair builder, which
// tests/interned_build_test.cc and bench/bench_build_throughput.cc enforce
// differentially against the test oracle (tests/support/build_oracle.h).

#ifndef MVRC_SUMMARY_BUILD_SUMMARY_H_
#define MVRC_SUMMARY_BUILD_SUMMARY_H_

#include <utility>
#include <vector>

#include "btp/ltp.h"
#include "btp/program.h"
#include "summary/dep_tables.h"
#include "summary/summary_graph.h"

namespace mvrc {

/// Algorithm 1 via statement-shape interning: for every ordered pair of
/// programs (including P_i = P_j) and every pair of statement occurrences
/// over the same relation, adds a non-counterflow and/or counterflow edge
/// according to the precomputed shape-pair verdict matrix. Edges are
/// emitted row by row (source program, then target program, then statement
/// pair). The returned graph has its CSR index finalized.
SummaryGraph BuildSummaryGraph(std::vector<Ltp> programs, const AnalysisSettings& settings);

// perfbench/e2e_main.cc still passes SessionManager::pool() here; the
// pointer is ignored.
class ThreadPool;
inline SummaryGraph BuildSummaryGraph(std::vector<Ltp> programs,
                                      const AnalysisSettings& settings, ThreadPool*) {
  return BuildSummaryGraph(std::move(programs), settings);
}

/// Convenience wrapper: Unfold≤2 then Algorithm 1.
SummaryGraph BuildSummaryGraph(const std::vector<Btp>& programs,
                               const AnalysisSettings& settings);

/// A program set's summary graph together with where each program's LTPs
/// sit in it: ltp_range[i] is the [begin, end) range of graph nodes holding
/// program i's unfolded LTPs — the layout MaskedDetector takes.
struct ProgramsSummary {
  SummaryGraph graph;
  std::vector<std::pair<int, int>> ltp_range;
};

/// Unfold≤2 of each program in order, then Algorithm 1 over all the LTPs.
ProgramsSummary BuildProgramsSummary(const std::vector<Btp>& programs,
                                     const AnalysisSettings& settings);

}  // namespace mvrc

#endif  // MVRC_SUMMARY_BUILD_SUMMARY_H_
