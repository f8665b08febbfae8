// The pre-interning summary-graph builder: the reference the interned
// builder (summary/build_summary.h) is tested and benchmarked against.
//
// SummaryEdgesBetween evaluates Algorithm 1 for one ordered LTP pair the
// literal way — ncDepTable/cDepTable plus ncDepConds/cDepConds per
// statement pair — and BuildSummaryGraphLegacy runs it over every program
// pair. The interned builder must reproduce this edge sequence bit for bit
// (tests/interned_build_test.cc, bench/bench_build_throughput.cc). Like the
// other oracles it lives outside the library so that no production path can
// reach it.

#ifndef MVRC_TESTS_SUPPORT_BUILD_ORACLE_H_
#define MVRC_TESTS_SUPPORT_BUILD_ORACLE_H_

#include <vector>

#include "btp/ltp.h"
#include "summary/dep_tables.h"
#include "summary/summary_graph.h"

namespace mvrc::oracle {

/// The edges admitted between one ordered pair of LTPs (non-counterflow
/// before counterflow per statement pair, statement pairs in (q_i, q_j)
/// order). `from_index`/`to_index` are echoed into the edges'
/// from_program/to_program fields, so callers choose the index space. Pass
/// the same Ltp (and index) twice for the diagonal self-pair.
std::vector<SummaryEdge> SummaryEdgesBetween(const Ltp& from, int from_index, const Ltp& to,
                                             int to_index, const AnalysisSettings& settings);

/// SummaryEdgesBetween over every ordered program pair, row by row, with
/// the adjacency index finalized.
SummaryGraph BuildSummaryGraphLegacy(std::vector<Ltp> programs,
                                     const AnalysisSettings& settings);

}  // namespace mvrc::oracle

#endif  // MVRC_TESTS_SUPPORT_BUILD_ORACLE_H_
