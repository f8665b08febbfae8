// Robustness detection (paper §6.3), dispatched through the isolation
// policy of summary/isolation_policy.h.
//
// MVRC type-II test (Algorithm 2 / Theorem 6.4): a set of LTPs is reported
// robust when the summary graph contains no cycle with at least one
// non-counterflow edge and either (1) two adjacent counterflow edges, or
// (2) a non-counterflow edge (P_{i-1}, q_{i-1}, nc, q_i, P_i) immediately
// followed by a counterflow edge (P_i, q'_i, cf, q_{i+1}, P_{i+1}) where
// q'_i <_{P_i} q_i or type(q_{i-1}) ∈ {key sel, pred sel, pred upd,
// pred del}.
//
// Lock-based RC test (CycleClosure::kDirect policies): robust when no cycle
// has the split-schedule shape — a counterflow edge (P_1, b_1, cf, a_2, P_2)
// out of a split program P_1, a program path P_2 ~> P_n, and a closing
// non-counterflow edge (P_n, b_n, nc, a_1, P_1) with b_1 <_{P_1} a_1. See
// isolation_policy.h for the derivation from the transaction-template
// characterization.
//
// Type-I test (baseline, Alomari & Fekete [3]): robust when no cycle
// contains a counterflow edge. Policy-independent.
//
// All tests are sound but incomplete: `false` does not imply the workload
// is actually non-robust (Proposition 6.5).
//
// One engine runs every test: MaskedDetector (robust/masked_detector.h).
// This header holds the witness types it returns, the shared adjacent-pair
// condition, and the whole-graph entry points — IsRobust, RunCycleTest and
// IsRobustUnder build a detector with a single program range over their
// graph and query the full set. Callers that already hold a detector (the
// analysis service) call the MaskedDetector overload of RunCycleTest
// directly. The graph-copy searches that follow Algorithm 2 literally are
// kept in tests/support/ as the oracle the detector is tested against.

#ifndef MVRC_ROBUST_DETECTOR_H_
#define MVRC_ROBUST_DETECTOR_H_

#include <optional>
#include <string>
#include <vector>

#include "btp/program.h"
#include "schema/schema.h"
#include "summary/build_summary.h"
#include "summary/isolation_policy.h"
#include "summary/summary_graph.h"

namespace mvrc {

/// Witness of a type-I cycle: a counterflow edge lying on a cycle.
struct TypeIWitness {
  SummaryEdge edge;
  std::vector<int> return_path;  // program path edge.to_program -> edge.from_program

  std::string Describe(const SummaryGraph& graph) const;
};

/// Witness of a type-II cycle, in Algorithm 2's terms: a non-counterflow
/// edge e1 = (P1,q1,nc,q2,P2), an edge e3 = (P3,q3,c,q4,P4) with P3 reachable
/// from P2, and a counterflow edge e4 = (P4,q4',cf,q5,P5) with P1 reachable
/// from P5, such that c = cf, or q4' <_{P4} q4, or type(q3) is a (predicate)
/// read type.
struct TypeIIWitness {
  SummaryEdge e1;
  SummaryEdge e3;
  SummaryEdge e4;
  std::vector<int> path_p2_to_p3;  // program path, inclusive
  std::vector<int> path_p5_to_p1;  // program path, inclusive

  std::string Describe(const SummaryGraph& graph) const;
};

/// Witness of a lock-based-RC split cycle: the split program P_1 =
/// outgoing.from_program is interrupted after its read b_1 = outgoing
/// source occurrence; the closing dependency re-enters P_1 at incoming's
/// target occurrence a_1, strictly after b_1.
struct RcSplitWitness {
  SummaryEdge incoming;  // (P_n, b_n, nc, a_1, P_1), non-counterflow
  SummaryEdge outgoing;  // (P_1, b_1, cf, a_2, P_2), counterflow, b_1 < a_1
  std::vector<int> return_path;  // program path P_2 ~> P_n, inclusive

  std::string Describe(const SummaryGraph& graph) const;
};

/// Detection methods.
enum class Method {
  kTypeI,   // baseline [3]
  kTypeII,  // the isolation policy's cycle test
};

/// Algorithm 2's innermost disjunct for an adjacent edge pair e3 =
/// (P3,q3,c,q4,P4) and e4 = (P4,q4',cf,q5,P5), dispatched through `policy`
/// (see IsolationPolicy::DangerousAdjacentPair). Shared by the
/// MaskedDetector precomputation and witness searches and by the test
/// oracle.
bool AdjacentPairCondition(const SummaryGraph& graph, const SummaryEdge& e3,
                           const SummaryEdge& e4, const IsolationPolicy& policy);

/// MVRC-policy shorthand (the pre-policy behavior).
bool AdjacentPairCondition(const SummaryGraph& graph, const SummaryEdge& e3,
                           const SummaryEdge& e4);

/// True when `graph` passes the chosen test under `policy`: one full-set
/// query on a single-range MaskedDetector over `graph`.
bool IsRobust(const SummaryGraph& graph, Method method,
              const IsolationPolicy& policy = GetPolicy(IsolationLevel::kMvrc));

/// Verdict plus rendered witness (empty when robust).
struct CycleTestOutcome {
  bool robust = true;
  std::string witness;
};

/// The whole-graph check-and-describe path of the report builder, the CLI
/// and the benchmarks: builds a single-range MaskedDetector over `graph`
/// and runs the MaskedDetector overload of RunCycleTest
/// (robust/masked_detector.h) on the full set.
CycleTestOutcome RunCycleTest(const SummaryGraph& graph, Method method,
                              const IsolationPolicy& policy);

/// End-to-end: Unfold≤2, Algorithm 1, then the cycle test of
/// settings.isolation's policy.
bool IsRobustUnder(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                   Method method = Method::kTypeII);

/// Historical name of IsRobustUnder, kept for the many existing call sites;
/// the isolation level still comes from settings (default MVRC).
bool IsRobustAgainstMvrc(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                         Method method = Method::kTypeII);

}  // namespace mvrc

#endif  // MVRC_ROBUST_DETECTOR_H_
