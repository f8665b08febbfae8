// Graph-copy cycle searches: the reference implementations the production
// detector (robust/masked_detector.h) is differentially tested against.
//
// Each search materializes the summary graph's program-level Digraph,
// computes its full reachability closure, and scans edges in graph order —
// the literal reading of the paper's tests:
//
//   * FindTypeICycle — the type-I baseline (Alomari & Fekete): a
//     counterflow edge lying on a cycle.
//   * FindTypeIICycle — Algorithm 2 / Theorem 6.4 with the reachability
//     conjunction factored through boolean matrix products.
//   * FindTypeIICycleNaive — Algorithm 2 verbatim: O(|E|^3) edge triples
//     with per-pair reachability. Same verdicts as FindTypeIICycle; the
//     first witness found may differ.
//   * FindRcSplitCycle — the lock-based RC split-cycle shape (Vandevoort et
//     al., "Robustness against Read Committed for Transaction Templates").
//
// MaskedDetector visits edges in the same order, so on any induced subgraph
// it returns the same witness as FindTypeICycle / FindTypeIICycle /
// FindRcSplitCycle (the masked and policy differential suites assert
// this). These searches are deliberately slow and allocation-heavy; they
// live outside the library so that no production path can reach them.

#ifndef MVRC_TESTS_SUPPORT_CYCLE_ORACLE_H_
#define MVRC_TESTS_SUPPORT_CYCLE_ORACLE_H_

#include <optional>

#include "robust/detector.h"
#include "summary/isolation_policy.h"
#include "summary/summary_graph.h"

namespace mvrc::oracle {

/// Returns a type-I cycle witness, or nullopt when none exists.
std::optional<TypeIWitness> FindTypeICycle(const SummaryGraph& graph);

/// Returns a type-II cycle witness, or nullopt when none exists. Meaningful
/// for CycleClosure::kThroughNonCounterflowEdge policies.
std::optional<TypeIIWitness> FindTypeIICycle(
    const SummaryGraph& graph,
    const IsolationPolicy& policy = GetPolicy(IsolationLevel::kMvrc));

/// Literal Algorithm 2. Existence agrees with FindTypeIICycle.
std::optional<TypeIIWitness> FindTypeIICycleNaive(
    const SummaryGraph& graph,
    const IsolationPolicy& policy = GetPolicy(IsolationLevel::kMvrc));

/// Returns a split-cycle witness under a CycleClosure::kDirect policy, or
/// nullopt when none exists.
std::optional<RcSplitWitness> FindRcSplitCycle(
    const SummaryGraph& graph, const IsolationPolicy& policy = GetPolicy(IsolationLevel::kRc));

/// The verdict of the search `method` and `policy` select: type-II runs
/// FindTypeIICycle under through-nc policies and FindRcSplitCycle under
/// kDirect ones.
bool IsRobust(const SummaryGraph& graph, Method method,
              const IsolationPolicy& policy = GetPolicy(IsolationLevel::kMvrc));

/// Verdict plus rendered witness, with the search dispatch of IsRobust — the
/// reference for the production RunCycleTest.
CycleTestOutcome RunCycleTest(const SummaryGraph& graph, Method method,
                              const IsolationPolicy& policy);

}  // namespace mvrc::oracle

#endif  // MVRC_TESTS_SUPPORT_CYCLE_ORACLE_H_
