// The pluggable isolation-policy layer: everything in the analysis pipeline
// that depends on the *isolation level under test* — as opposed to the
// summary-graph skeleton, which is shared — is factored into an
// IsolationPolicy. A policy answers two kinds of questions:
//
//   1. Edge generation (Algorithm 1 / Table 1): which ordered statement
//      pairs admit a non-counterflow or counterflow dependency edge. The
//      non-counterflow side is isolation-independent (it describes
//      dependencies aligned with commit order, where the source transaction
//      has already committed and no scheduler blocks anything); the
//      counterflow side describes antidependencies out of a transaction
//      that is still uncommitted when the target runs, and that is exactly
//      where an isolation level's blocking behavior bites.
//   2. Cycle certification: which cycles through the summary graph witness
//      a potential non-serializable execution. This is the per-level
//      dangerous-structure theorem (MVRC: Theorem 6.4; lock-based RC: the
//      split-schedule characterization of the transaction-template line of
//      work, Vandevoort et al. 2021/2022, adapted to predicate statements).
//
// Two concrete policies ship today:
//
//   * MVRC (multiversion Read Committed) — the source paper's level and the
//     pre-policy behavior of this repository, bit for bit.
//   * RC (single-version lock-based Read Committed: long exclusive write
//     locks held to commit, short read latches, no predicate locks) — the
//     level of the transaction-template papers. Differences from MVRC:
//
//     - Counterflow edges sourced at a *writing* statement's key-based
//       ReadSet are dropped. A key upd / pred upd observes the ReadSet
//       attributes of exactly the tuples it also writes (SELECT-FOR-UPDATE
//       style: the exclusive lock is taken before the tuple is read), so a
//       concurrent write to such a tuple blocks until the reader commits —
//       the rw-antidependency against a still-uncommitted reader that a
//       counterflow edge stands for cannot arise. PReadSet-sourced
//       antidependencies survive: a predicate evaluation also observes
//       tuples it does NOT write (scanned-but-unmatched tuples, and the
//       absence of tuples a later insert creates), and without predicate
//       locks those observations are unprotected. Key sel sources never
//       write, so their ReadSet clause survives too. Net effect on
//       Table 1b: only pred-upd-sourced kCheck entries lose their ReadSet
//       disjunct; every other cell is unchanged, which is why both
//       policies share the same tables and differ in the condition clause.
//
//     - The dangerous structure is the *split schedule* shape: one
//       transaction P1 is interrupted after a read b1 whose value a later
//       committer overwrites (the counterflow edge out of P1), the chain
//       P2, ..., Pn runs to commit (non-counterflow edges), and the closing
//       dependency re-enters P1 at a statement a1 *strictly after* b1.
//       Strictness is the lock-based part: under MVRC the closing
//       antidependency may target the prefix itself (a read of the old
//       version of something P1's prefix wrote — Theorem 6.4's
//       read-like-source escape), but under lock-based RC that read would
//       block on P1's exclusive lock. Likewise two adjacent counterflow
//       edges (two interleaved split transactions) never arise in the RC
//       normal form. Both RC relaxations shrink the dangerous-structure
//       set, so RC certifies a superset of the workloads MVRC certifies —
//       consistent with every lock-based-RC schedule being MVRC-admissible.
//
// Both cycle tests are sound (a "robust" verdict is trustworthy) and
// incomplete in the same sense as the source paper's Proposition 6.5.
//
// Future levels (snapshot isolation, RC with functional constraints,
// cross-model checks à la Beillahi et al.) plug in by subclassing: override
// the tables and/or the two cycle-certification hooks, add an
// IsolationLevel tag, and every engine layered on the policy — the
// interned builder, the masked detector, the subset search, incremental sessions, the NDJSON service and the CLIs — picks the
// level up through AnalysisSettings::isolation.

#ifndef MVRC_SUMMARY_ISOLATION_POLICY_H_
#define MVRC_SUMMARY_ISOLATION_POLICY_H_

#include <optional>
#include <string>

#include "btp/statement.h"

namespace mvrc {

/// The isolation levels with a registered policy.
enum class IsolationLevel {
  kMvrc,  // multiversion Read Committed (the source paper)
  kRc,    // single-version lock-based Read Committed (the template papers)
};

/// Canonical lowercase token: "mvrc" / "rc".
const char* ToString(IsolationLevel level);

/// Inverse of ToString; nullopt for unknown tokens.
std::optional<IsolationLevel> ParseIsolationLevel(const std::string& text);

/// Entry of a Table 1-style condition table: true / false /
/// decided-by-conditions (⊥ in the paper).
enum class TableEntry { kFalse, kTrue, kCheck };

/// How a policy's cycle-certification search closes a dangerous adjacent
/// edge pair (e3 into the pivot program, counterflow e4 out of it) into a
/// cycle.
enum class CycleClosure {
  /// MVRC, Theorem 6.4: the cycle must contain a non-counterflow edge
  /// e1 = (P1, nc, P2) somewhere, with P2 ~> e3's source and e4's target
  /// ~> P1 (the "through" product of robust/detector.cc).
  kThroughNonCounterflowEdge,
  /// Lock-based RC: e3 itself is the closing non-counterflow edge; the
  /// cycle only needs e4's target to reach e3's source.
  kDirect,
};

/// The per-isolation-level strategy. Stateless and immutable; the instances
/// returned by GetPolicy are process-lifetime singletons, so engines store
/// plain references.
class IsolationPolicy {
 public:
  virtual ~IsolationPolicy() = default;

  virtual IsolationLevel level() const = 0;
  /// Same token as ToString(level()).
  const char* name() const { return ToString(level()); }

  // --- Edge generation -----------------------------------------------------

  /// ncDepTable[type(q_i)][type(q_j)] for this level. Defaults to the
  /// paper's Table 1a, which is isolation-independent (see file comment).
  virtual TableEntry NcDep(StatementType qi, StatementType qj) const;

  /// cDepTable[type(q_i)][type(q_j)] for this level. Defaults to Table 1b.
  virtual TableEntry CDep(StatementType qi, StatementType qj) const;

  /// Whether cDepConds' ReadSet(q_i) ∩ WriteSet(q_j) disjunct applies for a
  /// counterflow source of type `qi`. MVRC: always. Lock-based RC: only for
  /// non-writing sources (a writing statement's key-based reads sit behind
  /// its own exclusive locks).
  virtual bool CounterflowReadClauseApplies(StatementType qi) const = 0;

  // --- Cycle certification -------------------------------------------------

  virtual CycleClosure closure() const = 0;

  /// Algorithm 2's innermost disjunct, policy-generalized: may the edge pair
  /// e3 = (P3, q3, c, q4, P4), e4 = (P4, q4', cf, q5, P5) sit adjacently on
  /// a dangerous cycle? `e3_counterflow` is c; `e3_to_occ` is q4's position
  /// in P4; `e3_source_type` is type(q3); `e4_from_occ` is q4''s position.
  ///   MVRC: c is counterflow, or q4' <_{P4} q4, or type(q3) is a
  ///         (predicate-)read type.
  ///   RC:   c is non-counterflow AND q4' <_{P4} q4 (strict split order).
  virtual bool DangerousAdjacentPair(bool e3_counterflow, int e3_to_occ,
                                     StatementType e3_source_type,
                                     int e4_from_occ) const = 0;
};

/// The process-lifetime policy singleton for `level`.
const IsolationPolicy& GetPolicy(IsolationLevel level);

}  // namespace mvrc

#endif  // MVRC_SUMMARY_ISOLATION_POLICY_H_
