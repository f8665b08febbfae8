// Table 1 condition tables and the ncDepConds/cDepConds predicates of
// Algorithm 1 (paper §6.2).
//
// For an ordered pair of statements (q_i, q_j) over the same relation, the
// tables decide whether instantiations may admit a non-counterflow
// (ncDepTable) or counterflow (cDepTable) dependency from an operation of
// q_i to an operation of q_j: `true` (always), `false` (never) or `check`
// (decided by the attribute-set conditions ncDepConds/cDepConds).
//
// The analysis granularity of the paper's §7.2 settings axis is supported:
// at attribute granularity conflicting operations must access a common
// attribute; at tuple granularity accessing the same tuple suffices, so the
// non-empty-intersection tests degrade to definedness tests.
//
// The isolation level under test is a third settings axis: counterflow-edge
// admission is dispatched through the level's IsolationPolicy (see
// summary/isolation_policy.h — under lock-based RC a writing statement's
// ReadSet cannot source a counterflow antidependency). The free functions
// NcDepTable/CDepTable below are the raw, shared Table 1; AllowsNonCounterflow
// and AllowsCounterflow are the policy-dispatched entry points the builders
// use.

#ifndef MVRC_SUMMARY_DEP_TABLES_H_
#define MVRC_SUMMARY_DEP_TABLES_H_

#include <string>

#include "btp/ltp.h"
#include "btp/statement.h"
#include "summary/isolation_policy.h"
#include "util/result.h"

namespace mvrc {

/// Dependency granularity (§7.2: 'attr dep' vs 'tpl dep').
enum class Granularity {
  kAttribute,  // operations conflict only when they share an attribute
  kTuple,      // operations over the same tuple always conflict
};

/// Analysis settings: granularity x foreign-key usage x isolation level.
/// The four granularity/FK combinations are exactly the four rows of
/// Figures 6 and 7; `isolation` selects the IsolationPolicy every verdict is
/// dispatched through (default: the source paper's MVRC).
struct AnalysisSettings {
  Granularity granularity = Granularity::kAttribute;
  bool use_foreign_keys = true;
  IsolationLevel isolation = IsolationLevel::kMvrc;

  static AnalysisSettings TupleDep() { return {Granularity::kTuple, false}; }
  static AnalysisSettings AttrDep() { return {Granularity::kAttribute, false}; }
  static AnalysisSettings TupleDepFk() { return {Granularity::kTuple, true}; }
  static AnalysisSettings AttrDepFk() { return {Granularity::kAttribute, true}; }

  AnalysisSettings WithIsolation(IsolationLevel level) const {
    AnalysisSettings copy = *this;
    copy.isolation = level;
    return copy;
  }

  /// The policy singleton for `isolation`.
  const IsolationPolicy& policy() const { return GetPolicy(isolation); }

  /// Display name, e.g. "attr dep + FK" or "tpl dep @ rc" (the isolation
  /// suffix is omitted for the default MVRC, keeping the paper's Figure 6/7
  /// row labels unchanged).
  const char* name() const;

  /// Canonical machine-readable form: "<attr|tpl>[+fk][+rc]", e.g.
  /// "attr+fk", "tpl", "attr+fk+rc". The default MVRC is omitted (so
  /// pre-isolation strings round-trip unchanged); "+mvrc" is accepted by
  /// Parse for symmetry.
  std::string ToString() const;

  /// Inverse of ToString (single source of truth for the protocol and the
  /// CLI tools). Errors on anything but the grammar above. When
  /// `isolation_explicit` is non-null it reports whether the string named
  /// an isolation level (vs. leaving the default) — callers layering their
  /// own defaults (the protocol) must not re-derive this from the text.
  static Result<AnalysisSettings> Parse(const std::string& text,
                                        bool* isolation_explicit = nullptr);

  /// True when `other` requests the same analysis: granularity, foreign-key
  /// usage and isolation agree.
  bool SameAnalysis(const AnalysisSettings& other) const {
    return granularity == other.granularity && use_foreign_keys == other.use_foreign_keys &&
           isolation == other.isolation;
  }
};

/// ncDepTable[type(q_i)][type(q_j)] (Table 1a, shared by every policy).
TableEntry NcDepTable(StatementType qi, StatementType qj);

/// cDepTable[type(q_i)][type(q_j)] (Table 1b, shared by every policy).
TableEntry CDepTable(StatementType qi, StatementType qj);

/// The conflict test underlying ncDepConds/cDepConds: non-empty intersection
/// at attribute granularity, joint definedness at tuple granularity (⊥ never
/// conflicts). Exposed so the shape-pair verdict matrix of
/// summary/statement_interner.h can classify the counterflow kCheck entries
/// without re-deriving the granularity semantics.
bool AttrConflicts(const std::optional<AttrSet>& a, const std::optional<AttrSet>& b,
                   Granularity granularity);

/// ncDepConds(q_i, q_j) of Algorithm 1, parameterized by granularity
/// (isolation-independent — see isolation_policy.h).
bool NcDepConds(const Statement& qi, const Statement& qj, Granularity granularity);

/// cDepConds(q_i, q_j) of Algorithm 1. `pi`/`qi_pos` and `pj`/`qj_pos`
/// identify the statement occurrences inside their programs, needed for the
/// foreign-key suppression test (a counterflow rw-antidependency between
/// instantiations of q_i and q_j cannot arise when both programs earlier
/// key-write the same foreign-key parent: the resulting parent writes would
/// form a dirty write under any overlap). The ReadSet disjunct is gated on
/// settings.policy().CounterflowReadClauseApplies(type(q_i)).
bool CDepConds(const Ltp& pi, int qi_pos, const Ltp& pj, int qj_pos,
               const AnalysisSettings& settings);

/// True when a non-counterflow edge (q_i -> q_j) must be added under
/// settings' policy: table true, or table check and ncDepConds holds.
bool AllowsNonCounterflow(const Statement& qi, const Statement& qj,
                          const AnalysisSettings& settings);

/// True when a counterflow edge (q_i -> q_j) must be added under settings'
/// policy: table true, or table check and cDepConds holds.
bool AllowsCounterflow(const Ltp& pi, int qi_pos, const Ltp& pj, int qj_pos,
                       const AnalysisSettings& settings);

}  // namespace mvrc

#endif  // MVRC_SUMMARY_DEP_TABLES_H_
