// Basic transaction programs (BTPs, paper §5.1):
//
//   P <- loop(P) | (P | P) | (P | eps) | P ; P | q
//
// A Btp owns a statement table, an expression tree over statement ids, and a
// set of foreign-key constraint annotations q_j = f(q_i) (parent = f(child)).

#ifndef MVRC_BTP_PROGRAM_H_
#define MVRC_BTP_PROGRAM_H_

#include <string>
#include <vector>

#include "btp/statement.h"
#include "schema/schema.h"

namespace mvrc {

/// Index of a statement in a Btp's statement table.
using StmtId = int;

/// A foreign-key constraint annotation q_parent = f(q_child): every
/// instantiation accesses, through q_parent, exactly the f-image of every
/// tuple accessed through q_child. Requires rel(q_child) = dom(f),
/// rel(q_parent) = range(f) and q_parent key-based (§5.1).
struct FkConstraint {
  StmtId parent;
  ForeignKeyId fk;
  StmtId child;

  friend bool operator==(const FkConstraint&, const FkConstraint&) = default;
};

/// A basic transaction program.
///
/// Build statements first (AddStatement), compose the structure with the
/// node factories, then Finish() with the root node:
///
///   Btp p("PlaceBid");
///   StmtId q3 = p.AddStatement(...), q4 = ..., q5 = ..., q6 = ...;
///   p.Finish(p.Seq({p.Stmt(q3), p.Stmt(q4), p.Optional(p.Stmt(q5)), p.Stmt(q6)}));
///
/// A default linear structure (the sequence of all statements in insertion
/// order) is used when Finish() is never called. It is kept up to date by
/// AddStatement, so no const method mutates a Btp and one program may be
/// read — unfolded, say — from several threads at once.
class Btp {
 public:
  using NodeId = int;

  enum class NodeKind { kStmt, kSeq, kChoice, kOptional, kLoop };

  struct Node {
    NodeKind kind;
    StmtId stmt = -1;               // kStmt
    std::vector<NodeId> children;   // kSeq (n-ary), kChoice (2), kOptional/kLoop (1)
  };

  explicit Btp(std::string name);

  const std::string& name() const { return name_; }

  /// Registers a statement; returns its id.
  StmtId AddStatement(Statement statement);

  int num_statements() const { return static_cast<int>(statements_.size()); }
  const Statement& statement(StmtId id) const { return statements_.at(id); }

  /// Node factories.
  NodeId Stmt(StmtId stmt);
  NodeId Seq(std::vector<NodeId> children);
  NodeId Choice(NodeId first, NodeId second);
  NodeId Optional(NodeId inner);  // (P | eps)
  NodeId Loop(NodeId body);

  /// Declares the program structure. May be called at most once.
  void Finish(NodeId root);

  /// Adds the annotation q_parent = f(q_child). Validates relation and
  /// key-basedness requirements against `schema`.
  void AddFkConstraint(const Schema& schema, StmtId parent, ForeignKeyId fk, StmtId child);

  const std::vector<FkConstraint>& fk_constraints() const { return fk_constraints_; }

  /// The effective root: the declared root, or the linear all-statements
  /// sequence when Finish() was never called. Must not be called on a
  /// statement-less program.
  NodeId EffectiveRoot() const;

  const Node& node(NodeId id) const { return nodes_.at(id); }

  /// True when the structure contains no loop/choice/optional nodes, i.e.
  /// the program is already an LTP.
  bool IsLinear() const;

  /// Multi-line description listing statements and constraints.
  std::string ToDebugString(const Schema& schema) const;

 private:
  NodeId AddNode(Node node);

  // Node id of the default linear structure's sequence node.
  static constexpr NodeId kLinearRoot = 0;

  std::string name_;
  std::vector<Statement> statements_;
  std::vector<Node> nodes_;
  NodeId root_ = -1;
  std::vector<FkConstraint> fk_constraints_;
};

}  // namespace mvrc

#endif  // MVRC_BTP_PROGRAM_H_
