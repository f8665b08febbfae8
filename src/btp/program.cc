#include "btp/program.h"

#include <sstream>

#include "util/check.h"

namespace mvrc {

Btp::Btp(std::string name) : name_(std::move(name)) {
  Node linear;
  linear.kind = NodeKind::kSeq;
  nodes_.push_back(std::move(linear));
}

StmtId Btp::AddStatement(Statement statement) {
  statements_.push_back(std::move(statement));
  const StmtId id = static_cast<StmtId>(statements_.size()) - 1;
  const NodeId leaf = Stmt(id);
  nodes_[kLinearRoot].children.push_back(leaf);
  return id;
}

Btp::NodeId Btp::AddNode(Node node) {
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size()) - 1;
}

Btp::NodeId Btp::Stmt(StmtId stmt) {
  MVRC_CHECK(stmt >= 0 && stmt < num_statements());
  Node node;
  node.kind = NodeKind::kStmt;
  node.stmt = stmt;
  return AddNode(std::move(node));
}

Btp::NodeId Btp::Seq(std::vector<NodeId> children) {
  for (NodeId c : children) MVRC_CHECK(c >= 0 && c < static_cast<NodeId>(nodes_.size()));
  Node node;
  node.kind = NodeKind::kSeq;
  node.children = std::move(children);
  return AddNode(std::move(node));
}

Btp::NodeId Btp::Choice(NodeId first, NodeId second) {
  Node node;
  node.kind = NodeKind::kChoice;
  node.children = {first, second};
  return AddNode(std::move(node));
}

Btp::NodeId Btp::Optional(NodeId inner) {
  Node node;
  node.kind = NodeKind::kOptional;
  node.children = {inner};
  return AddNode(std::move(node));
}

Btp::NodeId Btp::Loop(NodeId body) {
  Node node;
  node.kind = NodeKind::kLoop;
  node.children = {body};
  return AddNode(std::move(node));
}

void Btp::Finish(NodeId root) {
  MVRC_CHECK_MSG(root_ < 0, "Btp::Finish called twice");
  MVRC_CHECK(root >= 0 && root < static_cast<NodeId>(nodes_.size()));
  root_ = root;
}

void Btp::AddFkConstraint(const Schema& schema, StmtId parent, ForeignKeyId fk, StmtId child) {
  MVRC_CHECK(parent >= 0 && parent < num_statements());
  MVRC_CHECK(child >= 0 && child < num_statements());
  const ForeignKey& f = schema.foreign_key(fk);
  MVRC_CHECK_MSG(statement(child).rel() == f.dom, "rel(q_child) must equal dom(f)");
  MVRC_CHECK_MSG(statement(parent).rel() == f.range, "rel(q_parent) must equal range(f)");
  MVRC_CHECK_MSG(IsKeyBased(statement(parent).type()),
                 "q_parent of a foreign-key constraint must be key-based");
  fk_constraints_.push_back({parent, fk, child});
}

Btp::NodeId Btp::EffectiveRoot() const {
  MVRC_CHECK_MSG(num_statements() > 0, "program has no statements");
  return root_ >= 0 ? root_ : kLinearRoot;
}

bool Btp::IsLinear() const {
  NodeId root = EffectiveRoot();
  // Walk the tree; only kStmt and kSeq are linear.
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    const Node& n = node(id);
    if (n.kind != NodeKind::kStmt && n.kind != NodeKind::kSeq) return false;
    for (NodeId c : n.children) stack.push_back(c);
  }
  return true;
}

std::string Btp::ToDebugString(const Schema& schema) const {
  std::ostringstream os;
  os << "BTP " << name_ << ":\n";
  for (const Statement& q : statements_) {
    os << "  " << q.ToDebugString(schema) << "\n";
  }
  for (const FkConstraint& c : fk_constraints_) {
    os << "  constraint: " << statements_[c.parent].label() << " = "
       << schema.foreign_key(c.fk).name << "(" << statements_[c.child].label() << ")\n";
  }
  return os.str();
}

}  // namespace mvrc
