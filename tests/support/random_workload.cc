#include "support/random_workload.h"

#include <utility>

namespace mvrc::test_support {

std::vector<Btp> RandomWorkloadGen::Generate(Schema& schema, int num_programs) {
  const int num_relations = Pick(2, 3);
  for (int r = 0; r < num_relations; ++r) {
    std::vector<std::string> attrs;
    const int num_attrs = Pick(2, 4);
    for (int a = 0; a < num_attrs; ++a) {
      attrs.push_back("a" + std::to_string(r) + std::to_string(a));
    }
    schema.AddRelation("R" + std::to_string(r), attrs, {attrs[0]});
  }
  for (int r = 1; r < num_relations; ++r) {
    if (Chance(0.5)) schema.AddForeignKey("f" + std::to_string(r), r, {}, 0);
  }
  std::vector<Btp> programs;
  if (num_programs == 0) num_programs = Pick(4, 5);
  for (int p = 0; p < num_programs; ++p) programs.push_back(GenerateProgram(schema, p));
  return programs;
}

int RandomWorkloadGen::Pick(int lo, int hi) {
  return lo + static_cast<int>(rng_() % (hi - lo + 1));
}

bool RandomWorkloadGen::Chance(double p) { return (rng_() % 1000) < p * 1000; }

AttrSet RandomWorkloadGen::RandomSubset(const Schema& schema, RelationId rel, bool non_empty) {
  AttrSet set;
  const int n = schema.relation(rel).num_attrs();
  for (int a = 0; a < n; ++a) {
    if (Chance(0.45)) set.Insert(a);
  }
  if (non_empty && set.empty()) set.Insert(static_cast<AttrId>(rng_() % n));
  return set;
}

Statement RandomWorkloadGen::RandomStatement(const Schema& schema, const std::string& label) {
  RelationId rel = static_cast<RelationId>(rng_() % schema.num_relations());
  switch (rng_() % 7) {
    case 0:
      return Statement::Insert(label, schema, rel);
    case 1:
      return Statement::KeySelect(label, schema, rel, RandomSubset(schema, rel, false));
    case 2:
      return Statement::PredSelect(label, schema, rel, RandomSubset(schema, rel, false),
                                   RandomSubset(schema, rel, false));
    case 3:
      return Statement::KeyUpdate(label, schema, rel, RandomSubset(schema, rel, false),
                                  RandomSubset(schema, rel, true));
    case 4:
      return Statement::PredUpdate(label, schema, rel, RandomSubset(schema, rel, false),
                                   RandomSubset(schema, rel, false),
                                   RandomSubset(schema, rel, true));
    case 5:
      return Statement::KeyDelete(label, schema, rel);
    default:
      return Statement::PredDelete(label, schema, rel, RandomSubset(schema, rel, false));
  }
}

Btp RandomWorkloadGen::GenerateProgram(const Schema& schema, int index) {
  Btp program("P" + std::to_string(index));
  const int num_statements = Pick(2, 4);
  std::vector<StmtId> ids;
  for (int q = 0; q < num_statements; ++q) {
    ids.push_back(program.AddStatement(RandomStatement(schema, "q" + std::to_string(q + 1))));
  }
  std::vector<Btp::NodeId> nodes;
  for (StmtId id : ids) nodes.push_back(program.Stmt(id));
  if (num_statements >= 2 && Chance(0.5)) {
    const int from = Pick(0, num_statements - 2);
    const int to = Pick(from + 1, num_statements - 1);
    std::vector<Btp::NodeId> inner(nodes.begin() + from, nodes.begin() + to + 1);
    Btp::NodeId wrapped;
    switch (rng_() % 3) {
      case 0:
        wrapped = program.Loop(program.Seq(inner));
        break;
      case 1:
        wrapped = program.Optional(program.Seq(inner));
        break;
      default:
        wrapped = program.Choice(program.Seq(inner), program.Stmt(ids[from]));
        break;
    }
    std::vector<Btp::NodeId> rebuilt(nodes.begin(), nodes.begin() + from);
    rebuilt.push_back(wrapped);
    rebuilt.insert(rebuilt.end(), nodes.begin() + to + 1, nodes.end());
    nodes = std::move(rebuilt);
  }
  program.Finish(program.Seq(nodes));
  return program;
}

}  // namespace mvrc::test_support
