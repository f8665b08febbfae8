// Differential tests of the interned summary-graph builder against the
// legacy per-pair builder, plus unit tests for the statement-shape interner,
// the shape-pair verdict matrix and the CSR edge storage.
//
// The contract under test: BuildSummaryGraph (statement-shape interning +
// verdict-matrix bucket joins + LTP-shape cell-template replay) produces an
// edge sequence bit-identical to the oracle's BuildSummaryGraphLegacy
// (ncDepTable / cDepTable + ncDepConds / cDepConds per statement pair,
// tests/support/build_oracle.h) for every workload, granularity and
// foreign-key setting.

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "summary/build_summary.h"
#include "summary/statement_interner.h"
#include "summary/summary_graph.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"
#include "support/build_oracle.h"

namespace mvrc {
namespace {

using oracle::BuildSummaryGraphLegacy;
using oracle::SummaryEdgesBetween;

const AnalysisSettings kAllSettings[] = {
    AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
    AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()};

// --- Shared helpers.

void ExpectSameGraph(const SummaryGraph& interned, const SummaryGraph& legacy,
                     const std::string& context) {
  ASSERT_EQ(interned.num_programs(), legacy.num_programs()) << context;
  ASSERT_EQ(interned.num_edges(), legacy.num_edges()) << context;
  EXPECT_EQ(interned.num_counterflow_edges(), legacy.num_counterflow_edges()) << context;
  ASSERT_TRUE(interned.edges() == legacy.edges()) << context;
  for (int p = 0; p < interned.num_programs(); ++p) {
    const auto io = interned.OutEdges(p), lo = legacy.OutEdges(p);
    const auto ii = interned.InEdges(p), li = legacy.InEdges(p);
    ASSERT_TRUE(std::equal(io.begin(), io.end(), lo.begin(), lo.end()))
        << context << " OutEdges(" << p << ")";
    ASSERT_TRUE(std::equal(ii.begin(), ii.end(), li.begin(), li.end()))
        << context << " InEdges(" << p << ")";
  }
}

void ExpectBuildersAgree(const std::vector<Btp>& programs, const std::string& context) {
  for (const AnalysisSettings& settings : kAllSettings) {
    std::vector<Ltp> ltps = UnfoldAtMost2(programs);
    SummaryGraph interned = BuildSummaryGraph(ltps, settings);
    SummaryGraph legacy = BuildSummaryGraphLegacy(std::move(ltps), settings);
    ExpectSameGraph(interned, legacy, context + " / " + settings.name());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- Randomized workloads, mirroring the generator idiom of
// tests/masked_detector_test.cc: a few relations, all seven statement
// types, loops/branches so several programs unfold to multiple LTPs, and
// foreign keys so the cDepConds suppression rule is exercised.

class RandomWorkloadGen {
 public:
  explicit RandomWorkloadGen(uint64_t seed) : rng_(seed) {}

  std::vector<Btp> Generate(Schema& schema) {
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
    const int num_programs = Pick(4, 6);
    for (int p = 0; p < num_programs; ++p) programs.push_back(GenerateProgram(schema, p));
    return programs;
  }

 private:
  int Pick(int lo, int hi) { return lo + static_cast<int>(rng_() % (hi - lo + 1)); }
  bool Chance(double p) { return (rng_() % 1000) < p * 1000; }

  AttrSet RandomSubset(const Schema& schema, RelationId rel, bool non_empty) {
    AttrSet set;
    const int n = schema.relation(rel).num_attrs();
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

  Btp GenerateProgram(const Schema& schema, int index) {
    Btp program("P" + std::to_string(index));
    const int num_statements = Pick(2, 5);
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
    // Foreign-key annotations between key-based parents and arbitrary
    // children, so cDepConds' suppression rule fires on some pairs.
    for (int fk = 0; fk < schema.num_foreign_keys(); ++fk) {
      if (!Chance(0.4)) continue;
      const RelationId child_rel = schema.foreign_key(fk).dom;
      const RelationId parent_rel = schema.foreign_key(fk).range;
      for (StmtId parent : ids) {
        if (program.statement(parent).rel() != parent_rel ||
            !IsKeyBased(program.statement(parent).type())) {
          continue;
        }
        for (StmtId child : ids) {
          if (program.statement(child).rel() != child_rel || child == parent) continue;
          program.AddFkConstraint(schema, parent, fk, child);
          break;
        }
        break;
      }
    }
    return program;
  }

  std::mt19937_64 rng_;
};

class InternedBuildRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(InternedBuildRandomTest, MatchesLegacyBuilderOnEverySetting) {
  RandomWorkloadGen gen(GetParam() * 9001 + 23);
  Schema schema;
  std::vector<Btp> programs = gen.Generate(schema);
  ExpectBuildersAgree(programs, "seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternedBuildRandomTest, ::testing::Range(0, 20));

// --- Builtin workloads, including the FK-heavy paper benchmarks.

TEST(InternedBuildBuiltinTest, MatchesLegacyOnPaperWorkloads) {
  for (const Workload& workload :
       {MakeSmallBank(), MakeAuction(), MakeAuctionN(4), MakeTpcc()}) {
    ExpectBuildersAgree(workload.programs, workload.name);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Replicated shared-schema workloads drive the LTP-shape template-replay
// path (few distinct LTP shapes, many replicas) — the serving case the
// throughput bench gates.
TEST(InternedBuildBuiltinTest, MatchesLegacyOnReplicatedWorkload) {
  Workload workload = MakeAuction();
  std::vector<Ltp> base = UnfoldAtMost2(workload.programs);
  std::vector<Ltp> ltps;
  for (int rep = 0; rep < 24; ++rep) {
    for (const Ltp& ltp : base) {
      const std::string suffix = "#" + std::to_string(rep);
      ltps.emplace_back(ltp.name() + suffix, ltp.source_program() + suffix,
                        ltp.occurrences(), ltp.constraints());
    }
  }
  for (const AnalysisSettings& settings : kAllSettings) {
    SummaryGraph interned = BuildSummaryGraph(ltps, settings);
    SummaryGraph legacy = BuildSummaryGraphLegacy(ltps, settings);
    ExpectSameGraph(interned, legacy, std::string("replicated auction / ") + settings.name());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- StatementInterner unit tests.

TEST(StatementInternerTest, SharesShapesAcrossProgramsAndLabels) {
  Schema schema;
  RelationId rel = schema.AddRelation("R", {"a", "b"}, {"a"});
  StatementInterner interner;
  const ShapeId s1 = interner.Intern(Statement::KeySelect("q1", schema, rel, AttrSet{0}));
  const ShapeId s2 = interner.Intern(Statement::KeySelect("q7", schema, rel, AttrSet{0}));
  EXPECT_EQ(s1, s2);  // label does not participate in the shape
  const ShapeId s3 = interner.Intern(Statement::KeySelect("q1", schema, rel, AttrSet{1}));
  EXPECT_NE(s1, s3);  // attribute sets do
  const ShapeId s4 = interner.Intern(Statement::PredSelect("q1", schema, rel, AttrSet{0}, AttrSet{0}));
  EXPECT_NE(s1, s4);  // statement type does
  EXPECT_EQ(interner.num_shapes(), 3);
  EXPECT_EQ(interner.rel(s1), rel);
  EXPECT_EQ(interner.shapes_of_rel(rel).size(), 3u);
  EXPECT_EQ(interner.shapes_of_rel(rel)[interner.local_id(s3)], s3);
}

TEST(StatementInternerTest, RelationSeparatesShapes) {
  Schema schema;
  RelationId r0 = schema.AddRelation("R0", {"a", "b"}, {"a"});
  RelationId r1 = schema.AddRelation("R1", {"a", "b"}, {"a"});
  StatementInterner interner;
  const ShapeId s0 = interner.Intern(Statement::KeySelect("q1", schema, r0, AttrSet{0}));
  const ShapeId s1 = interner.Intern(Statement::KeySelect("q2", schema, r1, AttrSet{0}));
  EXPECT_NE(s0, s1);
  // Each is the first (local id 0) shape of its own relation.
  EXPECT_EQ(interner.local_id(s0), 0);
  EXPECT_EQ(interner.local_id(s1), 0);
  EXPECT_EQ(interner.num_relations(), 2);
}

TEST(StatementInternerTest, UndefinedAndEmptySetsAreDistinctShapes) {
  // ⊥ and the defined-but-empty set must not collide: they differ in the
  // `defined` bits even when every mask is zero.
  StatementShape undefined_read;
  StatementShape empty_read;
  empty_read.defined = 1;
  EXPECT_FALSE(undefined_read == empty_read);
  EXPECT_NE(HashShape(undefined_read), HashShape(empty_read));
}

TEST(StatementInternerTest, SingleStatementCellsMatchLegacyPairEvaluator) {
  // Property check of the verdict matrix: for random same-relation
  // statement pairs wrapped in 1-statement LTPs, the interned cell emission
  // must equal SummaryEdgesBetween under every setting (this pins the
  // matrix's 3-state counterflow classification to AllowsCounterflow).
  std::mt19937_64 rng(12345);
  Schema schema;
  RelationId rel = schema.AddRelation("R", {"a", "b", "c"}, {"a"});
  auto random_stmt = [&](const std::string& label) {
    auto subset = [&](bool non_empty) {
      AttrSet set;
      for (int a = 0; a < 3; ++a) {
        if (rng() % 2) set.Insert(a);
      }
      if (non_empty && set.empty()) set.Insert(static_cast<AttrId>(rng() % 3));
      return set;
    };
    switch (rng() % 7) {
      case 0:
        return Statement::Insert(label, schema, rel);
      case 1:
        return Statement::KeySelect(label, schema, rel, subset(false));
      case 2:
        return Statement::PredSelect(label, schema, rel, subset(false), subset(false));
      case 3:
        return Statement::KeyUpdate(label, schema, rel, subset(false), subset(true));
      case 4:
        return Statement::PredUpdate(label, schema, rel, subset(false), subset(false),
                                     subset(true));
      case 5:
        return Statement::KeyDelete(label, schema, rel);
      default:
        return Statement::PredDelete(label, schema, rel, subset(false));
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    Ltp a("A", "A", {{random_stmt("q1"), 0, {}}}, {});
    Ltp b("B", "B", {{random_stmt("q2"), 0, {}}}, {});
    for (const AnalysisSettings& settings : kAllSettings) {
      StatementInterner interner;
      InternedLtp ia = InternLtp(interner, a);
      InternedLtp ib = InternLtp(interner, b);
      ShapeVerdictMatrix matrix;
      matrix.Sync(interner, settings);
      std::vector<SummaryEdge> interned_edges;
      AppendInternedCellEdges(ia, 0, ib, 1, matrix, interned_edges);
      std::vector<SummaryEdge> legacy_edges = SummaryEdgesBetween(a, 0, b, 1, settings);
      ASSERT_TRUE(interned_edges == legacy_edges)
          << "trial=" << trial << " / " << settings.name();
    }
  }
}

TEST(StatementInternerTest, LtpShapeHashConsing) {
  Schema schema;
  RelationId rel = schema.AddRelation("R", {"a", "b"}, {"a"});
  Statement q1 = Statement::KeyUpdate("q1", schema, rel, AttrSet{0}, AttrSet{0});
  Statement q2 = Statement::KeySelect("q2", schema, rel, AttrSet{1});
  StatementInterner interner;
  InternedLtp p1 = InternLtp(interner, Ltp("P1", "P1", {{q1, 0, {}}, {q2, 1, {}}}, {}));
  InternedLtp p2 = InternLtp(interner, Ltp("P2", "P2", {{q1, 0, {}}, {q2, 1, {}}}, {}));
  InternedLtp p3 = InternLtp(interner, Ltp("P3", "P3", {{q2, 0, {}}, {q1, 1, {}}}, {}));
  EXPECT_TRUE(SameLtpShape(p1, p2));
  EXPECT_EQ(HashLtpShape(p1), HashLtpShape(p2));
  EXPECT_FALSE(SameLtpShape(p1, p3));  // statement order matters
}

// --- CSR edge storage.

TEST(SummaryGraphCsrTest, CellSlicesPartitionTheArena) {
  Workload workload = MakeAuctionN(2);
  SummaryGraph graph = BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(graph.cells_contiguous());
  size_t covered = 0;
  for (int from = 0; from < graph.num_programs(); ++from) {
    for (int to = 0; to < graph.num_programs(); ++to) {
      const auto cell = graph.CellEdges(from, to);
      for (const SummaryEdge& edge : cell) {
        EXPECT_EQ(edge.from_program, from);
        EXPECT_EQ(edge.to_program, to);
        // Slices are contiguous views into the arena, in arena order.
        EXPECT_EQ(&edge, graph.edges().data() + (&edge - graph.edges().data()));
      }
      covered += cell.size();
    }
  }
  EXPECT_EQ(covered, static_cast<size_t>(graph.num_edges()));
}

TEST(SummaryGraphCsrTest, AdjacencyMatchesArenaRecount) {
  Workload workload = MakeTpcc();
  SummaryGraph graph = BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDep());
  std::vector<std::vector<int32_t>> out(graph.num_programs()), in(graph.num_programs());
  for (int e = 0; e < graph.num_edges(); ++e) {
    out[graph.edges()[e].from_program].push_back(e);
    in[graph.edges()[e].to_program].push_back(e);
  }
  for (int p = 0; p < graph.num_programs(); ++p) {
    const auto o = graph.OutEdges(p), i = graph.InEdges(p);
    EXPECT_TRUE(std::equal(o.begin(), o.end(), out[p].begin(), out[p].end())) << p;
    EXPECT_TRUE(std::equal(i.begin(), i.end(), in[p].begin(), in[p].end())) << p;
  }
}

TEST(SummaryGraphCsrTest, AddEdgeAfterReadsRebuildsIndexAndTracksCounterflow) {
  Workload workload = MakeAuction();
  std::vector<Ltp> ltps = UnfoldAtMost2(workload.programs);
  SummaryGraph graph(ltps);
  EXPECT_EQ(graph.num_counterflow_edges(), 0);
  graph.AddEdge({0, 0, /*counterflow=*/true, 0, 1});
  EXPECT_EQ(graph.OutEdges(0).size(), 1u);  // builds the index
  graph.AddEdge({1, 0, /*counterflow=*/false, 0, 0});  // invalidates it
  EXPECT_EQ(graph.num_counterflow_edges(), 1);
  EXPECT_EQ(graph.num_non_counterflow_edges(), 1);
  ASSERT_EQ(graph.OutEdges(1).size(), 1u);
  EXPECT_EQ(graph.OutEdges(1)[0], 1);
  EXPECT_EQ(graph.InEdges(0).size(), 1u);
  EXPECT_TRUE(graph.cells_contiguous());  // (0,1) then (1,0) is sorted
  graph.AddEdge({0, 0, /*counterflow=*/false, 0, 0});  // out of order
  EXPECT_FALSE(graph.cells_contiguous());
  EXPECT_EQ(graph.OutEdges(0).size(), 2u);
}

TEST(SummaryGraphCsrTest, DistinctStatementEdgeDedupMatchesSetBaseline) {
  for (const Workload& workload : {MakeAuctionN(3), MakeTpcc(), MakeSmallBank()}) {
    SummaryGraph graph =
        BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
    // The pre-interning implementation: a std::set of string tuples.
    std::set<std::tuple<std::string, int, bool, int, std::string>> distinct;
    for (const SummaryEdge& edge : graph.edges()) {
      distinct.insert({graph.program(edge.from_program).source_program(),
                       graph.program(edge.from_program).occurrence(edge.from_occ).source_stmt,
                       edge.counterflow,
                       graph.program(edge.to_program).occurrence(edge.to_occ).source_stmt,
                       graph.program(edge.to_program).source_program()});
    }
    EXPECT_EQ(graph.num_distinct_statement_edges(), static_cast<int>(distinct.size()))
        << workload.name;
  }
}

}  // namespace
}  // namespace mvrc
