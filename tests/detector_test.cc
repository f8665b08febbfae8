#include "robust/detector.h"

#include <gtest/gtest.h>

#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "support/cycle_oracle.h"

namespace mvrc {
namespace {

// Builds a tiny synthetic LTP with a single key-select or key-update
// statement, for hand-constructed summary graphs.
Ltp OneStmtLtp(const Schema& schema, RelationId rel, const std::string& name,
               bool writer) {
  std::vector<Occurrence> occs;
  if (writer) {
    occs.push_back(
        {Statement::KeyUpdate("w", schema, rel, AttrSet{}, AttrSet{1}), 0, {}});
  } else {
    occs.push_back({Statement::KeySelect("r", schema, rel, AttrSet{1}), 0, {}});
  }
  return Ltp(name, name, std::move(occs), {});
}

class HandGraphTest : public ::testing::Test {
 protected:
  HandGraphTest() { rel_ = schema_.AddRelation("R", {"a", "b"}, {"a"}); }
  Schema schema_;
  RelationId rel_ = -1;
};

TEST_F(HandGraphTest, NoEdgesIsRobustUnderBothMethods) {
  SummaryGraph graph({OneStmtLtp(schema_, rel_, "A", false)});
  EXPECT_TRUE(IsRobust(graph, Method::kTypeI));
  EXPECT_TRUE(IsRobust(graph, Method::kTypeII));
  EXPECT_FALSE(oracle::FindTypeIICycleNaive(graph).has_value());
}

TEST_F(HandGraphTest, PureNonCounterflowCycleIsRobust) {
  // A <-> B with only nc edges: type-I and type-II cycles need a cf edge.
  SummaryGraph graph(
      {OneStmtLtp(schema_, rel_, "A", true), OneStmtLtp(schema_, rel_, "B", true)});
  graph.AddEdge({0, 0, false, 0, 1});
  graph.AddEdge({1, 0, false, 0, 0});
  EXPECT_TRUE(IsRobust(graph, Method::kTypeI));
  EXPECT_TRUE(IsRobust(graph, Method::kTypeII));
}

TEST_F(HandGraphTest, CounterflowOnCycleBreaksTypeIButNotAlwaysTypeII) {
  // A --cf--> B --nc--> A. Type-I: cycle with cf edge -> not robust.
  // Type-II: needs adjacent or ordered counterflow pair; the only pattern is
  // nc(B->A) followed by cf(A->B) with q'_i == q_i (positions equal) and
  // type(q3) = key upd (B's writer) -> no type-II cycle.
  SummaryGraph graph(
      {OneStmtLtp(schema_, rel_, "A", false), OneStmtLtp(schema_, rel_, "B", true)});
  graph.AddEdge({0, 0, true, 0, 1});   // A.r -> B.w counterflow (rw)
  graph.AddEdge({1, 0, false, 0, 0});  // B.w -> A.r non-counterflow (wr)
  EXPECT_FALSE(IsRobust(graph, Method::kTypeI));
  EXPECT_TRUE(IsRobust(graph, Method::kTypeII));
  EXPECT_FALSE(oracle::FindTypeIICycleNaive(graph).has_value());
}

TEST_F(HandGraphTest, AdjacentCounterflowPairIsTypeII) {
  // A --cf--> B --cf--> C --nc--> A: two adjacent counterflow edges plus a
  // non-counterflow edge closing the cycle.
  SummaryGraph graph({OneStmtLtp(schema_, rel_, "A", false),
                      OneStmtLtp(schema_, rel_, "B", false),
                      OneStmtLtp(schema_, rel_, "C", true)});
  graph.AddEdge({0, 0, true, 0, 1});
  graph.AddEdge({1, 0, true, 0, 2});
  graph.AddEdge({2, 0, false, 0, 0});
  EXPECT_FALSE(IsRobust(graph, Method::kTypeI));
  EXPECT_FALSE(IsRobust(graph, Method::kTypeII));
  EXPECT_TRUE(oracle::FindTypeIICycleNaive(graph).has_value());

  std::optional<TypeIIWitness> witness = oracle::FindTypeIICycle(graph);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(witness->e3.counterflow);
  EXPECT_TRUE(witness->e4.counterflow);
  EXPECT_EQ(witness->e3.to_program, witness->e4.from_program);
  EXPECT_FALSE(witness->Describe(graph).empty());
}

TEST_F(HandGraphTest, OrderedCounterflowByPosition) {
  // Program B reads twice: occurrence 0 feeds a counterflow edge and
  // occurrence 1 receives a non-counterflow edge; q'_i (0) <_B q_i (1)
  // triggers the ordered-counterflow condition.
  std::vector<Occurrence> b_occs;
  b_occs.push_back({Statement::KeySelect("r1", schema_, rel_, AttrSet{1}), 0, {}});
  b_occs.push_back({Statement::KeySelect("r2", schema_, rel_, AttrSet{1}), 1, {}});
  SummaryGraph graph(
      {OneStmtLtp(schema_, rel_, "A", true), Ltp("B", "B", std::move(b_occs), {})});
  graph.AddEdge({0, 0, false, 1, 1});  // A.w -> B.r2 (nc), target pos 1
  graph.AddEdge({1, 0, true, 0, 0});   // B.r1 -> A.w (cf), source pos 0
  EXPECT_FALSE(IsRobust(graph, Method::kTypeII));

  // Reversing the positions (cf out of the *later* read) is robust: the
  // writer-typed nc source and q'_i >= q_i disable both conditions.
  SummaryGraph graph2({OneStmtLtp(schema_, rel_, "A", true),
                       Ltp("B", "B",
                           {{Statement::KeySelect("r1", schema_, rel_, AttrSet{1}), 0, {}},
                            {Statement::KeySelect("r2", schema_, rel_, AttrSet{1}),
                             1,
                             {}}},
                           {})});
  graph2.AddEdge({0, 0, false, 0, 1});  // A.w -> B.r1 (nc), target pos 0
  graph2.AddEdge({1, 1, true, 0, 0});   // B.r2 -> A.w (cf), source pos 1
  EXPECT_TRUE(IsRobust(graph2, Method::kTypeII));
}

TEST_F(HandGraphTest, OrderedCounterflowByReadLikeSourceType) {
  // The nc edge's source statement has a (predicate) read type, which
  // triggers condition (2) of Theorem 6.4 regardless of positions.
  std::vector<Occurrence> c_occs;
  c_occs.push_back(
      {Statement::PredSelect("p", schema_, rel_, AttrSet{1}, AttrSet{1}), 0, {}});
  SummaryGraph graph({OneStmtLtp(schema_, rel_, "A", true),
                      OneStmtLtp(schema_, rel_, "B", false),
                      Ltp("C", "C", std::move(c_occs), {})});
  // C.p --nc--> B.r (predicate wr is impossible, but rw nc from pred sel to a
  // writer would be; the detector only looks at the structure so we wire the
  // shape directly), B.r --cf--> A.w, A.w --nc--> C.p.
  graph.AddEdge({2, 0, false, 0, 1});
  graph.AddEdge({1, 0, true, 0, 0});
  graph.AddEdge({0, 0, false, 0, 2});
  EXPECT_FALSE(IsRobust(graph, Method::kTypeII));
}

TEST_F(HandGraphTest, CounterflowCycleWithoutNonCounterflowIsRobust) {
  // Only counterflow edges: no cycle can have a non-counterflow dependency,
  // so type-II reports robust (type-I does not).
  SummaryGraph graph(
      {OneStmtLtp(schema_, rel_, "A", false), OneStmtLtp(schema_, rel_, "B", false)});
  graph.AddEdge({0, 0, true, 0, 1});
  graph.AddEdge({1, 0, true, 0, 0});
  EXPECT_FALSE(IsRobust(graph, Method::kTypeI));
  EXPECT_TRUE(IsRobust(graph, Method::kTypeII));
}

TEST_F(HandGraphTest, TypeIWitnessHasReturnPath) {
  SummaryGraph graph(
      {OneStmtLtp(schema_, rel_, "A", false), OneStmtLtp(schema_, rel_, "B", true)});
  graph.AddEdge({0, 0, true, 0, 1});
  graph.AddEdge({1, 0, false, 0, 0});
  std::optional<TypeIWitness> witness = oracle::FindTypeICycle(graph);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(witness->edge.counterflow);
  ASSERT_GE(witness->return_path.size(), 2u);
  EXPECT_EQ(witness->return_path.front(), witness->edge.to_program);
  EXPECT_EQ(witness->return_path.back(), witness->edge.from_program);
  EXPECT_FALSE(witness->Describe(graph).empty());
}

TEST(DetectorWorkloadTest, AuctionIsRobustWithTypeIIButNotTypeI) {
  // §2: the summary graph of {FindBids, PlaceBid} contains a type-I cycle
  // but no type-II cycle.
  Workload auction = MakeAuction();
  EXPECT_TRUE(
      IsRobustAgainstMvrc(auction.programs, AnalysisSettings::AttrDepFk(), Method::kTypeII));
  EXPECT_FALSE(
      IsRobustAgainstMvrc(auction.programs, AnalysisSettings::AttrDepFk(), Method::kTypeI));
}

TEST(DetectorWorkloadTest, NaiveAndOptimizedAgreeOnWorkloads) {
  for (const Workload& workload : {MakeAuction(), MakeSmallBank()}) {
    for (AnalysisSettings settings :
         {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
          AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
      SummaryGraph graph = BuildSummaryGraph(workload.programs, settings);
      EXPECT_EQ(oracle::FindTypeIICycle(graph).has_value(),
                oracle::FindTypeIICycleNaive(graph).has_value())
          << workload.name << " under " << settings.name();
    }
  }
}

}  // namespace
}  // namespace mvrc
