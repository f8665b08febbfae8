#include "btp/program.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"

namespace mvrc {
namespace {

class BtpTest : public ::testing::Test {
 protected:
  BtpTest() {
    parent_ = schema_.AddRelation("P", {"p", "v"}, {"p"});
    child_ = schema_.AddRelation("C", {"c", "p"}, {"c"});
    fk_ = schema_.AddForeignKey("f", child_, {"p"}, parent_);
  }

  Statement Sel(const std::string& label, RelationId rel) {
    return Statement::KeySelect(label, schema_, rel, AttrSet{1});
  }

  Schema schema_;
  RelationId parent_ = -1, child_ = -1;
  ForeignKeyId fk_ = -1;
};

TEST_F(BtpTest, DefaultStructureIsLinearSequence) {
  Btp program("P");
  program.AddStatement(Sel("q1", parent_));
  program.AddStatement(Sel("q2", child_));
  // No Finish() call: the effective root is the all-statements sequence.
  EXPECT_TRUE(program.IsLinear());
  std::vector<Ltp> ltps = UnfoldAtMost2(program);
  ASSERT_EQ(ltps.size(), 1u);
  EXPECT_EQ(ltps[0].size(), 2);
}

TEST_F(BtpTest, IsLinearDetectsControlFlow) {
  Btp with_loop("L");
  StmtId q = with_loop.AddStatement(Sel("q1", parent_));
  with_loop.Finish(with_loop.Loop(with_loop.Stmt(q)));
  EXPECT_FALSE(with_loop.IsLinear());

  Btp with_choice("C");
  StmtId a = with_choice.AddStatement(Sel("q1", parent_));
  StmtId b = with_choice.AddStatement(Sel("q2", parent_));
  with_choice.Finish(with_choice.Choice(with_choice.Stmt(a), with_choice.Stmt(b)));
  EXPECT_FALSE(with_choice.IsLinear());
}

TEST_F(BtpTest, FkConstraintValidation) {
  Btp program("P");
  StmtId qp = program.AddStatement(
      Statement::KeyUpdate("qp", schema_, parent_, AttrSet{}, AttrSet{1}));
  StmtId qc = program.AddStatement(Sel("qc", child_));
  program.AddFkConstraint(schema_, qp, fk_, qc);
  ASSERT_EQ(program.fk_constraints().size(), 1u);
  EXPECT_EQ(program.fk_constraints()[0], (FkConstraint{qp, fk_, qc}));
}

TEST_F(BtpTest, FkConstraintRejectsWrongRelations) {
  Btp program("P");
  StmtId qp = program.AddStatement(Sel("qp", parent_));
  StmtId qc = program.AddStatement(Sel("qc", child_));
  // Swapped parent/child relations: rel(child) must be dom(f).
  EXPECT_DEATH(program.AddFkConstraint(schema_, qc, fk_, qp), "dom");
}

TEST_F(BtpTest, FkConstraintRejectsPredicateParent) {
  Btp program("P");
  StmtId qp = program.AddStatement(
      Statement::PredSelect("qp", schema_, parent_, AttrSet{1}, AttrSet{1}));
  StmtId qc = program.AddStatement(Sel("qc", child_));
  EXPECT_DEATH(program.AddFkConstraint(schema_, qp, fk_, qc), "key-based");
}

TEST_F(BtpTest, DoubleFinishAborts) {
  Btp program("P");
  StmtId q = program.AddStatement(Sel("q1", parent_));
  program.Finish(program.Stmt(q));
  EXPECT_DEATH(program.Finish(program.Stmt(q)), "twice");
}

TEST_F(BtpTest, DebugStringListsStatementsAndConstraints) {
  Btp program("Prog");
  StmtId qp = program.AddStatement(
      Statement::KeyUpdate("qp", schema_, parent_, AttrSet{}, AttrSet{1}));
  StmtId qc = program.AddStatement(Sel("qc", child_));
  program.AddFkConstraint(schema_, qp, fk_, qc);
  std::string text = program.ToDebugString(schema_);
  EXPECT_NE(text.find("BTP Prog"), std::string::npos);
  EXPECT_NE(text.find("qp: key upd P"), std::string::npos);
  EXPECT_NE(text.find("constraint: qp = f(qc)"), std::string::npos);
}

TEST_F(BtpTest, LtpDebugString) {
  Btp program("P");
  program.AddStatement(Sel("q1", parent_));
  program.AddStatement(Sel("q2", child_));
  std::vector<Ltp> ltps = UnfoldAtMost2(program);
  EXPECT_EQ(ltps[0].ToDebugString(), "P = q1; q2");

  Btp empty("E");
  StmtId q = empty.AddStatement(Sel("q1", parent_));
  empty.Finish(empty.Optional(empty.Stmt(q)));
  std::vector<Ltp> unfolded = UnfoldAtMost2(empty);
  ASSERT_EQ(unfolded.size(), 2u);
  EXPECT_EQ(unfolded[1].ToDebugString(), "E2 = <empty>");
}

// A program without Finish() is read through its default linear structure.
// Reading must not write: btp/program.h lets several threads unfold one
// shared program at once, so four threads released together onto one fresh
// linear program must all see the same single LTP. The TSan CI job runs this suite.
using BtpConcurrencyTest = BtpTest;

TEST_F(BtpConcurrencyTest, FourThreadsUnfoldOneFreshLinearProgram) {
  constexpr int kThreads = 4;
  for (int round = 0; round < 50; ++round) {
    Btp program("P");
    for (int i = 1; i <= 6; ++i) {
      program.AddStatement(Sel("q" + std::to_string(i), i % 2 == 0 ? parent_ : child_));
    }
    std::atomic<int> ready{0};
    std::vector<std::string> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        std::vector<Ltp> ltps = UnfoldAtMost2(program);
        seen[t] = ltps.size() == 1 && program.IsLinear() ? ltps[0].ToDebugString() : "?";
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t], "P = q1; q2; q3; q4; q5; q6") << "round " << round << " thread " << t;
    }
  }
}

}  // namespace
}  // namespace mvrc
