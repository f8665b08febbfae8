// Unit and property coverage for the isolation-policy layer: the policy
// singletons' table/clause/cycle hooks, the lock-based RC counterflow
// restriction and split-cycle test, the interned-vs-legacy build identity
// under the RC policy, the MVRC ⟹ RC robustness monotonicity (every
// lock-based-RC schedule is MVRC-admissible, so an MVRC-robust workload
// must be RC-robust) on randomized workloads, and the IsolationDemo
// workload on which the two policies' verdicts differ.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "summary/isolation_policy.h"
#include "workloads/policy_demo.h"
#include "workloads/smallbank.h"
#include "support/cycle_oracle.h"
#include "support/random_workload.h"
#include "support/subset_oracle.h"

namespace mvrc {
namespace {

const IsolationPolicy& Mvrc() { return GetPolicy(IsolationLevel::kMvrc); }
const IsolationPolicy& Rc() { return GetPolicy(IsolationLevel::kRc); }

constexpr StatementType kAllTypes[] = {
    StatementType::kInsert,    StatementType::kKeySelect,  StatementType::kPredSelect,
    StatementType::kKeyUpdate, StatementType::kPredUpdate, StatementType::kKeyDelete,
    StatementType::kPredDelete,
};

TEST(IsolationPolicyTest, SingletonsAndNames) {
  EXPECT_EQ(Mvrc().level(), IsolationLevel::kMvrc);
  EXPECT_EQ(Rc().level(), IsolationLevel::kRc);
  EXPECT_STREQ(Mvrc().name(), "mvrc");
  EXPECT_STREQ(Rc().name(), "rc");
  EXPECT_EQ(&GetPolicy(IsolationLevel::kMvrc), &Mvrc());  // process-lifetime singletons
  EXPECT_EQ(Mvrc().closure(), CycleClosure::kThroughNonCounterflowEdge);
  EXPECT_EQ(Rc().closure(), CycleClosure::kDirect);
}

TEST(IsolationPolicyTest, ParseIsolationLevelRoundTrips) {
  for (IsolationLevel level : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
    std::optional<IsolationLevel> parsed = ParseIsolationLevel(ToString(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(ParseIsolationLevel("").has_value());
  EXPECT_FALSE(ParseIsolationLevel("si").has_value());
  EXPECT_FALSE(ParseIsolationLevel("MVRC").has_value());
}

// Both shipped policies share Table 1 (see isolation_policy.h for why the
// lock-based RC restriction lives entirely in the condition clause).
TEST(IsolationPolicyTest, ShippedPoliciesShareTable1) {
  for (StatementType qi : kAllTypes) {
    for (StatementType qj : kAllTypes) {
      EXPECT_EQ(Mvrc().NcDep(qi, qj), NcDepTable(qi, qj));
      EXPECT_EQ(Mvrc().CDep(qi, qj), CDepTable(qi, qj));
      EXPECT_EQ(Rc().NcDep(qi, qj), NcDepTable(qi, qj));
      EXPECT_EQ(Rc().CDep(qi, qj), CDepTable(qi, qj));
    }
  }
}

TEST(IsolationPolicyTest, CounterflowReadClause) {
  for (StatementType type : kAllTypes) {
    EXPECT_TRUE(Mvrc().CounterflowReadClauseApplies(type));
    // Lock-based RC: a writing statement's key-based reads sit behind its
    // own exclusive locks, so they cannot source a counterflow
    // antidependency.
    EXPECT_EQ(Rc().CounterflowReadClauseApplies(type), !WritesTuples(type));
  }
}

TEST(IsolationPolicyTest, DangerousAdjacentPairTruthTable) {
  const StatementType read_like = StatementType::kPredUpdate;
  const StatementType write_like = StatementType::kInsert;

  // MVRC (Theorem 6.4): counterflow e3, or strict occurrence order, or
  // read-like e3 source.
  EXPECT_TRUE(Mvrc().DangerousAdjacentPair(true, 0, write_like, 5));
  EXPECT_TRUE(Mvrc().DangerousAdjacentPair(false, 3, write_like, 1));
  EXPECT_TRUE(Mvrc().DangerousAdjacentPair(false, 0, read_like, 5));
  EXPECT_FALSE(Mvrc().DangerousAdjacentPair(false, 0, write_like, 5));

  // Lock-based RC: non-counterflow e3 AND strict occurrence order; the
  // multiversion read-like escape and the adjacent-counterflow case are
  // blocked by the split program's exclusive locks.
  EXPECT_TRUE(Rc().DangerousAdjacentPair(false, 3, write_like, 1));
  EXPECT_TRUE(Rc().DangerousAdjacentPair(false, 3, read_like, 1));
  EXPECT_FALSE(Rc().DangerousAdjacentPair(true, 3, read_like, 1));
  EXPECT_FALSE(Rc().DangerousAdjacentPair(false, 0, read_like, 5));
  EXPECT_FALSE(Rc().DangerousAdjacentPair(false, 3, write_like, 3));
}

// A pred upd source whose ReadSet (but not PReadSet) overlaps the target's
// write set: counterflow under MVRC, suppressed under lock-based RC.
TEST(IsolationPolicyTest, RcDropsWritingSourceReadClauseEdges) {
  Schema schema;
  RelationId rel = schema.AddRelation("R", {"id", "flag", "val"}, {"id"});
  const AttrSet flag = schema.MakeAttrSet(rel, {"flag"});
  const AttrSet val = schema.MakeAttrSet(rel, {"val"});

  Btp writer("Writer");
  // pred upd: PRead={flag}, Read={val}, Write={flag} — the ReadSet clause is
  // its only route to a counterflow edge against a val-writer.
  writer.AddStatement(Statement::PredUpdate("q1", schema, rel, flag, val, flag));
  Btp updater("Updater");
  updater.AddStatement(Statement::KeyUpdate("q2", schema, rel, AttrSet{}, val));

  const AnalysisSettings mvrc = AnalysisSettings::AttrDep();
  const AnalysisSettings rc = AnalysisSettings::AttrDep().WithIsolation(IsolationLevel::kRc);
  std::vector<Ltp> ltps = UnfoldAtMost2({writer, updater});
  ASSERT_EQ(ltps.size(), 2u);

  // Legacy per-pair evaluator.
  std::vector<SummaryEdge> mvrc_cell = SummaryEdgesBetween(ltps[0], 0, ltps[1], 1, mvrc);
  std::vector<SummaryEdge> rc_cell = SummaryEdgesBetween(ltps[0], 0, ltps[1], 1, rc);
  const auto count_cf = [](const std::vector<SummaryEdge>& edges) {
    int cf = 0;
    for (const SummaryEdge& edge : edges) cf += edge.counterflow ? 1 : 0;
    return cf;
  };
  EXPECT_EQ(count_cf(mvrc_cell), 1);
  EXPECT_EQ(count_cf(rc_cell), 0);
  // Non-counterflow edges are isolation-independent.
  EXPECT_EQ(static_cast<int>(mvrc_cell.size()) - count_cf(mvrc_cell),
            static_cast<int>(rc_cell.size()) - count_cf(rc_cell));

  // The interned builder agrees with the legacy evaluator under both
  // policies.
  for (const AnalysisSettings& settings : {mvrc, rc}) {
    SummaryGraph interned = BuildSummaryGraph(ltps, settings, nullptr);
    SummaryGraph legacy = BuildSummaryGraphLegacy(ltps, settings);
    EXPECT_EQ(interned.edges(), legacy.edges()) << settings.name();
  }

  // A key sel source keeps its ReadSet clause under RC (it takes no locks).
  Btp reader("Reader");
  reader.AddStatement(Statement::KeySelect("q3", schema, rel, val));
  std::vector<Ltp> reader_ltps = UnfoldAtMost2({reader, updater});
  EXPECT_EQ(count_cf(SummaryEdgesBetween(reader_ltps[0], 0, reader_ltps[1], 1, rc)), 1);
}

// --- The demo workload: MVRC and lock-based RC verdicts differ. -----------

TEST(IsolationPolicyTest, IsolationDemoSeparatesPolicies) {
  Workload demo = MakeIsolationDemo();
  for (const AnalysisSettings& base :
       {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
        AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
    SCOPED_TRACE(base.name());
    EXPECT_FALSE(IsRobustUnder(demo.programs, base, Method::kTypeII));
    EXPECT_TRUE(
        IsRobustUnder(demo.programs, base.WithIsolation(IsolationLevel::kRc), Method::kTypeII));

    // The witness under MVRC uses the read-like-source escape: the closing
    // edge re-enters Monitor at the same occurrence as the split read.
    SummaryGraph graph = BuildSummaryGraph(UnfoldAtMost2(demo.programs), base);
    std::optional<TypeIIWitness> mvrc_witness = oracle::FindTypeIICycle(graph, Mvrc());
    ASSERT_TRUE(mvrc_witness.has_value());
    EXPECT_FALSE(oracle::FindRcSplitCycle(graph, Rc()).has_value());
    CycleTestOutcome rc_outcome = RunCycleTest(graph, Method::kTypeII, Rc());
    EXPECT_TRUE(rc_outcome.robust);
    EXPECT_TRUE(rc_outcome.witness.empty());
  }
}

// A classic lost-update shape is non-robust under BOTH policies, and the RC
// split witness is structurally coherent.
TEST(IsolationPolicyTest, LostUpdateIsNonRobustUnderRcWithCoherentWitness) {
  Schema schema;
  RelationId rel = schema.AddRelation("R", {"id", "val"}, {"id"});
  const AttrSet val = schema.MakeAttrSet(rel, {"val"});

  // ReadThenWrite: key sel R Read={val}; key upd R Write={val}.
  Btp rtw("ReadThenWrite");
  rtw.AddStatement(Statement::KeySelect("q1", schema, rel, val));
  rtw.AddStatement(Statement::KeyUpdate("q2", schema, rel, AttrSet{}, val));
  // Blind writer.
  Btp writer("Writer");
  writer.AddStatement(Statement::KeyUpdate("q3", schema, rel, AttrSet{}, val));

  for (const AnalysisSettings& base : {AnalysisSettings::AttrDep(), AnalysisSettings::TupleDep()}) {
    SCOPED_TRACE(base.name());
    const AnalysisSettings rc = base.WithIsolation(IsolationLevel::kRc);
    EXPECT_FALSE(IsRobustUnder({rtw, writer}, base, Method::kTypeII));
    EXPECT_FALSE(IsRobustUnder({rtw, writer}, rc, Method::kTypeII));

    SummaryGraph graph = BuildSummaryGraph(UnfoldAtMost2({rtw, writer}), rc);
    std::optional<RcSplitWitness> witness = oracle::FindRcSplitCycle(graph, Rc());
    ASSERT_TRUE(witness.has_value());
    // Both edges meet at the split program; the split read strictly
    // precedes the closing dependency's target.
    EXPECT_EQ(witness->incoming.to_program, witness->outgoing.from_program);
    EXPECT_FALSE(witness->incoming.counterflow);
    EXPECT_TRUE(witness->outgoing.counterflow);
    EXPECT_LT(witness->outgoing.from_occ, witness->incoming.to_occ);
    // The return path leads from the counterflow target to the closing
    // edge's source.
    ASSERT_FALSE(witness->return_path.empty());
    EXPECT_EQ(witness->return_path.front(), witness->outgoing.to_program);
    EXPECT_EQ(witness->return_path.back(), witness->incoming.from_program);
    EXPECT_FALSE(witness->Describe(graph).empty());
  }
}

// --- Randomized monotonicity + masked-detector parity under RC. -----------

struct GraphUnderTest {
  SummaryGraph graph;
  std::vector<std::pair<int, int>> ltp_range;
};

GraphUnderTest Build(const std::vector<Btp>& programs, const AnalysisSettings& settings) {
  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range;
  for (const Btp& program : programs) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(program);
    ltp_range.push_back({static_cast<int>(all_ltps.size()),
                         static_cast<int>(all_ltps.size() + unfolded.size())});
    for (Ltp& ltp : unfolded) all_ltps.push_back(std::move(ltp));
  }
  return {BuildSummaryGraph(std::move(all_ltps), settings), std::move(ltp_range)};
}

std::vector<bool> KeepFor(uint32_t mask, const GraphUnderTest& t) {
  std::vector<bool> keep(t.graph.num_programs(), false);
  for (size_t i = 0; i < t.ltp_range.size(); ++i) {
    if ((mask >> i) & 1) {
      for (int p = t.ltp_range[i].first; p < t.ltp_range[i].second; ++p) keep[p] = true;
    }
  }
  return keep;
}

class IsolationPolicyRandomTest : public ::testing::TestWithParam<int> {};

// For every mask of every seeded workload: (1) the RC masked detector
// agrees with the oracle's graph-copy FindRcSplitCycle on the induced subgraph
// (verdict AND witness), (2) interned build == legacy build under RC,
// (3) MVRC-robust implies RC-robust.
TEST_P(IsolationPolicyRandomTest, RcMaskedParityAndMonotonicity) {
  test_support::RandomWorkloadGen gen(GetParam() * 40933 + 5);
  Schema schema;
  std::vector<Btp> programs = gen.Generate(schema);
  for (const AnalysisSettings& base :
       {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDepFk()}) {
    const AnalysisSettings rc = base.WithIsolation(IsolationLevel::kRc);
    const std::string context =
        "seed=" + std::to_string(GetParam()) + " / " + std::string(rc.name());

    GraphUnderTest t = Build(programs, rc);
    {
      std::vector<Ltp> ltps;
      for (int p = 0; p < t.graph.num_programs(); ++p) ltps.push_back(t.graph.program(p));
      SummaryGraph legacy = BuildSummaryGraphLegacy(std::move(ltps), rc);
      ASSERT_EQ(t.graph.edges(), legacy.edges()) << context;
    }

    GraphUnderTest mvrc_t = Build(programs, base);
    MaskedDetector rc_detector(t.graph, t.ltp_range, Rc());
    MaskedDetector mvrc_detector(mvrc_t.graph, mvrc_t.ltp_range, Mvrc());
    DetectorScratch rc_scratch = rc_detector.MakeScratch();
    DetectorScratch mvrc_scratch = mvrc_detector.MakeScratch();

    const uint32_t full = (uint32_t{1} << programs.size()) - 1;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      SummaryGraph induced = t.graph.InducedSubgraph(KeepFor(mask, t));
      std::optional<RcSplitWitness> expected = oracle::FindRcSplitCycle(induced, Rc());
      std::optional<RcSplitWitness> masked = rc_detector.FindRcSplitCycle(mask, rc_scratch);
      ASSERT_EQ(masked.has_value(), expected.has_value()) << context << " mask=" << mask;
      EXPECT_EQ(rc_detector.HasRcSplitCycle(mask, rc_scratch), expected.has_value())
          << context << " mask=" << mask;
      const bool rc_robust = rc_detector.IsRobust(mask, Method::kTypeII, rc_scratch);
      EXPECT_EQ(rc_robust, !expected.has_value()) << context << " mask=" << mask;
      if (expected.has_value()) {
        EXPECT_EQ(masked->Describe(t.graph), expected->Describe(induced))
            << context << " mask=" << mask;
      }
      if (mvrc_detector.IsRobust(mask, Method::kTypeII, mvrc_scratch)) {
        EXPECT_TRUE(rc_robust) << context << " mask=" << mask
                               << ": MVRC-robust but not RC-robust (monotonicity violated)";
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsolationPolicyRandomTest, ::testing::Range(0, 20));

// Subset analyses under RC flow through the same Proposition 5.2 machinery:
// the entry point's report must equal the per-mask oracle sweep's, and
// both must equal the per-mask detector verdicts.
TEST(IsolationPolicyTest, RcSubsetSweepMatchesPerMaskVerdicts) {
  for (const Workload& workload : {MakeSmallBank(), MakeIsolationDemo()}) {
    const AnalysisSettings rc =
        AnalysisSettings::AttrDepFk().WithIsolation(IsolationLevel::kRc);
    GraphUnderTest t = Build(workload.programs, rc);
    MaskedDetector detector(t.graph, t.ltp_range, Rc());
    DetectorScratch scratch = detector.MakeScratch();
    Result<SubsetReport> report = TryAnalyzeSubsets(workload.programs, rc, Method::kTypeII);
    ASSERT_TRUE(report.ok());
    const SubsetReport sweep = oracle::SweepSubsets(detector, Method::kTypeII);
    EXPECT_EQ(report.value().robust_masks, sweep.robust_masks) << workload.name;
    EXPECT_EQ(report.value().maximal_masks, sweep.maximal_masks) << workload.name;
    const uint32_t full = (uint32_t{1} << workload.programs.size()) - 1;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      EXPECT_EQ(report.value().IsRobustSubset(mask),
                detector.IsRobust(mask, Method::kTypeII, scratch))
          << workload.name << " mask=" << mask;
    }
  }
}

}  // namespace
}  // namespace mvrc
