// The one cycle-test engine against its oracle: the production whole-graph
// entry points (RunCycleTest, IsRobust, IsRobustUnder) run as full-set
// queries of a MaskedDetector, and must give exactly the verdict and the
// witness text of the graph-copy searches in tests/support/cycle_oracle.h —
// on the paper's builtin workloads and the policy demo under all four
// granularity/FK settings, both isolation levels and both methods, and on
// the 20-seed random corpus. The analysis service's Check, which queries its
// memoized multi-range detector with the full program set, must agree too.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "service/workload_session.h"
#include "summary/build_summary.h"
#include "support/cycle_oracle.h"
#include "support/random_workload.h"
#include "workloads/auction.h"
#include "workloads/policy_demo.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

const AnalysisSettings kAllSettings[] = {
    AnalysisSettings::TupleDep(),
    AnalysisSettings::AttrDep(),
    AnalysisSettings::TupleDepFk(),
    AnalysisSettings::AttrDepFk(),
};

// Compares the production engine with the oracle on one graph under both
// methods; returns how many of the two verdicts were non-robust, so callers
// can check that witnesses were actually compared.
int ExpectEngineMatchesOracle(const std::vector<Btp>& programs,
                              const AnalysisSettings& settings, const std::string& context) {
  SCOPED_TRACE(context);
  const SummaryGraph graph = BuildSummaryGraph(UnfoldAtMost2(programs), settings);
  int non_robust = 0;
  for (Method method : {Method::kTypeI, Method::kTypeII}) {
    SCOPED_TRACE(method == Method::kTypeI ? "type-I" : "type-II");
    const CycleTestOutcome expected = oracle::RunCycleTest(graph, method, settings.policy());
    const CycleTestOutcome actual = RunCycleTest(graph, method, settings.policy());
    EXPECT_EQ(actual.robust, expected.robust);
    EXPECT_EQ(actual.witness, expected.witness);
    EXPECT_EQ(actual.witness.empty(), actual.robust);
    EXPECT_EQ(IsRobust(graph, method, settings.policy()), expected.robust);
    EXPECT_EQ(IsRobustUnder(programs, settings, method), expected.robust);
    if (!expected.robust) ++non_robust;
  }
  return non_robust;
}

TEST(CycleEngineTest, BuiltinsMatchOracleUnderEverySettingAndPolicy) {
  int non_robust = 0;
  for (const Workload& workload :
       {MakeSmallBank(), MakeTpcc(), MakeAuction(), MakeIsolationDemo()}) {
    for (const AnalysisSettings& base : kAllSettings) {
      for (IsolationLevel level : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
        const AnalysisSettings settings = base.WithIsolation(level);
        non_robust += ExpectEngineMatchesOracle(workload.programs, settings,
                                                workload.name + " / " + settings.ToString());
      }
    }
  }
  EXPECT_GT(non_robust, 0);
}

class CycleEngineRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CycleEngineRandomTest, MatchesOracleUnderEverySettingAndPolicy) {
  test_support::RandomWorkloadGen gen(GetParam() * 6271 + 17);
  Schema schema;
  const std::vector<Btp> programs = gen.Generate(schema);
  for (const AnalysisSettings& base : kAllSettings) {
    for (IsolationLevel level : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      const AnalysisSettings settings = base.WithIsolation(level);
      ExpectEngineMatchesOracle(
          programs, settings, "seed=" + std::to_string(GetParam()) + " / " + settings.ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleEngineRandomTest, ::testing::Range(0, 20));

// The session's Check queries its per-program-range detector with the full
// set; the verdict and witness equal the oracle's on the materialized graph.
TEST(CycleEngineTest, SessionCheckMatchesOracle) {
  for (const Workload& workload : {MakeSmallBank(), MakeTpcc(), MakeIsolationDemo()}) {
    for (IsolationLevel level : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      const AnalysisSettings settings = AnalysisSettings::AttrDep().WithIsolation(level);
      SCOPED_TRACE(workload.name + " / " + settings.ToString());
      WorkloadSession session("s", settings);
      ASSERT_TRUE(session.LoadWorkload(workload).ok());
      const CycleTestOutcome expected =
          oracle::RunCycleTest(session.Graph(), Method::kTypeII, settings.policy());
      const CheckResult check = session.Check(Method::kTypeII);
      EXPECT_FALSE(check.from_cache);
      EXPECT_EQ(check.robust, expected.robust);
      EXPECT_EQ(check.witness, expected.witness);
    }
  }
}

// A session with no programs is robust and has nothing to witness.
TEST(CycleEngineTest, EmptyGraphAndEmptySessionAreRobust) {
  const SummaryGraph empty(std::vector<Ltp>{});
  for (Method method : {Method::kTypeI, Method::kTypeII}) {
    EXPECT_TRUE(RunCycleTest(empty, method, GetPolicy(IsolationLevel::kMvrc)).robust);
    EXPECT_TRUE(IsRobust(empty, method, GetPolicy(IsolationLevel::kRc)));
  }
  WorkloadSession session("empty", AnalysisSettings::AttrDepFk());
  const CheckResult check = session.Check();
  EXPECT_TRUE(check.robust);
  EXPECT_TRUE(check.witness.empty());
}

// The exhaustive sweep's abort states the bound from kMaxSubsetPrograms.
TEST(CycleEngineDeathTest, OversizedSweepAbortMessageStatesTheBound) {
  const Workload workload = MakeAuctionN(kMaxSubsetPrograms / 2 + 1);
  ASSERT_GT(static_cast<int>(workload.programs.size()), kMaxSubsetPrograms);
  EXPECT_DEATH(AnalyzeSubsets(workload.programs, AnalysisSettings::AttrDepFk(), Method::kTypeII),
               "supports 1\\.\\." + std::to_string(kMaxSubsetPrograms) + " programs");
}

}  // namespace
}  // namespace mvrc
