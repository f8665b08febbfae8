// Differential test of the zero-copy MaskedDetector against the
// InducedSubgraph + FindTypeICycle/FindTypeIICycle oracle: for randomized
// (seeded) and builtin workloads, every mask must produce the same verdict
// AND the same witness (edges, paths — compared via Describe, which renders
// program names and statement labels and is therefore stable across the
// subgraph re-indexing). Also covers the allocation-free scratch contract:
// one scratch serves interleaved masks and methods, and scratches are
// independent across threads.

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
#include "util/thread_pool.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"
#include "support/cycle_oracle.h"
#include "support/random_workload.h"
#include "support/subset_oracle.h"

namespace mvrc {
namespace {

// A full-graph-plus-ranges bundle, as the subset sweep sees it.
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

// Compares verdict and witness for one mask under both methods.
void ExpectMaskAgrees(const GraphUnderTest& t, const MaskedDetector& detector,
                      DetectorScratch& scratch, uint32_t mask, const std::string& context) {
  SummaryGraph oracle_graph = t.graph.InducedSubgraph(KeepFor(mask, t));

  std::optional<TypeIWitness> oracle1 = oracle::FindTypeICycle(oracle_graph);
  std::optional<TypeIWitness> masked1 = detector.FindTypeICycle(mask, scratch);
  ASSERT_EQ(masked1.has_value(), oracle1.has_value()) << context << " mask=" << mask;
  EXPECT_EQ(detector.HasTypeICycle(mask, scratch), oracle1.has_value())
      << context << " mask=" << mask;
  EXPECT_EQ(detector.IsRobust(mask, Method::kTypeI, scratch), !oracle1.has_value())
      << context << " mask=" << mask;
  if (oracle1.has_value()) {
    EXPECT_EQ(masked1->Describe(t.graph), oracle1->Describe(oracle_graph))
        << context << " mask=" << mask;
  }

  std::optional<TypeIIWitness> oracle2 = oracle::FindTypeIICycle(oracle_graph);
  std::optional<TypeIIWitness> masked2 = detector.FindTypeIICycle(mask, scratch);
  ASSERT_EQ(masked2.has_value(), oracle2.has_value()) << context << " mask=" << mask;
  EXPECT_EQ(detector.HasTypeIICycle(mask, scratch), oracle2.has_value())
      << context << " mask=" << mask;
  EXPECT_EQ(detector.IsRobust(mask, Method::kTypeII, scratch), !oracle2.has_value())
      << context << " mask=" << mask;
  EXPECT_EQ(oracle::FindTypeIICycleNaive(oracle_graph).has_value(), oracle2.has_value())
      << context << " mask=" << mask;
  if (oracle2.has_value()) {
    EXPECT_EQ(masked2->Describe(t.graph), oracle2->Describe(oracle_graph))
        << context << " mask=" << mask;
  }
}

void ExpectAllMasksAgree(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                         const std::string& context) {
  GraphUnderTest t = Build(programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range);
  ASSERT_EQ(detector.num_programs(), static_cast<int>(programs.size()));
  ASSERT_EQ(detector.num_ltps(), t.graph.num_programs());
  DetectorScratch scratch = detector.MakeScratch();
  const uint32_t full = (uint32_t{1} << programs.size()) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    ExpectMaskAgrees(t, detector, scratch, mask, context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- Randomized workloads from the shared generator
// (tests/support/random_workload.h): 4-5 programs (15-31 masks each) whose
// mask bits map to LTP *ranges*, not single nodes.

class MaskedDetectorRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MaskedDetectorRandomTest, AgreesWithInducedSubgraphOracleOnEveryMask) {
  test_support::RandomWorkloadGen gen(GetParam() * 6271 + 17);
  Schema schema;
  std::vector<Btp> programs = gen.Generate(schema);
  for (const AnalysisSettings& settings :
       {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDepFk()}) {
    ExpectAllMasksAgree(programs, settings,
                        "seed=" + std::to_string(GetParam()) + " / " + settings.name());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedDetectorRandomTest, ::testing::Range(0, 20));

// --- Builtin workloads: the paper's benchmarks, all four settings.

TEST(MaskedDetectorBuiltinTest, AgreesOnSmallBankAndAuction) {
  for (const Workload& workload : {MakeSmallBank(), MakeAuction(), MakeAuctionN(3)}) {
    for (const AnalysisSettings& settings :
         {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
          AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
      ExpectAllMasksAgree(workload.programs, settings, workload.name + " / " + settings.name());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MaskedDetectorBuiltinTest, AgreesOnTpcc) {
  Workload workload = MakeTpcc();
  ExpectAllMasksAgree(workload.programs, AnalysisSettings::AttrDepFk(), "tpcc/attr+fk");
}

// One scratch must serve arbitrarily interleaved masks and methods: run the
// mask space twice in opposite orders and alternate methods, expecting
// identical verdicts.

TEST(MaskedDetectorScratchTest, ScratchIsReusableAcrossMasksAndMethods) {
  Workload workload = MakeSmallBank();
  GraphUnderTest t = Build(workload.programs, AnalysisSettings::AttrDepFk());
  MaskedDetector detector(t.graph, t.ltp_range);
  DetectorScratch scratch = detector.MakeScratch();
  const uint32_t full = (uint32_t{1} << workload.programs.size()) - 1;
  std::vector<bool> forward;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    forward.push_back(detector.IsRobust(mask, Method::kTypeII, scratch));
    detector.IsRobust(mask, Method::kTypeI, scratch);  // interleave the other method
  }
  for (uint32_t mask = full; mask >= 1; --mask) {
    EXPECT_EQ(detector.IsRobust(mask, Method::kTypeII, scratch), forward[mask - 1])
        << "mask=" << mask;
  }
}

// The oracle sweep on the detector must agree with a pruning-free full
// enumeration, and the entry point — serial, and with per-worker scratches
// under threads — must agree with the oracle sweep.

TEST(MaskedDetectorSweepTest, SweepMatchesFullEnumerationSerialAndParallel) {
  Workload workload = MakeAuctionN(3);
  GraphUnderTest t = Build(workload.programs, AnalysisSettings::AttrDepFk());
  MaskedDetector detector(t.graph, t.ltp_range);
  DetectorScratch scratch = detector.MakeScratch();

  std::vector<uint32_t> expected;
  const uint32_t full = (uint32_t{1} << workload.programs.size()) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (detector.IsRobust(mask, Method::kTypeII, scratch)) expected.push_back(mask);
  }

  const SubsetReport sweep = oracle::SweepSubsets(detector, Method::kTypeII);
  EXPECT_EQ(sweep.robust_masks, expected);

  Result<SubsetReport> serial = AnalyzeSubsetsOnDetector(detector, Method::kTypeII);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().robust_masks, expected);
  EXPECT_EQ(serial.value().maximal_masks, sweep.maximal_masks);

  ThreadPool pool(4);
  Result<SubsetReport> parallel =
      AnalyzeSubsetsOnDetector(detector, Method::kTypeII, &pool);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel.value().robust_masks, expected);
  EXPECT_EQ(parallel.value().maximal_masks, sweep.maximal_masks);
}

TEST(SubsetReportTest, IsRobustSubsetBinarySearchesSortedMasks) {
  SubsetReport report;
  report.num_programs = 4;
  report.robust_masks = {1, 2, 3, 5, 8, 12};
  for (uint32_t mask : report.robust_masks) EXPECT_TRUE(report.IsRobustSubset(mask));
  for (uint32_t mask : {0u, 4u, 6u, 7u, 9u, 15u}) EXPECT_FALSE(report.IsRobustSubset(mask));
}

}  // namespace
}  // namespace mvrc
