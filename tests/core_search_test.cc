// Differential test of the core-guided subset search against the per-mask
// sweep oracle (tests/support/subset_oracle.h): on randomized (seeded) and
// builtin workloads of at most kMaxSubsetPrograms programs,
// AnalyzeSubsetsCoreGuided must reproduce the oracle's verdicts
// bit-for-bit — robust_masks, maximal_masks, and IsRobustSubset answers —
// under both the MVRC and the lock-based-RC isolation policies, and its
// cores and maximal sets must be exactly those the oracle reads off its
// verdicts. Beyond the exhaustive range,
// where no oracle exists, the lattice is checked against the detector
// directly: cores are non-robust and minimal, maximal sets are robust and
// maximal, and sampled subsets answer from the lattice exactly as the
// detector does. Also covers the ProgramSet wide-mask encoding itself and
// its parity with uint32_t masks on the MaskedDetector, witnesses included.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "robust/core_search.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/program_set.h"
#include "robust/subsets.h"
#include "robust/verdict_cache.h"
#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "support/random_workload.h"
#include "support/subset_oracle.h"

namespace mvrc {
namespace {

// --- ProgramSet: the wide-mask encoding.

TEST(ProgramSetTest, BasicOperationsAcrossWordBoundaries) {
  ProgramSet set(70);  // two words, 6-bit tail
  EXPECT_EQ(set.num_programs(), 70);
  EXPECT_EQ(set.num_words(), 2);
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Count(), 0);

  set.Set(0);
  set.Set(63);
  set.Set(64);
  set.Set(69);
  EXPECT_FALSE(set.Empty());
  EXPECT_EQ(set.Count(), 4);
  EXPECT_TRUE(set.Test(63));
  EXPECT_TRUE(set.Test(64));
  EXPECT_FALSE(set.Test(1));
  EXPECT_EQ(set.ToIndices(), (std::vector<int>{0, 63, 64, 69}));

  set.Reset(63);
  EXPECT_FALSE(set.Test(63));
  EXPECT_EQ(set.Count(), 3);

  EXPECT_EQ(set.With(7).Count(), 4);
  EXPECT_EQ(set.Without(0).Count(), 2);
  EXPECT_EQ(set, set.With(64));  // already a member
}

TEST(ProgramSetTest, ComplementStaysWithinDomain) {
  ProgramSet set(70);
  set.Set(3);
  set.Set(65);
  ProgramSet complement = set.Complement();
  EXPECT_EQ(complement.Count(), 68);
  EXPECT_FALSE(complement.Test(3));
  EXPECT_FALSE(complement.Test(65));
  EXPECT_TRUE(complement.Test(69));
  // Tail bits past num_programs stay zero, so double complement is exact.
  EXPECT_EQ(complement.Complement(), set);
  EXPECT_EQ(ProgramSet(70).Complement(), ProgramSet::Full(70));
  EXPECT_EQ(ProgramSet::Full(70).Complement(), ProgramSet(70));
}

TEST(ProgramSetTest, SubsetAndIntersectionTests) {
  ProgramSet a(100), b(100);
  a.Set(1);
  a.Set(70);
  b.Set(1);
  b.Set(70);
  b.Set(99);
  EXPECT_TRUE(b.ContainsAll(a));
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.ContainsAll(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(ProgramSet(100)));
  EXPECT_TRUE(ProgramSet::Full(100).ContainsAll(b));
}

TEST(ProgramSetTest, NarrowMaskRoundTripAndOrderParity) {
  const int n = 11;
  std::vector<uint32_t> masks = {0, 1, 5, 0x2a, 0x400, (uint32_t{1} << n) - 1, 0x123};
  for (uint32_t mask : masks) {
    ProgramSet set = ProgramSet::FromMask(mask, n);
    EXPECT_EQ(set.ToMask(), mask);
    EXPECT_EQ(set.Count(), __builtin_popcount(mask));
    for (int i = 0; i < n; ++i) EXPECT_EQ(set.Test(i), ((mask >> i) & 1) != 0);
  }
  // operator< is the numeric order of the encoded integer: sorting wide and
  // narrow representations of the same subsets yields aligned vectors.
  std::vector<ProgramSet> wide;
  for (uint32_t mask : masks) wide.push_back(ProgramSet::FromMask(mask, n));
  std::sort(wide.begin(), wide.end());
  std::sort(masks.begin(), masks.end());
  for (size_t i = 0; i < masks.size(); ++i) EXPECT_EQ(wide[i].ToMask(), masks[i]);
}

// --- Shared helpers (mirroring tests/masked_detector_test.cc).

using GraphUnderTest = ProgramsSummary;

GraphUnderTest Build(const std::vector<Btp>& programs, const AnalysisSettings& settings) {
  return BuildProgramsSummary(programs, settings);
}

// --- Wide-mask parity on the detector: same verdicts AND same witnesses as
// the uint32_t encoding, under both isolation policies.

void ExpectWideNarrowParity(const std::vector<Btp>& programs,
                            const AnalysisSettings& settings, const std::string& context) {
  GraphUnderTest t = Build(programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
  DetectorScratch scratch = detector.MakeScratch();
  const uint32_t full = (uint32_t{1} << programs.size()) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const ProgramSet wide = ProgramSet::FromMask(mask, detector.num_programs());
    for (Method method : {Method::kTypeI, Method::kTypeII}) {
      EXPECT_EQ(detector.IsRobust(wide, method, scratch),
                detector.IsRobust(mask, method, scratch))
          << context << " mask=" << mask;
    }
    std::optional<TypeIWitness> narrow1 = detector.FindTypeICycle(mask, scratch);
    std::optional<TypeIWitness> wide1 = detector.FindTypeICycle(wide, scratch);
    ASSERT_EQ(narrow1.has_value(), wide1.has_value()) << context << " mask=" << mask;
    if (narrow1.has_value()) {
      EXPECT_EQ(wide1->Describe(t.graph), narrow1->Describe(t.graph))
          << context << " mask=" << mask;
    }
    if (detector.policy().closure() == CycleClosure::kDirect) {
      std::optional<RcSplitWitness> narrow2 = detector.FindRcSplitCycle(mask, scratch);
      std::optional<RcSplitWitness> wide2 = detector.FindRcSplitCycle(wide, scratch);
      ASSERT_EQ(narrow2.has_value(), wide2.has_value()) << context << " mask=" << mask;
      if (narrow2.has_value()) {
        EXPECT_EQ(wide2->Describe(t.graph), narrow2->Describe(t.graph))
            << context << " mask=" << mask;
      }
    } else {
      std::optional<TypeIIWitness> narrow2 = detector.FindTypeIICycle(mask, scratch);
      std::optional<TypeIIWitness> wide2 = detector.FindTypeIICycle(wide, scratch);
      ASSERT_EQ(narrow2.has_value(), wide2.has_value()) << context << " mask=" << mask;
      if (narrow2.has_value()) {
        EXPECT_EQ(wide2->Describe(t.graph), narrow2->Describe(t.graph))
            << context << " mask=" << mask;
      }
    }
  }
}

TEST(MaskedDetectorWideMaskTest, WideAndNarrowEncodingsAgreeIncludingWitnesses) {
  for (const Workload& workload : {MakeSmallBank(), MakeAuction()}) {
    for (IsolationLevel isolation : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      for (const AnalysisSettings& base :
           {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDepFk()}) {
        const AnalysisSettings settings = base.WithIsolation(isolation);
        ExpectWideNarrowParity(workload.programs, settings,
                               workload.name + " / " + settings.name());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// --- Core-guided vs the per-mask oracle sweep, within its range.

void ExpectCoreGuidedMatchesExhaustive(const std::vector<Btp>& programs,
                                       const AnalysisSettings& settings, Method method,
                                       const std::string& context) {
  GraphUnderTest t = Build(programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());

  const SubsetReport exhaustive = oracle::SweepSubsets(detector, method);
  CoreSearchStats stats;
  Result<SubsetReport> result =
      AnalyzeSubsetsCoreGuided(detector, method, nullptr, &stats);
  ASSERT_TRUE(result.ok()) << context;
  const SubsetReport& report = result.value();

  // Bit-identical verdicts, maximal sets and cores (the oracle's cores are
  // the minimal non-robust subsets of its verdict list).
  EXPECT_TRUE(report.from_core_search) << context;
  EXPECT_EQ(report.robust_masks, exhaustive.robust_masks) << context;
  EXPECT_EQ(report.maximal_masks, exhaustive.maximal_masks) << context;
  EXPECT_EQ(report.maximal_sets, exhaustive.maximal_sets) << context;
  EXPECT_EQ(report.cores, exhaustive.cores) << context;

  // Both IsRobustSubset overloads agree with the oracle on every mask: the
  // uint32_t form reads robust_masks, the ProgramSet form the cores.
  const int n = static_cast<int>(programs.size());
  const uint32_t full = (uint32_t{1} << n) - 1;
  for (uint32_t mask = 0; mask <= full; ++mask) {
    const bool expected = std::binary_search(exhaustive.robust_masks.begin(),
                                             exhaustive.robust_masks.end(), mask);
    EXPECT_EQ(report.IsRobustSubset(mask), expected) << context << " mask=" << mask;
    EXPECT_EQ(report.IsRobustSubset(ProgramSet::FromMask(mask, n)), expected)
        << context << " mask=" << mask;
  }

  // Accounting: the stats decompose the total query count.
  EXPECT_EQ(stats.detector_queries, stats.candidate_queries + stats.shrink_queries) << context;
  EXPECT_EQ(report.detector_queries, stats.detector_queries) << context;
  EXPECT_GT(stats.rounds, 0) << context;
}

class CoreSearchRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CoreSearchRandomTest, MatchesExhaustiveSweepUnderBothPolicies) {
  test_support::RandomWorkloadGen gen(GetParam() * 6271 + 17);
  Schema schema;
  std::vector<Btp> programs = gen.Generate(schema);
  for (IsolationLevel isolation : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
    for (const AnalysisSettings& base :
         {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDepFk()}) {
      const AnalysisSettings settings = base.WithIsolation(isolation);
      const std::string context =
          "seed=" + std::to_string(GetParam()) + " / " + settings.name();
      ExpectCoreGuidedMatchesExhaustive(programs, settings, Method::kTypeII, context);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Type-I coverage (the policy-independent witness path) on one setting.
  ExpectCoreGuidedMatchesExhaustive(programs, AnalysisSettings::AttrDepFk(), Method::kTypeI,
                                    "seed=" + std::to_string(GetParam()) + " / type1");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreSearchRandomTest, ::testing::Range(0, 20));

TEST(CoreSearchBuiltinTest, MatchesExhaustiveOnSmallBankAndAuction) {
  for (const Workload& workload : {MakeSmallBank(), MakeAuction(), MakeAuctionN(3)}) {
    for (IsolationLevel isolation : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      const AnalysisSettings settings = AnalysisSettings::AttrDepFk().WithIsolation(isolation);
      ExpectCoreGuidedMatchesExhaustive(workload.programs, settings, Method::kTypeII,
                                        workload.name + " / " + settings.name());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- Entry-point parity: TryAnalyzeSubsetsCoreGuided and AnalyzeSubsets
// build the same graph pipeline and agree with the oracle sweep.

TEST(CoreSearchEntryPointTest, TryAnalyzeMatchesSweepAndCountsQueries) {
  Workload workload = MakeAuctionN(3);
  const AnalysisSettings settings = AnalysisSettings::AttrDepFk();
  const SubsetReport exhaustive =
      oracle::SweepSubsets(workload.programs, settings, Method::kTypeII);
  CoreSearchStats stats;
  Result<SubsetReport> result =
      TryAnalyzeSubsetsCoreGuided(workload.programs, settings, Method::kTypeII, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().robust_masks, exhaustive.robust_masks);
  EXPECT_EQ(result.value().maximal_masks, exhaustive.maximal_masks);
  EXPECT_GT(stats.detector_queries, 0);

  SubsetReport per_mask = AnalyzeSubsets(workload.programs, settings, Method::kTypeII);
  EXPECT_TRUE(per_mask.from_core_search);
  EXPECT_EQ(per_mask.robust_masks, exhaustive.robust_masks);
  EXPECT_EQ(per_mask.maximal_masks, exhaustive.maximal_masks);
  EXPECT_EQ(per_mask.cores, result.value().cores);
  EXPECT_EQ(per_mask.detector_queries, stats.detector_queries);
}

// --- The narrow hooks of the per-mask entry points, lifted onto the wide
// pair: consulted before the detector, fed once per evaluated mask, and
// never called concurrently.

TEST(CoreSearchEntryPointTest, NarrowHooksAreLiftedSerializedAndFedOncePerMask) {
  Workload workload = MakeAuctionN(4);  // 8 programs
  const AnalysisSettings settings = AnalysisSettings::AttrDep();
  GraphUnderTest t = Build(workload.programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
  const SubsetReport exhaustive = oracle::SweepSubsets(detector, Method::kTypeII);

  std::map<uint32_t, bool> stored;
  int duplicate_stores = 0;
  std::atomic<int> in_flight{0};
  std::atomic<int> overlaps{0};
  SubsetSweepHooks hooks;
  hooks.lookup = [&](uint32_t mask) -> std::optional<bool> {
    if (++in_flight > 1) ++overlaps;
    std::optional<bool> verdict;
    auto it = stored.find(mask);
    if (it != stored.end()) verdict = it->second;
    --in_flight;
    return verdict;
  };
  hooks.store = [&](uint32_t mask, bool robust) {
    if (++in_flight > 1) ++overlaps;
    if (!stored.emplace(mask, robust).second) ++duplicate_stores;
    --in_flight;
  };

  Result<SubsetReport> cold = AnalyzeSubsetsOnDetector(detector, Method::kTypeII, &hooks);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().robust_masks, exhaustive.robust_masks);
  EXPECT_EQ(cold.value().maximal_masks, exhaustive.maximal_masks);
  EXPECT_FALSE(stored.empty());
  EXPECT_LE(static_cast<int64_t>(stored.size()), cold.value().detector_queries);
  EXPECT_EQ(duplicate_stores, 0);
  EXPECT_EQ(overlaps.load(), 0);
  // Every stored verdict is the detector's.
  DetectorScratch scratch = detector.MakeScratch();
  for (const auto& [mask, robust] : stored) {
    EXPECT_EQ(robust, detector.IsRobust(mask, Method::kTypeII, scratch)) << "mask=" << mask;
  }

  // A warm run answers every query from the narrow lookup.
  const size_t stored_before = stored.size();
  Result<SubsetReport> warm = AnalyzeSubsetsOnDetector(detector, Method::kTypeII, &hooks);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().detector_queries, 0);
  EXPECT_EQ(stored.size(), stored_before);
  EXPECT_EQ(warm.value().robust_masks, exhaustive.robust_masks);
  EXPECT_EQ(overlaps.load(), 0);
}

TEST(CoreSearchEntryPointTest, ProgramCountBoundsAreErrors) {
  Workload workload = MakeSmallBank();
  const std::vector<Btp> empty;
  Result<SubsetReport> none =
      TryAnalyzeSubsetsCoreGuided(empty, AnalysisSettings::AttrDepFk(), Method::kTypeII);
  EXPECT_FALSE(none.ok());

  std::vector<Btp> too_many;
  for (int i = 0; i < kMaxCoreSearchPrograms + 1; ++i) {
    too_many.insert(too_many.end(), workload.programs.begin(), workload.programs.end());
    if (static_cast<int>(too_many.size()) > kMaxCoreSearchPrograms) break;
  }
  too_many.resize(kMaxCoreSearchPrograms + 1, workload.programs[0]);
  Result<SubsetReport> over = TryAnalyzeSubsetsCoreGuided(
      too_many, AnalysisSettings::AttrDepFk(), Method::kTypeII);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.error().find(std::to_string(kMaxCoreSearchPrograms)), std::string::npos);
}

// --- The wide regime (n > kMaxSubsetPrograms): no oracle can enumerate, so
// the lattice is verified against the detector directly.

void ExpectLatticeConsistent(const MaskedDetector& detector, const SubsetReport& report,
                             Method method, const std::string& context) {
  DetectorScratch scratch = detector.MakeScratch();
  const int n = detector.num_programs();

  // Every core is non-robust and minimal: dropping any single program makes
  // it robust.
  for (const ProgramSet& core : report.cores) {
    EXPECT_FALSE(detector.IsRobust(core, method, scratch)) << context;
    for (int p : core.ToIndices()) {
      EXPECT_TRUE(detector.IsRobust(core.Without(p), method, scratch))
          << context << " core minus " << p;
    }
  }

  // Every maximal set is robust and maximal: adding any program admits a
  // counterexample.
  for (const ProgramSet& maximal : report.maximal_sets) {
    EXPECT_TRUE(detector.IsRobust(maximal, method, scratch)) << context;
    for (int p = 0; p < n; ++p) {
      if (maximal.Test(p)) continue;
      EXPECT_FALSE(detector.IsRobust(maximal.With(p), method, scratch))
          << context << " maximal plus " << p;
    }
  }

  // Core and maximal families are antichains (pairwise incomparable).
  for (size_t i = 0; i < report.cores.size(); ++i) {
    for (size_t j = 0; j < report.cores.size(); ++j) {
      if (i != j) EXPECT_FALSE(report.cores[i].ContainsAll(report.cores[j])) << context;
    }
  }
  for (size_t i = 0; i < report.maximal_sets.size(); ++i) {
    for (size_t j = 0; j < report.maximal_sets.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(report.maximal_sets[i].ContainsAll(report.maximal_sets[j])) << context;
      }
    }
  }

  // Sampled subsets: the lattice answer equals the detector's.
  std::mt19937_64 rng(20230807);
  for (int sample = 0; sample < 200; ++sample) {
    ProgramSet subset(n);
    for (int p = 0; p < n; ++p) {
      if ((rng() & 1) != 0) subset.Set(p);
    }
    if (subset.Empty()) continue;
    EXPECT_EQ(report.IsRobustSubset(subset), detector.IsRobust(subset, method, scratch))
        << context << " sample=" << sample;
  }
}

TEST(CoreSearchWideTest, AuctionN12LatticeIsDetectorConsistent) {
  Workload workload = MakeAuctionN(12);  // 24 programs: past the exhaustive cap
  ASSERT_EQ(workload.programs.size(), 24u);
  // Without the foreign-key constraints Auction(n) is non-robust (the
  // attr+FK setting is the paper's positive result and would make every
  // subset robust — a trivial lattice).
  const AnalysisSettings settings = AnalysisSettings::AttrDep();
  GraphUnderTest t = Build(workload.programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
  CoreSearchStats stats;
  Result<SubsetReport> result =
      AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, nullptr, &stats);
  ASSERT_TRUE(result.ok());
  const SubsetReport& report = result.value();
  EXPECT_TRUE(report.from_core_search);
  EXPECT_TRUE(report.robust_masks.empty());  // past the materialization range
  EXPECT_FALSE(report.cores.empty());        // Auction(n) is never fully robust
  EXPECT_FALSE(report.maximal_sets.empty());
  // n <= 32: the mask mirror of the maximal sets is still provided.
  ASSERT_EQ(report.maximal_masks.size(), report.maximal_sets.size());
  for (size_t i = 0; i < report.maximal_sets.size(); ++i) {
    EXPECT_EQ(report.maximal_sets[i].ToMask(), report.maximal_masks[i]);
  }
  ExpectLatticeConsistent(detector, report, Method::kTypeII, "auction12");

  // The whole point: detector work is nowhere near the 2^24 - 1 sweeps the
  // exhaustive path would need.
  EXPECT_LT(stats.detector_queries, int64_t{1} << 20);
}

TEST(CoreSearchWideTest, RandomWideWorkloadsAreDetectorConsistent) {
  // Random 22-program workloads under both policies: structure-free cores.
  for (int seed : {1, 2}) {
    test_support::RandomWorkloadGen gen(seed * 9173 + 5);
    Schema schema;
    std::vector<Btp> programs = gen.Generate(schema, 22);
    for (IsolationLevel isolation : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      const AnalysisSettings settings =
          AnalysisSettings::AttrDepFk().WithIsolation(isolation);
      GraphUnderTest t = Build(programs, settings);
      MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
      Result<SubsetReport> result = AnalyzeSubsetsCoreGuided(detector, Method::kTypeII);
      ASSERT_TRUE(result.ok());
      ExpectLatticeConsistent(detector, result.value(), Method::kTypeII,
                              "wide seed=" + std::to_string(seed) + " / " + settings.name());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- Wide verdict-cache hooks: a second search over a warm cache answers
// every query from the hooks and still produces the identical report.

TEST(CoreSearchWideHooksTest, WarmCacheAnswersEveryQuery) {
  Workload workload = MakeAuctionN(12);  // 24 programs: wide regime
  const AnalysisSettings settings = AnalysisSettings::AttrDep();
  GraphUnderTest t = Build(workload.programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());

  std::vector<std::pair<std::string, int64_t>> members;
  for (const Btp& program : workload.programs) members.emplace_back(program.name(), 1);
  const WideFingerprinter fingerprinter(settings.ToString(),
                                        static_cast<int>(Method::kTypeII), members);
  VerdictCache cache;
  SubsetSweepHooks hooks;
  hooks.wide_lookup = [&](const ProgramSet& subset) {
    return cache.Lookup(fingerprinter.Of(subset));
  };
  hooks.wide_store = [&](const ProgramSet& subset, bool robust) {
    cache.Store(fingerprinter.Of(subset), robust);
  };

  CoreSearchStats cold_stats;
  Result<SubsetReport> cold =
      AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, &hooks, &cold_stats);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold_stats.detector_queries, 0);
  EXPECT_GT(cold_stats.cache_misses, 0);
  EXPECT_GT(cache.size(), 0u);

  // Warm run: every IsRobust evaluation — candidates and shrink tests — hits
  // the cache; the detector is never consulted and the report is unchanged.
  CoreSearchStats warm_stats;
  Result<SubsetReport> warm =
      AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, &hooks, &warm_stats);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm_stats.detector_queries, 0);
  EXPECT_EQ(warm_stats.cache_misses, 0);
  EXPECT_GT(warm_stats.cache_hits, 0);
  EXPECT_GT(warm_stats.hook_hits, 0);
  EXPECT_EQ(warm.value().cores, cold.value().cores);
  EXPECT_EQ(warm.value().maximal_sets, cold.value().maximal_sets);
}

// The SubsetSweepHooks contract: the search invokes the wide callbacks on
// the calling thread only, and never two at once, so they need no locking.
TEST(CoreSearchWideHooksTest, HooksRunOnlyOnTheCallingThread) {
  Workload workload = MakeAuctionN(12);  // 24 programs: wide regime
  const AnalysisSettings settings = AnalysisSettings::AttrDep();
  GraphUnderTest t = Build(workload.programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());

  const std::thread::id caller = std::this_thread::get_id();
  std::map<ProgramSet, bool> cache;
  int calls = 0;
  int foreign_calls = 0;
  int in_flight = 0;
  int overlaps = 0;
  auto enter = [&] {
    ++calls;
    if (std::this_thread::get_id() != caller) ++foreign_calls;
    if (++in_flight > 1) ++overlaps;
  };
  SubsetSweepHooks hooks;
  hooks.wide_lookup = [&](const ProgramSet& subset) -> std::optional<bool> {
    enter();
    std::optional<bool> verdict;
    auto it = cache.find(subset);
    if (it != cache.end()) verdict = it->second;
    --in_flight;
    return verdict;
  };
  hooks.wide_store = [&](const ProgramSet& subset, bool robust) {
    enter();
    cache.emplace(subset, robust);
    --in_flight;
  };

  Result<SubsetReport> result = AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, &hooks);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(calls, 0);
  EXPECT_EQ(foreign_calls, 0);
  EXPECT_EQ(overlaps, 0);
  ExpectLatticeConsistent(detector, result.value(), Method::kTypeII, "auction12 hooks");
}

TEST(CoreSearchOptionsTest, LatticeBlowupIsAnErrorNotAnOom) {
  // SmallBank under tuple dep has three maximal robust subsets, so the
  // hitting-set family necessarily grows past a single hypothesis before the
  // search converges. (Auction would not do: its cores are singletons, so its
  // family never holds more than one set at a time.)
  Workload workload = MakeSmallBank();
  const AnalysisSettings settings = AnalysisSettings::TupleDep();
  GraphUnderTest t = Build(workload.programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
  CoreSearchOptions options;
  options.max_lattice_sets = 1;  // below SmallBank's real family of 3
  Result<SubsetReport> result =
      AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, nullptr, nullptr, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("max_lattice_sets"), std::string::npos);
}

}  // namespace
}  // namespace mvrc
