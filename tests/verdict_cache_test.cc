// Direct unit coverage for robust/verdict_cache plus the fingerprint
// semantics the analysis service builds on it: hits and misses are
// accounted, revisions bump cached verdicts out exactly when a mutation
// changes a program's incident edges, and fingerprints keyed under
// different isolation levels never collide. Fingerprint distinctness is
// checked over exhaustively enumerated subset families and per-member
// revision changes; through sessions, `check` and both subset regimes are
// shown to share one key space, and — through a >32-program session —
// cross-mutation cache hits in the core-guided regime.

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "robust/core_search.h"
#include "robust/program_set.h"
#include "robust/verdict_cache.h"
#include "service/workload_session.h"
#include "workloads/auction.h"
#include "workloads/policy_demo.h"
#include "workloads/smallbank.h"

namespace mvrc {
namespace {

std::vector<std::pair<std::string, int64_t>> MakeMembers(int n, int64_t revision = 1) {
  std::vector<std::pair<std::string, int64_t>> members;
  for (int i = 0; i < n; ++i) members.emplace_back("P" + std::to_string(i), revision);
  return members;
}

// The fingerprint of {P0, P1} over a three-member list.
WideFingerprint SomeKey() {
  const WideFingerprinter fp("ctx", 1, MakeMembers(3));
  return fp.Of(ProgramSet::FromMask(0b011, 3));
}

TEST(VerdictCacheTest, LookupMissThenHit) {
  VerdictCache cache;
  const WideFingerprint k1 = SomeKey();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(k1).has_value());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  cache.Store(k1, true);
  EXPECT_EQ(cache.size(), 1u);
  std::optional<bool> verdict = cache.Lookup(k1);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_TRUE(*verdict);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(VerdictCacheTest, StoreOverwritesAndClearEmpties) {
  VerdictCache cache;
  const WideFingerprint k = SomeKey();
  cache.Store(k, true);
  cache.Store(k, false);
  EXPECT_EQ(cache.size(), 1u);
  std::optional<bool> verdict = cache.Lookup(k);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_FALSE(*verdict);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(k).has_value());
  // Counters survive Clear (they describe the cache's lifetime service).
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

// Fingerprints under different isolation levels are distinct keys even for
// the same program set, method and revisions — the convention
// WorkloadSession::WideFingerprinterLocked implements by seeding the
// fingerprinter with the settings string.
TEST(VerdictCacheTest, IsolationLevelsDoNotCollide) {
  VerdictCache cache;
  const std::vector<std::pair<std::string, int64_t>> members = {{"Monitor", 1},
                                                                 {"Refresh", 2}};
  const ProgramSet both = ProgramSet::Full(2);
  const WideFingerprint mvrc_key =
      WideFingerprinter(AnalysisSettings::AttrDepFk().ToString(), 1, members).Of(both);
  const WideFingerprint rc_key =
      WideFingerprinter(
          AnalysisSettings::AttrDepFk().WithIsolation(IsolationLevel::kRc).ToString(), 1,
          members)
          .Of(both);
  ASSERT_NE(mvrc_key, rc_key);
  cache.Store(mvrc_key, false);
  cache.Store(rc_key, true);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(mvrc_key), std::optional<bool>(false));
  EXPECT_EQ(cache.Lookup(rc_key), std::optional<bool>(true));
}

// --- Wide fingerprints past the uint32_t mask range. -----------------------

TEST(VerdictCacheWideTest, WideLookupStoreAndClear) {
  const WideFingerprinter fp("ctx", 1, MakeMembers(40));
  VerdictCache cache;
  ProgramSet subset(40);
  subset.Set(0);
  subset.Set(33);  // crosses the uint32_t boundary

  EXPECT_FALSE(cache.Lookup(fp.Of(subset)).has_value());
  EXPECT_EQ(cache.misses(), 1);
  cache.Store(fp.Of(subset), true);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(fp.Of(subset)), std::optional<bool>(true));
  EXPECT_EQ(cache.hits(), 1);

  // Any other subset is one more key of the same map.
  ProgramSet other(40);
  other.Set(2);
  cache.Store(fp.Of(other), false);
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(fp.Of(subset)).has_value());
}

// Collision safety: every one of the 2^16 subsets of a 16-member list maps
// to a distinct fingerprint, as do thousands of random subsets of a
// 40-member list (where exhaustive enumeration is out of reach).
TEST(VerdictCacheWideTest, FingerprintsAreCollisionFreeOverEnumeratedFamilies) {
  {
    const int n = 16;
    const WideFingerprinter fp("ctx", 1, MakeMembers(n));
    std::set<std::pair<uint64_t, uint64_t>> seen;
    for (uint32_t mask = 0; mask < (uint32_t{1} << n); ++mask) {
      const WideFingerprint f = fp.Of(ProgramSet::FromMask(mask, n));
      EXPECT_TRUE(seen.insert({f.hi, f.lo}).second) << "collision at mask " << mask;
    }
  }
  {
    const int n = 40;
    const WideFingerprinter fp("ctx", 1, MakeMembers(n));
    std::set<std::pair<uint64_t, uint64_t>> seen;
    std::set<std::vector<int>> distinct;
    std::mt19937_64 rng(7);
    for (int s = 0; s < 20000; ++s) {
      ProgramSet subset(n);
      for (int p = 0; p < n; ++p) {
        if ((rng() & 1) != 0) subset.Set(p);
      }
      if (!distinct.insert(subset.ToIndices()).second) continue;
      const WideFingerprint f = fp.Of(subset);
      EXPECT_TRUE(seen.insert({f.hi, f.lo}).second) << "collision at sample " << s;
    }
  }
}

// Bumping one member's revision changes exactly the fingerprints of subsets
// containing that member, and different contexts/methods never share
// fingerprints even for identical member lists.
TEST(VerdictCacheWideTest, RevisionContextAndMethodAllSeparateFingerprints) {
  const int n = 36;
  auto members = MakeMembers(n);
  const WideFingerprinter before("ctx", 1, members);
  members[5].second = 2;  // P5's incident edges changed
  const WideFingerprinter after("ctx", 1, members);
  const WideFingerprinter other_method("ctx", 2, MakeMembers(n));
  const WideFingerprinter other_ctx("ctx2", 1, MakeMembers(n));

  std::mt19937_64 rng(11);
  int with5 = 0, without5 = 0;
  for (int s = 0; s < 500; ++s) {
    ProgramSet subset(n);
    for (int p = 0; p < n; ++p) {
      if ((rng() & 1) != 0) subset.Set(p);
    }
    if (subset.Empty()) continue;
    if (subset.Test(5)) {
      EXPECT_NE(before.Of(subset), after.Of(subset)) << "sample " << s;
      ++with5;
    } else {
      EXPECT_EQ(before.Of(subset), after.Of(subset)) << "sample " << s;
      ++without5;
    }
    EXPECT_NE(before.Of(subset), other_method.Of(subset)) << "sample " << s;
    EXPECT_NE(before.Of(subset), other_ctx.Of(subset)) << "sample " << s;
  }
  EXPECT_GT(with5, 0);
  EXPECT_GT(without5, 0);
}

// --- Revision semantics through WorkloadSession. --------------------------

// Replacing a program with an equivalent one preserves cached verdicts;
// replacing it with one that changes incident edges invalidates them.
TEST(VerdictCacheSessionTest, RevisionBumpInvalidates) {
  Workload workload = MakeSmallBank();
  WorkloadSession session("s", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session.LoadWorkload(workload).ok());

  CheckResult first = session.Check();
  EXPECT_FALSE(first.from_cache);
  CheckResult second = session.Check();
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.robust, first.robust);

  // Identity replace: same program, same incident edges — the revision (and
  // with it the cached verdict) survives.
  ASSERT_TRUE(session.ReplaceProgram(workload.programs[0]).ok());
  CheckResult after_identity = session.Check();
  EXPECT_TRUE(after_identity.from_cache);

  // Mutating replace: drop the program's statements down to a single read —
  // incident edges change, the revision bumps, the verdict must be
  // recomputed.
  Btp reduced(workload.programs[0].name());
  reduced.AddStatement(Statement::KeySelect(
      "q1", workload.schema, 0, workload.schema.MakeAttrSet(0, {"CustomerId"})));
  ASSERT_TRUE(session.ReplaceProgram(reduced).ok());
  CheckResult after_mutation = session.Check();
  EXPECT_FALSE(after_mutation.from_cache);
}

// Two sessions over the same programs under different isolation levels keep
// independent verdicts: the demo workload is non-robust under MVRC and
// robust under lock-based RC.
TEST(VerdictCacheSessionTest, IsolationLevelsKeepIndependentVerdicts) {
  Workload demo = MakeIsolationDemo();

  WorkloadSession mvrc_session("mvrc", AnalysisSettings::AttrDepFk());
  WorkloadSession rc_session(
      "rc", AnalysisSettings::AttrDepFk().WithIsolation(IsolationLevel::kRc));
  ASSERT_TRUE(mvrc_session.LoadWorkload(demo).ok());
  ASSERT_TRUE(rc_session.LoadWorkload(demo).ok());

  CheckResult mvrc_result = mvrc_session.Check();
  CheckResult rc_result = rc_session.Check();
  EXPECT_FALSE(mvrc_result.robust);
  EXPECT_FALSE(mvrc_result.witness.empty());
  EXPECT_TRUE(rc_result.robust);
  EXPECT_TRUE(rc_result.witness.empty());

  // Both serve their own cached verdict on re-check.
  EXPECT_TRUE(mvrc_session.Check().from_cache);
  EXPECT_TRUE(rc_session.Check().from_cache);
  EXPECT_FALSE(mvrc_session.Check().robust);
  EXPECT_TRUE(rc_session.Check().robust);
}

// One key space past 32 programs: a `check` stores the full set's verdict
// under the fingerprint the core-guided search looks up for its first
// candidate, so the `subsets` that follows pays exactly one detector query
// less than on a session that never checked. Replacing a program keeps the
// check cached when its incident edges are unchanged, and not otherwise.
TEST(VerdictCacheSessionTest, CheckAndSubsetsShareOneKeySpacePast32Programs) {
  Workload workload = MakeAuctionN(17);  // 34 programs: core-guided regime
  ASSERT_EQ(workload.programs.size(), 34u);
  const AnalysisSettings settings = AnalysisSettings::AttrDep();  // non-robust

  WorkloadSession unchecked("unchecked", settings);
  ASSERT_TRUE(unchecked.LoadWorkload(workload).ok());
  Result<SubsetReport> reference = unchecked.Subsets();
  ASSERT_TRUE(reference.ok());
  const int64_t reference_queries = unchecked.stats().detector_runs;

  WorkloadSession session("checked", settings);
  ASSERT_TRUE(session.LoadWorkload(workload).ok());
  CheckResult check = session.Check();
  EXPECT_FALSE(check.from_cache);
  EXPECT_FALSE(check.robust);
  EXPECT_FALSE(check.witness.empty());
  EXPECT_EQ(session.stats().detector_runs, 1);

  Result<SubsetReport> subsets = session.Subsets();
  ASSERT_TRUE(subsets.ok());
  EXPECT_TRUE(subsets.value().from_core_search);
  EXPECT_EQ(subsets.value().cores, reference.value().cores);
  EXPECT_EQ(subsets.value().maximal_sets, reference.value().maximal_sets);
  // The full-set candidate came from the cache: one query fewer in total
  // than the unchecked session, the check's own query included.
  EXPECT_EQ(subsets.value().detector_queries, reference.value().detector_queries - 1);
  EXPECT_EQ(session.stats().detector_runs, reference_queries);

  // And the other way round: a subset analysis stores the full set's
  // verdict where `check` finds it.
  CheckResult after_subsets = unchecked.Check();
  EXPECT_TRUE(after_subsets.from_cache);
  EXPECT_FALSE(after_subsets.robust);

  // Edge-preserving replace: the revision survives and `check` stays cached.
  ASSERT_TRUE(session.ReplaceProgram(workload.programs[0]).ok());
  CheckResult after_identity = session.Check();
  EXPECT_TRUE(after_identity.from_cache);
  EXPECT_FALSE(after_identity.robust);

  // Edge-changing replace: FindBids without its predicate read on Bids
  // loses edges, so the revision bumps and `check` runs the detector again.
  const Btp& find_bids = workload.programs[0];
  Btp reduced(find_bids.name());
  reduced.AddStatement(find_bids.statement(0));
  ASSERT_TRUE(session.ReplaceProgram(reduced).ok());
  const int64_t runs_before = session.stats().detector_runs;
  CheckResult after_mutation = session.Check();
  EXPECT_FALSE(after_mutation.from_cache);
  EXPECT_EQ(session.stats().detector_runs, runs_before + 1);
}

// Cross-mutation memoization past 32 programs: a 34-program session's
// core-guided subset analyses hit the wide cache across mutations that
// preserve member revisions, and keep reporting the exact lattice a
// from-scratch analysis computes after a real mutation.
TEST(VerdictCacheSessionTest, WideFingerprintsMemoizeAcrossMutationsPast32Programs) {
  Workload workload = MakeAuctionN(17);  // 34 programs: wide fingerprints only
  ASSERT_EQ(workload.programs.size(), 34u);
  // No-FK attr dep: the per-item bid programs are individually non-robust,
  // so the lattice is non-trivial and the search issues real queries.
  const AnalysisSettings settings = AnalysisSettings::AttrDep();
  WorkloadSession session("wide", settings);
  ASSERT_TRUE(session.LoadWorkload(workload).ok());

  static Counter* hits_metric = MetricsRegistry::Global().counter("core.cache_hits");
  static Counter* misses_metric = MetricsRegistry::Global().counter("core.cache_misses");

  const int64_t misses_before = misses_metric->Value();
  Result<SubsetReport> first = session.Subsets();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().from_core_search);
  const int64_t runs_after_first = session.stats().detector_runs;
  EXPECT_GT(runs_after_first, 0);
  EXPECT_GT(misses_metric->Value(), misses_before);  // cold cache: real queries

  // Identity replace: incident edges unchanged, revisions preserved — the
  // re-analysis answers every IsRobust evaluation from the wide cache.
  ASSERT_TRUE(session.ReplaceProgram(workload.programs[0]).ok());
  const int64_t hits_before = hits_metric->Value();
  Result<SubsetReport> second = session.Subsets();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session.stats().detector_runs, runs_after_first);  // zero new queries
  EXPECT_GT(hits_metric->Value(), hits_before);  // served by cross-mutation hits
  EXPECT_EQ(second.value().cores, first.value().cores);
  EXPECT_EQ(second.value().maximal_sets, first.value().maximal_sets);

  // Real mutation: removing a program shifts bit positions, but fingerprints
  // follow member identity, so verdicts of surviving subsets still hit; the
  // report matches a from-scratch analysis of the reduced workload.
  ASSERT_TRUE(session.RemoveProgram(workload.programs[0].name()).ok());
  const int64_t hits_before_removal = hits_metric->Value();
  Result<SubsetReport> third = session.Subsets();
  ASSERT_TRUE(third.ok());
  EXPECT_GT(hits_metric->Value(), hits_before_removal);

  std::vector<Btp> remaining(workload.programs.begin() + 1, workload.programs.end());
  Result<SubsetReport> fresh =
      TryAnalyzeSubsetsCoreGuided(remaining, settings, Method::kTypeII);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(third.value().cores, fresh.value().cores);
  EXPECT_EQ(third.value().maximal_sets, fresh.value().maximal_sets);
}

}  // namespace
}  // namespace mvrc
