#include "robust/core_search.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/masked_detector.h"
#include "summary/build_summary.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mvrc {

namespace {

// IsRobust with wide-hook memoization: `wide` is non-null only when both
// wide callbacks are set, in which case a cached verdict (robust OR
// non-robust — the hook contract guarantees correctness) skips the detector
// and every detector answer is stored back.
bool MemoizedIsRobust(const MaskedDetector& detector, Method method, const ProgramSet& subset,
                      DetectorScratch& scratch, const SubsetSweepHooks* wide,
                      int64_t& query_bucket, int64_t& cache_hits, int64_t& cache_misses) {
  if (wide != nullptr) {
    std::optional<bool> cached = wide->wide_lookup(subset);
    if (cached.has_value()) {
      ++cache_hits;
      return *cached;
    }
    ++cache_misses;
  }
  ++query_bucket;
  const bool robust = detector.IsRobust(subset, method, scratch);
  if (wide != nullptr) wide->wide_store(subset, robust);
  return robust;
}

// The programs on the counterexample cycle the detector finds in
// `candidate` — a non-robust support: restricting to exactly these programs
// keeps every node and edge of the witness cycle active, so the cycle
// survives and the support fails the same test. Witness node indices are
// full-graph LTP nodes; `node_program` maps them back to mask bits.
ProgramSet WitnessSupport(const MaskedDetector& detector, Method method,
                          const ProgramSet& candidate, const std::vector<int>& node_program,
                          DetectorScratch& scratch) {
  ProgramSet support(detector.num_programs());
  auto add_node = [&](int node) { support.Set(node_program[node]); };
  auto add_path = [&](const std::vector<int>& path) {
    for (int node : path) add_node(node);
  };
  if (method == Method::kTypeI) {
    std::optional<TypeIWitness> witness = detector.FindTypeICycle(candidate, scratch);
    MVRC_CHECK_MSG(witness.has_value(), "non-robust candidate must yield a type-I witness");
    add_node(witness->edge.from_program);
    add_node(witness->edge.to_program);
    add_path(witness->return_path);
  } else if (detector.policy().closure() == CycleClosure::kDirect) {
    std::optional<RcSplitWitness> witness = detector.FindRcSplitCycle(candidate, scratch);
    MVRC_CHECK_MSG(witness.has_value(), "non-robust candidate must yield a split witness");
    add_node(witness->incoming.from_program);
    add_node(witness->incoming.to_program);
    add_node(witness->outgoing.from_program);
    add_node(witness->outgoing.to_program);
    add_path(witness->return_path);
  } else {
    std::optional<TypeIIWitness> witness = detector.FindTypeIICycle(candidate, scratch);
    MVRC_CHECK_MSG(witness.has_value(), "non-robust candidate must yield a type-II witness");
    add_node(witness->e1.from_program);
    add_node(witness->e1.to_program);
    add_node(witness->e3.from_program);
    add_node(witness->e3.to_program);
    add_node(witness->e4.from_program);
    add_node(witness->e4.to_program);
    add_path(witness->path_p2_to_p3);
    add_path(witness->path_p5_to_p1);
  }
  return support;
}

// Greedy minimization of a non-robust set: drop each element whose removal
// keeps the set non-robust. One ascending pass is enough — when element p
// survives, the set tested was S_t \ {p} and was robust, and the final set
// minus p is a subset of it, hence robust too (Proposition 5.2). The result
// is therefore non-robust with every proper subset robust: a minimal core.
// Shrink tests go through the wide-hook memo: across mutations the same
// small supports recur constantly, so they are the cache's best customers.
ProgramSet ShrinkToCore(const MaskedDetector& detector, Method method, ProgramSet support,
                        DetectorScratch& scratch, const SubsetSweepHooks* wide,
                        int64_t& shrink_queries, int64_t& cache_hits, int64_t& cache_misses) {
  for (int p : support.ToIndices()) {
    ProgramSet without = support.Without(p);
    if (!MemoizedIsRobust(detector, method, without, scratch, wide, shrink_queries,
                          cache_hits, cache_misses)) {
      support = std::move(without);
    }
  }
  return support;
}

// Berge's incremental hitting-set step for one new core. `unconfirmed`
// holds the minimal hitting sets of the previous core family that are not
// yet verified; `confirmed` holds the verified ones (their complements are
// robust, so they necessarily intersect every non-robust core and stay
// minimal — only the unconfirmed sets need repair). Sets that miss the new
// core are replaced by one-element extensions, then pruned to the minimal
// ones against the whole family.
void BergeUpdate(const ProgramSet& core, const std::vector<ProgramSet>& confirmed,
                 std::vector<ProgramSet>& unconfirmed) {
  std::vector<ProgramSet> keep;
  std::vector<ProgramSet> extended;
  for (ProgramSet& hs : unconfirmed) {
    if (hs.Intersects(core)) {
      keep.push_back(std::move(hs));
    } else {
      for (int e : core.ToIndices()) extended.push_back(hs.With(e));
    }
  }
  // Minimality pruning. Confirmed and kept sets are never strict supersets
  // of an extension (an extension strictly inside one would contradict its
  // minimality for the previous family), so only the extensions need
  // checking — against the family and against each other, smallest first so
  // a dominated extension always meets its dominator before being accepted.
  std::sort(extended.begin(), extended.end(), [](const ProgramSet& a, const ProgramSet& b) {
    const int ca = a.Count(), cb = b.Count();
    return ca != cb ? ca < cb : a < b;
  });
  std::vector<ProgramSet> accepted;
  for (ProgramSet& candidate : extended) {
    bool dominated = false;
    for (const ProgramSet& hs : confirmed) {
      if (candidate.ContainsAll(hs)) {
        dominated = true;
        break;
      }
    }
    for (const ProgramSet& hs : keep) {
      if (dominated) break;
      if (candidate.ContainsAll(hs)) dominated = true;
    }
    for (const ProgramSet& hs : accepted) {
      if (dominated) break;
      if (candidate.ContainsAll(hs)) dominated = true;
    }
    if (!dominated) accepted.push_back(std::move(candidate));
  }
  unconfirmed = std::move(keep);
  unconfirmed.insert(unconfirmed.end(), std::make_move_iterator(accepted.begin()),
                     std::make_move_iterator(accepted.end()));
}

}  // namespace

Result<SubsetReport> AnalyzeSubsetsCoreGuided(const MaskedDetector& detector, Method method,
                                              const SubsetSweepHooks* hooks,
                                              CoreSearchStats* stats,
                                              const CoreSearchOptions& options) {
  const int n = detector.num_programs();
  if (!CoreSearchProgramCountOk(n)) {
    return Result<SubsetReport>::Error(
        "core-guided subset analysis supports 1.." + std::to_string(kMaxCoreSearchPrograms) +
        " programs (got " + std::to_string(n) + ")");
  }
  // The wide hooks, when both are set, memoize every query.
  const SubsetSweepHooks* wide =
      hooks != nullptr && hooks->wide_lookup && hooks->wide_store ? hooks : nullptr;

  TraceSpan span("core/search", "programs=" + std::to_string(n));
  Stopwatch timer;
  static Counter* runs = MetricsRegistry::Global().counter("core_search.runs");
  runs->Add(1);

  std::vector<int> node_program(detector.num_ltps(), -1);
  const std::vector<std::pair<int, int>>& ranges = detector.ltp_range();
  for (int i = 0; i < n; ++i) {
    for (int node = ranges[i].first; node < ranges[i].second; ++node) node_program[node] = i;
  }
  DetectorScratch scratch = detector.MakeScratch();

  CoreSearchStats counts;
  std::vector<ProgramSet> cores;
  std::vector<ProgramSet> confirmed;
  // The empty set is the one minimal hitting set of the empty core family;
  // its complement — the full program set — is round one's candidate.
  std::vector<ProgramSet> unconfirmed{ProgramSet(n)};

  while (!unconfirmed.empty()) {
    ++counts.rounds;
    const size_t batch = unconfirmed.size();
    TraceSpan round_span("core/round", "round=" + std::to_string(counts.rounds) +
                                           " candidates=" + std::to_string(batch));

    // Verdicts first: a robust candidate confirms its hitting set. The
    // complement of a full hitting set is the empty subset, trivially robust
    // (no programs, no cycle); skipping its query keeps the empty set —
    // mask 0 — out of the hook traffic.
    std::vector<ProgramSet> candidates;
    std::vector<char> robust(batch, 0);
    candidates.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      candidates.push_back(unconfirmed[i].Complement());
      if (candidates[i].Empty()) {
        robust[i] = 1;
        continue;
      }
      const int64_t queries_before = counts.candidate_queries;
      robust[i] = MemoizedIsRobust(detector, method, candidates[i], scratch, wide,
                                   counts.candidate_queries, counts.cache_hits,
                                   counts.cache_misses);
      if (wide != nullptr && counts.candidate_queries == queries_before) {
        ++counts.hook_hits;  // the wide cache settled the verdict
      }
    }

    // Then one core per non-robust candidate: its witness cycle's programs,
    // shrunk greedily. Dedup is batch-level (two candidates can shrink onto
    // the same core); cross-batch duplicates are impossible — every
    // candidate contains no previously known core, and cores are pairwise
    // incomparable by minimality.
    std::vector<ProgramSet> new_cores;
    for (size_t i = 0; i < batch; ++i) {
      if (robust[i]) continue;
      ++counts.witness_queries;
      ProgramSet core = ShrinkToCore(
          detector, method, WitnessSupport(detector, method, candidates[i], node_program, scratch),
          scratch, wide, counts.shrink_queries, counts.cache_hits, counts.cache_misses);
      if (std::find(new_cores.begin(), new_cores.end(), core) == new_cores.end()) {
        new_cores.push_back(std::move(core));
      }
    }

    // Split the batch into confirmed hitting sets and survivors, and repair
    // the family.
    std::vector<ProgramSet> still_unconfirmed;
    for (size_t i = 0; i < batch; ++i) {
      if (robust[i]) {
        confirmed.push_back(std::move(unconfirmed[i]));
      } else {
        still_unconfirmed.push_back(std::move(unconfirmed[i]));
      }
    }
    unconfirmed = std::move(still_unconfirmed);
    for (ProgramSet& core : new_cores) {
      BergeUpdate(core, confirmed, unconfirmed);
      cores.push_back(std::move(core));
    }
    const int64_t family =
        static_cast<int64_t>(confirmed.size()) + static_cast<int64_t>(unconfirmed.size());
    if (family > options.max_lattice_sets) {
      return Result<SubsetReport>::Error(
          "core-guided subset analysis exceeded max_lattice_sets = " +
          std::to_string(options.max_lattice_sets) + " maximal-robust-set hypotheses (" +
          std::to_string(cores.size()) + " cores found so far): the verdict lattice of this "
          "workload has no tractable core/maximal-set description");
    }
  }

  // Every minimal hitting set of the final core family is confirmed, so the
  // family is complete: a subset containing no core lies inside some
  // confirmed complement and is robust by downward closure. The maximal
  // robust subsets are exactly those complements (minus the empty set,
  // which is never reported).
  SubsetReport report;
  report.num_programs = n;
  report.from_core_search = true;
  std::sort(cores.begin(), cores.end());
  report.cores = std::move(cores);
  report.maximal_sets.reserve(confirmed.size());
  for (const ProgramSet& hs : confirmed) {
    ProgramSet maximal = hs.Complement();
    if (!maximal.Empty()) report.maximal_sets.push_back(std::move(maximal));
  }
  std::sort(report.maximal_sets.begin(), report.maximal_sets.end());
  if (n <= 32) {
    report.maximal_masks.reserve(report.maximal_sets.size());
    for (const ProgramSet& set : report.maximal_sets) {
      report.maximal_masks.push_back(set.ToMask());
    }
  }
  if (SubsetProgramCountOk(n)) {
    // Materialize the per-mask verdict list from the lattice: a mask is
    // robust iff it contains no core. This bit test is the only loop over
    // all 2^n masks; it makes no detector query.
    std::vector<uint32_t> core_masks;
    core_masks.reserve(report.cores.size());
    for (const ProgramSet& core : report.cores) core_masks.push_back(core.ToMask());
    const uint32_t full = (uint32_t{1} << n) - 1;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      bool above_core = false;
      for (uint32_t core : core_masks) {
        if ((mask & core) == core) {
          above_core = true;
          break;
        }
      }
      if (!above_core) report.robust_masks.push_back(mask);
    }
  }
  counts.detector_queries = counts.candidate_queries + counts.shrink_queries;
  report.detector_queries = counts.detector_queries;
  if (stats != nullptr) *stats = counts;
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* rounds = registry.counter("core_search.rounds");
  static Counter* cores_found = registry.counter("core_search.cores_found");
  static Counter* queries = registry.counter("core_search.detector_queries");
  static Counter* cache_hits = registry.counter("core.cache_hits");
  static Counter* cache_misses = registry.counter("core.cache_misses");
  static Histogram* run_us = registry.histogram("core_search.run_us");
  rounds->Add(counts.rounds);
  cores_found->Add(static_cast<int64_t>(report.cores.size()));
  queries->Add(counts.detector_queries);
  cache_hits->Add(counts.cache_hits);
  cache_misses->Add(counts.cache_misses);
  run_us->Record(timer.ElapsedMicros());
  span.AppendArgs("rounds=" + std::to_string(counts.rounds) +
                  " cores=" + std::to_string(report.cores.size()));
  return report;
}

Result<SubsetReport> TryAnalyzeSubsetsCoreGuided(const std::vector<Btp>& programs,
                                                 const AnalysisSettings& settings,
                                                 Method method, CoreSearchStats* stats,
                                                 const CoreSearchOptions& options) {
  const int n = static_cast<int>(programs.size());
  if (!CoreSearchProgramCountOk(n)) {
    return Result<SubsetReport>::Error(
        "core-guided subset analysis supports 1.." + std::to_string(kMaxCoreSearchPrograms) +
        " programs (got " + std::to_string(n) + ")");
  }

  const ProgramsSummary summary = BuildProgramsSummary(programs, settings);
  MaskedDetector detector(summary.graph, summary.ltp_range, settings.policy());
  return AnalyzeSubsetsCoreGuided(detector, method, nullptr, stats, options);
}

}  // namespace mvrc
