#include "robust/core_search.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "btp/unfold.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/masked_detector.h"
#include "summary/build_summary.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mvrc {

namespace {

// Per-candidate outcome of one round's verdict phase: the verdict plus the
// query/cache counts the worker spent, merged into the stats at the batch
// barrier so no shared counters are touched from workers.
struct CandidateOutcome {
  int verdict = -1;  // -1 unknown, 0 non-robust, 1 robust
  bool trivially_robust = false;  // empty candidate; no detector/hook traffic
  int64_t candidate_queries = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

// One core-extraction work item of the round's second phase: either a whole
// non-robust candidate (verdict already known, witness extraction only) or
// one disjoint chunk of it (probe first; a non-robust chunk localizes a
// core inside itself).
struct ExtractTask {
  size_t candidate = 0;  // batch index of the owning candidate
  ProgramSet subset;
  bool whole = false;
};

// What one extraction task produced, written to a disjoint slot per task.
struct ExtractResult {
  bool have_core = false;
  ProgramSet core;
  int64_t probe_queries = 0;
  int64_t shrink_queries = 0;
  int64_t witness_queries = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

// IsRobust with wide-hook memoization: `wide` is non-null only when both
// wide callbacks are set, in which case a cached verdict (robust OR
// non-robust — the hook contract guarantees correctness) skips the detector
// and every detector answer is stored back. Safe on pool workers: the wide
// callbacks are thread-safe by contract and all counters are caller-local.
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

// Runs fn(worker_slot, i) for i in [0, count): fanned across the pool when
// one is present and there is more than one item, inline on slot 0
// otherwise. Must only be called from the orchestrating thread — the pool
// does not support nested ParallelFor (ThreadPool::Wait would deadlock).
void FanOut(ThreadPool* pool, size_t count, const std::function<void(int, size_t)>& fn) {
  if (pool != nullptr && count > 1) {
    pool->ParallelForWorkers(static_cast<int64_t>(count), [&fn](int worker, int64_t i) {
      fn(worker, static_cast<size_t>(i));
    });
  } else {
    for (size_t i = 0; i < count; ++i) fn(0, i);
  }
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
                                              ThreadPool* pool, const SubsetSweepHooks* hooks,
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

  const int workers = pool != nullptr ? pool->num_threads() : 1;
  std::vector<DetectorScratch> scratches;
  scratches.reserve(workers);
  for (int t = 0; t < workers; ++t) scratches.push_back(detector.MakeScratch());

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
    std::vector<ProgramSet> candidates;
    candidates.reserve(batch);
    for (const ProgramSet& hs : unconfirmed) candidates.push_back(hs.Complement());

    // Phase A prep (calling thread): settle the trivial candidate. Wide-hook
    // lookups happen inside the workers, where either cached verdict
    // settles the candidate (extraction does not need the candidate's own
    // witness query up front).
    std::vector<CandidateOutcome> outcomes(batch);
    std::vector<size_t> todo;
    for (size_t i = 0; i < batch; ++i) {
      if (candidates[i].Empty()) {
        // Complement of the full hitting set: the empty subset, trivially
        // robust (no programs, no cycle). Skipping the query keeps the
        // empty set — mask 0 — out of the hook traffic.
        outcomes[i].verdict = 1;
        outcomes[i].trivially_robust = true;
        continue;
      }
      todo.push_back(i);
    }

    // Phase A: candidate verdicts fan out across the pool; each worker slot
    // owns one scratch, and all counting lands in the per-candidate outcome.
    FanOut(pool, todo.size(), [&](int worker, size_t t) {
      const size_t idx = todo[t];
      CandidateOutcome& out = outcomes[idx];
      out.verdict = MemoizedIsRobust(detector, method, candidates[idx], scratches[worker],
                                     wide, out.candidate_queries, out.cache_hits,
                                     out.cache_misses)
                        ? 1
                        : 0;
    });

    std::vector<size_t> pending;  // non-robust candidates awaiting a core
    for (size_t i = 0; i < batch; ++i) {
      const CandidateOutcome& out = outcomes[i];
      counts.candidate_queries += out.candidate_queries;
      counts.cache_hits += out.cache_hits;
      counts.cache_misses += out.cache_misses;
      if (wide != nullptr && !out.trivially_robust && out.candidate_queries == 0) {
        ++counts.hook_hits;  // the wide cache settled the verdict
      }
      if (out.verdict != 1) pending.push_back(i);
    }

    // Phase B plan (calling thread): when the batch alone fills the pool —
    // or there is no pool — every non-robust candidate takes one
    // whole-candidate extraction (witness, then greedy shrink: the serial
    // path's behavior). Otherwise each candidate is split into disjoint
    // contiguous chunks and the chunks are probed concurrently: a
    // non-robust chunk contains a core and yields it entirely within the
    // chunk (chunk-minimal IS globally minimal — minimality is intrinsic),
    // so a round with a single candidate can surface many cores at once
    // instead of one per round.
    std::vector<ExtractTask> tasks;
    if (pool == nullptr || workers <= 1 ||
        pending.size() >= static_cast<size_t>(2 * workers)) {
      for (size_t i : pending) tasks.push_back({i, candidates[i], true});
    } else if (!pending.empty()) {
      // ~4 tasks per worker slot across the whole phase: enough slack for
      // dynamic balancing without probing uselessly tiny chunks.
      const size_t target = static_cast<size_t>(4) * static_cast<size_t>(workers);
      const size_t per_candidate = (target + pending.size() - 1) / pending.size();
      for (size_t i : pending) {
        const std::vector<int> members = candidates[i].ToIndices();
        const size_t chunks = std::min(per_candidate, members.size());
        if (chunks <= 1) {
          tasks.push_back({i, candidates[i], true});
          continue;
        }
        for (size_t c = 0; c < chunks; ++c) {
          const size_t begin = c * members.size() / chunks;
          const size_t end = (c + 1) * members.size() / chunks;
          ProgramSet chunk(n);
          for (size_t m = begin; m < end; ++m) chunk.Set(members[m]);
          tasks.push_back({i, std::move(chunk), false});
        }
      }
    }

    auto extract = [&](int worker, const ExtractTask& task, ExtractResult& res) {
      DetectorScratch& scratch = scratches[worker];
      if (!task.whole &&
          MemoizedIsRobust(detector, method, task.subset, scratch, wide, res.probe_queries,
                           res.cache_hits, res.cache_misses)) {
        return;  // robust chunk: no core inside
      }
      ++res.witness_queries;
      ProgramSet support =
          WitnessSupport(detector, method, task.subset, node_program, scratch);
      res.core = ShrinkToCore(detector, method, std::move(support), scratch, wide,
                              res.shrink_queries, res.cache_hits, res.cache_misses);
      res.have_core = true;
    };
    std::vector<ExtractResult> results(tasks.size());
    FanOut(pool, tasks.size(),
           [&](int worker, size_t t) { extract(worker, tasks[t], results[t]); });

    // Fallback: a chunked candidate whose chunks all probed robust still
    // owes a core — its witness cycle spans chunk boundaries. Extract from
    // the whole candidate, in parallel across such candidates.
    std::vector<ExtractTask> fallback_tasks;
    {
      std::vector<char> has_core(batch, 0);
      for (size_t t = 0; t < tasks.size(); ++t) {
        if (results[t].have_core) has_core[tasks[t].candidate] = 1;
      }
      for (size_t i : pending) {
        if (!has_core[i]) fallback_tasks.push_back({i, candidates[i], true});
      }
    }
    counts.fallback_extractions += static_cast<int>(fallback_tasks.size());
    std::vector<ExtractResult> fallback_results(fallback_tasks.size());
    FanOut(pool, fallback_tasks.size(), [&](int worker, size_t t) {
      extract(worker, fallback_tasks[t], fallback_results[t]);
    });

    // Barrier: merge counters and cores in deterministic order (batch index
    // order, then task order, then fallbacks), split the batch into
    // confirmed hitting sets and survivors, and repair the family. Dedup is
    // batch-level (two tasks can shrink onto the same core); cross-batch
    // duplicates are impossible — every candidate (hence every chunk and
    // every extracted core inside one) contains no previously known core,
    // and cores are pairwise incomparable by minimality.
    std::vector<ProgramSet> new_cores;
    auto absorb = [&](ExtractResult& res) {
      counts.probe_queries += res.probe_queries;
      counts.shrink_queries += res.shrink_queries;
      counts.witness_queries += res.witness_queries;
      counts.cache_hits += res.cache_hits;
      counts.cache_misses += res.cache_misses;
      if (res.have_core &&
          std::find(new_cores.begin(), new_cores.end(), res.core) == new_cores.end()) {
        new_cores.push_back(std::move(res.core));
      }
    };
    for (ExtractResult& res : results) absorb(res);
    for (ExtractResult& res : fallback_results) absorb(res);

    std::vector<ProgramSet> still_unconfirmed;
    for (size_t i = 0; i < batch; ++i) {
      if (outcomes[i].verdict == 1) {
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
  report.num_threads = workers;
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
  counts.detector_queries =
      counts.candidate_queries + counts.probe_queries + counts.shrink_queries;
  report.detector_queries = counts.detector_queries;
  if (stats != nullptr) *stats = counts;
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* rounds = registry.counter("core_search.rounds");
  static Counter* cores_found = registry.counter("core_search.cores_found");
  static Counter* queries = registry.counter("core_search.detector_queries");
  static Counter* cache_hits = registry.counter("core.cache_hits");
  static Counter* cache_misses = registry.counter("core.cache_misses");
  static Counter* probes = registry.counter("core.probe_queries");
  static Counter* fallbacks = registry.counter("core.fallback_extractions");
  static Histogram* run_us = registry.histogram("core_search.run_us");
  rounds->Add(counts.rounds);
  cores_found->Add(static_cast<int64_t>(report.cores.size()));
  queries->Add(counts.detector_queries);
  cache_hits->Add(counts.cache_hits);
  cache_misses->Add(counts.cache_misses);
  probes->Add(counts.probe_queries);
  fallbacks->Add(counts.fallback_extractions);
  run_us->Record(timer.ElapsedMicros());
  span.AppendArgs("rounds=" + std::to_string(counts.rounds) +
                  " cores=" + std::to_string(report.cores.size()));
  return report;
}

Result<SubsetReport> TryAnalyzeSubsetsCoreGuided(const std::vector<Btp>& programs,
                                                 const AnalysisSettings& settings,
                                                 Method method, ThreadPool* pool,
                                                 CoreSearchStats* stats,
                                                 const CoreSearchOptions& options) {
  const int n = static_cast<int>(programs.size());
  if (!CoreSearchProgramCountOk(n)) {
    return Result<SubsetReport>::Error(
        "core-guided subset analysis supports 1.." + std::to_string(kMaxCoreSearchPrograms) +
        " programs (got " + std::to_string(n) + ")");
  }

  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range(n);
  for (int i = 0; i < n; ++i) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(programs[i]);
    ltp_range[i] = {static_cast<int>(all_ltps.size()),
                    static_cast<int>(all_ltps.size() + unfolded.size())};
    all_ltps.insert(all_ltps.end(), std::make_move_iterator(unfolded.begin()),
                    std::make_move_iterator(unfolded.end()));
  }

  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && settings.num_threads != 1) {
    owned_pool =
        std::make_unique<ThreadPool>(ThreadPool::ResolveThreadCount(settings.num_threads));
    pool = owned_pool.get();
  }
  SummaryGraph full_graph =
      BuildSummaryGraph(std::move(all_ltps), settings,
                        pool != nullptr && pool->num_threads() > 1 ? pool : nullptr);
  MaskedDetector detector(full_graph, ltp_range, settings.policy());
  return AnalyzeSubsetsCoreGuided(detector, method, pool, nullptr, stats, options);
}

}  // namespace mvrc
