// Subset analysis for the Figure 6 / Figure 7 experiments: decide, for
// every non-empty subset of a workload's programs, whether the subset is
// robust, and report the maximal robust subsets.
//
// Two regimes produce the same answers in two representations:
//
//   * the exhaustive sweep in this header — enumerates all 2^n - 1 masks
//     (with Proposition 5.2 pruning) and materializes every verdict; capped
//     at kMaxSubsetPrograms, and kept as the oracle the core-guided path is
//     differentially tested against, and
//   * the core-guided search (robust/core_search.h) — discovers the minimal
//     non-robust cores and the maximal robust subsets directly, never
//     enumerating the lattice, which lifts the cap to
//     kMaxCoreSearchPrograms (128) programs.
//
// Both fill the SubsetReport below; see its field comments for which fields
// each regime populates.

#ifndef MVRC_ROBUST_SUBSETS_H_
#define MVRC_ROBUST_SUBSETS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "btp/program.h"
#include "robust/detector.h"
#include "robust/program_set.h"
#include "summary/dep_tables.h"
#include "util/result.h"

namespace mvrc {

class MaskedDetector;
class ThreadPool;

/// Hard bound on the number of programs the *exhaustive* subset sweep
/// accepts. Subsets are encoded as bits of a `uint32_t` mask (program i <->
/// bit i), and the sweep materializes per-mask state for all 2^n - 1
/// non-empty masks, so the bound is both a representation limit and a
/// tractability cutoff: 2^20 subsets is the largest sweep that stays
/// interactive. Larger workloads are not out of reach — they take the
/// core-guided search (robust/core_search.h, up to kMaxCoreSearchPrograms
/// programs), which reports cores and maximal sets instead of materializing
/// every verdict; the analysis service and `mvrcdet --subsets` switch over
/// automatically. Every uint32_t-mask-accepting API in this header assumes
/// its `num_programs` fits the mask (<= 32); sweeps additionally enforce
/// this bound.
inline constexpr int kMaxSubsetPrograms = 20;

/// The accepted program-count range of every exhaustive-sweep entry point
/// below — the single source of truth callers (the analysis service)
/// consult to decide which regime a workload takes before building
/// per-sweep structures. CoreSearchProgramCountOk (robust/core_search.h) is
/// the core-guided counterpart.
constexpr bool SubsetProgramCountOk(int n) { return n >= 1 && n <= kMaxSubsetPrograms; }

/// Result of deciding robustness for all non-empty subsets of a program
/// set, in one of two representations:
///
///   * Exhaustive (from AnalyzeSubsets and friends): robust_masks holds
///     every robust subset and maximal_masks the inclusion-maximal ones;
///     cores/maximal_sets stay empty and from_core_search is false.
///   * Core-guided (from AnalyzeSubsetsCoreGuided): `cores` holds the
///     minimal non-robust subsets and `maximal_sets` the maximal robust
///     subsets — together they determine every verdict, since a subset is
///     robust iff it is non-empty and contains no core (non-robustness is
///     upward-closed, Proposition 5.2). from_core_search is true.
///     robust_masks is additionally materialized when
///     num_programs <= kMaxSubsetPrograms, and maximal_masks whenever the
///     masks fit (num_programs <= 32), so the two regimes are directly
///     comparable on workloads both accept.
struct SubsetReport {
  int num_programs = 0;
  int num_threads = 1;                  // worker threads the sweep ran with
  std::vector<uint32_t> robust_masks;   // every robust subset, as a bitmask
  std::vector<uint32_t> maximal_masks;  // robust subsets maximal under inclusion

  // Core-guided lattice representation (empty for exhaustive reports). Both
  // vectors are sorted by ProgramSet's numeric order, which coincides with
  // the numeric order of the equivalent uint32_t masks when both encodings
  // apply, so e.g. maximal_sets[i] and maximal_masks[i] name the same
  // subset.
  std::vector<ProgramSet> cores;         // minimal non-robust subsets
  std::vector<ProgramSet> maximal_sets;  // maximal robust subsets
  bool from_core_search = false;
  int64_t detector_queries = 0;  // detector evaluations the search spent

  /// True when the subset encoded by `mask` was found robust. Answered by
  /// binary search over robust_masks when they were materialized (requires
  /// the ascending sort every sweep guarantees), and from the core lattice
  /// otherwise; the two agree wherever both apply. The uint32_t form
  /// requires num_programs <= 32 — wide reports take the ProgramSet form.
  bool IsRobustSubset(uint32_t mask) const;
  bool IsRobustSubset(const ProgramSet& subset) const;

  /// Renders masks / wide subsets as "{A, B}" strings using per-program
  /// display names. DescribeMask requires num_programs <= 32.
  std::string DescribeMask(uint32_t mask, const std::vector<std::string>& names) const;
  std::string DescribeSet(const ProgramSet& set, const std::vector<std::string>& names) const;
  /// The maximal robust subsets, rendered from whichever representation the
  /// report carries (identical output where both exist).
  std::vector<std::string> DescribeMaximal(const std::vector<std::string>& names) const;
  /// The minimal non-robust cores, rendered; empty for exhaustive reports.
  std::vector<std::string> DescribeCores(const std::vector<std::string>& names) const;
};

/// Optional memoization hooks, used by the incremental analysis service
/// (src/service/) to reuse verdicts across requests and workload mutations.
/// Hooks never change the report (assuming lookups return correct
/// verdicts): they only shortcut detector invocations. Each regime reads
/// its own pair:
///
/// The narrow (uint32_t) pair belongs to the exhaustive sweep.
/// `lookup(mask)` is consulted before the detector runs on a mask the
/// Proposition 5.2 pruning left undecided; a returned value is taken as the
/// verdict and the detector is skipped. `store(mask, robust)` is called
/// exactly once for every mask the detector actually evaluated. The narrow
/// callbacks are invoked from the calling thread only, never from pool
/// workers.
///
/// The wide pair belongs to the core-guided search (core_search.h): when
/// both wide callbacks are set, every IsRobust evaluation of the search —
/// candidate tests, chunk probes, greedy shrink tests — consults
/// `wide_lookup` first and feeds `wide_store` with what the detector
/// decided, for any program count the search accepts. The wide callbacks
/// ARE invoked from pool workers concurrently, so they must be thread-safe
/// (the service backs them with the internally synchronized VerdictCache);
/// and a cached non-robust verdict is trusted outright — the search
/// extracts a witness from the subset without re-verifying, so an incorrect
/// `wide_lookup` aborts rather than mis-reporting.
///
/// The service backs both pairs with one VerdictCache keyed by
/// WideFingerprints, lifting narrow masks with ProgramSet::FromMask, so the
/// two regimes and the full-set check share one key space.
struct SubsetSweepHooks {
  std::function<std::optional<bool>(uint32_t)> lookup;
  std::function<void(uint32_t, bool)> store;
  std::function<std::optional<bool>(const ProgramSet&)> wide_lookup;
  std::function<void(const ProgramSet&, bool)> wide_store;
};

/// Tests all 2^n - 1 non-empty subsets (1 <= n <= kMaxSubsetPrograms
/// enforced — the CHECKing wrapper below aborts, TryAnalyzeSubsets returns
/// an error). Exploits Proposition 5.2 (robustness is closed under subsets):
/// subsets of a known robust set are marked robust without re-running the
/// detector.
///
/// With settings.num_threads != 1 the sweep runs level-synchronously in
/// decreasing popcount order, fanning each level's unknown masks across a
/// thread pool (masks within a level are independent; pruning is merged at
/// the level barrier). The report is identical to the serial sweep's, which
/// settings.num_threads == 1 (the default) selects unchanged.
SubsetReport AnalyzeSubsets(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                            Method method);

/// Same analysis with an error path instead of a CHECK for oversized
/// workloads (n outside [1, kMaxSubsetPrograms]) — the analysis service must
/// reject bad requests without aborting the process. When `pool` is non-null
/// it is reused for graph construction and the sweep instead of constructing
/// a pool per call (the service shares one pool across all requests), and
/// its thread count overrides settings.num_threads; a null `pool` falls back
/// to the old behavior (settings.num_threads decides, and a pool is created
/// per call when it is != 1).
Result<SubsetReport> TryAnalyzeSubsets(const std::vector<Btp>& programs,
                                       const AnalysisSettings& settings, Method method,
                                       ThreadPool* pool = nullptr,
                                       const SubsetSweepHooks* hooks = nullptr);

/// The sweep alone, on a caller-provided summary graph over the full program
/// set. `ltp_range[i]` is the [begin, end) range of `full_graph` node
/// indices holding program i's unfolded LTPs; a subset's graph is the
/// induced subgraph over its programs' LTPs (Algorithm 1's edge conditions
/// are local to the two programs of an edge), which the sweep evaluates
/// without materializing: a MaskedDetector is precomputed once per call and
/// each mask is a bitset query against it (AnalyzeSubsetsOnDetector below
/// skips even that precomputation). The report is identical to what
/// AnalyzeSubsets computes for the same program set.
Result<SubsetReport> AnalyzeSubsetsOnGraph(const SummaryGraph& full_graph,
                                           const std::vector<std::pair<int, int>>& ltp_range,
                                           Method method, ThreadPool* pool = nullptr,
                                           const SubsetSweepHooks* hooks = nullptr,
                                           const IsolationPolicy& policy =
                                               GetPolicy(IsolationLevel::kMvrc));

/// The sweep on a caller-owned MaskedDetector (robust/masked_detector.h) —
/// the zero-copy hot path every entry point above funnels into. Per-mask
/// verdicts are bitset queries against the detector's precomputed structures
/// with no SummaryGraph/Ltp copies and no per-mask heap allocation; callers
/// holding a summary graph across requests (the analysis service) keep the
/// detector alongside it and amortize the precomputation too. The report is
/// identical to AnalyzeSubsets over the same program set.
Result<SubsetReport> AnalyzeSubsetsOnDetector(const MaskedDetector& detector, Method method,
                                              ThreadPool* pool = nullptr,
                                              const SubsetSweepHooks* hooks = nullptr);

}  // namespace mvrc

#endif  // MVRC_ROBUST_SUBSETS_H_
