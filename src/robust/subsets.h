// Subset analysis for the Figure 6 / Figure 7 experiments: decide, for
// every non-empty subset of a workload's programs, whether the subset is
// robust, and report the maximal robust subsets.
//
// One engine answers every request: the core-guided search
// (robust/core_search.h), which discovers the minimal non-robust cores and
// the maximal robust subsets directly instead of asking the detector about
// all 2^n - 1 subsets. The entry points in this header are its per-mask
// face for workloads of at most kMaxSubsetPrograms programs: they run the
// search and hand back, besides the lattice, every robust subset as a
// uint32_t mask, read off the cores by bit tests. Larger workloads (up to
// kMaxCoreSearchPrograms) call AnalyzeSubsetsCoreGuided directly. The
// literal per-mask sweep survives only as the test oracle
// (tests/support/subset_oracle.h).

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

/// Bound on the program count up to which a SubsetReport materializes
/// robust_masks — every robust subset as a `uint32_t` mask (program i <->
/// bit i). It bounds only that materialization, not the search: the list
/// can hold up to 2^n - 1 masks, and 2^20 is the longest list worth
/// handing out. Verdicts come from the core-guided search at every program
/// count, up to kMaxCoreSearchPrograms. Every uint32_t-mask-accepting API
/// in this header assumes its `num_programs` fits the mask (<= 32); the
/// per-mask entry points below additionally enforce this bound.
inline constexpr int kMaxSubsetPrograms = 20;

/// The accepted program-count range of the per-mask entry points below, and
/// the range in which a report carries robust_masks.
/// CoreSearchProgramCountOk (robust/core_search.h) is the range of the
/// search itself.
constexpr bool SubsetProgramCountOk(int n) { return n >= 1 && n <= kMaxSubsetPrograms; }

/// Result of deciding robustness for all non-empty subsets of a program
/// set. `cores` holds the minimal non-robust subsets and `maximal_sets` the
/// maximal robust subsets — together they determine every verdict, since a
/// subset is robust iff it is non-empty and contains no core
/// (non-robustness is upward-closed, Proposition 5.2). robust_masks is
/// additionally materialized when num_programs <= kMaxSubsetPrograms, and
/// maximal_masks whenever the masks fit (num_programs <= 32). Library
/// reports come from the core-guided search (from_core_search is true); the
/// test oracle's per-mask sweep fills the same fields from its masks.
struct SubsetReport {
  int num_programs = 0;
  std::vector<uint32_t> robust_masks;   // every robust subset, as a bitmask
  std::vector<uint32_t> maximal_masks;  // robust subsets maximal under inclusion

  // Lattice representation. Both vectors are sorted by ProgramSet's numeric
  // order, which coincides with the numeric order of the equivalent uint32_t
  // masks when both encodings apply, so e.g. maximal_sets[i] and
  // maximal_masks[i] name the same subset.
  std::vector<ProgramSet> cores;         // minimal non-robust subsets
  std::vector<ProgramSet> maximal_sets;  // maximal robust subsets
  bool from_core_search = false;
  int64_t detector_queries = 0;  // detector evaluations the search spent

  /// True when the subset encoded by `mask` / `subset` was found robust. The
  /// uint32_t form binary-searches robust_masks (ascending, as every producer
  /// sorts them) when num_programs <= kMaxSubsetPrograms and otherwise asks
  /// the cores, as the ProgramSet form always does; it requires
  /// num_programs <= 32.
  bool IsRobustSubset(uint32_t mask) const;
  bool IsRobustSubset(const ProgramSet& subset) const;

  /// Renders masks / wide subsets as "{A, B}" strings using per-program
  /// display names. DescribeMask requires num_programs <= 32.
  std::string DescribeMask(uint32_t mask, const std::vector<std::string>& names) const;
  std::string DescribeSet(const ProgramSet& set, const std::vector<std::string>& names) const;
  /// The maximal robust subsets and the minimal non-robust cores, rendered.
  std::vector<std::string> DescribeMaximal(const std::vector<std::string>& names) const;
  std::vector<std::string> DescribeCores(const std::vector<std::string>& names) const;
};

/// Optional memoization hooks, used by the incremental analysis service
/// (src/service/) to reuse verdicts across requests and workload mutations.
/// Hooks never change the report (assuming lookups return correct
/// verdicts): they only shortcut detector invocations.
///
/// The wide pair is what the core-guided search (core_search.h) reads: when
/// both wide callbacks are set, every IsRobust evaluation of the search —
/// candidate tests and greedy shrink tests — consults `wide_lookup` first
/// and feeds `wide_store` with what the detector decided, for any program
/// count the search accepts. The search runs on the calling thread and
/// invokes every callback there, one at a time, so callbacks need no
/// locking of their own (the service backs them with its VerdictCache,
/// keyed by WideFingerprints, so `check`, `subsets` and edits share one key
/// space). A cached non-robust verdict is trusted outright — the search
/// extracts a witness from the subset without re-verifying, so an incorrect
/// `wide_lookup` aborts rather than mis-reporting.
///
/// The narrow (uint32_t) pair is accepted by the per-mask entry points
/// below, which lift it onto the wide pair (ProgramSet::ToMask) and then
/// ignore the wide callbacks. `lookup(mask)` is consulted before the
/// detector runs on a subset; a returned value is taken as the verdict and
/// the detector is skipped. `store(mask, robust)` is called exactly once
/// for every mask the detector actually evaluated.
struct SubsetSweepHooks {
  std::function<std::optional<bool>(uint32_t)> lookup;
  std::function<void(uint32_t, bool)> store;
  std::function<std::optional<bool>(const ProgramSet&)> wide_lookup;
  std::function<void(const ProgramSet&, bool)> wide_store;
};

/// Decides all 2^n - 1 non-empty subsets (1 <= n <= kMaxSubsetPrograms
/// enforced — the CHECKing wrapper below aborts, TryAnalyzeSubsets returns
/// an error) with the core-guided search, and materializes every robust
/// subset as a mask.
SubsetReport AnalyzeSubsets(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                            Method method);

/// Same analysis with an error path instead of a CHECK for oversized
/// workloads (n outside [1, kMaxSubsetPrograms]) — the analysis service must
/// reject bad requests without aborting the process.
Result<SubsetReport> TryAnalyzeSubsets(const std::vector<Btp>& programs,
                                       const AnalysisSettings& settings, Method method,
                                       const SubsetSweepHooks* hooks = nullptr);

/// The analysis alone, on a caller-provided summary graph over the full
/// program set. `ltp_range[i]` is the [begin, end) range of `full_graph`
/// node indices holding program i's unfolded LTPs; a subset's graph is the
/// induced subgraph over its programs' LTPs (Algorithm 1's edge conditions
/// are local to the two programs of an edge), which the search evaluates
/// without materializing: a MaskedDetector is precomputed once per call and
/// each subset is a bitset query against it (AnalyzeSubsetsOnDetector below
/// skips even that precomputation). The report is identical to what
/// AnalyzeSubsets computes for the same program set.
Result<SubsetReport> AnalyzeSubsetsOnGraph(const SummaryGraph& full_graph,
                                           const std::vector<std::pair<int, int>>& ltp_range,
                                           Method method,
                                           const SubsetSweepHooks* hooks = nullptr,
                                           const IsolationPolicy& policy =
                                               GetPolicy(IsolationLevel::kMvrc));

/// The analysis on a caller-owned MaskedDetector (robust/masked_detector.h)
/// — what every entry point above funnels into: AnalyzeSubsetsCoreGuided
/// behind the program-count check and the narrow-hook lift. Subset verdicts
/// are bitset queries against the detector's precomputed structures with no
/// SummaryGraph/Ltp copies; callers holding a summary graph across requests
/// keep the detector alongside it and amortize the precomputation too. The
/// report is identical to AnalyzeSubsets over the same program set.
Result<SubsetReport> AnalyzeSubsetsOnDetector(const MaskedDetector& detector, Method method,
                                              const SubsetSweepHooks* hooks = nullptr);

// perfbench/e2e_main.cc still passes SessionManager::pool() here; the
// pointer is ignored.
class ThreadPool;
inline Result<SubsetReport> AnalyzeSubsetsOnDetector(const MaskedDetector& detector,
                                                     Method method, ThreadPool*,
                                                     const SubsetSweepHooks* hooks) {
  return AnalyzeSubsetsOnDetector(detector, method, hooks);
}

}  // namespace mvrc

#endif  // MVRC_ROBUST_SUBSETS_H_
