// Core-guided subset analysis: the one engine behind every Figure 6 /
// Figure 7 per-subset verdict, at every program count up to
// kMaxCoreSearchPrograms (robust/subsets.h is its per-mask face for
// workloads of at most kMaxSubsetPrograms programs).
//
// Robustness is closed under subsets (Proposition 5.2), so non-robustness
// is upward-closed: the full verdict lattice over 2^n subsets is determined
// by the *minimal non-robust cores* alone — a subset is robust iff it
// contains no core — and, dually, by the *maximal robust subsets*, which
// are exactly the complements of the minimal hitting sets of the core
// family. Instead of enumerating 2^n - 1 masks, the search grows both
// descriptions together, MARCO-style:
//
//   1. Candidate masks are the complements of the minimal hitting sets of
//      the cores discovered so far (initially just the full program set,
//      the complement of the empty hitting set). Each candidate provably
//      contains no known core, so its verdict is new information.
//   2. A robust candidate confirms its hitting set: the candidate is a
//      maximal robust subset (minimality of the hitting set means adding
//      any program re-admits some core).
//   3. A non-robust candidate yields a counterexample cycle from
//      MaskedDetector's witness search. The programs on the cycle are a
//      non-robust support (the cycle survives restriction to them), which
//      greedy deletion shrinks to a minimal core with |support| extra
//      IsRobust queries — a single pass suffices, again by monotonicity.
//   4. Each new core updates the minimal-hitting-set family incrementally
//      (Berge's algorithm: hitting sets that miss the core are extended by
//      one core element each, then pruned to the minimal ones).
//
// The loop ends when every minimal hitting set is confirmed, at which point
// the core family is complete: any subset above no core is contained in
// some confirmed complement and is robust by downward closure. Detector
// work is proportional to the lattice's *description* (cores + maximal
// sets, each costing one candidate test or one witness-plus-shrink), not
// to its 2^n size — on replicated 64-program workloads the search spends
// thousands of queries where a per-mask sweep would need 2^64
// (bench/bench_core_search.cc measures the ratio).
//
// Parallelism: each round runs in two pool-fanned phases orchestrated from
// the calling thread (the ThreadPool does not support nesting). Phase A
// tests every candidate's verdict concurrently; phase B extracts cores from
// the non-robust candidates. When a round has fewer non-robust candidates
// than worker slots — the common shape: round one always has exactly one —
// phase B *chunks* each candidate into disjoint contiguous pieces and
// probes them concurrently: a non-robust chunk yields a witness and shrinks
// to a minimal core entirely within the chunk, so one candidate can surface
// many cores per round instead of one. Chunks that all come back robust
// fall back to whole-candidate witness extraction. Chunk cores are globally
// minimal (minimality is intrinsic, not relative to the chunk), disjoint
// chunks cannot duplicate each other, and every extracted core is new
// (candidates contain no known core), so the loop invariants are untouched.
//
// The final report is *canonical*: at termination the core family provably
// equals ALL minimal non-robust subsets (any missed one would sit inside a
// confirmed robust complement, contradicting upward closure) and the
// confirmed hitting sets are exactly the minimal hitting sets of that final
// family — so cores and maximal_sets are independent of thread count,
// chunking, and discovery order, and the parallel search is bit-identical
// to the serial one. tests/core_search_test.cc pins this differentially
// over random workloads under both the MVRC and lock-based-RC policies;
// only the stats (query counts, rounds) may differ across configurations.

#ifndef MVRC_ROBUST_CORE_SEARCH_H_
#define MVRC_ROBUST_CORE_SEARCH_H_

#include <cstdint>
#include <vector>

#include "btp/program.h"
#include "robust/subsets.h"
#include "summary/dep_tables.h"
#include "util/result.h"

namespace mvrc {

class MaskedDetector;
class ThreadPool;

/// Hard bound on the number of programs the core-guided search accepts.
/// Subsets are ProgramSet wide masks (robust/program_set.h), so there is no
/// representation limit; the bound caps the witness-shrink and hitting-set
/// work, which grows with the core family rather than with 2^n but is not
/// guaranteed small for adversarial workloads. 128 covers the ROADMAP's
/// 100+ program replicated-workload target with headroom.
inline constexpr int kMaxCoreSearchPrograms = 128;

/// The accepted program-count range of the core-guided entry points — the
/// counterpart of SubsetProgramCountOk for the wide regime.
constexpr bool CoreSearchProgramCountOk(int n) {
  return n >= 1 && n <= kMaxCoreSearchPrograms;
}

/// Safety valves for the core-guided search.
struct CoreSearchOptions {
  /// Upper bound on the hitting-set family the search may hold (confirmed +
  /// unconfirmed). The family's final size is the number of maximal robust
  /// subsets, which is exponential in n for adversarial core structures;
  /// crossing the bound aborts the search with an error Result instead of
  /// consuming unbounded memory. The default admits every lattice of at
  /// most kMaxSubsetPrograms programs (2^20 subsets).
  int64_t max_lattice_sets = int64_t{1} << 20;
};

/// Observability counters for one search run (all detector evaluations, by
/// purpose). detector_queries = candidate + probe + shrink queries;
/// witness_queries counts the Find*Cycle calls separately (they re-run a
/// found cycle search to materialize the witness and are not IsRobust
/// evaluations). Query counts depend on the pool's worker count (chunked
/// extraction) and the hook state; only the report is canonical.
struct CoreSearchStats {
  int64_t detector_queries = 0;
  int64_t candidate_queries = 0;  // hitting-set complement tests
  int64_t probe_queries = 0;      // chunk probes during parallel core extraction
  int64_t shrink_queries = 0;     // greedy core-minimization tests
  int64_t witness_queries = 0;    // witness extractions on non-robust subsets
  int64_t cache_hits = 0;         // wide-hook verdicts served, any purpose
  int64_t cache_misses = 0;       // wide-hook lookups that reached the detector
  int64_t hook_hits = 0;          // candidate verdicts answered by the wide hooks
  int rounds = 0;                 // candidate-batch iterations
  int fallback_extractions = 0;   // candidates whose chunks all probed robust
};

/// Core-guided analysis against a caller-owned MaskedDetector, producing the
/// lattice representation of the verdicts (SubsetReport::cores /
/// maximal_sets); robust_masks is additionally materialized by bit tests
/// against the cores when num_programs() <= kMaxSubsetPrograms.
/// AnalyzeSubsetsOnDetector (robust/subsets.h) is this search behind a
/// per-mask range check.
/// `hooks` follow the SubsetSweepHooks contract: the search reads only the
/// wide pair (wide_lookup/wide_store), which, when both are set, memoizes
/// EVERY IsRobust evaluation — candidates, chunk probes, shrink tests — at
/// any accepted program count, and is invoked from pool workers (must be
/// thread-safe). The narrow pair is ignored here; the robust/subsets.h
/// entry points lift it onto the wide pair. Errors: program count outside
/// [1, kMaxCoreSearchPrograms], or the hitting-set family exceeding
/// options.max_lattice_sets.
Result<SubsetReport> AnalyzeSubsetsCoreGuided(const MaskedDetector& detector, Method method,
                                              ThreadPool* pool = nullptr,
                                              const SubsetSweepHooks* hooks = nullptr,
                                              CoreSearchStats* stats = nullptr,
                                              const CoreSearchOptions& options = {});

/// Convenience entry point from programs, as TryAnalyzeSubsets but for every
/// program count the search accepts:
/// unfolds, builds the full summary graph under settings.policy(), and runs
/// the core-guided search on a detector over it. A caller-provided pool is
/// reused for graph construction and the search; otherwise
/// settings.num_threads decides as in TryAnalyzeSubsets.
Result<SubsetReport> TryAnalyzeSubsetsCoreGuided(const std::vector<Btp>& programs,
                                                 const AnalysisSettings& settings,
                                                 Method method, ThreadPool* pool = nullptr,
                                                 CoreSearchStats* stats = nullptr,
                                                 const CoreSearchOptions& options = {});

}  // namespace mvrc

#endif  // MVRC_ROBUST_CORE_SEARCH_H_
