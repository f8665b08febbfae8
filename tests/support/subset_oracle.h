// The exhaustive per-mask subset sweep: the reference the production subset
// engine (the core-guided search, robust/core_search.h) is tested against.
//
// SweepSubsets asks the detector about every one of the 2^n - 1 non-empty
// subsets, in decreasing popcount order, and applies Proposition 5.2
// (robustness is closed under subsets) the literal way: once a subset is
// found robust, all of its subsets are marked robust without a query. It
// runs serially and keeps no cache, so its cost is the lattice's size, not
// its description; it lives outside the library so that no production path
// can reach it.

#ifndef MVRC_TESTS_SUPPORT_SUBSET_ORACLE_H_
#define MVRC_TESTS_SUPPORT_SUBSET_ORACLE_H_

#include <vector>

#include "btp/program.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "summary/dep_tables.h"

namespace mvrc::oracle {

/// Every subset's verdict from `detector`, as a SubsetReport with
/// num_programs, robust_masks, maximal_masks and the lattice read off them
/// (cores, maximal_sets) filled, all ascending; from_core_search is false
/// and detector_queries 0.
/// Requires 1 <= detector.num_programs() <= kMaxSubsetPrograms.
SubsetReport SweepSubsets(const MaskedDetector& detector, Method method);

/// The same sweep from programs: unfolds them, builds the full summary graph
/// under `settings` and sweeps a detector over it under settings.policy().
SubsetReport SweepSubsets(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                          Method method);

}  // namespace mvrc::oracle

#endif  // MVRC_TESTS_SUPPORT_SUBSET_ORACLE_H_
