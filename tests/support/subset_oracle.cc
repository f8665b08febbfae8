#include "support/subset_oracle.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "summary/build_summary.h"
#include "util/check.h"

namespace mvrc::oracle {

namespace {

bool ByPopcountDescending(uint32_t a, uint32_t b) {
  const int pa = __builtin_popcount(a), pb = __builtin_popcount(b);
  return pa != pb ? pa > pb : a < b;
}

}  // namespace

SubsetReport SweepSubsets(const MaskedDetector& detector, Method method) {
  const int n = detector.num_programs();
  MVRC_CHECK_MSG(SubsetProgramCountOk(n), "the subset oracle sweeps 1..kMaxSubsetPrograms");
  const uint32_t full = (uint32_t{1} << n) - 1;
  std::vector<uint32_t> order;
  order.reserve(full);
  for (uint32_t mask = 1; mask <= full; ++mask) order.push_back(mask);
  std::sort(order.begin(), order.end(), ByPopcountDescending);

  SubsetReport report;
  report.num_programs = n;
  std::vector<char> known_robust(full + 1, 0);
  DetectorScratch scratch = detector.MakeScratch();
  for (uint32_t mask : order) {
    if (!known_robust[mask]) {
      if (!detector.IsRobust(mask, method, scratch)) continue;
      for (uint32_t sub = mask; sub != 0; sub = (sub - 1) & mask) known_robust[sub] = 1;
    }
    report.robust_masks.push_back(mask);
  }

  // Maximal = robust with no robust strict superset. In decreasing popcount
  // order every robust strict superset of a mask lies inside a maximal mask
  // accepted before it, so comparing against those suffices.
  for (uint32_t mask : report.robust_masks) {
    bool dominated = false;
    for (uint32_t maximal : report.maximal_masks) {
      if ((maximal & mask) == mask) {
        dominated = true;
        break;
      }
    }
    if (!dominated) report.maximal_masks.push_back(mask);
  }
  std::sort(report.robust_masks.begin(), report.robust_masks.end());
  std::sort(report.maximal_masks.begin(), report.maximal_masks.end());
  for (uint32_t mask : report.maximal_masks) {
    report.maximal_sets.push_back(ProgramSet::FromMask(mask, n));
  }

  // Cores = non-robust masks all of whose delete-one submasks are robust
  // (the empty set counts as robust), found in ascending mask order.
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (known_robust[mask]) continue;
    bool minimal = true;
    for (int b = 0; b < n && minimal; ++b) {
      const uint32_t sub = mask & ~(uint32_t{1} << b);
      if (sub != mask && sub != 0 && !known_robust[sub]) minimal = false;
    }
    if (minimal) report.cores.push_back(ProgramSet::FromMask(mask, n));
  }
  return report;
}

SubsetReport SweepSubsets(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                          Method method) {
  const ProgramsSummary summary = BuildProgramsSummary(programs, settings);
  return SweepSubsets(MaskedDetector(summary.graph, summary.ltp_range, settings.policy()),
                      method);
}

}  // namespace mvrc::oracle
