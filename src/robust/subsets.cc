#include "robust/subsets.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "robust/core_search.h"
#include "robust/masked_detector.h"
#include "summary/build_summary.h"
#include "util/check.h"

namespace mvrc {

bool SubsetReport::IsRobustSubset(uint32_t mask) const {
  if (num_programs > kMaxSubsetPrograms) {
    return IsRobustSubset(ProgramSet::FromMask(mask, num_programs));
  }
  return std::binary_search(robust_masks.begin(), robust_masks.end(), mask);
}

bool SubsetReport::IsRobustSubset(const ProgramSet& subset) const {
  MVRC_CHECK(subset.num_programs() == num_programs);
  // Robust iff non-empty and above no core (Proposition 5.2's upward
  // closure of non-robustness makes the cores decisive). The empty subset
  // is excluded to match robust_masks, which lists only non-empty masks.
  if (subset.Empty()) return false;
  for (const ProgramSet& core : cores) {
    if (subset.ContainsAll(core)) return false;
  }
  return true;
}

std::string SubsetReport::DescribeMask(uint32_t mask,
                                       const std::vector<std::string>& names) const {
  MVRC_CHECK_MSG(num_programs <= 32,
                 "uint32_t subset masks encode at most 32 programs — wide subsets are "
                 "rendered by DescribeSet");
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int i = 0; i < num_programs; ++i) {
    if ((mask >> i) & 1) {
      if (!first) os << ", ";
      os << names.at(i);
      first = false;
    }
  }
  os << "}";
  return os.str();
}

std::string SubsetReport::DescribeSet(const ProgramSet& set,
                                      const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int i : set.ToIndices()) {
    if (!first) os << ", ";
    os << names.at(i);
    first = false;
  }
  os << "}";
  return os.str();
}

std::vector<std::string> SubsetReport::DescribeMaximal(
    const std::vector<std::string>& names) const {
  std::vector<std::string> out;
  out.reserve(maximal_sets.size());
  for (const ProgramSet& set : maximal_sets) out.push_back(DescribeSet(set, names));
  return out;
}

std::vector<std::string> SubsetReport::DescribeCores(
    const std::vector<std::string>& names) const {
  std::vector<std::string> out;
  out.reserve(cores.size());
  for (const ProgramSet& core : cores) out.push_back(DescribeSet(core, names));
  return out;
}

namespace {

// The shared 1..kMaxSubsetPrograms bounds check; nullopt when `n` is fine.
std::optional<Result<SubsetReport>> CheckProgramCount(int n) {
  if (SubsetProgramCountOk(n)) return std::nullopt;
  return Result<SubsetReport>::Error(
      "subset analysis with per-mask results supports 1.." +
      std::to_string(kMaxSubsetPrograms) + " programs (got " + std::to_string(n) +
      "): SubsetReport::robust_masks lists every robust subset as a 32-bit mask, and 2^" +
      std::to_string(kMaxSubsetPrograms) +
      " subsets is the most it materializes — larger workloads call the core-guided search "
      "directly (AnalyzeSubsetsCoreGuided in robust/core_search.h, up to " +
      std::to_string(kMaxCoreSearchPrograms) +
      " programs), which the analysis service and `mvrcdet --subsets` do automatically");
}

// The funnel every entry point below ends in: the core-guided search.
// Narrow hooks are lifted onto the wide pair it reads. The verdicts the
// detector decided are remembered as well: a mask the search meets twice is
// answered the second time without the detector, and `store` runs once per
// mask.
Result<SubsetReport> SweepDetector(const MaskedDetector& detector, Method method,
                                   const SubsetSweepHooks* hooks) {
  if (std::optional<Result<SubsetReport>> error = CheckProgramCount(detector.num_programs())) {
    return *error;
  }
  if (hooks == nullptr || (!hooks->lookup && !hooks->store)) {
    return AnalyzeSubsetsCoreGuided(detector, method, hooks);
  }
  std::unordered_map<uint32_t, bool> decided;
  SubsetSweepHooks lifted;
  lifted.wide_lookup = [&](const ProgramSet& subset) -> std::optional<bool> {
    auto it = decided.find(subset.ToMask());
    if (it != decided.end()) return it->second;
    return hooks->lookup ? hooks->lookup(subset.ToMask()) : std::nullopt;
  };
  lifted.wide_store = [&](const ProgramSet& subset, bool robust) {
    if (decided.emplace(subset.ToMask(), robust).second && hooks->store) {
      hooks->store(subset.ToMask(), robust);
    }
  };
  return AnalyzeSubsetsCoreGuided(detector, method, &lifted);
}

}  // namespace

Result<SubsetReport> AnalyzeSubsetsOnDetector(const MaskedDetector& detector, Method method,
                                              const SubsetSweepHooks* hooks) {
  return SweepDetector(detector, method, hooks);
}

Result<SubsetReport> AnalyzeSubsetsOnGraph(const SummaryGraph& full_graph,
                                           const std::vector<std::pair<int, int>>& ltp_range,
                                           Method method, const SubsetSweepHooks* hooks,
                                           const IsolationPolicy& policy) {
  const int n = static_cast<int>(ltp_range.size());
  if (std::optional<Result<SubsetReport>> error = CheckProgramCount(n)) return *error;
  MaskedDetector detector(full_graph, ltp_range, policy);
  return SweepDetector(detector, method, hooks);
}

Result<SubsetReport> TryAnalyzeSubsets(const std::vector<Btp>& programs,
                                       const AnalysisSettings& settings, Method method,
                                       const SubsetSweepHooks* hooks) {
  const int n = static_cast<int>(programs.size());
  if (std::optional<Result<SubsetReport>> error = CheckProgramCount(n)) return *error;
  // One summary graph for the full program set; every subset's graph is an
  // induced subgraph (Algorithm 1's conditions are local to the two
  // programs of an edge).
  const ProgramsSummary summary = BuildProgramsSummary(programs, settings);
  return AnalyzeSubsetsOnGraph(summary.graph, summary.ltp_range, method, hooks,
                               settings.policy());
}

SubsetReport AnalyzeSubsets(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                            Method method) {
  Result<SubsetReport> report = TryAnalyzeSubsets(programs, settings, method);
  // The message is CheckProgramCount's, which states the bounds from
  // kMaxSubsetPrograms; only evaluated on failure.
  MVRC_CHECK_MSG(report.ok(),
                 (report.error() + " — use TryAnalyzeSubsets for a non-aborting error path")
                     .c_str());
  return std::move(report).value();
}

}  // namespace mvrc
