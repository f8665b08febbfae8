#include "robust/subsets.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "btp/unfold.h"
#include "robust/core_search.h"
#include "robust/masked_detector.h"
#include "summary/build_summary.h"
#include "util/check.h"
#include "util/thread_pool.h"

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
// Narrow hooks are lifted onto the wide pair it reads. The search calls wide
// hooks from pool workers, while narrow callbacks need not be thread-safe,
// so every narrow call runs under one mutex. The verdicts the detector
// decided are remembered as well: a mask the search meets twice is answered
// the second time without the detector, and `store` runs once per mask.
Result<SubsetReport> SweepDetector(const MaskedDetector& detector, Method method,
                                   ThreadPool* pool, const SubsetSweepHooks* hooks) {
  if (std::optional<Result<SubsetReport>> error = CheckProgramCount(detector.num_programs())) {
    return *error;
  }
  if (hooks == nullptr || (!hooks->lookup && !hooks->store)) {
    return AnalyzeSubsetsCoreGuided(detector, method, pool, hooks);
  }
  std::mutex mutex;
  std::unordered_map<uint32_t, bool> decided;
  SubsetSweepHooks lifted;
  lifted.wide_lookup = [&](const ProgramSet& subset) -> std::optional<bool> {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = decided.find(subset.ToMask());
    if (it != decided.end()) return it->second;
    return hooks->lookup ? hooks->lookup(subset.ToMask()) : std::nullopt;
  };
  lifted.wide_store = [&](const ProgramSet& subset, bool robust) {
    std::lock_guard<std::mutex> lock(mutex);
    if (decided.emplace(subset.ToMask(), robust).second && hooks->store) {
      hooks->store(subset.ToMask(), robust);
    }
  };
  return AnalyzeSubsetsCoreGuided(detector, method, pool, &lifted);
}

}  // namespace

Result<SubsetReport> AnalyzeSubsetsOnDetector(const MaskedDetector& detector, Method method,
                                              ThreadPool* pool,
                                              const SubsetSweepHooks* hooks) {
  return SweepDetector(detector, method, pool, hooks);
}

Result<SubsetReport> AnalyzeSubsetsOnGraph(const SummaryGraph& full_graph,
                                           const std::vector<std::pair<int, int>>& ltp_range,
                                           Method method, ThreadPool* pool,
                                           const SubsetSweepHooks* hooks,
                                           const IsolationPolicy& policy) {
  const int n = static_cast<int>(ltp_range.size());
  if (std::optional<Result<SubsetReport>> error = CheckProgramCount(n)) return *error;
  MaskedDetector detector(full_graph, ltp_range, policy);
  return SweepDetector(detector, method, pool, hooks);
}

Result<SubsetReport> TryAnalyzeSubsets(const std::vector<Btp>& programs,
                                       const AnalysisSettings& settings, Method method,
                                       ThreadPool* pool, const SubsetSweepHooks* hooks) {
  const int n = static_cast<int>(programs.size());
  if (std::optional<Result<SubsetReport>> error = CheckProgramCount(n)) return *error;

  // Build the summary graph once for the full program set; every subset's
  // graph is an induced subgraph (Algorithm 1's conditions are local to the
  // two programs of an edge). Track which unfolded LTPs belong to which BTP.
  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range(n);  // [begin, end) per BTP
  for (int i = 0; i < n; ++i) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(programs[i]);
    ltp_range[i] = {static_cast<int>(all_ltps.size()),
                    static_cast<int>(all_ltps.size() + unfolded.size())};
    all_ltps.insert(all_ltps.end(), std::make_move_iterator(unfolded.begin()),
                    std::make_move_iterator(unfolded.end()));
  }

  // A caller-provided pool wins; otherwise fall back to the old behavior of
  // constructing one per call when settings.num_threads != 1.
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && settings.num_threads != 1) {
    owned_pool = std::make_unique<ThreadPool>(ThreadPool::ResolveThreadCount(settings.num_threads));
    pool = owned_pool.get();
  }
  SummaryGraph full_graph =
      BuildSummaryGraph(std::move(all_ltps), settings,
                        pool != nullptr && pool->num_threads() > 1 ? pool : nullptr);
  return AnalyzeSubsetsOnGraph(full_graph, ltp_range, method, pool, hooks, settings.policy());
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
