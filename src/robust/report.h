// Full workload analysis report: verdicts across settings and methods,
// maximal robust subsets, witnesses, and the summary-graph statistics —
// everything a developer needs to decide whether (and which part of) a
// workload can run under READ COMMITTED. Rendered as text by the CLI tool
// and the examples.

#ifndef MVRC_ROBUST_REPORT_H_
#define MVRC_ROBUST_REPORT_H_

#include <optional>
#include <string>
#include <vector>

#include "robust/detector.h"
#include "robust/subsets.h"
#include "util/json.h"
#include "workloads/workload.h"

namespace mvrc {

/// One (setting, method) verdict.
struct VerdictEntry {
  AnalysisSettings settings;
  Method method = Method::kTypeII;
  bool robust = false;
  int num_edges = 0;
  int num_counterflow_edges = 0;
  std::string witness;  // empty when robust
};

/// The analysis report for a workload.
struct WorkloadReport {
  std::string workload_name;
  IsolationLevel isolation = IsolationLevel::kMvrc;
  int num_programs = 0;
  int num_unfolded = 0;
  std::vector<VerdictEntry> verdicts;
  // Maximal robust subsets under attr+FK / type-II, when subset analysis ran.
  std::optional<std::vector<std::string>> maximal_robust_subsets;

  std::string ToText() const;

  /// Machine-readable rendering for `mvrcdet --json` and service clients:
  /// {"workload", "num_programs", "num_unfolded", "verdicts": [{"settings",
  /// "method", "robust", "num_edges", "num_counterflow_edges", "witness"}],
  /// "maximal_robust_subsets"?}. Witness members are present only when the
  /// verdict is not robust; the subsets member only when subset analysis ran.
  Json ToJson() const;
};

/// Analyzes `workload` under all four granularity/FK settings with both
/// methods, under `isolation`'s policy; when `analyze_subsets` is set (and
/// the workload has at most kMaxCoreSearchPrograms programs) also computes
/// the maximal robust subsets under attr dep + FK with the core-guided
/// search (robust/core_search.h). `num_threads` parallelizes graph
/// construction and the subset analysis (1 = serial, < 1 = hardware
/// concurrency); it never changes the report's contents.
WorkloadReport BuildReport(const Workload& workload, bool analyze_subsets,
                           int num_threads = 1,
                           IsolationLevel isolation = IsolationLevel::kMvrc);

}  // namespace mvrc

#endif  // MVRC_ROBUST_REPORT_H_
