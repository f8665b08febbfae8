#include "robust/report.h"

#include <sstream>

#include "btp/unfold.h"
#include "robust/core_search.h"
#include "summary/build_summary.h"

namespace mvrc {

std::string WorkloadReport::ToText() const {
  std::ostringstream os;
  os << "workload: " << workload_name << " (" << num_programs << " programs, "
     << num_unfolded << " unfolded)\n";
  os << "isolation: " << mvrc::ToString(isolation) << "\n";
  os << "verdicts:\n";
  for (const VerdictEntry& entry : verdicts) {
    os << "  " << entry.settings.name() << " / "
       << (entry.method == Method::kTypeII ? "type-II (Algorithm 2)" : "type-I [3]")
       << ": " << (entry.robust ? "robust" : "not robust") << "  [" << entry.num_edges
       << " edges, " << entry.num_counterflow_edges << " counterflow]\n";
    if (!entry.witness.empty()) {
      std::istringstream lines(entry.witness);
      std::string line;
      while (std::getline(lines, line)) os << "      " << line << "\n";
    }
  }
  if (maximal_robust_subsets.has_value()) {
    os << "maximal robust subsets (attr dep + FK, type-II):\n";
    for (const std::string& subset : *maximal_robust_subsets) {
      os << "  " << subset << "\n";
    }
  }
  return os.str();
}

Json WorkloadReport::ToJson() const {
  Json json = Json::Object();
  json.Set("workload", Json::Str(workload_name));
  json.Set("isolation", Json::Str(mvrc::ToString(isolation)));
  json.Set("num_programs", Json::Int(num_programs));
  json.Set("num_unfolded", Json::Int(num_unfolded));
  Json verdict_array = Json::Array();
  for (const VerdictEntry& entry : verdicts) {
    Json verdict = Json::Object();
    verdict.Set("settings", Json::Str(entry.settings.name()));
    verdict.Set("method", Json::Str(entry.method == Method::kTypeII ? "type-II" : "type-I"));
    verdict.Set("robust", Json::Bool(entry.robust));
    verdict.Set("num_edges", Json::Int(entry.num_edges));
    verdict.Set("num_counterflow_edges", Json::Int(entry.num_counterflow_edges));
    if (!entry.witness.empty()) verdict.Set("witness", Json::Str(entry.witness));
    verdict_array.Append(std::move(verdict));
  }
  json.Set("verdicts", std::move(verdict_array));
  if (maximal_robust_subsets.has_value()) {
    Json subsets = Json::Array();
    for (const std::string& subset : *maximal_robust_subsets) {
      subsets.Append(Json::Str(subset));
    }
    json.Set("maximal_robust_subsets", std::move(subsets));
  }
  return json;
}

WorkloadReport BuildReport(const Workload& workload, bool analyze_subsets,
                           IsolationLevel isolation) {
  WorkloadReport report;
  report.workload_name = workload.name.empty() ? "(unnamed)" : workload.name;
  report.isolation = isolation;
  report.num_programs = static_cast<int>(workload.programs.size());
  report.num_unfolded = static_cast<int>(UnfoldAtMost2(workload.programs).size());

  for (AnalysisSettings settings :
       {AnalysisSettings::TupleDep().WithIsolation(isolation),
        AnalysisSettings::AttrDep().WithIsolation(isolation),
        AnalysisSettings::TupleDepFk().WithIsolation(isolation),
        AnalysisSettings::AttrDepFk().WithIsolation(isolation)}) {
    SummaryGraph graph = BuildSummaryGraph(workload.programs, settings);
    for (Method method : {Method::kTypeII, Method::kTypeI}) {
      VerdictEntry entry;
      entry.settings = settings;
      entry.method = method;
      entry.num_edges = graph.num_edges();
      entry.num_counterflow_edges = graph.num_counterflow_edges();
      CycleTestOutcome outcome = RunCycleTest(graph, method, settings.policy());
      entry.robust = outcome.robust;
      entry.witness = std::move(outcome.witness);
      report.verdicts.push_back(std::move(entry));
    }
  }

  if (analyze_subsets && CoreSearchProgramCountOk(report.num_programs)) {
    SubsetReport subsets =
        TryAnalyzeSubsetsCoreGuided(workload.programs,
                                    AnalysisSettings::AttrDepFk().WithIsolation(isolation),
                                    Method::kTypeII)
            .value();
    std::vector<std::string> names = workload.abbreviations;
    if (names.size() != workload.programs.size()) {
      names.clear();
      for (const Btp& program : workload.programs) names.push_back(program.name());
    }
    report.maximal_robust_subsets = subsets.DescribeMaximal(names);
  }
  return report;
}

}  // namespace mvrc
