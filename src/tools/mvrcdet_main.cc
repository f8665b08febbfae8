// mvrcdet: command-line robustness checker.
//
// Usage:
//   mvrcdet [options] <workload.sql>
//   mvrcdet [options] --builtin=<smallbank|tpcc|auction>
//
// Options:
//   --subsets      also compute maximal robust subsets with the core-guided
//                  search (≤ 128 programs)
//   --dot          print the summary graph (attr dep + FK) as Graphviz DOT
//   --certify      on rejection, search for a concrete counterexample
//                  (counterexample schedules are MVRC executions; under
//                  --isolation=rc the search is still reported but certifies
//                  against the broader MVRC semantics)
//   --programs     print the derived BTP statement tables
//   --isolation=L  isolation level to analyze against: mvrc (default) or rc
//                  (lock-based Read Committed, the transaction-template
//                  characterization)
//   --json         print the report as a single JSON object instead of text
//                  (see WorkloadReport::ToJson; --dot/--certify/--programs
//                  keep their text output and are best not combined). The
//                  object gains a "session_stats" block: the incremental
//                  session counters (workload_session.h SessionStats) of a
//                  throwaway session replaying the workload
//   --trace=FILE   record phase spans (build/detect/core-search) and dump
//                  Chrome trace_event JSON on exit — load in
//                  chrome://tracing or https://ui.perfetto.dev
//   --metrics-json=FILE
//                  dump the final metrics snapshot (counters/gauges/latency
//                  histograms, see docs/OBSERVABILITY.md) as JSON on exit
//
// Exit status: 0 when robust under attr dep + FK / type-II at the chosen
// isolation level, 1 when not, 2 on usage or parse errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/certify.h"
#include "robust/report.h"
#include "service/workload_session.h"
#include "sql/analyzer.h"
#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mvrcdet [--subsets] [--dot] [--certify] [--programs]\n"
               "               [--isolation=mvrc|rc] [--json] [--trace=FILE]\n"
               "               [--metrics-json=FILE]\n"
               "               (<workload.sql> | --builtin=<smallbank|tpcc|auction>)\n");
  return 2;
}

// Dumps the global metrics snapshot to `path`; exit-path best effort.
bool WriteMetricsJson(const std::string& path) {
  const std::string rendered = mvrc::MetricsRegistry::Global().ToJson().Dump();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(rendered.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvrc;
  bool subsets = false, dot = false, certify = false, print_programs = false, json = false;
  IsolationLevel isolation = IsolationLevel::kMvrc;
  std::string file, builtin, trace_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--subsets") {
      subsets = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--certify") {
      certify = true;
    } else if (arg == "--programs") {
      print_programs = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--isolation=", 0) == 0) {
      std::optional<IsolationLevel> level =
          ParseIsolationLevel(arg.substr(std::strlen("--isolation=")));
      if (!level.has_value()) return Usage();
      isolation = *level;
    } else if (arg.rfind("--builtin=", 0) == 0) {
      builtin = arg.substr(std::strlen("--builtin="));
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
      if (trace_path.empty()) return Usage();
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics-json="));
      if (metrics_path.empty()) return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      file = arg;
    }
  }
  if (file.empty() == builtin.empty()) return Usage();

  if (!trace_path.empty()) TraceBuffer::Global().Start(size_t{1} << 16);

  Workload workload;
  if (!builtin.empty()) {
    if (builtin == "smallbank") {
      workload = MakeSmallBank();
    } else if (builtin == "tpcc") {
      workload = MakeTpcc();
    } else if (builtin == "auction") {
      workload = MakeAuction();
    } else {
      return Usage();
    }
  } else {
    std::ifstream input(file);
    if (!input) {
      std::fprintf(stderr, "mvrcdet: cannot open %s\n", file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << input.rdbuf();
    Result<Workload> parsed = ParseWorkloadSql(text.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "mvrcdet: %s\n", parsed.error().c_str());
      return 2;
    }
    workload = std::move(parsed).value();
    workload.name = file;
  }

  if (print_programs) {
    for (const Btp& program : workload.programs) {
      std::printf("%s", program.ToDebugString(workload.schema).c_str());
    }
    std::printf("\n");
  }

  WorkloadReport report = BuildReport(workload, subsets, isolation);
  if (json) {
    Json doc = report.ToJson();
    // Replay the workload through a throwaway incremental session so the
    // report carries the SessionStats block (one rendering shared with the
    // protocol's `stats` and `metrics` responses).
    WorkloadSession session(workload.name.empty() ? "mvrcdet" : workload.name,
                            AnalysisSettings::AttrDepFk().WithIsolation(isolation));
    if (session.LoadWorkload(workload).ok()) {
      session.Check(Method::kTypeII);
      doc.Set("session_stats", session.stats().ToJson());
    }
    std::printf("%s\n", doc.Dump().c_str());
  } else {
    std::printf("%s", report.ToText().c_str());
  }

  bool robust = IsRobustUnder(workload.programs,
                              AnalysisSettings::AttrDepFk().WithIsolation(isolation),
                              Method::kTypeII);
  if (!robust && certify) {
    SearchOptions options;
    options.domain_size = 2;
    options.max_txns = 3;
    options.max_schedules = 2'000'000;
    CertificationOutcome outcome =
        CertifyRobustness(workload, AnalysisSettings::AttrDepFk(), options);
    std::printf("\ncertification:\n%s", outcome.Describe(workload).c_str());
  }

  if (dot) {
    SummaryGraph graph = BuildSummaryGraph(
        workload.programs, AnalysisSettings::AttrDepFk().WithIsolation(isolation));
    std::printf("\n%s", graph.ToDot(workload.name).c_str());
  }

  if (!trace_path.empty()) {
    TraceBuffer::Global().Stop();
    if (!TraceBuffer::Global().WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "mvrcdet: cannot write trace to %s\n", trace_path.c_str());
      return 2;
    }
  }
  if (!metrics_path.empty() && !WriteMetricsJson(metrics_path)) {
    std::fprintf(stderr, "mvrcdet: cannot write metrics to %s\n", metrics_path.c_str());
    return 2;
  }
  return robust ? 0 : 1;
}
