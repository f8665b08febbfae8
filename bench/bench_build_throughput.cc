// Benchmark + correctness gate for the interned statement-shape
// summary-graph builder (Algorithm 1, the Figure 8 scalability axis).
//
// For replicated Auction and TPC-C workloads at --programs BTPs (default
// 1024) this times, under all four Figure 6 settings,
//   1. the interned builder (statement-shape interning -> shape-pair verdict
//      matrix -> LTP-shape cell-template replay -> CSR arena), and
//   2. the legacy per-pair builder (tests/support/build_oracle.h:
//      SummaryEdgesBetween per LTP-pair cell, edge-by-edge insertion,
//      adjacency finalize) — the seed's code path,
// asserts the two graphs are bit-identical (edge arena, counterflow count
// and per-node adjacency; exit 1 otherwise — CI runs this as the
// interned-vs-legacy gate) and emits a machine-readable JSON record
// (BENCH_build_throughput.json by default) so edges/sec is tracked across
// PRs. Replication clones each base program's unfolded LTPs under fresh
// names over the *shared* schema — the thousands-of-programs serving case
// the incremental service targets, where workloads have a handful of
// distinct statement shapes.
//
// Flags:
//   --programs=N          replicated BTPs per workload (default 1024)
//   --json-out=PATH       where to write the JSON record (default
//                         BENCH_build_throughput.json; "-" disables)
//   --require-speedup=X   exit 1 unless the interned build is >= X times
//                         faster than the legacy one, aggregated over every
//                         workload and all four settings (default 0)
//   --skip-tpcc           bench the replicated Auction only

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_json.h"
#include "btp/unfold.h"
#include "summary/build_summary.h"
#include "summary/statement_interner.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "workloads/auction.h"
#include "workloads/tpcc.h"
#include "support/build_oracle.h"

namespace mvrc {
namespace {

struct Options {
  int programs = 1024;
  std::string json_out = "BENCH_build_throughput.json";
  double require_speedup = 0.0;
  bool skip_tpcc = false;
};

// Clones each base program's unfolded LTPs under suffixed names until
// `target` program replicas exist, all over the base workload's schema.
std::vector<Ltp> ReplicateLtps(const Workload& workload, int target) {
  std::vector<std::vector<Ltp>> base;
  base.reserve(workload.programs.size());
  for (const Btp& program : workload.programs) base.push_back(UnfoldAtMost2(program));
  std::vector<Ltp> out;
  int programs = 0;
  for (int rep = 0; programs < target; ++rep) {
    const std::string suffix = "#" + std::to_string(rep);
    for (size_t i = 0; i < base.size() && programs < target; ++i, ++programs) {
      for (const Ltp& ltp : base[i]) {
        out.emplace_back(ltp.name() + suffix, ltp.source_program() + suffix,
                         ltp.occurrences(), ltp.constraints());
      }
    }
  }
  return out;
}

// Full identity gate between the two builds: edge arena, counterflow count
// and every node's in/out adjacency (the legacy graph's index lists edge
// positions in insertion order; the interned arena must reproduce them).
bool SameGraph(const SummaryGraph& a, const SummaryGraph& b) {
  if (a.num_programs() != b.num_programs() || a.num_edges() != b.num_edges()) return false;
  if (a.num_counterflow_edges() != b.num_counterflow_edges()) return false;
  if (!(a.edges() == b.edges())) return false;
  for (int p = 0; p < a.num_programs(); ++p) {
    const auto ao = a.OutEdges(p), bo = b.OutEdges(p);
    const auto ai = a.InEdges(p), bi = b.InEdges(p);
    if (!std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()) ||
        !std::equal(ai.begin(), ai.end(), bi.begin(), bi.end())) {
      return false;
    }
  }
  return true;
}

struct WorkloadTotals {
  double interned_seconds = 0;
  double legacy_seconds = 0;
};

bool BenchSetting(const std::string& name, const std::vector<Ltp>& ltps, int num_programs,
                  const AnalysisSettings& settings, Json& records,
                  WorkloadTotals& totals) {
  // Warm-up build: first-touch page faults and allocator growth are paid
  // here, so the timed runs below compare the builders, not the kernel's
  // page allocator (mirrors the masked-sweep bench's warm-up convention).
  { SummaryGraph warm = BuildSummaryGraph(ltps, settings); }

  // Both builders are timed as the minimum over repeated runs (the timeit
  // estimator: the min is the least scheduler-noise-contaminated sample).
  // The interned build gets one more rep because its runs are an order of
  // magnitude shorter and proportionally noisier.
  double interned_seconds = 0;
  SummaryGraph interned = [&] {
    Stopwatch timer;
    SummaryGraph graph = BuildSummaryGraph(ltps, settings);
    interned_seconds = timer.ElapsedSeconds();
    return graph;
  }();
  for (int rep = 1; rep < 3; ++rep) {
    Stopwatch timer;
    SummaryGraph again = BuildSummaryGraph(ltps, settings);
    interned_seconds = std::min(interned_seconds, timer.ElapsedSeconds());
  }

  double legacy_seconds = 0;
  SummaryGraph legacy = [&] {
    Stopwatch timer;
    SummaryGraph graph = oracle::BuildSummaryGraphLegacy(ltps, settings);
    legacy_seconds = timer.ElapsedSeconds();
    return graph;
  }();
  {
    Stopwatch timer;
    SummaryGraph again = oracle::BuildSummaryGraphLegacy(ltps, settings);
    legacy_seconds = std::min(legacy_seconds, timer.ElapsedSeconds());
  }

  if (!SameGraph(legacy, interned)) {
    std::printf("FAIL: interned build differs from the legacy builder (%s / %s)\n",
                name.c_str(), settings.name());
    return false;
  }

  StatementInterner shape_counter;
  for (const Ltp& ltp : ltps) {
    for (int q = 0; q < ltp.size(); ++q) shape_counter.Intern(ltp.stmt(q));
  }

  totals.interned_seconds += interned_seconds;
  totals.legacy_seconds += legacy_seconds;
  const double speedup = interned_seconds > 0 ? legacy_seconds / interned_seconds : 0;
  const double edges = interned.num_edges();
  std::printf("%s / %s: %d programs, %zu LTPs, %d edges, %d shapes\n", name.c_str(),
              settings.name(), num_programs, ltps.size(), interned.num_edges(),
              shape_counter.num_shapes());
  std::printf(
      "  interned: %.4fs  (%.0f edges/sec)\n"
      "  legacy:   %.4fs  (%.0f edges/sec)\n"
      "  speedup:  %.1fx\n",
      interned_seconds, edges / interned_seconds, legacy_seconds, edges / legacy_seconds,
      legacy_seconds / interned_seconds);

  Json record = Json::Object();
  record.Set("workload", Json::Str(name));
  record.Set("settings", Json::Str(settings.name()));
  record.Set("num_programs", Json::Int(num_programs));
  record.Set("num_ltps", Json::Int(static_cast<int64_t>(ltps.size())));
  record.Set("num_edges", Json::Int(interned.num_edges()));
  record.Set("num_counterflow_edges", Json::Int(interned.num_counterflow_edges()));
  record.Set("shapes_interned", Json::Int(shape_counter.num_shapes()));
  record.Set("interned_seconds", Json::Number(interned_seconds));
  record.Set("interned_edges_per_sec", Json::Number(edges / interned_seconds));
  record.Set("legacy_seconds", Json::Number(legacy_seconds));
  record.Set("legacy_edges_per_sec", Json::Number(edges / legacy_seconds));
  record.Set("speedup", Json::Number(speedup));
  records.Append(std::move(record));
  return true;
}

const AnalysisSettings kAllSettings[] = {
    AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
    AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()};

// All four Figure 6 settings over one replicated workload, accumulating
// into the run-level totals the speedup gate applies to (single settings
// can be noise-dominated — the full experiment always pays all four).
bool BenchWorkload(const Workload& workload, const Options& options, Json& records,
                   WorkloadTotals& totals) {
  const std::string name = workload.name + " x" + std::to_string(options.programs);
  std::vector<Ltp> ltps = ReplicateLtps(workload, options.programs);
  WorkloadTotals workload_totals;
  for (const AnalysisSettings& settings : kAllSettings) {
    if (!BenchSetting(name, ltps, options.programs, settings, records, workload_totals)) {
      return false;
    }
  }
  std::printf("%s all settings: interned %.4fs, legacy %.4fs, speedup %.1fx\n\n",
              name.c_str(), workload_totals.interned_seconds, workload_totals.legacy_seconds,
              workload_totals.legacy_seconds / workload_totals.interned_seconds);
  totals.interned_seconds += workload_totals.interned_seconds;
  totals.legacy_seconds += workload_totals.legacy_seconds;
  return true;
}

int Run(const Options& options) {
  Json doc = Json::Object();
  doc.Set("bench", Json::Str("build_throughput"));
  Json records = Json::Array();

  WorkloadTotals totals;
  bool ok = BenchWorkload(MakeAuction(), options, records, totals);
  if (ok && !options.skip_tpcc) {
    ok = BenchWorkload(MakeTpcc(), options, records, totals);
  }
  const double speedup =
      totals.interned_seconds > 0 ? totals.legacy_seconds / totals.interned_seconds : 0;
  if (ok) {
    std::printf("overall: interned %.4fs, legacy %.4fs, speedup %.1fx\n", totals.interned_seconds,
                totals.legacy_seconds, speedup);
    if (options.require_speedup > 0 && speedup < options.require_speedup) {
      std::printf("FAIL: overall speedup %.1fx below required %.1fx\n", speedup,
                  options.require_speedup);
      ok = false;
    }
  }

  doc.Set("workloads", std::move(records));
  doc.Set("overall_speedup", Json::Number(speedup));
  return bench::FinishBenchJson(std::move(doc), ok, options.json_out) ? 0 : 1;
}

}  // namespace
}  // namespace mvrc

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Keep large arenas on the heap across builds instead of returning them to
  // the kernel, so repeated builds measure the builders rather than repeated
  // first-touch page faults. Applied identically to both builders.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  mvrc::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--programs=", 0) == 0) {
      options.programs = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--json-out=", 0) == 0) {
      options.json_out = arg.substr(11);
    } else if (arg.rfind("--require-speedup=", 0) == 0) {
      options.require_speedup = std::atof(arg.c_str() + 18);
    } else if (arg == "--skip-tpcc") {
      options.skip_tpcc = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--programs=N] [--json-out=PATH|-] "
                   "[--require-speedup=X] [--skip-tpcc]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.programs < 1 || options.programs > 100000) {
    std::fprintf(stderr, "--programs must be in [1, 100000]\n");
    return 2;
  }
  return mvrc::Run(options);
}
