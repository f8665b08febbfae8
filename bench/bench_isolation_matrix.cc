// The isolation matrix: per-policy robustness rates across workloads and
// settings — the end-to-end demonstration of the pluggable isolation-policy
// layer. For every workload (SmallBank, TPC-C, Auction, IsolationDemo, and
// the 48-program Auction(24), which exercises the wide regime), every
// granularity/FK setting, and both shipped policies (MVRC, lock-based RC),
// it reports the full-set verdict and the subset analysis' robust-subset
// count/rate from the core-guided search — as a per-mask verdict list
// through kMaxSubsetPrograms and as the lattice (cores + maximal sets)
// beyond it — and enforces three correctness gates:
//
//   1. Monotonicity: every lock-based-RC schedule is MVRC-admissible, so
//      every MVRC-robust subset must also be RC-robust — per maximal
//      MVRC-robust set on every cell (sufficient: robustness is
//      downward-closed, so the maximal sets dominate every MVRC-robust
//      subset), and per mask where the verdict list is materialized.
//   2. Separation: at least one (workload, setting) cell must differ
//      between the two policies (IsolationDemo guarantees this: not robust
//      under MVRC, robust under lock-based RC, on all four settings).
//   3. Graph sharing: MVRC and RC summary graphs differ only in
//      counterflow edges (non-counterflow generation is
//      isolation-independent).
//
// With --threads=T the cells themselves fan across one T-worker pool (each
// cell runs its build and search serially inside its worker — the pool does
// not nest); gates and output are evaluated after the barrier in the fixed
// cell order, so every verdict, lattice, and printed line is identical at
// any thread count (only the timing fields vary).
//
// Exit status 0 and "ok": true in the JSON record only when every gate
// holds. Usage:
//   bench_isolation_matrix [--threads=T] [--json-out=PATH|-]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "btp/unfold.h"
#include "robust/core_search.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "util/check.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workloads/auction.h"
#include "workloads/policy_demo.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

struct Options {
  int threads = 1;
  std::string json_out = "BENCH_isolation_matrix.json";
};

struct CellResult {
  bool robust = false;
  int num_edges = 0;
  int num_counterflow_edges = 0;
  double seconds = 0;
  // The core-guided subset analysis; robust_masks are materialized through
  // kMaxSubsetPrograms programs.
  SubsetReport subsets;
};

// One (workload, settings, policy) cell, fully self-contained so cells can
// run concurrently on pool workers: `inner_pool` must be null when the cell
// itself runs on a worker (the pool does not nest).
CellResult RunCell(const Workload& workload, const AnalysisSettings& settings,
                   ThreadPool* inner_pool) {
  CellResult cell;
  Stopwatch timer;
  // One graph build serves both the full-set verdict and the subset search
  // (the search only needs the per-BTP LTP ranges on top of it).
  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range;
  for (const Btp& program : workload.programs) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(program);
    ltp_range.push_back({static_cast<int>(all_ltps.size()),
                         static_cast<int>(all_ltps.size() + unfolded.size())});
    for (Ltp& ltp : unfolded) all_ltps.push_back(std::move(ltp));
  }
  SummaryGraph graph =
      BuildSummaryGraph(std::move(all_ltps), settings,
                        inner_pool != nullptr && inner_pool->num_threads() > 1 ? inner_pool
                                                                               : nullptr);
  cell.num_edges = graph.num_edges();
  cell.num_counterflow_edges = graph.num_counterflow_edges();
  cell.robust = RunCycleTest(graph, Method::kTypeII, settings.policy()).robust;
  MaskedDetector detector(graph, ltp_range, settings.policy());
  Result<SubsetReport> report =
      AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, inner_pool);
  MVRC_CHECK_MSG(report.ok(), report.error().c_str());
  cell.subsets = std::move(report).value();
  cell.seconds = timer.ElapsedSeconds();
  return cell;
}

// Gates + report for one (workload, base-setting) pair, on cells computed
// beforehand. Runs on the main thread after the fan-out barrier.
bool ReportPair(const Workload& workload, const AnalysisSettings& base, const CellResult& mvrc,
                const CellResult& rc, Json& records, int& cells_differing) {
  const uint32_t full =
      workload.programs.size() >= 32
          ? ~uint32_t{0}
          : (uint32_t{1} << workload.programs.size()) - 1;

  // Gate 3: non-counterflow edge generation is isolation-independent.
  if (mvrc.num_edges - mvrc.num_counterflow_edges !=
      rc.num_edges - rc.num_counterflow_edges) {
    std::printf("FAIL: %s / %s: non-counterflow edge counts differ across policies\n",
                workload.name.c_str(), base.name());
    return false;
  }
  // Gate 1 (full set): MVRC-robust implies RC-robust.
  if (mvrc.robust && !rc.robust) {
    std::printf("FAIL: %s / %s: MVRC-robust but not RC-robust\n", workload.name.c_str(),
                base.name());
    return false;
  }
  // Gate 1 (lattice): every maximal MVRC-robust set must be RC-robust, which
  // covers every MVRC-robust subset by downward closure. The RC lattice
  // answers membership from its cores.
  for (const ProgramSet& set : mvrc.subsets.maximal_sets) {
    if (!rc.subsets.IsRobustSubset(set)) {
      std::printf("FAIL: %s / %s: a maximal MVRC-robust set is not RC-robust\n",
                  workload.name.c_str(), base.name());
      return false;
    }
  }
  // Gate 1 (per mask), where the verdict list is materialized.
  for (uint32_t mask : mvrc.subsets.robust_masks) {
    if (!rc.subsets.IsRobustSubset(mask)) {
      std::printf("FAIL: %s / %s: mask %u MVRC-robust but not RC-robust\n",
                  workload.name.c_str(), base.name(), mask);
      return false;
    }
  }

  const bool per_mask = SubsetProgramCountOk(static_cast<int>(workload.programs.size()));
  const bool differs = mvrc.robust != rc.robust || mvrc.subsets.cores != rc.subsets.cores ||
                       mvrc.subsets.maximal_sets != rc.subsets.maximal_sets;
  cells_differing += differs ? 1 : 0;

  for (const auto& [policy_name, cell] :
       {std::pair<const char*, const CellResult*>{"mvrc", &mvrc},
        std::pair<const char*, const CellResult*>{"rc", &rc}}) {
    Json record = Json::Object();
    record.Set("workload", Json::Str(workload.name));
    record.Set("settings", Json::Str(base.ToString()));
    record.Set("isolation", Json::Str(policy_name));
    record.Set("num_programs", Json::Int(static_cast<int64_t>(workload.programs.size())));
    record.Set("num_edges", Json::Int(cell->num_edges));
    record.Set("num_counterflow_edges", Json::Int(cell->num_counterflow_edges));
    record.Set("robust", Json::Bool(cell->robust));
    record.Set("search", Json::Str(per_mask ? "exhaustive" : "core_guided"));
    if (per_mask) {
      const size_t robust_subsets = cell->subsets.robust_masks.size();
      record.Set("robust_subsets", Json::Int(static_cast<int64_t>(robust_subsets)));
      record.Set("total_subsets", Json::Int(static_cast<int64_t>(full)));
      record.Set("robust_rate",
                 Json::Number(full > 0 ? static_cast<double>(robust_subsets) / full : 0));
    } else {
      record.Set("cores_found", Json::Int(static_cast<int64_t>(cell->subsets.cores.size())));
      record.Set("maximal_found",
                 Json::Int(static_cast<int64_t>(cell->subsets.maximal_sets.size())));
      record.Set("detector_queries", Json::Int(cell->subsets.detector_queries));
    }
    record.Set("seconds", Json::Number(cell->seconds));
    records.Append(std::move(record));
  }

  std::printf("%-14s %-16s mvrc: %-10s rc: %-10s", workload.name.c_str(), base.name(),
              mvrc.robust ? "robust" : "not robust", rc.robust ? "robust" : "not robust");
  if (per_mask) {
    std::printf("  robust subsets %zu -> %zu of %u", mvrc.subsets.robust_masks.size(),
                rc.subsets.robust_masks.size(), full);
  } else {
    std::printf("  cores %zu -> %zu, maximal %zu -> %zu", mvrc.subsets.cores.size(),
                rc.subsets.cores.size(), mvrc.subsets.maximal_sets.size(),
                rc.subsets.maximal_sets.size());
  }
  std::printf("%s\n", differs ? "  [differs]" : "");
  return true;
}

int Run(const Options& options) {
  std::unique_ptr<ThreadPool> pool;
  if (options.threads != 1) {
    pool = std::make_unique<ThreadPool>(ThreadPool::ResolveThreadCount(options.threads));
  }

  Json doc = Json::Object();
  doc.Set("bench", Json::Str("isolation_matrix"));

  // Flatten the matrix into independent cell jobs — (workload, setting,
  // policy) triples — and fan them across the pool; each cell runs serially
  // inside its worker (null inner pool: no nesting). Without a pool the same
  // jobs run inline, with the pool reused inside each cell instead.
  const std::vector<Workload> workloads = {MakeSmallBank(), MakeTpcc(), MakeAuction(),
                                           MakeIsolationDemo(), MakeAuctionN(24)};
  const AnalysisSettings bases[] = {
      AnalysisSettings::TupleDep(),
      AnalysisSettings::AttrDep(),
      AnalysisSettings::TupleDepFk(),
      AnalysisSettings::AttrDepFk(),
  };
  struct CellJob {
    const Workload* workload = nullptr;
    const AnalysisSettings* base = nullptr;
    AnalysisSettings settings;
  };
  std::vector<CellJob> jobs;
  for (const Workload& workload : workloads) {
    for (const AnalysisSettings& base : bases) {
      jobs.push_back({&workload, &base, base});
      jobs.push_back({&workload, &base, base.WithIsolation(IsolationLevel::kRc)});
    }
  }
  std::vector<CellResult> cells(jobs.size());
  Stopwatch wall;
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int64_t>(jobs.size()), [&](int64_t j) {
      cells[j] = RunCell(*jobs[j].workload, jobs[j].settings, nullptr);
    });
  } else {
    for (size_t j = 0; j < jobs.size(); ++j) {
      cells[j] = RunCell(*jobs[j].workload, jobs[j].settings, nullptr);
    }
  }
  const double wall_seconds = wall.ElapsedSeconds();

  // Gates and rendering run after the barrier, in job order — the output is
  // identical at every --threads value.
  Json records = Json::Array();
  int cells_differing = 0;
  bool ok = true;
  for (size_t j = 0; ok && j < jobs.size(); j += 2) {
    ok = ReportPair(*jobs[j].workload, *jobs[j].base, cells[j], cells[j + 1], records,
                    cells_differing);
  }

  // Gate 2: the policy layer must be observably pluggable — some cell must
  // separate the two levels (IsolationDemo exists for exactly this).
  if (ok && cells_differing == 0) {
    std::printf("FAIL: no (workload, settings) cell separates MVRC from RC\n");
    ok = false;
  }

  doc.Set("workloads", std::move(records));
  doc.Set("cells_differing", Json::Int(cells_differing));
  doc.Set("cells_total", Json::Int(static_cast<int64_t>(jobs.size())));
  doc.Set("wall_seconds", Json::Number(wall_seconds));
  return bench::FinishBenchJson(std::move(doc), ok, options.json_out, options.threads) ? 0 : 1;
}

}  // namespace
}  // namespace mvrc

int main(int argc, char** argv) {
  mvrc::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      options.threads = std::atoi(arg.c_str() + std::strlen("--threads="));
    } else if (arg.rfind("--json-out=", 0) == 0) {
      options.json_out = arg.substr(std::strlen("--json-out="));
    } else {
      std::fprintf(stderr, "usage: %s [--threads=T] [--json-out=PATH|-]\n", argv[0]);
      return 2;
    }
  }
  return mvrc::Run(options);
}
