// Benchmark + correctness gate for the core-guided subset search.
//
// Two phases:
//   1. Equivalence gate (small n): for SmallBank, TPC-C and Auction(pairs/4)
//      under tuple-dep and attr-dep settings, the core-guided lattice must
//      reproduce the robust_masks / maximal_masks of the per-mask oracle
//      sweep (tests/support/subset_oracle.h) bit-for-bit (exit 1 otherwise
//      — CI runs this as the core-guided-vs-exhaustive gate).
//   2. Wide lattice (the headline): Auction(pairs) — 2*pairs programs, past
//      the 2^20 exhaustive barrier — under attr dep (no FK: with FKs the
//      whole Auction workload is robust and the lattice is trivial). The
//      report's cores and maximal sets are re-verified against the detector
//      (each core non-robust and minimal, each maximal set robust and
//      maximal, plus sampled random subsets answered via IsRobustSubset),
//      and the detector-query count is compared against the 2^n masks the
//      exhaustive sweep would have paid.
//
// Emits a machine-readable JSON record (BENCH_core_search.json by default)
// so queries-vs-2^n and wall time are tracked across PRs.
//
// Flags:
//   --pairs=N        Auction(N) size for the wide phase, 2N programs
//                    (default 32 -> 64 programs; max 64 -> 128)
//   --threads=T      sweep the wide search over pools of 2, 4, ... up to T
//                    workers (powers of two), requiring every report to be
//                    bit-identical to the serial one
//   --samples=K      random subsets cross-checked against the detector in
//                    the wide phase (default 512)
//   --max-queries=Q  exit 1 when the wide search pays more than Q detector
//                    queries (default 0: report only)
//   --require-speedup=X
//                    exit 1 unless the T-thread run is at least X times
//                    faster than serial (default 0: report only — the gate
//                    is meant for CI machines with real cores, not laptops
//                    running on battery)
//   --json-out=PATH  where to write the JSON record (default
//                    BENCH_core_search.json; "-" disables the file)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "btp/unfold.h"
#include "robust/core_search.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "support/subset_oracle.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

struct Options {
  int pairs = 32;
  int threads = 1;
  int samples = 512;
  int64_t max_queries = 0;
  double require_speedup = 0;
  std::string json_out = "BENCH_core_search.json";
};

// --- Phase 1: the core-guided lattice must agree with the per-mask oracle
// sweep wherever the oracle can enumerate. Both sides are timed from
// programs (unfold + graph build + analysis).

bool CheckEquivalence(const Workload& workload, const AnalysisSettings& settings,
                      Json& records) {
  Stopwatch exhaustive_timer;
  const SubsetReport exhaustive =
      oracle::SweepSubsets(workload.programs, settings, Method::kTypeII);
  const double exhaustive_seconds = exhaustive_timer.ElapsedSeconds();
  CoreSearchStats stats;
  Stopwatch guided_timer;
  Result<SubsetReport> guided = TryAnalyzeSubsetsCoreGuided(
      workload.programs, settings, Method::kTypeII, nullptr, &stats);
  const double guided_seconds = guided_timer.ElapsedSeconds();
  if (!guided.ok()) {
    std::printf("FAIL: %s / %s: search errored (%s)\n", workload.name.c_str(),
                settings.name(), guided.error().c_str());
    return false;
  }
  if (guided.value().robust_masks != exhaustive.robust_masks ||
      guided.value().maximal_masks != exhaustive.maximal_masks) {
    std::printf("FAIL: %s / %s: core-guided lattice differs from the oracle "
                "sweep (%zu vs %zu robust masks, %zu vs %zu maximal)\n",
                workload.name.c_str(), settings.name(),
                guided.value().robust_masks.size(), exhaustive.robust_masks.size(),
                guided.value().maximal_masks.size(), exhaustive.maximal_masks.size());
    return false;
  }
  const int n = guided.value().num_programs;
  const int64_t exhaustive_queries = (int64_t{1} << n) - 1;
  std::printf("%s / %s: %d programs, %zu cores, %zu maximal — %lld queries vs %lld "
              "masks (%.4fs vs %.4fs)\n",
              workload.name.c_str(), settings.name(), n,
              guided.value().cores.size(), guided.value().maximal_masks.size(),
              static_cast<long long>(stats.detector_queries),
              static_cast<long long>(exhaustive_queries), guided_seconds,
              exhaustive_seconds);

  Json record = Json::Object();
  record.Set("workload", Json::Str(workload.name));
  record.Set("settings", Json::Str(settings.name()));
  record.Set("num_programs", Json::Int(n));
  record.Set("cores_found", Json::Int(static_cast<int64_t>(guided.value().cores.size())));
  record.Set("maximal_found",
             Json::Int(static_cast<int64_t>(guided.value().maximal_masks.size())));
  record.Set("detector_queries", Json::Int(stats.detector_queries));
  record.Set("exhaustive_masks", Json::Int(exhaustive_queries));
  record.Set("guided_seconds", Json::Number(guided_seconds));
  record.Set("exhaustive_seconds", Json::Number(exhaustive_seconds));
  records.Append(std::move(record));
  return true;
}

// --- Phase 2: exact lattice past the exhaustive barrier, re-verified
// against the detector.

bool CheckWide(const Options& options, Json& doc) {
  Workload workload = MakeAuctionN(options.pairs);
  // No-FK attr dep: the setting under which Auction's per-item PlaceBid
  // programs are individually non-robust, so the lattice is non-trivial.
  const AnalysisSettings settings = AnalysisSettings::AttrDep();

  // One detector shared by every timed run, so the sweep measures the search
  // itself rather than unfolding and graph construction.
  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range;
  for (const Btp& program : workload.programs) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(program);
    ltp_range.push_back({static_cast<int>(all_ltps.size()),
                         static_cast<int>(all_ltps.size() + unfolded.size())});
    for (Ltp& ltp : unfolded) all_ltps.push_back(std::move(ltp));
  }
  SummaryGraph graph = BuildSummaryGraph(std::move(all_ltps), settings);
  MaskedDetector detector(graph, ltp_range, settings.policy());
  DetectorScratch scratch = detector.MakeScratch();

  // Serial reference: best of kRepeats runs (the search is deterministic, so
  // repeats only absorb scheduler noise).
  constexpr int kRepeats = 3;
  CoreSearchStats stats;
  Result<SubsetReport> result = Result<SubsetReport>::Error("wide phase never ran");
  double seconds = 0;
  for (int r = 0; r < kRepeats; ++r) {
    CoreSearchStats run_stats;
    Stopwatch timer;
    Result<SubsetReport> run =
        AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, nullptr, nullptr, &run_stats);
    const double run_seconds = timer.ElapsedSeconds();
    if (!run.ok()) {
      std::printf("FAIL: wide search errored: %s\n", run.error().c_str());
      return false;
    }
    if (r == 0 || run_seconds < seconds) seconds = run_seconds;
    stats = run_stats;
    result = std::move(run);
  }
  const SubsetReport& report = result.value();
  const int n = report.num_programs;

  // Threads sweep: powers of two up to --threads, each timed best-of-kRepeats
  // against a fresh pool. Every parallel report must be bit-identical to the
  // serial one (the lattice is canonical; tests pin this too — the bench
  // gates it at benchmark scale).
  Json threads_sweep = Json::Array();
  double max_thread_seconds = seconds;
  for (int t = 2; t <= options.threads; t *= 2) {
    ThreadPool pool(t);
    CoreSearchStats thread_stats;
    double best = 0;
    bool identical = true;
    for (int r = 0; r < kRepeats; ++r) {
      CoreSearchStats run_stats;
      Stopwatch timer;
      Result<SubsetReport> run =
          AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, &pool, nullptr, &run_stats);
      const double run_seconds = timer.ElapsedSeconds();
      if (!run.ok() || run.value().cores != report.cores ||
          run.value().maximal_sets != report.maximal_sets) {
        identical = false;
        break;
      }
      if (r == 0 || run_seconds < best) best = run_seconds;
      thread_stats = run_stats;
    }
    if (!identical) {
      std::printf("FAIL: %d-thread wide search differs from serial\n", t);
      return false;
    }
    std::printf("  %2d threads: %.4fs (%.2fx), %lld queries, %d rounds, "
                "%d fallback extractions\n",
                t, best, best > 0 ? seconds / best : 0.0,
                static_cast<long long>(thread_stats.detector_queries), thread_stats.rounds,
                thread_stats.fallback_extractions);
    Json entry = Json::Object();
    entry.Set("threads", Json::Int(t));
    entry.Set("seconds", Json::Number(best));
    entry.Set("speedup", Json::Number(best > 0 ? seconds / best : 0.0));
    entry.Set("detector_queries", Json::Int(thread_stats.detector_queries));
    entry.Set("probe_queries", Json::Int(thread_stats.probe_queries));
    entry.Set("rounds", Json::Int(thread_stats.rounds));
    entry.Set("fallback_extractions", Json::Int(thread_stats.fallback_extractions));
    threads_sweep.Append(std::move(entry));
    max_thread_seconds = best;
  }
  const double speedup = max_thread_seconds > 0 ? seconds / max_thread_seconds : 0.0;
  if (options.require_speedup > 0) {
    if (options.threads < 2) {
      std::printf("FAIL: --require-speedup needs --threads >= 2\n");
      return false;
    }
    if (speedup < options.require_speedup) {
      std::printf("FAIL: %.2fx speedup at %d threads below the required %.2fx\n", speedup,
                  options.threads, options.require_speedup);
      return false;
    }
  }

  // Every reported core is non-robust and minimal.
  for (const ProgramSet& core : report.cores) {
    if (detector.IsRobust(core, Method::kTypeII, scratch)) {
      std::printf("FAIL: a reported core is robust\n");
      return false;
    }
    for (int p : core.ToIndices()) {
      if (!detector.IsRobust(core.Without(p), Method::kTypeII, scratch)) {
        std::printf("FAIL: a reported core is not minimal\n");
        return false;
      }
    }
  }
  // Every reported maximal set is robust and maximal.
  for (const ProgramSet& maximal : report.maximal_sets) {
    if (!detector.IsRobust(maximal, Method::kTypeII, scratch)) {
      std::printf("FAIL: a reported maximal set is not robust\n");
      return false;
    }
    for (int p = 0; p < n; ++p) {
      if (!maximal.Test(p) && detector.IsRobust(maximal.With(p), Method::kTypeII, scratch)) {
        std::printf("FAIL: a reported maximal set is not maximal\n");
        return false;
      }
    }
  }
  // Sampled subsets: the lattice answer must match the detector.
  std::mt19937_64 rng(20230807);
  for (int s = 0; s < options.samples; ++s) {
    ProgramSet subset(n);
    for (int p = 0; p < n; ++p) {
      if ((rng() & 1) != 0) subset.Set(p);
    }
    const bool expected =
        subset.Empty() ? false : detector.IsRobust(subset, Method::kTypeII, scratch);
    if (report.IsRobustSubset(subset) != expected) {
      std::printf("FAIL: IsRobustSubset disagrees with the detector on a sampled subset\n");
      return false;
    }
  }

  // 2^n - 1 as a double: exact up to n = 53 and the right magnitude beyond —
  // only reported as a ratio, never used for arithmetic gates.
  const double exhaustive_masks = std::ldexp(1.0, n) - 1.0;
  std::printf("%s / %s (wide): %d programs, %zu cores, %zu maximal\n"
              "  detector queries: %lld (candidates %lld, probes %lld, shrink %lld) vs "
              "2^%d-1 = %.3g masks exhaustive\n"
              "  wall time: %.4fs serial",
              workload.name.c_str(), settings.name(), n, report.cores.size(),
              report.maximal_sets.size(), static_cast<long long>(stats.detector_queries),
              static_cast<long long>(stats.candidate_queries),
              static_cast<long long>(stats.probe_queries),
              static_cast<long long>(stats.shrink_queries), n, exhaustive_masks, seconds);
  if (options.threads > 1) {
    std::printf(", %.4fs (%.2fx) with %d workers", max_thread_seconds, speedup,
                options.threads);
  }
  std::printf("\n");
  if (options.max_queries > 0 && stats.detector_queries > options.max_queries) {
    std::printf("FAIL: %lld detector queries above the required cap %lld\n",
                static_cast<long long>(stats.detector_queries),
                static_cast<long long>(options.max_queries));
    return false;
  }

  Json wide = Json::Object();
  wide.Set("workload", Json::Str(workload.name));
  wide.Set("settings", Json::Str(settings.name()));
  wide.Set("num_programs", Json::Int(n));
  wide.Set("cores_found", Json::Int(static_cast<int64_t>(report.cores.size())));
  wide.Set("maximal_found", Json::Int(static_cast<int64_t>(report.maximal_sets.size())));
  wide.Set("detector_queries", Json::Int(stats.detector_queries));
  wide.Set("candidate_queries", Json::Int(stats.candidate_queries));
  wide.Set("probe_queries", Json::Int(stats.probe_queries));
  wide.Set("shrink_queries", Json::Int(stats.shrink_queries));
  wide.Set("rounds", Json::Int(stats.rounds));
  wide.Set("exhaustive_masks", Json::Number(exhaustive_masks));
  wide.Set("queries_vs_exhaustive", Json::Number(stats.detector_queries / exhaustive_masks));
  wide.Set("seconds", Json::Number(seconds));
  wide.Set("samples_checked", Json::Int(options.samples));
  if (options.threads > 1) {
    wide.Set("threads_sweep", std::move(threads_sweep));
    wide.Set("speedup", Json::Number(speedup));
    wide.Set("require_speedup", Json::Number(options.require_speedup));
  }
  doc.Set("wide", std::move(wide));
  return true;
}

int Run(const Options& options) {
  Json doc = Json::Object();
  doc.Set("bench", Json::Str("core_search"));
  Json records = Json::Array();

  bool ok = true;
  const AnalysisSettings kSettings[] = {AnalysisSettings::TupleDep(),
                                        AnalysisSettings::AttrDep()};
  for (const Workload& workload :
       // The Auction equivalence size tracks --pairs but stays within the
       // exhaustive sweep's reach (2*8 = 16 <= kMaxSubsetPrograms).
       {MakeSmallBank(), MakeTpcc(),
        MakeAuctionN(std::min(8, std::max(2, options.pairs / 4)))}) {
    for (const AnalysisSettings& settings : kSettings) {
      ok = ok && CheckEquivalence(workload, settings, records);
    }
  }
  doc.Set("equivalence", std::move(records));

  ok = ok && CheckWide(options, doc);

  return bench::FinishBenchJson(std::move(doc), ok, options.json_out, options.threads) ? 0 : 1;
}

}  // namespace
}  // namespace mvrc

int main(int argc, char** argv) {
  mvrc::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pairs=", 0) == 0) {
      options.pairs = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--samples=", 0) == 0) {
      options.samples = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--max-queries=", 0) == 0) {
      options.max_queries = std::atoll(arg.c_str() + 14);
    } else if (arg.rfind("--require-speedup=", 0) == 0) {
      options.require_speedup = std::atof(arg.c_str() + 18);
    } else if (arg.rfind("--json-out=", 0) == 0) {
      options.json_out = arg.substr(11);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--pairs=N] [--threads=T] [--samples=K] "
                   "[--max-queries=Q] [--require-speedup=X] [--json-out=PATH|-]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.pairs < 4 || options.pairs > 64) {
    std::fprintf(stderr, "--pairs must be in [4, 64] (8..128 programs)\n");
    return 2;
  }
  if (options.samples < 0 || options.samples > 1'000'000) {
    std::fprintf(stderr, "--samples must be in [0, 1000000]\n");
    return 2;
  }
  return mvrc::Run(options);
}
