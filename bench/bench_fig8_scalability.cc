// Reproduces Figure 8: (left) wall-clock time to verify robustness against
// MVRC for Auction(n) as the scaling factor grows, 10 repetitions with mean
// and 95% confidence interval; (right) the number of edges in the summary
// graph. The paper's Python prototype needs seconds at n = 100; the shape
// to reproduce is the polynomial growth and a robust verdict at every n.
//
// The timing covers the full pipeline per the paper's experiment: Unfold≤2,
// Algorithm 1 (summary-graph construction) and the type-II cycle test, and
// is also split by layer: "build" is Unfold≤2 plus Algorithm 1, "cycle test"
// the whole-graph IsRobust (MaskedDetector construction plus the full-set
// query).

#include <cmath>
#include <cstdio>
#include <vector>

#include "robust/detector.h"
#include "summary/build_summary.h"
#include "util/stopwatch.h"
#include "workloads/auction.h"

namespace mvrc {
namespace {

struct Measurement {
  double mean_ms = 0;
  double ci95_ms = 0;
  double build_ms = 0;  // mean of the build layer
  double test_ms = 0;   // mean of the cycle-test layer
};

Measurement Measure(int n, int repetitions, bool* robust) {
  std::vector<double> samples;
  samples.reserve(repetitions);
  Workload workload = MakeAuctionN(n);
  const AnalysisSettings settings = AnalysisSettings::AttrDepFk();
  Measurement m;
  for (int rep = 0; rep < repetitions; ++rep) {
    Stopwatch build_watch;
    SummaryGraph graph = BuildSummaryGraph(workload.programs, settings);
    const double build_ms = build_watch.ElapsedMillis();
    Stopwatch test_watch;
    *robust = IsRobust(graph, Method::kTypeII, settings.policy());
    const double test_ms = test_watch.ElapsedMillis();
    samples.push_back(build_ms + test_ms);
    m.build_ms += build_ms / repetitions;
    m.test_ms += test_ms / repetitions;
  }
  for (double s : samples) m.mean_ms += s;
  m.mean_ms /= samples.size();
  double variance = 0;
  for (double s : samples) variance += (s - m.mean_ms) * (s - m.mean_ms);
  variance /= samples.size() > 1 ? samples.size() - 1 : 1;
  // 95% CI half-width, normal approximation.
  m.ci95_ms = 1.96 * std::sqrt(variance / samples.size());
  return m;
}

}  // namespace
}  // namespace mvrc

int main() {
  using namespace mvrc;
  constexpr int kRepetitions = 10;
  std::printf("Figure 8: Auction(n) robustness-verification time and graph size\n");
  std::printf("%6s %12s %14s %12s %12s %16s %12s %8s\n", "n", "programs",
              "time mean (ms)", "ci95 (ms)", "build (ms)", "cycle test (ms)", "edges",
              "robust");
  for (int n : {1, 2, 5, 10, 20, 40, 60, 80, 100}) {
    bool robust = false;
    Measurement m = Measure(n, kRepetitions, &robust);
    SummaryGraph graph =
        BuildSummaryGraph(MakeAuctionN(n).programs, AnalysisSettings::AttrDepFk());
    std::printf("%6d %12d %14.3f %12.3f %12.3f %16.3f %12d %8s\n", n, graph.num_programs(),
                m.mean_ms, m.ci95_ms, m.build_ms, m.test_ms, graph.num_edges(),
                robust ? "yes" : "NO");
  }
  std::printf(
      "\nexpected shape: edges grow as 8n + 9n^2; detection stays polynomial and\n"
      "Auction(n) is verified robust for every n (paper §7.3).\n");
  return 0;
}
