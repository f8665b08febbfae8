#include "robust/detector.h"

#include <sstream>
#include <string>

#include "robust/masked_detector.h"
#include "util/check.h"

namespace mvrc {

bool AdjacentPairCondition(const SummaryGraph& graph, const SummaryEdge& e3,
                           const SummaryEdge& e4, const IsolationPolicy& policy) {
  MVRC_CHECK(e3.to_program == e4.from_program);
  const Statement& q3 = graph.program(e3.from_program).stmt(e3.from_occ);
  return policy.DangerousAdjacentPair(e3.counterflow, e3.to_occ, q3.type(), e4.from_occ);
}

bool AdjacentPairCondition(const SummaryGraph& graph, const SummaryEdge& e3,
                           const SummaryEdge& e4) {
  return AdjacentPairCondition(graph, e3, e4, GetPolicy(IsolationLevel::kMvrc));
}

std::string TypeIWitness::Describe(const SummaryGraph& graph) const {
  std::ostringstream os;
  os << "type-I cycle: counterflow edge " << graph.DescribeEdge(edge)
     << "; returns via programs";
  for (int p : return_path) os << " " << graph.program(p).name();
  return os.str();
}

std::string TypeIIWitness::Describe(const SummaryGraph& graph) const {
  std::ostringstream os;
  os << "type-II cycle:\n";
  os << "  e1 (non-counterflow): " << graph.DescribeEdge(e1) << "\n";
  os << "  e3:                   " << graph.DescribeEdge(e3) << "\n";
  os << "  e4 (counterflow):     " << graph.DescribeEdge(e4) << "\n";
  os << "  path P2~>P3:";
  for (int p : path_p2_to_p3) os << " " << graph.program(p).name();
  os << "\n  path P5~>P1:";
  for (int p : path_p5_to_p1) os << " " << graph.program(p).name();
  return os.str();
}

std::string RcSplitWitness::Describe(const SummaryGraph& graph) const {
  std::ostringstream os;
  os << "rc split cycle (split program " << graph.program(outgoing.from_program).name()
     << "):\n";
  os << "  outgoing (counterflow):     " << graph.DescribeEdge(outgoing) << "\n";
  os << "  incoming (non-counterflow): " << graph.DescribeEdge(incoming) << "\n";
  os << "  path P2~>Pn:";
  for (int p : return_path) os << " " << graph.program(p).name();
  return os.str();
}

namespace {

// The whole graph as a detector's single program range, so the full-set
// query activates every LTP node.
MaskedDetector WholeGraphDetector(const SummaryGraph& graph, const IsolationPolicy& policy) {
  return MaskedDetector(graph, {{0, graph.num_programs()}}, policy);
}

}  // namespace

bool IsRobust(const SummaryGraph& graph, Method method, const IsolationPolicy& policy) {
  MaskedDetector detector = WholeGraphDetector(graph, policy);
  DetectorScratch scratch = detector.MakeScratch();
  return detector.IsRobust(ProgramSet::Full(1), method, scratch);
}

CycleTestOutcome RunCycleTest(const SummaryGraph& graph, Method method,
                              const IsolationPolicy& policy) {
  return RunCycleTest(WholeGraphDetector(graph, policy), ProgramSet::Full(1), method);
}

bool IsRobustUnder(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                   Method method) {
  return IsRobust(BuildSummaryGraph(programs, settings), method, settings.policy());
}

bool IsRobustAgainstMvrc(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                         Method method) {
  return IsRobustUnder(programs, settings, method);
}

}  // namespace mvrc
