#include "robust/certify.h"

#include <sstream>

#include "btp/unfold.h"
#include "robust/masked_detector.h"
#include "summary/build_summary.h"

namespace mvrc {

std::string CertificationOutcome::Describe(const Workload& workload) const {
  std::ostringstream os;
  if (IsCertifiedRobust()) {
    os << "robust against mvrc (sound verdict; every allowed schedule is "
          "serializable)\n";
    return os.str();
  }
  SummaryGraph graph =
      BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  os << "not detected robust\n";
  if (witness.has_value()) {
    os << witness->Describe(graph) << "\n";
  }
  if (IsCertifiedNonRobust()) {
    os << "rejection certified by a concrete schedule:\n"
       << counterexample->Describe(workload.schema);
  } else {
    os << "no counterexample within the search bounds ("
       << search_stats.schedules_checked
       << " schedules checked) — possibly a false negative\n";
  }
  return os.str();
}

CertificationOutcome CertifyRobustness(const Workload& workload,
                                       const AnalysisSettings& settings,
                                       const SearchOptions& search_options) {
  CertificationOutcome outcome;
  std::vector<Ltp> ltps = UnfoldAtMost2(workload.programs);
  SummaryGraph graph = BuildSummaryGraph(std::move(ltps), settings);
  // Algorithm 2 under MVRC, as the full-set query of a single-range detector.
  MaskedDetector detector(graph, {{0, graph.num_programs()}});
  DetectorScratch scratch = detector.MakeScratch();
  outcome.witness = detector.FindTypeIICycle(ProgramSet::Full(1), scratch);
  outcome.detector_robust = !outcome.witness.has_value();
  if (outcome.detector_robust) return outcome;

  // Witness-guided phase: the programs on the witness cycle are the most
  // likely participants of a concrete counterexample — try their multiset
  // first (with a slice of the budget) before the general enumeration.
  std::vector<Ltp> programs = UnfoldAtMost2(workload.programs);
  std::vector<int> on_cycle;
  for (int p : {outcome.witness->e1.from_program, outcome.witness->e1.to_program,
                outcome.witness->e3.from_program, outcome.witness->e3.to_program,
                outcome.witness->e4.from_program, outcome.witness->e4.to_program}) {
    bool seen = false;
    for (int q : on_cycle) seen |= (q == p);
    if (!seen) on_cycle.push_back(p);
  }
  if (on_cycle.size() == 1) on_cycle.push_back(on_cycle[0]);  // need >= 2 txns
  if (static_cast<int>(on_cycle.size()) <= 4) {
    SearchOptions guided = search_options;
    guided.fixed_multiset = on_cycle;
    guided.max_schedules = search_options.max_schedules / 4;
    outcome.counterexample = FindCounterexample(programs, guided, &outcome.search_stats);
    if (outcome.counterexample.has_value()) return outcome;
  }

  SearchStats general_stats;
  outcome.counterexample = FindCounterexample(programs, search_options, &general_stats);
  outcome.search_stats.schedules_checked += general_stats.schedules_checked;
  outcome.search_stats.bindings_checked += general_stats.bindings_checked;
  outcome.search_stats.budget_exhausted = general_stats.budget_exhausted;
  return outcome;
}

}  // namespace mvrc
