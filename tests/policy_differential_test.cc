// The policy-refactor pinning suite: the MVRC pipeline routed through the
// IsolationPolicy layer must be bit-identical to the pre-refactor code. The
// oracle below is a frozen copy of the pre-policy logic — Table 1, the
// ncDepConds/cDepConds clauses (including the foreign-key suppression
// loop), the per-pair edge emission, and the type-I / type-II cycle
// searches (both the optimized boolean-matrix implementation and literal
// Algorithm 2) with the read-like-source disjunct hardcoded. It is compared
// against the policy-dispatched graph-copy searches of
// tests/support/cycle_oracle.h and against the production detector
// (IsRobust and the witness text of RunCycleTest). Any drift the policy
// dispatch introduces in edge arenas, verdicts or witnesses fails here, on
// 20 seeded random workloads and the builtin benchmarks across all four
// granularity/FK settings.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "util/bits.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"
#include "support/cycle_oracle.h"
#include "support/random_workload.h"
#include "support/subset_oracle.h"

namespace mvrc {
namespace {

// --------------------------------------------------------------------------
// Frozen pre-refactor oracle (do not modernize: this code intentionally
// replicates the pipeline as it was before the IsolationPolicy layer).
// --------------------------------------------------------------------------

constexpr int kIns = 0, kKeySel = 1, kPredSel = 2, kKeyUpd = 3, kPredUpd = 4,
              kKeyDel = 5, kPredDel = 6;

int OracleTableIndex(StatementType type) {
  switch (type) {
    case StatementType::kInsert:
      return kIns;
    case StatementType::kKeySelect:
      return kKeySel;
    case StatementType::kPredSelect:
      return kPredSel;
    case StatementType::kKeyUpdate:
      return kKeyUpd;
    case StatementType::kPredUpdate:
      return kPredUpd;
    case StatementType::kKeyDelete:
      return kKeyDel;
    case StatementType::kPredDelete:
      return kPredDel;
  }
  return -1;
}

enum class OracleEntry { kFalse, kTrue, kCheck };
constexpr OracleEntry F = OracleEntry::kFalse;
constexpr OracleEntry T = OracleEntry::kTrue;
constexpr OracleEntry C = OracleEntry::kCheck;

constexpr OracleEntry kOracleNcDepTable[7][7] = {
    /* ins      */ {F, C, T, C, T, C, T},
    /* key sel  */ {F, F, F, C, C, C, C},
    /* pred sel */ {T, F, F, C, C, T, T},
    /* key upd  */ {F, C, C, C, C, C, C},
    /* pred upd */ {T, C, C, C, C, T, T},
    /* key del  */ {F, F, T, F, T, F, T},
    /* pred del */ {T, F, T, C, T, T, T},
};

constexpr OracleEntry kOracleCDepTable[7][7] = {
    /* ins      */ {F, F, F, F, F, F, F},
    /* key sel  */ {F, F, F, C, C, C, C},
    /* pred sel */ {T, F, F, C, C, T, T},
    /* key upd  */ {F, F, F, F, F, F, F},
    /* pred upd */ {T, F, F, C, C, T, T},
    /* key del  */ {F, F, F, F, F, F, F},
    /* pred del */ {T, F, F, C, C, T, T},
};

bool OracleAttrConflicts(const std::optional<AttrSet>& a, const std::optional<AttrSet>& b,
                         Granularity granularity) {
  if (!a.has_value() || !b.has_value()) return false;
  if (granularity == Granularity::kTuple) return true;
  return a->Intersects(*b);
}

bool OracleNcDepConds(const Statement& qi, const Statement& qj, Granularity g) {
  return OracleAttrConflicts(qi.write_set(), qj.write_set(), g) ||
         OracleAttrConflicts(qi.write_set(), qj.read_set(), g) ||
         OracleAttrConflicts(qi.write_set(), qj.pread_set(), g) ||
         OracleAttrConflicts(qi.read_set(), qj.write_set(), g) ||
         OracleAttrConflicts(qi.pread_set(), qj.write_set(), g);
}

bool OracleCDepConds(const Ltp& pi, int qi_pos, const Ltp& pj, int qj_pos,
                     const AnalysisSettings& settings) {
  const Statement& qi = pi.stmt(qi_pos);
  const Statement& qj = pj.stmt(qj_pos);
  if (OracleAttrConflicts(qi.pread_set(), qj.write_set(), settings.granularity)) {
    return true;
  }
  if (OracleAttrConflicts(qi.read_set(), qj.write_set(), settings.granularity)) {
    if (settings.use_foreign_keys) {
      for (const OccFkConstraint& ci : pi.constraints()) {
        if (ci.child_pos != qi_pos) continue;
        StatementType tk = pi.stmt(ci.parent_pos).type();
        if (tk != StatementType::kKeyUpdate && tk != StatementType::kKeyDelete &&
            tk != StatementType::kInsert) {
          continue;
        }
        if (!(ci.parent_pos < qi_pos)) continue;
        for (const OccFkConstraint& cj : pj.constraints()) {
          if (cj.child_pos != qj_pos || cj.fk != ci.fk) continue;
          StatementType tl = pj.stmt(cj.parent_pos).type();
          if (tl != StatementType::kKeyUpdate && tl != StatementType::kKeyDelete &&
              tl != StatementType::kInsert) {
            continue;
          }
          if (!(cj.parent_pos < qj_pos)) continue;
          return false;
        }
      }
    }
    return true;
  }
  return false;
}

bool OracleAllowsNonCounterflow(const Statement& qi, const Statement& qj, Granularity g) {
  switch (kOracleNcDepTable[OracleTableIndex(qi.type())][OracleTableIndex(qj.type())]) {
    case OracleEntry::kTrue:
      return true;
    case OracleEntry::kFalse:
      return false;
    case OracleEntry::kCheck:
      return OracleNcDepConds(qi, qj, g);
  }
  return false;
}

bool OracleAllowsCounterflow(const Ltp& pi, int qi_pos, const Ltp& pj, int qj_pos,
                             const AnalysisSettings& settings) {
  switch (kOracleCDepTable[OracleTableIndex(pi.stmt(qi_pos).type())]
                          [OracleTableIndex(pj.stmt(qj_pos).type())]) {
    case OracleEntry::kTrue:
      return true;
    case OracleEntry::kFalse:
      return false;
    case OracleEntry::kCheck:
      return OracleCDepConds(pi, qi_pos, pj, qj_pos, settings);
  }
  return false;
}

// The pre-interning serial build: per-pair cells in row-major order.
SummaryGraph OracleBuild(std::vector<Ltp> programs, const AnalysisSettings& settings) {
  SummaryGraph graph(std::move(programs));
  const int n = graph.num_programs();
  for (int pi = 0; pi < n; ++pi) {
    for (int pj = 0; pj < n; ++pj) {
      const Ltp& from = graph.program(pi);
      const Ltp& to = graph.program(pj);
      for (int qi = 0; qi < from.size(); ++qi) {
        for (int qj = 0; qj < to.size(); ++qj) {
          if (from.stmt(qi).rel() != to.stmt(qj).rel()) continue;
          if (OracleAllowsNonCounterflow(from.stmt(qi), to.stmt(qj), settings.granularity)) {
            graph.AddEdge({pi, qi, /*counterflow=*/false, qj, pj});
          }
          if (OracleAllowsCounterflow(from, qi, to, qj, settings)) {
            graph.AddEdge({pi, qi, /*counterflow=*/true, qj, pj});
          }
        }
      }
    }
  }
  graph.FinalizeIndex();
  return graph;
}

bool OracleIsReadLikeSourceType(StatementType type) {
  switch (type) {
    case StatementType::kKeySelect:
    case StatementType::kPredSelect:
    case StatementType::kPredUpdate:
    case StatementType::kPredDelete:
      return true;
    default:
      return false;
  }
}

bool OracleAdjacentPairCondition(const SummaryGraph& graph, const SummaryEdge& e3,
                                 const SummaryEdge& e4) {
  if (e3.counterflow) return true;
  if (e4.from_occ < e3.to_occ) return true;
  const Statement& q3 = graph.program(e3.from_program).stmt(e3.from_occ);
  return OracleIsReadLikeSourceType(q3.type());
}

class OracleBoolMatrix {
 public:
  explicit OracleBoolMatrix(int n) : n_(n), words_(static_cast<size_t>(n) * WordsPerRow(), 0) {}
  int WordsPerRow() const { return (n_ + 63) / 64; }
  void Set(int r, int c) { row(r)[c / 64] |= uint64_t{1} << (c % 64); }
  bool At(int r, int c) const { return (row(r)[c / 64] >> (c % 64)) & 1; }
  uint64_t* row(int r) { return words_.data() + static_cast<size_t>(r) * WordsPerRow(); }
  const uint64_t* row(int r) const {
    return words_.data() + static_cast<size_t>(r) * WordsPerRow();
  }

 private:
  int n_;
  std::vector<uint64_t> words_;
};

std::optional<TypeIWitness> OracleFindTypeICycle(const SummaryGraph& graph) {
  Digraph program_graph = graph.ProgramGraph();
  Digraph::Reachability reach = program_graph.ComputeReachability();
  for (const SummaryEdge& edge : graph.edges()) {
    if (!edge.counterflow) continue;
    if (reach.At(edge.to_program, edge.from_program)) {
      TypeIWitness witness;
      witness.edge = edge;
      witness.return_path = program_graph.ShortestPath(edge.to_program, edge.from_program);
      return witness;
    }
  }
  return std::nullopt;
}

std::optional<TypeIIWitness> OracleFindTypeIICycle(const SummaryGraph& graph) {
  const int n = graph.num_programs();
  if (n == 0) return std::nullopt;
  Digraph program_graph = graph.ProgramGraph();
  Digraph::Reachability reach = program_graph.ComputeReachability();

  OracleBoolMatrix nc_adj(n);
  bool any_nc = false;
  for (const SummaryEdge& edge : graph.edges()) {
    if (!edge.counterflow) {
      nc_adj.Set(edge.from_program, edge.to_program);
      any_nc = true;
    }
  }
  if (!any_nc) return std::nullopt;

  const int wpr = reach.words_per_row();
  OracleBoolMatrix through(n);
  std::vector<uint64_t> nc_targets(wpr);
  for (int y = 0; y < n; ++y) {
    std::fill(nc_targets.begin(), nc_targets.end(), 0);
    ForEachBit(reach.row(y), wpr, [&](int p1) {
      const uint64_t* nc_row = nc_adj.row(p1);
      for (int w = 0; w < wpr; ++w) nc_targets[w] |= nc_row[w];
    });
    uint64_t* through_row = through.row(y);
    ForEachBit(nc_targets.data(), wpr, [&](int p2) {
      const uint64_t* reach_row = reach.row(p2);
      for (int w = 0; w < wpr; ++w) through_row[w] |= reach_row[w];
    });
  }

  for (int p4 = 0; p4 < n; ++p4) {
    for (int e4_index : graph.OutEdges(p4)) {
      const SummaryEdge& e4 = graph.edges()[e4_index];
      if (!e4.counterflow) continue;
      for (int e3_index : graph.InEdges(p4)) {
        const SummaryEdge& e3 = graph.edges()[e3_index];
        if (!OracleAdjacentPairCondition(graph, e3, e4)) continue;
        if (!through.At(e4.to_program, e3.from_program)) continue;
        for (const SummaryEdge& e1 : graph.edges()) {
          if (e1.counterflow) continue;
          if (reach.At(e1.to_program, e3.from_program) &&
              reach.At(e4.to_program, e1.from_program)) {
            TypeIIWitness witness;
            witness.e1 = e1;
            witness.e3 = e3;
            witness.e4 = e4;
            witness.path_p2_to_p3 =
                program_graph.ShortestPath(e1.to_program, e3.from_program);
            witness.path_p5_to_p1 =
                program_graph.ShortestPath(e4.to_program, e1.from_program);
            return witness;
          }
        }
        ADD_FAILURE() << "oracle through-matrix inconsistent";
        return std::nullopt;
      }
    }
  }
  return std::nullopt;
}

std::optional<TypeIIWitness> OracleFindTypeIICycleNaive(const SummaryGraph& graph) {
  Digraph program_graph = graph.ProgramGraph();
  Digraph::Reachability reach = program_graph.ComputeReachability();
  for (const SummaryEdge& e1 : graph.edges()) {
    if (e1.counterflow) continue;
    for (const SummaryEdge& e3 : graph.edges()) {
      if (!reach.At(e1.to_program, e3.from_program)) continue;
      for (int e4_index : graph.OutEdges(e3.to_program)) {
        const SummaryEdge& e4 = graph.edges()[e4_index];
        if (!e4.counterflow) continue;
        if (!reach.At(e4.to_program, e1.from_program)) continue;
        if (!OracleAdjacentPairCondition(graph, e3, e4)) continue;
        TypeIIWitness witness;
        witness.e1 = e1;
        witness.e3 = e3;
        witness.e4 = e4;
        witness.path_p2_to_p3 = program_graph.ShortestPath(e1.to_program, e3.from_program);
        witness.path_p5_to_p1 = program_graph.ShortestPath(e4.to_program, e1.from_program);
        return witness;
      }
    }
  }
  return std::nullopt;
}

// --------------------------------------------------------------------------
// The pinning harness.
// --------------------------------------------------------------------------

struct GraphUnderTest {
  SummaryGraph graph;
  std::vector<std::pair<int, int>> ltp_range;
};

GraphUnderTest Build(const std::vector<Btp>& programs, const AnalysisSettings& settings) {
  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range;
  for (const Btp& program : programs) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(program);
    ltp_range.push_back({static_cast<int>(all_ltps.size()),
                         static_cast<int>(all_ltps.size() + unfolded.size())});
    for (Ltp& ltp : unfolded) all_ltps.push_back(std::move(ltp));
  }
  return {BuildSummaryGraph(std::move(all_ltps), settings), std::move(ltp_range)};
}

const AnalysisSettings kAllSettings[] = {
    AnalysisSettings::TupleDep(),
    AnalysisSettings::AttrDep(),
    AnalysisSettings::TupleDepFk(),
    AnalysisSettings::AttrDepFk(),
};

// Pins the refactored pipeline against the frozen oracle: edge arena,
// verdicts under every method, and witnesses.
void ExpectPinnedToOracle(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                          const std::string& context) {
  SCOPED_TRACE(context);
  GraphUnderTest t = Build(programs, settings);
  SummaryGraph oracle =
      OracleBuild(std::vector<Ltp>(t.graph.programs()), settings);

  ASSERT_EQ(t.graph.edges(), oracle.edges());
  ASSERT_EQ(t.graph.num_counterflow_edges(), oracle.num_counterflow_edges());

  std::optional<TypeIWitness> oracle1 = OracleFindTypeICycle(oracle);
  std::optional<TypeIWitness> refactored1 = oracle::FindTypeICycle(t.graph);
  ASSERT_EQ(refactored1.has_value(), oracle1.has_value());
  CycleTestOutcome production1 = RunCycleTest(t.graph, Method::kTypeI, settings.policy());
  EXPECT_EQ(production1.robust, !oracle1.has_value());
  if (oracle1.has_value()) {
    EXPECT_EQ(refactored1->Describe(t.graph), oracle1->Describe(oracle));
    EXPECT_EQ(production1.witness, oracle1->Describe(oracle));
  }

  std::optional<TypeIIWitness> oracle2 = OracleFindTypeIICycle(oracle);
  std::optional<TypeIIWitness> refactored2 = oracle::FindTypeIICycle(t.graph);
  ASSERT_EQ(refactored2.has_value(), oracle2.has_value());
  CycleTestOutcome production2 = RunCycleTest(t.graph, Method::kTypeII, settings.policy());
  EXPECT_EQ(production2.robust, !oracle2.has_value());
  if (oracle2.has_value()) {
    EXPECT_EQ(refactored2->Describe(t.graph), oracle2->Describe(oracle));
    EXPECT_EQ(production2.witness, oracle2->Describe(oracle));
  }

  std::optional<TypeIIWitness> oracle2n = OracleFindTypeIICycleNaive(oracle);
  std::optional<TypeIIWitness> refactored2n = oracle::FindTypeIICycleNaive(t.graph);
  ASSERT_EQ(refactored2n.has_value(), oracle2n.has_value());
  if (oracle2n.has_value()) {
    EXPECT_EQ(refactored2n->Describe(t.graph), oracle2n->Describe(oracle));
  }

  EXPECT_EQ(IsRobust(t.graph, Method::kTypeI), !oracle1.has_value());
  EXPECT_EQ(IsRobust(t.graph, Method::kTypeII), !oracle2.has_value());
  EXPECT_EQ(oracle2.has_value(), oracle2n.has_value());
}

// Pins the subset analyses: every mask's verdict — in the entry point's
// report and in the per-mask oracle sweep over the production detector —
// equals the frozen oracle run on the oracle-built induced subgraph. Only
// called for workloads of at most kMaxSubsetPrograms programs.
void ExpectSweepPinnedToOracle(const std::vector<Btp>& programs,
                               const AnalysisSettings& settings, const std::string& context) {
  SCOPED_TRACE(context);
  GraphUnderTest t = Build(programs, settings);
  Result<SubsetReport> report = TryAnalyzeSubsets(programs, settings, Method::kTypeII);
  ASSERT_TRUE(report.ok());
  const SubsetReport sweep = oracle::SweepSubsets(
      MaskedDetector(t.graph, t.ltp_range, settings.policy()), Method::kTypeII);
  const uint32_t full = (uint32_t{1} << programs.size()) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    std::vector<bool> keep(t.graph.num_programs(), false);
    for (size_t i = 0; i < t.ltp_range.size(); ++i) {
      if ((mask >> i) & 1) {
        for (int p = t.ltp_range[i].first; p < t.ltp_range[i].second; ++p) keep[p] = true;
      }
    }
    SummaryGraph induced = t.graph.InducedSubgraph(keep);
    SummaryGraph induced_oracle =
        OracleBuild(std::vector<Ltp>(induced.programs()), settings);
    ASSERT_EQ(induced.edges(), induced_oracle.edges()) << "mask=" << mask;
    const bool robust = !OracleFindTypeIICycle(induced_oracle).has_value();
    EXPECT_EQ(report.value().IsRobustSubset(mask), robust) << "mask=" << mask;
    EXPECT_EQ(sweep.IsRobustSubset(mask), robust) << "mask=" << mask;
  }
}

// The shared generator with the masked-detector differential's seeds:
// these are "the 20-seed random workloads".
class PolicyDifferentialRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(PolicyDifferentialRandomTest, MvrcPipelineIsBitIdenticalToPreRefactorOracle) {
  test_support::RandomWorkloadGen gen(GetParam() * 6271 + 17);
  Schema schema;
  std::vector<Btp> programs = gen.Generate(schema);
  for (const AnalysisSettings& settings : kAllSettings) {
    ExpectPinnedToOracle(programs, settings,
                         "seed=" + std::to_string(GetParam()) + " / " + settings.name());
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The subset sweep, pinned mask by mask on the most precise setting.
  ExpectSweepPinnedToOracle(programs, AnalysisSettings::AttrDepFk(),
                            "seed=" + std::to_string(GetParam()) + " / sweep");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyDifferentialRandomTest, ::testing::Range(0, 20));

TEST(PolicyDifferentialBuiltinTest, BuiltinsPinnedAcrossAllFourSettings) {
  for (const Workload& workload : {MakeSmallBank(), MakeTpcc(), MakeAuction()}) {
    for (const AnalysisSettings& settings : kAllSettings) {
      ExpectPinnedToOracle(workload.programs, settings,
                           workload.name + " / " + settings.name());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ExpectSweepPinnedToOracle(MakeSmallBank().programs, AnalysisSettings::AttrDepFk(),
                            "SmallBank / sweep");
}

}  // namespace
}  // namespace mvrc
