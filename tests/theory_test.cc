// Empirical validation of the paper's theory (Lemma 4.1 and Theorem 4.2):
// exhaustively enumerate every mvrc-allowed schedule over pairs of
// transactions instantiated from the benchmark programs and check that
//   (1) only (predicate) rw-antidependencies are counterflow, and
//   (2) every serialization-graph cycle is a type-II cycle,
// plus Condition 6.2 / Proposition 6.3: every dependency observed in a
// schedule is witnessed by a summary-graph edge with matching flow class.

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "instantiate/instantiator.h"
#include "mvcc/enumerate.h"
#include "mvcc/serialization_graph.h"
#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

// Visits every structurally valid schedule (continuing enumeration).
void ForEachSchedule(const std::vector<Transaction>& txns,
                     const std::function<void(const Schedule&)>& visit) {
  mvrc::ForEachSchedule(txns, [&visit](const Schedule& schedule) {
    visit(schedule);
    return true;
  });
}

struct WorkloadCase {
  std::string name;
  Workload (*make)();
};

void PrintTo(const WorkloadCase& workload, std::ostream* os) { *os << workload.name; }

class TheoremValidation : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(TheoremValidation, Lemma41AndTheorem42OnAllPairSchedules) {
  Workload workload = GetParam().make();
  std::vector<Ltp> ltps = UnfoldAtMost2(workload.programs);
  SummaryGraph summary =
      BuildSummaryGraph(UnfoldAtMost2(workload.programs), AnalysisSettings::AttrDepFk());

  // Map an operation back to its program/occurrence via position matching:
  // instantiation appends operations occurrence by occurrence, so track it
  // by regenerating with markers. Here we only need dependency-level
  // checks, so no mapping is required for Lemma 4.1 / Theorem 4.2.
  long schedules_checked = 0;
  long mvrc_allowed = 0;
  long cyclic = 0;

  for (size_t p1 = 0; p1 < ltps.size(); ++p1) {
    for (size_t p2 = p1; p2 < ltps.size(); ++p2) {
      if (ltps[p1].empty() || ltps[p2].empty()) continue;
      // Keep the enumeration bounded: skip very long programs (TPC-C
      // two-iteration unfoldings); pairs up to ~14 operations are plenty.
      if (ltps[p1].size() + ltps[p2].size() > 9) continue;
      std::vector<std::vector<StatementBinding>> b1 =
          EnumerateBindings(ltps[p1], 2, /*enumerate_pred_subsets=*/false);
      std::vector<std::vector<StatementBinding>> b2 =
          EnumerateBindings(ltps[p2], 2, /*enumerate_pred_subsets=*/false);
      for (const auto& binding1 : b1) {
        for (const auto& binding2 : b2) {
          std::optional<Transaction> t1 = InstantiateLtp(ltps[p1], binding1, 0);
          std::optional<Transaction> t2 = InstantiateLtp(ltps[p2], binding2, 1);
          if (!t1 || !t2) continue;
          ForEachSchedule({*t1, *t2}, [&](const Schedule& schedule) {
            ++schedules_checked;
            if (!schedule.IsMvrcAllowed()) return;
            ++mvrc_allowed;
            SerializationGraph graph = SerializationGraph::Build(schedule);
            // Lemma 4.1.
            for (const Dependency& dep : graph.dependencies()) {
              if (dep.counterflow) {
                EXPECT_TRUE(dep.type == DepType::kRW || dep.type == DepType::kPredRW)
                    << DescribeDependency(schedule, workload.schema, dep);
              }
            }
            // Theorem 4.2.
            if (!graph.IsConflictSerializable()) {
              ++cyclic;
              EXPECT_TRUE(graph.AllCyclesTypeII())
                  << schedule.ToString(workload.schema);
            }
          });
        }
      }
    }
  }
  EXPECT_GT(schedules_checked, 0);
  EXPECT_GT(mvrc_allowed, 0);
  // Sanity note: cyclic mvrc-allowed schedules exist for the non-robust
  // workloads; for robust ones, zero is expected.
  (void)cyclic;
}

INSTANTIATE_TEST_SUITE_P(Workloads, TheoremValidation,
                         ::testing::Values(WorkloadCase{"Auction", &MakeAuction},
                                           WorkloadCase{"SmallBank", &MakeSmallBank},
                                           WorkloadCase{"Tpcc", &MakeTpcc}),
                         [](const ::testing::TestParamInfo<WorkloadCase>& info) {
                           return info.param.name;
                         });

TEST(Condition62Test, DependenciesWitnessedBySummaryEdges) {
  // Proposition 6.3: every dependency in an mvrc-allowed schedule between
  // instantiations of two programs is witnessed by a summary edge with the
  // same flow class. We instrument the instantiation by matching operations
  // to occurrences through relation/tuple/kind bookkeeping on Auction.
  Workload workload = MakeAuction();
  std::vector<Ltp> ltps = UnfoldAtMost2(workload.programs);
  SummaryGraph summary = BuildSummaryGraph(UnfoldAtMost2(workload.programs),
                                           AnalysisSettings::AttrDepFk());

  // Occurrence provenance: regenerate each transaction op-by-op, tagging the
  // occurrence index that produced it (mirrors InstantiateLtp's op layout).
  auto occurrence_of = [&](const Ltp& ltp, const std::vector<StatementBinding>& bindings,
                           const Transaction& txn) {
    std::vector<int> occ_of_pos(txn.size(), -1);
    int cursor = 0;
    std::set<std::pair<RelationId, int>> seen_reads;
    for (int occ = 0; occ < ltp.size(); ++occ) {
      const Statement& stmt = ltp.stmt(occ);
      auto mark = [&](int count) {
        for (int i = 0; i < count; ++i) occ_of_pos[cursor++] = occ;
      };
      switch (stmt.type()) {
        case StatementType::kInsert:
        case StatementType::kKeyDelete:
          mark(1);
          break;
        case StatementType::kKeySelect: {
          if (seen_reads.insert({stmt.rel(), bindings[occ].tuple}).second) mark(1);
          break;
        }
        case StatementType::kKeyUpdate: {
          if (seen_reads.insert({stmt.rel(), bindings[occ].tuple}).second) mark(1);
          mark(1);
          break;
        }
        case StatementType::kPredSelect: {
          mark(1);  // PR
          for (int t : bindings[occ].pred_tuples) {
            if (seen_reads.insert({stmt.rel(), t}).second) mark(1);
          }
          break;
        }
        case StatementType::kPredUpdate: {
          mark(1);
          for (int t : bindings[occ].pred_tuples) {
            if (seen_reads.insert({stmt.rel(), t}).second) mark(1);
            mark(1);
          }
          break;
        }
        case StatementType::kPredDelete: {
          mark(1);
          mark(static_cast<int>(bindings[occ].pred_tuples.size()));
          break;
        }
      }
    }
    return occ_of_pos;
  };

  long dependencies_checked = 0;
  for (size_t p1 = 0; p1 < ltps.size(); ++p1) {
    for (size_t p2 = 0; p2 < ltps.size(); ++p2) {
      std::vector<std::vector<StatementBinding>> b1 = EnumerateBindings(ltps[p1], 2, true);
      std::vector<std::vector<StatementBinding>> b2 = EnumerateBindings(ltps[p2], 2, true);
      for (const auto& binding1 : b1) {
        for (const auto& binding2 : b2) {
          std::optional<Transaction> t1 = InstantiateLtp(ltps[p1], binding1, 0);
          std::optional<Transaction> t2 = InstantiateLtp(ltps[p2], binding2, 1);
          if (!t1 || !t2) continue;
          std::vector<int> occ1 = occurrence_of(ltps[p1], binding1, *t1);
          std::vector<int> occ2 = occurrence_of(ltps[p2], binding2, *t2);
          ForEachSchedule({*t1, *t2}, [&](const Schedule& schedule) {
            if (!schedule.IsMvrcAllowed()) return;
            for (const Dependency& dep : ComputeDependencies(schedule)) {
              if (dep.from.txn == dep.to.txn) continue;
              ++dependencies_checked;
              const std::vector<int>& from_occ = dep.from.txn == 0 ? occ1 : occ2;
              const std::vector<int>& to_occ = dep.to.txn == 0 ? occ1 : occ2;
              int fp = dep.from.txn == 0 ? static_cast<int>(p1) : static_cast<int>(p2);
              int tp = dep.to.txn == 0 ? static_cast<int>(p1) : static_cast<int>(p2);
              bool witnessed = false;
              for (const SummaryEdge& edge : summary.edges()) {
                if (edge.from_program == fp && edge.to_program == tp &&
                    edge.from_occ == from_occ[dep.from.pos] &&
                    edge.to_occ == to_occ[dep.to.pos] &&
                    edge.counterflow == dep.counterflow) {
                  witnessed = true;
                  break;
                }
              }
              EXPECT_TRUE(witnessed)
                  << DescribeDependency(schedule, workload.schema, dep) << " in "
                  << schedule.ToString(workload.schema) << " (" << ltps[p1].name()
                  << " vs " << ltps[p2].name() << ")";
            }
          });
        }
      }
    }
  }
  EXPECT_GT(dependencies_checked, 0);
}

}  // namespace
}  // namespace mvrc
