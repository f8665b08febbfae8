// The phantom problem end to end — the scenario that makes robustness with
// predicate reads hard (paper §1) and the reason inserts/deletes need
// first-class treatment.
//
// Workload: Monitor scans a relation twice with the same predicate (e.g. a
// consistency check); Register inserts one matching row. Under MVRC a
// Register committing between the two scans makes the second scan see a
// phantom, and the resulting schedule is not serializable:
//   Monitor -pred-rw-> Register (first scan missed the insert, Register
//   commits first: counterflow), Register -pred-wr-> Monitor (second scan
//   sees it) — a type-II cycle.
//
// The test verifies agreement at all three levels: the static detector
// rejects the workload, the exhaustive search produces a concrete witness,
// and the MVCC engine exhibits the anomaly in live execution.

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "engine/random_tester.h"
#include "mvcc/dependencies.h"
#include "robust/detector.h"
#include "search/counterexample.h"
#include "summary/build_summary.h"
#include "workloads/workload.h"
#include "support/cycle_oracle.h"

namespace mvrc {
namespace {

Workload MakePhantomWorkload() {
  Workload workload;
  workload.name = "Phantom";
  RelationId alerts =
      workload.schema.AddRelation("Alerts", {"id", "severity"}, {"id"});
  AttrSet severity = workload.schema.MakeAttrSet(alerts, {"severity"});

  Btp monitor("Monitor");
  monitor.AddStatement(
      Statement::PredSelect("q1", workload.schema, alerts, severity, severity));
  monitor.AddStatement(
      Statement::PredSelect("q2", workload.schema, alerts, severity, severity));
  workload.programs.push_back(std::move(monitor));
  workload.abbreviations.push_back("Mon");

  Btp register_alert("Register");
  register_alert.AddStatement(Statement::Insert("q3", workload.schema, alerts));
  workload.programs.push_back(std::move(register_alert));
  workload.abbreviations.push_back("Reg");
  return workload;
}

TEST(PhantomTest, DetectorRejectsTheWorkload) {
  Workload workload = MakePhantomWorkload();
  SummaryGraph graph =
      BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  std::optional<TypeIIWitness> witness = oracle::FindTypeIICycle(graph);
  ASSERT_TRUE(witness.has_value());
  // The counterflow edge is the predicate rw-antidependency into the insert.
  EXPECT_TRUE(witness->e4.counterflow);
  const Statement& target =
      graph.program(witness->e4.to_program).stmt(witness->e4.to_occ);
  EXPECT_EQ(target.type(), StatementType::kInsert);
}

TEST(PhantomTest, MonitorAloneAndRegisterAloneAreRobust) {
  Workload workload = MakePhantomWorkload();
  std::vector<Btp> monitor_only{workload.programs[0]};
  std::vector<Btp> register_only{workload.programs[1]};
  EXPECT_TRUE(IsRobustAgainstMvrc(monitor_only, AnalysisSettings::AttrDepFk(),
                                  Method::kTypeII));
  EXPECT_TRUE(IsRobustAgainstMvrc(register_only, AnalysisSettings::AttrDepFk(),
                                  Method::kTypeII));
}

TEST(PhantomTest, SearchProducesConcretePhantomSchedule) {
  Workload workload = MakePhantomWorkload();
  SearchOptions options;
  options.domain_size = 1;
  std::optional<Counterexample> example =
      FindCounterexample(UnfoldAtMost2(workload.programs), options);
  ASSERT_TRUE(example.has_value());
  Schedule schedule = example->ToSchedule();
  EXPECT_TRUE(schedule.IsMvrcAllowed());
  // The witness must involve a predicate rw-antidependency to an insert.
  bool phantom_dep = false;
  for (const Dependency& dep : ComputeDependencies(schedule)) {
    if (dep.type == DepType::kPredRW &&
        schedule.op(dep.to).kind == OpKind::kInsert && dep.counterflow) {
      phantom_dep = true;
    }
  }
  EXPECT_TRUE(phantom_dep) << example->Describe(workload.schema);
}

TEST(PhantomTest, EngineExhibitsThePhantomLive) {
  Workload workload = MakePhantomWorkload();
  constexpr RelationId kAlerts = 0;
  constexpr AttrId kSeverity = 1;
  auto make_db = [&] {
    Database db(workload.schema);
    db.Seed(kAlerts, 0, {0, 3});
    return db;
  };
  auto monitor = [] {
    ConcreteProgram program;
    program.name = "Monitor";
    for (int scan = 0; scan < 2; ++scan) {
      program.steps.push_back([](EngineTxn& txn, Locals&) {
        std::vector<Row> rows;
        return txn.PredSelect(kAlerts, AttrSet{kSeverity}, AttrSet{kSeverity},
                              [](const Row& row) { return row[kSeverity] >= 2; },
                              &rows);
      });
    }
    return program;
  };
  auto register_alert = [] {
    ConcreteProgram program;
    program.name = "Register";
    program.steps.push_back([](EngineTxn& txn, Locals&) {
      Value key = txn.FreshKey(kAlerts);
      return txn.Insert(kAlerts, key, {key, 4});
    });
    return program;
  };

  RandomTestOptions options;
  options.rounds = 200;
  RandomTestReport report = RunRandomRounds(
      make_db,
      [&] { return std::vector<ConcreteProgram>{monitor(), register_alert()}; },
      options);
  // The insert lands between the two scans in a sizable fraction of rounds.
  EXPECT_GT(report.non_serializable_rounds, 0);
  ASSERT_TRUE(report.first_anomaly.has_value());
  EXPECT_NE(report.first_anomaly->find("pred-"), std::string::npos);
}

}  // namespace
}  // namespace mvrc
