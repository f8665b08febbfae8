// The incremental analysis service must be observably identical to
// from-scratch analysis: after every add/remove/replace, a session's
// materialized summary graph, its robustness verdicts, and its subset
// reports equal what BuildSummaryGraph / IsRobust / the per-mask oracle
// sweep (tests/support/subset_oracle.h) compute on the same program set
// from nothing. Also covers the verdict cache's
// cross-mutation reuse, the SessionManager registry, and the oversized-
// workload error path of TryAnalyzeSubsets.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "persist/session_snapshot.h"
#include "persist/snapshot_store.h"
#include "service/admission.h"
#include "util/fault_injection.h"
#include "robust/core_search.h"
#include "robust/subsets.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "service/workload_session.h"
#include "sql/analyzer.h"
#include "summary/build_summary.h"
#include "support/subset_oracle.h"
#include "util/json.h"
#include "workloads/auction.h"
#include "workloads/policy_demo.h"
#include "workloads/smallbank.h"
#include "workloads/sql_texts.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

Workload SchemaOnly(const Workload& workload) {
  Workload empty;
  empty.name = workload.name;
  empty.schema = workload.schema;
  return empty;
}

// Asserts the session's incremental state is bit-identical to a from-scratch
// analysis of the same program set.
void ExpectMatchesScratch(WorkloadSession& session, const std::string& context) {
  SCOPED_TRACE(context);
  const std::vector<Btp> programs = session.Programs();
  const AnalysisSettings settings = session.settings();

  SummaryGraph scratch = BuildSummaryGraph(UnfoldAtMost2(programs), settings);
  SummaryGraph incremental = session.Graph();
  ASSERT_EQ(incremental.num_programs(), scratch.num_programs());
  for (int i = 0; i < scratch.num_programs(); ++i) {
    EXPECT_EQ(incremental.program(i).name(), scratch.program(i).name()) << "LTP " << i;
    EXPECT_EQ(incremental.program(i).size(), scratch.program(i).size()) << "LTP " << i;
  }
  EXPECT_EQ(incremental.edges(), scratch.edges());

  for (Method method : {Method::kTypeI, Method::kTypeII}) {
    EXPECT_EQ(session.Check(method).robust, IsRobust(scratch, method, settings.policy()));
  }

  if (!programs.empty() && static_cast<int>(programs.size()) <= kMaxSubsetPrograms) {
    for (Method method : {Method::kTypeI, Method::kTypeII}) {
      SubsetReport reference = oracle::SweepSubsets(programs, settings, method);
      Result<SubsetReport> report = session.Subsets(method);
      ASSERT_TRUE(report.ok()) << report.error();
      EXPECT_EQ(report.value().num_programs, reference.num_programs);
      EXPECT_EQ(report.value().robust_masks, reference.robust_masks);
      EXPECT_EQ(report.value().maximal_masks, reference.maximal_masks);
    }
  }
}

TEST(WorkloadSessionTest, IncrementalAddMatchesScratchOnEveryWorkload) {
  for (const Workload& workload : {MakeSmallBank(), MakeTpcc(), MakeAuction()}) {
    WorkloadSession session(workload.name, AnalysisSettings::AttrDepFk());
    ASSERT_TRUE(session.LoadWorkload(SchemaOnly(workload)).ok());
    for (const Btp& program : workload.programs) {
      ASSERT_TRUE(session.AddProgram(program).ok());
      ExpectMatchesScratch(session, workload.name + " after add " + program.name());
    }
  }
}

TEST(WorkloadSessionTest, RemoveMatchesScratch) {
  Workload workload = MakeTpcc();
  WorkloadSession session(workload.name, AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session.LoadWorkload(workload).ok());
  ExpectMatchesScratch(session, "full TPC-C");

  // Remove from the middle, then from the front, down to one program.
  std::vector<std::string> order = {"Payment", "Delivery", "StockLevel", "NewOrder"};
  for (const std::string& name : order) {
    ASSERT_TRUE(session.RemoveProgram(name).ok());
    ExpectMatchesScratch(session, "TPC-C after remove " + name);
  }
  EXPECT_EQ(session.num_programs(), 1);

  // Removing to empty and re-adding still matches.
  ASSERT_TRUE(session.RemoveProgram(session.ProgramNames()[0]).ok());
  EXPECT_EQ(session.num_programs(), 0);
  ASSERT_TRUE(session.AddProgram(workload.programs[0]).ok());
  ExpectMatchesScratch(session, "TPC-C re-added " + workload.programs[0].name());
}

TEST(WorkloadSessionTest, RemoveThenAddBackMatchesScratch) {
  Workload workload = MakeAuction();
  WorkloadSession session(workload.name, AnalysisSettings::TupleDep());
  ASSERT_TRUE(session.LoadWorkload(workload).ok());
  for (const Btp& program : workload.programs) {
    ASSERT_TRUE(session.RemoveProgram(program.name()).ok());
    ExpectMatchesScratch(session, "auction without " + program.name());
    ASSERT_TRUE(session.AddProgram(program).ok());
    ExpectMatchesScratch(session, "auction restored " + program.name());
  }
}

TEST(WorkloadSessionTest, ReplaceMatchesScratchAndDetectsRealChanges) {
  WorkloadSession session("auction", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session.LoadSql(AuctionSql()).ok());
  EXPECT_FALSE(session.Check().from_cache);  // first check computes the verdict
  EXPECT_TRUE(session.Check().from_cache);   // the second is served from cache
  ExpectMatchesScratch(session, "auction via SQL");

  // Replacing FindBids with a key-based read changes its incident edges:
  // the verdict cache entries involving it must be invalidated.
  ASSERT_TRUE(session
                  .ReplaceProgramSql("PROGRAM FindBids(:B, :T):\n"
                                     "  UPDATE Buyer SET calls = calls + 1 WHERE id = :B;\n"
                                     "  SELECT bid FROM Bids WHERE buyerId = :B;\n"
                                     "COMMIT;\n")
                  .ok());
  EXPECT_FALSE(session.Check().from_cache);
  ExpectMatchesScratch(session, "auction with key-based FindBids");
}

TEST(WorkloadSessionTest, ReplaceChangingStatementTypesInvalidatesCache) {
  // A lone SELECT admits no summary edges whichever way it reads, so the
  // incident cells compare equal across this replace — but Algorithm 2
  // reads statement types (adjacent-pair condition), so flipping the
  // predicate select to a key select must still advance the revision.
  WorkloadSession session("t", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session
                  .LoadSql("TABLE U(c, d, PRIMARY KEY(c));\n"
                           "PROGRAM Q(:y):\n  SELECT d FROM U WHERE d >= :y;\nCOMMIT;\n")
                  .ok());
  EXPECT_FALSE(session.Check().from_cache);
  EXPECT_TRUE(session.Check().from_cache);
  ASSERT_TRUE(
      session.ReplaceProgramSql("PROGRAM Q(:y):\n  SELECT d FROM U WHERE c = :y;\nCOMMIT;\n")
          .ok());
  EXPECT_FALSE(session.Check().from_cache);
  ExpectMatchesScratch(session, "Q flipped from pred to key select");
}

TEST(WorkloadSessionTest, ReplaceWithEquivalentProgramKeepsCachedVerdicts) {
  Workload workload = MakeTpcc();
  WorkloadSession session(workload.name, AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session.LoadWorkload(workload).ok());
  ASSERT_TRUE(session.Subsets(Method::kTypeII).ok());
  const SessionStats before = session.stats();

  // Replacing a program with itself admits identical incident edges, so the
  // revision — and every cached verdict — survives: the re-sweep runs zero
  // detector invocations.
  ASSERT_TRUE(session.ReplaceProgram(workload.programs[2]).ok());
  EXPECT_TRUE(session.Check().from_cache);
  ASSERT_TRUE(session.Subsets(Method::kTypeII).ok());
  EXPECT_EQ(session.stats().detector_runs, before.detector_runs);
  ExpectMatchesScratch(session, "TPC-C after no-op replace");
}

// A subset analysis leaves its cores behind, so a Check after removals —
// any subset of the analysed set — runs no detector query and still agrees
// with a from-scratch verdict; a program added afterwards has a revision
// the lattice never saw, and another method has a lattice of its own.
TEST(WorkloadSessionTest, CheckAfterRemovalsIsReadOffTheSubsetLattice) {
  Workload workload = MakeSmallBank();
  const AnalysisSettings settings = AnalysisSettings::AttrDepFk();
  WorkloadSession session(workload.name, settings);
  ASSERT_TRUE(session.LoadWorkload(workload).ok());
  ASSERT_TRUE(session.Subsets(Method::kTypeII).ok());
  const int64_t runs = session.stats().detector_runs;

  for (const std::string name : {"Balance", "WriteCheck", "Amalgamate", "DepositChecking"}) {
    ASSERT_TRUE(session.RemoveProgram(name).ok());
    SCOPED_TRACE("after removing " + name);
    const CheckResult check = session.Check(Method::kTypeII);
    EXPECT_TRUE(check.from_cache);
    const SummaryGraph scratch = BuildSummaryGraph(UnfoldAtMost2(session.Programs()), settings);
    EXPECT_EQ(check.robust, IsRobust(scratch, Method::kTypeII, settings.policy()));
    EXPECT_EQ(session.stats().detector_runs, runs);
  }
  EXPECT_FALSE(session.Check(Method::kTypeI).from_cache);

  ASSERT_TRUE(session.AddProgram(workload.programs[0]).ok());  // Amalgamate, new revision
  EXPECT_FALSE(session.Check(Method::kTypeII).from_cache);
  ExpectMatchesScratch(session, "SmallBank after removals and a re-add");
}

TEST(WorkloadSessionTest, AddInvalidatesOnlyMasksContainingTheNewProgram) {
  Workload workload = MakeAuctionN(4);  // 8 programs
  WorkloadSession session(workload.name, AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session.LoadWorkload(SchemaOnly(workload)).ok());
  for (size_t i = 0; i + 1 < workload.programs.size(); ++i) {
    ASSERT_TRUE(session.AddProgram(workload.programs[i]).ok());
  }
  ASSERT_TRUE(session.Subsets(Method::kTypeII).ok());
  const SessionStats before = session.stats();

  ASSERT_TRUE(session.AddProgram(workload.programs.back()).ok());
  ASSERT_TRUE(session.Subsets(Method::kTypeII).ok());
  const SessionStats after = session.stats();

  // 7 programs were already swept; only the 2^7 masks containing the new
  // program may need the detector.
  EXPECT_LE(after.detector_runs - before.detector_runs, int64_t{1} << 7);
  // And the incremental graph maintenance did strictly less dep-table work
  // than the (2 * 7 + 1 cells vs 8^2 cells) from-scratch build would.
  EXPECT_LT(after.cells_computed - before.cells_computed, int64_t{8 * 8});
  ExpectMatchesScratch(session, "auction(4) fully built");
}

TEST(WorkloadSessionTest, SqlSessionMatchesSingleFileParse) {
  WorkloadSession session("smallbank", AnalysisSettings::AttrDepFk());
  Result<std::vector<std::string>> names = session.LoadSql(SmallBankSql());
  ASSERT_TRUE(names.ok()) << names.error();
  EXPECT_EQ(names.value().size(), 5u);

  Result<Workload> scratch = ParseWorkloadSql(SmallBankSql());
  ASSERT_TRUE(scratch.ok());
  SummaryGraph reference =
      BuildSummaryGraph(scratch.value().programs, AnalysisSettings::AttrDepFk());
  EXPECT_EQ(session.Graph().edges(), reference.edges());

  // Add a new program incrementally against the already-loaded schema; the
  // statement labels continue after the file's (q1..q15 for SmallBank).
  ASSERT_TRUE(session
                  .LoadSql("PROGRAM AuditSavings(:C):\n"
                           "  SELECT Balance FROM Savings WHERE CustomerId = :C;\n"
                           "COMMIT;\n")
                  .ok());
  ExpectMatchesScratch(session, "smallbank + AuditSavings");
  EXPECT_EQ(session.num_programs(), 6);
}

TEST(WorkloadSessionTest, MutationErrorsLeaveSessionUntouched) {
  Workload workload = MakeSmallBank();
  WorkloadSession session("sb", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session.LoadWorkload(workload).ok());
  const SummaryGraph before = session.Graph();

  EXPECT_FALSE(session.AddProgram(workload.programs[0]).ok());          // duplicate
  EXPECT_FALSE(session.RemoveProgram("NoSuchProgram").ok());            // unknown
  EXPECT_FALSE(session.LoadWorkload(workload).ok());                    // not empty
  EXPECT_FALSE(session.LoadSql("PROGRAM Balance(:N): COMMIT;").ok());   // name clash
  EXPECT_FALSE(session.ReplaceProgramSql("TABLE X(a, PRIMARY KEY(a));").ok());
  Btp unknown("NoSuchProgram");
  EXPECT_FALSE(session.ReplaceProgram(unknown).ok());

  // A failed replace must not commit its schema extension either: the same
  // TABLE can still be declared by a later (successful) load.
  EXPECT_FALSE(session
                   .ReplaceProgramSql("TABLE Audit(id, PRIMARY KEY(id));\n"
                                      "PROGRAM NoSuchProgram(:x):\n"
                                      "  SELECT id FROM Audit WHERE id = :x;\nCOMMIT;\n")
                   .ok());
  EXPECT_TRUE(session
                  .LoadSql("TABLE Audit(id, PRIMARY KEY(id));\n"
                           "PROGRAM AuditRead(:x):\n"
                           "  SELECT id FROM Audit WHERE id = :x;\nCOMMIT;\n")
                  .ok());
  ASSERT_TRUE(session.RemoveProgram("AuditRead").ok());

  EXPECT_EQ(session.Graph().edges(), before.edges());
  EXPECT_EQ(session.num_programs(), 5);
}

// Generates n trivial single-select programs over one relation.
std::string ManyProgramsSql(int n) {
  std::ostringstream os;
  os << "TABLE T(a, b, PRIMARY KEY(a));\n";
  for (int i = 1; i <= n; ++i) {
    os << "PROGRAM P" << i << "(:x):\n  SELECT b FROM T WHERE a = :x;\nCOMMIT;\n";
  }
  return os.str();
}

TEST(WorkloadSessionTest, OversizedSubsetSweepTakesTheCoreGuidedSearch) {
  WorkloadSession session("big", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session.LoadSql(ManyProgramsSql(kMaxSubsetPrograms + 1)).ok());
  // Past the exhaustive cap the session switches regimes instead of failing:
  // 21 read-only programs are fully robust, so the one maximal set is the
  // whole workload and no cores exist.
  Result<SubsetReport> report = session.Subsets(Method::kTypeII);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().from_core_search);
  EXPECT_TRUE(report.value().cores.empty());
  ASSERT_EQ(report.value().maximal_sets.size(), 1u);
  EXPECT_EQ(report.value().maximal_sets[0],
            ProgramSet::Full(kMaxSubsetPrograms + 1));

  // The non-subset paths keep working beyond the subset bound.
  EXPECT_TRUE(session.Check().robust);

  // The library-level exhaustive entry point still rejects the workload —
  // with a message that states the cap and names the core-guided successor.
  Result<SubsetReport> direct =
      TryAnalyzeSubsets(session.Programs(), session.settings(), Method::kTypeII);
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.error().find("1.." + std::to_string(kMaxSubsetPrograms)),
            std::string::npos);
  EXPECT_NE(direct.error().find("got 21"), std::string::npos);
  EXPECT_NE(direct.error().find("core-guided"), std::string::npos);
  EXPECT_NE(direct.error().find("AnalyzeSubsetsCoreGuided"), std::string::npos);
  EXPECT_NE(direct.error().find(std::to_string(kMaxCoreSearchPrograms)),
            std::string::npos);
}

TEST(WorkloadSessionTest, SubsetsBeyondCoreSearchCapIsARequestErrorNotAnAbort) {
  WorkloadSession session("huge", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session.LoadSql(ManyProgramsSql(kMaxCoreSearchPrograms + 1)).ok());
  Result<SubsetReport> report = session.Subsets(Method::kTypeII);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().find(std::to_string(kMaxCoreSearchPrograms)), std::string::npos);
  EXPECT_NE(report.error().find("got " + std::to_string(kMaxCoreSearchPrograms + 1)),
            std::string::npos);
  // The non-subset paths keep working past both bounds.
  EXPECT_TRUE(session.Check().robust);
}

// Check stores the full set's verdict under the key the subset search uses,
// so the search's first candidate — the full set — is a cache hit, and a
// repeated request runs no detector query and costs a few dozen lookups,
// not one per subset.
TEST(WorkloadSessionTest, CheckThenSubsetsAnswersTheFullSetFromCache) {
  Workload workload = MakeAuctionN(8);  // 16 programs
  const AnalysisSettings settings = AnalysisSettings::AttrDep();
  WorkloadSession unchecked("unchecked", settings);
  ASSERT_TRUE(unchecked.LoadWorkload(workload).ok());
  ASSERT_TRUE(unchecked.Subsets(Method::kTypeII).ok());
  const int64_t unchecked_runs = unchecked.stats().detector_runs;

  WorkloadSession session("checked", settings);
  ASSERT_TRUE(session.LoadWorkload(workload).ok());
  EXPECT_FALSE(session.Check().robust);
  const SessionStats after_check = session.stats();
  Result<SubsetReport> report = session.Subsets(Method::kTypeII);
  ASSERT_TRUE(report.ok());
  const SessionStats after_subsets = session.stats();
  EXPECT_EQ(after_subsets.detector_runs - after_check.detector_runs, unchecked_runs - 1);
  EXPECT_GE(after_subsets.verdict_cache_hits - after_check.verdict_cache_hits, 1);

  Result<SubsetReport> cached = session.Subsets(Method::kTypeII);
  ASSERT_TRUE(cached.ok());
  const SessionStats after_cached = session.stats();
  EXPECT_EQ(after_cached.detector_runs, after_subsets.detector_runs);
  const int64_t lookups = (after_cached.verdict_cache_hits - after_subsets.verdict_cache_hits) +
                          (after_cached.verdict_cache_misses - after_subsets.verdict_cache_misses);
  EXPECT_GT(lookups, 0);
  EXPECT_LT(lookups, (int64_t{1} << 16) / 100);
  EXPECT_EQ(cached.value().robust_masks, report.value().robust_masks);
  EXPECT_EQ(cached.value().cores, report.value().cores);
}

TEST(SessionManagerTest, GetOrCreateFindDrop) {
  SessionManager manager;

  auto a = manager.GetOrCreate("a", AnalysisSettings::AttrDepFk());
  auto a_again = manager.GetOrCreate("a", AnalysisSettings::TupleDep());
  EXPECT_EQ(a.get(), a_again.get());
  // Creation settings stick; later GetOrCreate settings are ignored.
  EXPECT_EQ(std::string(a_again->settings().name()), "attr dep + FK");

  EXPECT_EQ(manager.Find("missing"), nullptr);
  manager.GetOrCreate("b", AnalysisSettings::AttrDepFk());
  EXPECT_EQ(manager.SessionNames(), (std::vector<std::string>{"a", "b"}));

  EXPECT_TRUE(manager.Drop("a"));
  EXPECT_FALSE(manager.Drop("a"));
  EXPECT_EQ(manager.SessionNames(), (std::vector<std::string>{"b"}));
}

TEST(SessionManagerTest, ConcurrentGetOrCreateSharesOneSession) {
  SessionManager manager;

  // Concurrent GetOrCreate on the same name resolves to one session.
  std::vector<std::shared_ptr<WorkloadSession>> seen(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&manager, &seen, t] {
      seen[t] = manager.GetOrCreate("shared", AnalysisSettings::AttrDepFk());
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<WorkloadSession*> distinct;
  for (const auto& session : seen) distinct.insert(session.get());
  EXPECT_EQ(distinct.size(), 1u);

  // Sessions created by the manager match from-scratch results.
  auto session = manager.GetOrCreate("sb", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session->LoadWorkload(MakeSmallBank()).ok());
  ExpectMatchesScratch(*session, "manager-owned smallbank session");
}

// --- Isolation-policy plumbing through sessions and the protocol. ---------

// An RC session's incremental state stays bit-identical to from-scratch RC
// analysis across mutations (the same contract the MVRC sessions have).
TEST(WorkloadSessionTest, RcSessionMatchesScratchAcrossMutations) {
  Workload demo = MakeIsolationDemo();
  WorkloadSession session(
      "rc", AnalysisSettings::AttrDepFk().WithIsolation(IsolationLevel::kRc));
  ASSERT_TRUE(session.LoadWorkload(SchemaOnly(demo)).ok());
  for (size_t i = 0; i < demo.programs.size(); ++i) {
    ASSERT_TRUE(session.AddProgram(demo.programs[i]).ok());
    ExpectMatchesScratch(session, "rc demo after add " + demo.programs[i].name());
  }
  EXPECT_TRUE(session.Check().robust);  // robust under lock-based RC...
  ASSERT_TRUE(session.RemoveProgram("Refresh").ok());
  ExpectMatchesScratch(session, "rc demo after remove");

  WorkloadSession mvrc_session("mvrc", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(mvrc_session.LoadWorkload(demo).ok());
  EXPECT_FALSE(mvrc_session.Check().robust);  // ...but not under MVRC.
}

Json Request(SessionManager& manager, const std::string& line,
             const ProtocolOptions& options = {}) {
  Result<Json> parsed = Json::Parse(HandleRequestLine(manager, line, options));
  EXPECT_TRUE(parsed.ok());
  return parsed.ok() ? parsed.value() : Json::Object();
}

TEST(ProtocolIsolationTest, UnknownSettingsAndIsolationAreErrors) {
  SessionManager manager;
  Json bad_settings = Request(
      manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank","settings":"attr+si"})");
  EXPECT_FALSE(bad_settings.GetBool("ok", true));
  EXPECT_NE(bad_settings.GetString("error").find("unknown settings"), std::string::npos);

  Json bad_isolation = Request(
      manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank","isolation":"si"})");
  EXPECT_FALSE(bad_isolation.GetBool("ok", true));
  EXPECT_NE(bad_isolation.GetString("error").find("unknown isolation"), std::string::npos);

  Json conflict = Request(manager,
                          R"({"cmd":"load_sql","session":"s","builtin":"smallbank",)"
                          R"("settings":"attr+fk+rc","isolation":"mvrc"})");
  EXPECT_FALSE(conflict.GetBool("ok", true));
  EXPECT_NE(conflict.GetString("error").find("conflicting isolation"), std::string::npos);

  // A failed create must not leak an empty session.
  Json stats = Request(manager, R"({"cmd":"stats"})");
  EXPECT_TRUE(stats.GetBool("ok", false));
  const Json* sessions = stats.Find("sessions");
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(sessions->size(), 0);
}

TEST(ProtocolIsolationTest, MutationsUnderDifferentIsolationAreRejected) {
  SessionManager manager;
  Json created = Request(
      manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank","isolation":"rc"})");
  ASSERT_TRUE(created.GetBool("ok", false));

  // Explicitly addressing the rc session as mvrc (either spelling) fails.
  Json mismatch = Request(
      manager,
      R"({"cmd":"add_program","session":"s","isolation":"mvrc","sql":"PROGRAM P(:x): COMMIT;"})");
  EXPECT_FALSE(mismatch.GetBool("ok", true));
  EXPECT_NE(mismatch.GetString("error").find("isolation"), std::string::npos);
  Json mismatch_settings = Request(manager,
                                   R"({"cmd":"load_sql","session":"s",)"
                                   R"("settings":"attr+fk+mvrc","sql":"PROGRAM P(:x): COMMIT;"})");
  EXPECT_FALSE(mismatch_settings.GetBool("ok", true));

  // Different granularity/FK settings are rejected too.
  Json granularity = Request(manager,
                             R"({"cmd":"load_sql","session":"s","settings":"tpl",)"
                             R"("sql":"PROGRAM P(:x): COMMIT;"})");
  EXPECT_FALSE(granularity.GetBool("ok", true));
  EXPECT_NE(granularity.GetString("error").find("settings"), std::string::npos);

  // Omitting isolation inherits the session's — no error, and the session
  // is unchanged by the failures above.
  Json stats = Request(manager, R"({"cmd":"stats","session":"s"})");
  ASSERT_TRUE(stats.GetBool("ok", false));
  EXPECT_EQ(stats.GetString("isolation"), "rc");
  EXPECT_EQ(stats.GetInt("programs_added", -1), 5);
}

TEST(ProtocolIsolationTest, RcAndMvrcSessionsAnswerDifferently) {
  const std::string demo_sql =
      "TABLE Gauge(id, flag, val, PRIMARY KEY(id));\n"
      "PROGRAM Monitor(:k):\n"
      "  SELECT val INTO :v FROM Gauge WHERE id = :k;\n"
      "COMMIT;\n"
      "PROGRAM Refresh(:f, :v):\n"
      "  UPDATE Gauge SET val = :v WHERE flag = :f;\n"
      "COMMIT;\n";
  SessionManager manager;
  Json mvrc_load = Request(manager, std::string(R"({"cmd":"load_sql","session":"m","sql":)") +
                                        Json::Str(demo_sql).Dump() + "}");
  ASSERT_TRUE(mvrc_load.GetBool("ok", false)) << mvrc_load.GetString("error");
  Json rc_load =
      Request(manager, std::string(R"({"cmd":"load_sql","session":"r","isolation":"rc","sql":)") +
                           Json::Str(demo_sql).Dump() + "}");
  ASSERT_TRUE(rc_load.GetBool("ok", false)) << rc_load.GetString("error");

  Json mvrc_check = Request(manager, R"({"cmd":"check","session":"m"})");
  ASSERT_TRUE(mvrc_check.GetBool("ok", false));
  EXPECT_FALSE(mvrc_check.GetBool("robust", true));
  EXPECT_FALSE(mvrc_check.GetString("witness").empty());

  Json rc_check = Request(manager, R"({"cmd":"check","session":"r"})");
  ASSERT_TRUE(rc_check.GetBool("ok", false));
  EXPECT_TRUE(rc_check.GetBool("robust", false));

  // The subsets sweep under rc reports every subset robust; under mvrc the
  // pair is rejected.
  Json rc_subsets = Request(manager, R"({"cmd":"subsets","session":"r"})");
  ASSERT_TRUE(rc_subsets.GetBool("ok", false));
  EXPECT_EQ(rc_subsets.GetInt("num_robust_subsets", -1), 3);
  Json mvrc_subsets = Request(manager, R"({"cmd":"subsets","session":"m"})");
  ASSERT_TRUE(mvrc_subsets.GetBool("ok", false));
  EXPECT_EQ(mvrc_subsets.GetInt("num_robust_subsets", -1), 2);
}

TEST(ProtocolTest, OversizedSubsetsResponseCarriesTheCoreGuidedLattice) {
  // One genuinely conflicting pair (the Gauge demo workload) plus 19 trivial
  // read-only programs pushes the session past kMaxSubsetPrograms, so the
  // subsets command must answer from the core-guided search: the response
  // names the regime, lists the single minimal core {Monitor, Refresh}, and
  // omits the exhaustive num_robust_subsets count it cannot materialize.
  std::ostringstream sql;
  sql << "TABLE Gauge(id, flag, val, PRIMARY KEY(id));\n"
         "PROGRAM Monitor(:k):\n"
         "  SELECT val INTO :v FROM Gauge WHERE id = :k;\n"
         "COMMIT;\n"
         "PROGRAM Refresh(:f, :v):\n"
         "  UPDATE Gauge SET val = :v WHERE flag = :f;\n"
         "COMMIT;\n"
         "TABLE T(a, b, PRIMARY KEY(a));\n";
  for (int i = 1; i <= kMaxSubsetPrograms - 1; ++i) {
    sql << "PROGRAM P" << i << "(:x):\n  SELECT b FROM T WHERE a = :x;\nCOMMIT;\n";
  }
  SessionManager manager;
  Json load = Request(manager, std::string(R"({"cmd":"load_sql","session":"wide","sql":)") +
                                   Json::Str(sql.str()).Dump() + "}");
  ASSERT_TRUE(load.GetBool("ok", false)) << load.GetString("error");
  ASSERT_EQ(load.GetInt("num_programs", -1), kMaxSubsetPrograms + 1);

  Json subsets = Request(manager, R"({"cmd":"subsets","session":"wide"})");
  ASSERT_TRUE(subsets.GetBool("ok", false)) << subsets.GetString("error");
  EXPECT_EQ(subsets.GetString("search"), "core_guided");
  EXPECT_EQ(subsets.GetInt("num_programs", -1), kMaxSubsetPrograms + 1);
  EXPECT_EQ(subsets.Find("num_robust_subsets"), nullptr);
  EXPECT_GT(subsets.GetInt("detector_queries", 0), 0);

  // Exactly one minimal core: the conflicting pair, rendered by name.
  EXPECT_EQ(subsets.GetInt("num_cores", -1), 1);
  const Json* cores = subsets.Find("cores");
  ASSERT_NE(cores, nullptr);
  ASSERT_EQ(cores->size(), 1);
  ASSERT_EQ(cores->at(0).size(), 2);
  EXPECT_EQ(cores->at(0).at(0).string_value(), "Monitor");
  EXPECT_EQ(cores->at(0).at(1).string_value(), "Refresh");

  // Two maximal robust subsets — everything minus one side of the core.
  const Json* maximal = subsets.Find("maximal");
  ASSERT_NE(maximal, nullptr);
  ASSERT_EQ(maximal->size(), 2);
  for (int i = 0; i < maximal->size(); ++i) {
    EXPECT_EQ(maximal->at(i).size(), kMaxSubsetPrograms);
    bool has_monitor = false, has_refresh = false;
    for (int j = 0; j < maximal->at(i).size(); ++j) {
      const std::string& name = maximal->at(i).at(j).string_value();
      has_monitor |= name == "Monitor";
      has_refresh |= name == "Refresh";
    }
    EXPECT_NE(has_monitor, has_refresh);
  }
}

TEST(ProtocolIsolationTest, DaemonDefaultIsolationAppliesToNewSessionsOnly) {
  SessionManager manager;
  ProtocolOptions rc_default;
  rc_default.default_isolation = IsolationLevel::kRc;

  Json created =
      Request(manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank"})", rc_default);
  ASSERT_TRUE(created.GetBool("ok", false));
  Json stats = Request(manager, R"({"cmd":"stats","session":"s"})", rc_default);
  EXPECT_EQ(stats.GetString("isolation"), "rc");
  EXPECT_EQ(stats.GetString("settings"), "attr dep + FK @ rc");

  // A request naming mvrc explicitly still beats the daemon default at
  // creation time.
  Json mvrc_session = Request(
      manager, R"({"cmd":"load_sql","session":"m","builtin":"auction","isolation":"mvrc"})",
      rc_default);
  ASSERT_TRUE(mvrc_session.GetBool("ok", false));
  Json mvrc_stats = Request(manager, R"({"cmd":"stats","session":"m"})", rc_default);
  EXPECT_EQ(mvrc_stats.GetString("isolation"), "mvrc");
}

// SessionStats::ToJson is the single spelling of the stats fields, shared by
// the protocol `stats` command, the `metrics` session block, and
// `mvrcdet --json`. This test pins the field names: renaming one is a
// protocol break and must show up here.
TEST(SessionStatsTest, ToJsonPinsFieldNames) {
  WorkloadSession session("pin", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session.LoadWorkload(MakeSmallBank()).ok());
  session.Check();
  session.Check();  // second check hits the verdict cache

  const Json stats = session.stats().ToJson();
  const char* kFields[] = {
      "programs_added",     "programs_removed",      "programs_replaced",
      "cells_computed",     "stmt_pairs_evaluated",  "shapes_interned",
      "graph_materializations", "detector_runs",     "subset_sweeps",
      "verdict_cache_hits", "verdict_cache_misses",  "verdict_cache_size"};
  ASSERT_EQ(stats.size(), static_cast<int>(sizeof(kFields) / sizeof(kFields[0])));
  for (const char* field : kFields) {
    ASSERT_NE(stats.Find(field), nullptr) << field;
    EXPECT_TRUE(stats.Find(field)->is_number()) << field;
  }
  EXPECT_GE(stats.GetInt("programs_added", -1), 1);
  EXPECT_EQ(stats.GetInt("verdict_cache_hits", -1), 1);

  // The protocol `stats` response carries exactly these spellings.
  SessionManager manager;
  Json load = Request(manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank"})");
  ASSERT_TRUE(load.GetBool("ok", false)) << load.GetString("error");
  Json response = Request(manager, R"({"cmd":"stats","session":"s"})");
  for (const char* field : kFields) {
    EXPECT_NE(response.Find(field), nullptr) << field;
  }
}

TEST(ProtocolTest, MetricsCommandReportsCountersAndLatencies) {
  SessionManager manager;
  Json load = Request(manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank"})");
  ASSERT_TRUE(load.GetBool("ok", false)) << load.GetString("error");
  Json check = Request(manager, R"({"cmd":"check","session":"s"})");
  ASSERT_TRUE(check.GetBool("ok", false)) << check.GetString("error");

  Json metrics = Request(manager, R"({"cmd":"metrics"})");
  ASSERT_TRUE(metrics.GetBool("ok", false)) << metrics.GetString("error");
  const Json* counters = metrics.Find("counters");
  ASSERT_NE(counters, nullptr);
  // The session layer ran at least one mutation and one check in this
  // process (metrics are process-global, so >= rather than ==).
  ASSERT_NE(counters->Find("session.checks"), nullptr);
  EXPECT_GE(counters->Find("session.checks")->int_value(), 1);
  ASSERT_NE(counters->Find("session.mutations"), nullptr);
  EXPECT_GE(counters->Find("session.mutations")->int_value(), 1);
  ASSERT_NE(counters->Find("protocol.requests"), nullptr);
  EXPECT_GE(counters->Find("protocol.requests")->int_value(), 2);

  // Check latency percentiles, the headline of the `metrics` command.
  const Json* hists = metrics.Find("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* check_us = hists->Find("session.check_us");
  ASSERT_NE(check_us, nullptr);
  EXPECT_GE(check_us->Find("count")->int_value(), 1);
  for (const char* key : {"p50", "p95", "p99"}) {
    ASSERT_NE(check_us->Find(key), nullptr) << key;
    EXPECT_GE(check_us->Find(key)->int_value(), 0) << key;
  }

  const Json* trace = metrics.Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_NE(trace->Find("enabled"), nullptr);
  EXPECT_TRUE(trace->Find("enabled")->is_bool());

  // With a session, the response adds that session's stats block.
  Json scoped = Request(manager, R"({"cmd":"metrics","session":"s"})");
  ASSERT_TRUE(scoped.GetBool("ok", false));
  EXPECT_EQ(scoped.GetString("session"), "s");
  const Json* session_stats = scoped.Find("session_stats");
  ASSERT_NE(session_stats, nullptr);
  EXPECT_GE(session_stats->GetInt("programs_added", -1), 1);

  Json missing = Request(manager, R"({"cmd":"metrics","session":"nope"})");
  EXPECT_FALSE(missing.GetBool("ok", true));
}

TEST(ProtocolTest, EveryResponseCarriesElapsedUs) {
  SessionManager manager;
  Json ok_response = Request(manager, R"({"cmd":"stats"})");
  ASSERT_NE(ok_response.Find("elapsed_us"), nullptr);
  EXPECT_GE(ok_response.Find("elapsed_us")->int_value(), 0);

  Json error_response = Request(manager, R"({"cmd":"no_such_cmd"})");
  EXPECT_FALSE(error_response.GetBool("ok", true));
  ASSERT_NE(error_response.Find("elapsed_us"), nullptr);
  EXPECT_GE(error_response.Find("elapsed_us")->int_value(), 0);
}

TEST(ProtocolTest, AuctionNBuiltinScalesThePredefinedWorkload) {
  SessionManager manager;
  // auction11 = 22 programs: past the 20-program exhaustive-sweep cap, so a
  // subsets request on it must take the core-guided lattice path.
  Json load = Request(manager, R"({"cmd":"load_sql","session":"a","builtin":"auction11"})");
  ASSERT_TRUE(load.GetBool("ok", false)) << load.GetString("error");
  EXPECT_EQ(load.GetInt("num_programs", -1), 22);
  Json stats = Request(manager, R"({"cmd":"stats","session":"a"})");
  EXPECT_EQ(stats.GetInt("programs_added", -1), 22);

  Json subsets = Request(manager, R"({"cmd":"subsets","session":"a"})");
  ASSERT_TRUE(subsets.GetBool("ok", false)) << subsets.GetString("error");
  EXPECT_EQ(subsets.GetString("search"), "core_guided");

  // Degenerate and oversized suffixes are rejected like any unknown builtin.
  for (const char* bad : {"auction0", "auction999", "auctionx"}) {
    Json response = Request(
        manager, std::string(R"({"cmd":"load_sql","session":"bad","builtin":")") + bad + "\"}");
    EXPECT_FALSE(response.GetBool("ok", true)) << bad;
    EXPECT_NE(response.GetString("error").find("unknown builtin"), std::string::npos) << bad;
  }
}

// --- Durability and degradation: retryable errors, admission, snapshots ---

// A per-test state dir for the protocol-level snapshot/restore tests.
struct ProtocolTempDir {
  ProtocolTempDir() {
    std::string templ = ::testing::TempDir() + "mvrc_service_XXXXXX";
    std::vector<char> buffer(templ.begin(), templ.end());
    buffer.push_back('\0');
    EXPECT_NE(::mkdtemp(buffer.data()), nullptr);
    path = buffer.data();
  }
  ~ProtocolTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

TEST(ProtocolRetryableTest, ClientErrorsAreNeverRetryable) {
  SessionManager manager;
  // Every client-caused failure mode carries an explicit retryable:false —
  // resending identical bytes cannot succeed, and clients must be able to
  // tell that apart from shedding without string-matching the message.
  for (const char* line : {
           "this is not json",
           "[1,2,3]",                                       // not an object
           R"({"nocmd":true})",                             // missing cmd
           R"({"cmd":"frobnicate"})",                       // unknown cmd
           R"({"cmd":"check","session":"ghost"})",          // unknown session
           R"({"cmd":"load_sql","session":"s"})",           // missing sql
           R"({"cmd":"snapshot"})",                         // no store configured
           R"({"cmd":"restore"})",                          // no store configured
       }) {
    SCOPED_TRACE(line);
    Json response = Request(manager, line);
    EXPECT_FALSE(response.GetBool("ok", true));
    const Json* retryable = response.Find("retryable");
    ASSERT_NE(retryable, nullptr) << "error response without retryable flag";
    EXPECT_FALSE(retryable->bool_value());
  }
}

TEST(ProtocolRetryableTest, ShedRequestsAreRetryable) {
  SessionManager manager;
  // max_inflight=0 admits nothing: every request takes the shed path.
  AdmissionController gate(0);
  ProtocolOptions options;
  options.admission = &gate;
  Json response = Request(manager, R"({"cmd":"stats"})", options);
  EXPECT_FALSE(response.GetBool("ok", true));
  const Json* retryable = response.Find("retryable");
  ASSERT_NE(retryable, nullptr);
  EXPECT_TRUE(retryable->bool_value());
  EXPECT_EQ(gate.shed(), 1);

  // With capacity the same request sails through — the gate releases slots.
  AdmissionController open_gate(1);
  options.admission = &open_gate;
  EXPECT_TRUE(Request(manager, R"({"cmd":"stats"})", options).GetBool("ok", false));
  EXPECT_TRUE(Request(manager, R"({"cmd":"stats"})", options).GetBool("ok", false));
  EXPECT_EQ(open_gate.inflight(), 0);
}

TEST(ProtocolSnapshotTest, MutationsAutoFlushAndCommandsRoundTrip) {
  ProtocolTempDir dir;
  SnapshotStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  ProtocolOptions options;
  options.store = &store;

  SessionManager manager;
  Json load =
      Request(manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank"})", options);
  ASSERT_TRUE(load.GetBool("ok", false)) << load.GetString("error");
  // The mutation response reports its own flush...
  EXPECT_TRUE(load.GetBool("durable", false));
  // ...and the snapshot really is on disk.
  EXPECT_EQ(store.ListKeys(), std::vector<std::string>{"s"});

  Json snapshot = Request(manager, R"({"cmd":"snapshot"})", options);
  ASSERT_TRUE(snapshot.GetBool("ok", false));
  ASSERT_NE(snapshot.Find("snapshotted"), nullptr);
  EXPECT_EQ(snapshot.Find("snapshotted")->size(), 1);
  EXPECT_EQ(snapshot.Find("skipped")->size(), 0);
  EXPECT_EQ(snapshot.Find("failed")->size(), 0);

  // A restarted daemon = a fresh manager over the same store: `restore`
  // brings the session back with identical verdicts.
  Json reference = Request(manager, R"({"cmd":"check","session":"s"})", options);
  SessionManager restarted;
  Json restore = Request(restarted, R"({"cmd":"restore"})", options);
  ASSERT_TRUE(restore.GetBool("ok", false));
  ASSERT_NE(restore.Find("restored"), nullptr);
  ASSERT_EQ(restore.Find("restored")->size(), 1);
  EXPECT_EQ(restore.Find("restored")->at(0).string_value(), "s");
  EXPECT_EQ(restore.Find("quarantined")->size(), 0);
  Json recheck = Request(restarted, R"({"cmd":"check","session":"s"})", options);
  EXPECT_EQ(recheck.GetBool("robust", true), reference.GetBool("robust", false));
  EXPECT_EQ(recheck.GetInt("num_edges", -1), reference.GetInt("num_edges", -2));

  // Restoring again is a no-op while the session lives.
  Json again = Request(restarted, R"({"cmd":"restore"})", options);
  ASSERT_TRUE(again.GetBool("ok", false));
  EXPECT_EQ(again.Find("restored")->size(), 0);
}

TEST(ProtocolSnapshotTest, DropSessionDeletesTheSnapshotFile) {
  ProtocolTempDir dir;
  SnapshotStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  ProtocolOptions options;
  options.store = &store;

  SessionManager manager;
  ASSERT_TRUE(
      Request(manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank"})", options)
          .GetBool("ok", false));
  ASSERT_EQ(store.ListKeys().size(), 1u);
  Json dropped = Request(manager, R"({"cmd":"drop_session","session":"s"})", options);
  ASSERT_TRUE(dropped.GetBool("ok", false));
  EXPECT_TRUE(dropped.GetBool("dropped", false));
  // No stale snapshot left to resurrect the dropped session on restart.
  EXPECT_TRUE(store.ListKeys().empty());
  SessionManager restarted;
  Json restore = Request(restarted, R"({"cmd":"restore"})", options);
  EXPECT_EQ(restore.Find("restored")->size(), 0);
}

TEST(ProtocolSnapshotTest, NonReplayableSessionsAreReportedAsSkipped) {
  ProtocolTempDir dir;
  SnapshotStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  ProtocolOptions options;
  options.store = &store;

  SessionManager manager;
  // Mutate through the non-journaled entry point: prebuilt Btps, no source.
  std::shared_ptr<WorkloadSession> session =
      manager.GetOrCreate("prebuilt", AnalysisSettings::AttrDepFk());
  ASSERT_TRUE(session->LoadWorkload(MakeSmallBank()).ok());

  Json snapshot = Request(manager, R"({"cmd":"snapshot"})", options);
  ASSERT_TRUE(snapshot.GetBool("ok", false));
  EXPECT_EQ(snapshot.Find("snapshotted")->size(), 0);
  ASSERT_EQ(snapshot.Find("skipped")->size(), 1);
  EXPECT_EQ(snapshot.Find("skipped")->at(0).string_value(), "prebuilt");

  // The same degradation is visible per-mutation: the protocol-level remove
  // succeeds but reports the session as not durable.
  ASSERT_TRUE(session->num_programs() > 0);
  Json removed = Request(
      manager, R"({"cmd":"remove_program","session":"prebuilt","name":"Balance"})", options);
  ASSERT_TRUE(removed.GetBool("ok", false));
  EXPECT_FALSE(removed.GetBool("durable", true));
  EXPECT_FALSE(removed.GetString("persist_error").empty());
}

TEST(ProtocolSnapshotTest, FailedFlushDegradesTheResponseNotTheSession) {
  ProtocolTempDir dir;
  SnapshotStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  ProtocolOptions options;
  options.store = &store;

  SessionManager manager;
  FaultInjection::Global().Reset();
  FaultInjection::Global().Arm("fs.write_fail", 1);
  Json load =
      Request(manager, R"({"cmd":"load_sql","session":"s","builtin":"smallbank"})", options);
  FaultInjection::Global().Reset();
  // The mutation itself succeeded and the session serves requests...
  ASSERT_TRUE(load.GetBool("ok", false)) << load.GetString("error");
  EXPECT_FALSE(load.GetBool("durable", true));
  EXPECT_FALSE(load.GetString("persist_error").empty());
  EXPECT_TRUE(
      Request(manager, R"({"cmd":"check","session":"s"})", options).GetBool("ok", false));
  // ...only the flush was lost; an explicit snapshot command recovers it.
  EXPECT_TRUE(store.ListKeys().empty());
  ASSERT_TRUE(Request(manager, R"({"cmd":"snapshot","session":"s"})", options)
                  .GetBool("ok", false));
  EXPECT_EQ(store.ListKeys(), std::vector<std::string>{"s"});
}

// A response without its server-side timing, as the protocol dumps it.
std::string WithoutElapsed(const Json& response) {
  Json copy = Json::Object();
  for (int i = 0; i < response.size(); ++i) {
    if (response.key_at(i) != "elapsed_us") copy.Set(response.key_at(i), response.value_at(i));
  }
  return copy.Dump();
}

// Through kMaxSubsetPrograms the subsets response keeps the per-mask shape
// byte for byte, whichever engine computes it. These strings are the
// responses of the per-mask sweep the core-guided search replaced.
TEST(ProtocolSubsetsTest, PerMaskResponsesMatchGoldenBytes) {
  struct Golden {
    std::string load;  // empty: the session is already loaded
    std::string subsets;
    std::string expected;
  };
  const std::vector<Golden> goldens = {
      {R"({"cmd":"load_sql","session":"sb","builtin":"smallbank"})",
       R"({"cmd":"subsets","session":"sb"})",
       R"({"cmd":"subsets","ok":true,"session":"sb","num_programs":5,"search":"exhaustive","num_robust_subsets":10,"maximal":[["Balance","DepositChecking"],["Balance","TransactSavings"],["Amalgamate","DepositChecking","TransactSavings"]]})"},
      {"",
       R"({"cmd":"subsets","session":"sb","method":"type1"})",
       R"({"cmd":"subsets","ok":true,"session":"sb","num_programs":5,"search":"exhaustive","num_robust_subsets":8,"maximal":[["Balance"],["Amalgamate","DepositChecking","TransactSavings"]]})"},
      {R"({"cmd":"load_sql","session":"tpcc","builtin":"tpcc"})",
       R"({"cmd":"subsets","session":"tpcc"})",
       R"({"cmd":"subsets","ok":true,"session":"tpcc","num_programs":5,"search":"exhaustive","num_robust_subsets":9,"maximal":[["NewOrder","Payment"],["Payment","OrderStatus","StockLevel"]]})"},
      {"",
       R"({"cmd":"subsets","session":"tpcc","method":"type1"})",
       R"({"cmd":"subsets","ok":true,"session":"tpcc","num_programs":5,"search":"exhaustive","num_robust_subsets":7,"maximal":[["NewOrder","Payment"],["Payment","StockLevel"],["OrderStatus","StockLevel"]]})"},
      {R"({"cmd":"load_sql","session":"auction","builtin":"auction"})",
       R"({"cmd":"subsets","session":"auction"})",
       R"({"cmd":"subsets","ok":true,"session":"auction","num_programs":2,"search":"exhaustive","num_robust_subsets":3,"maximal":[["FindBids","PlaceBid"]]})"},
      {R"({"cmd":"load_sql","session":"a8","builtin":"auction8","settings":"attr"})",
       R"({"cmd":"subsets","session":"a8"})",
       R"({"cmd":"subsets","ok":true,"session":"a8","num_programs":16,"search":"exhaustive","num_robust_subsets":255,"maximal":[["FindBids1","FindBids2","FindBids3","FindBids4","FindBids5","FindBids6","FindBids7","FindBids8"]]})"},
      {R"({"cmd":"load_sql","session":"a8rc","builtin":"auction8","settings":"attr","isolation":"rc"})",
       R"({"cmd":"subsets","session":"a8rc"})",
       R"({"cmd":"subsets","ok":true,"session":"a8rc","num_programs":16,"search":"exhaustive","num_robust_subsets":255,"maximal":[["FindBids1","FindBids2","FindBids3","FindBids4","FindBids5","FindBids6","FindBids7","FindBids8"]]})"},
  };
  SessionManager manager;
  for (const Golden& golden : goldens) {
    if (!golden.load.empty()) {
      ASSERT_TRUE(Request(manager, golden.load).GetBool("ok")) << golden.load;
    }
    EXPECT_EQ(WithoutElapsed(Request(manager, golden.subsets)), golden.expected)
        << golden.subsets;
  }
}

// An edge-preserving replace_program (FindBids2 with its parameter renamed)
// keeps every revision, so the subsets request that follows is answered
// from the verdict cache alone: the same bytes, zero detector queries, and
// lookups far below the 2^16 subsets.
TEST(ProtocolSubsetsTest, EdgePreservingReplaceRunsNoDetectorQueries) {
  SessionManager manager;
  Json load = Json::Object();
  load.Set("cmd", Json::Str("load_sql"));
  load.Set("session", Json::Str("a8"));
  load.Set("settings", Json::Str("attr"));
  load.Set("sql", Json::Str(AuctionNSql(8)));
  ASSERT_TRUE(Request(manager, load.Dump()).GetBool("ok"));
  const std::string subsets = R"({"cmd":"subsets","session":"a8"})";
  const std::string before = WithoutElapsed(Request(manager, subsets));
  std::shared_ptr<WorkloadSession> session = manager.Find("a8");
  ASSERT_NE(session, nullptr);
  const SessionStats stats_before = session->stats();

  Json replace = Json::Object();
  replace.Set("cmd", Json::Str("replace_program"));
  replace.Set("session", Json::Str("a8"));
  replace.Set("sql", Json::Str("PROGRAM FindBids2(:X, :T):\n"
                               "  UPDATE Buyer SET calls = calls + 1 WHERE id = :X;\n"
                               "  SELECT bid FROM Bids2 WHERE bid >= :T;\n"
                               "COMMIT;\n"));
  ASSERT_TRUE(Request(manager, replace.Dump()).GetBool("ok"));
  EXPECT_EQ(WithoutElapsed(Request(manager, subsets)), before);
  const SessionStats stats_after = session->stats();
  EXPECT_EQ(stats_after.detector_runs, stats_before.detector_runs);
  EXPECT_EQ(stats_after.verdict_cache_misses, stats_before.verdict_cache_misses);
  const int64_t lookups = stats_after.verdict_cache_hits - stats_before.verdict_cache_hits;
  EXPECT_GT(lookups, 0);
  EXPECT_LT(lookups, (int64_t{1} << 16) / 100);
}

}  // namespace
}  // namespace mvrc
