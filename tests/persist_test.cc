// The durability layer's contract: every payload round-trips bit-identical
// through the paged CRC format; every corruption (torn page, flipped byte,
// truncation, bad magic, stale temp file) is detected and *quarantined*,
// never fatal and never silently restored; and — the crash matrix — a fault
// injected at every reachable point of the snapshot path leaves the store
// in one of exactly two states, "previous snapshot" or "new snapshot",
// with restore reproducing that state's verdicts or quarantining. No third
// outcome.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/session_snapshot.h"
#include "persist/snapshot_store.h"
#include "service/session_manager.h"
#include "service/workload_session.h"
#include "summary/dep_tables.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "workloads/builtins.h"
#include "workloads/sql_texts.h"

namespace mvrc {
namespace {

namespace fs = std::filesystem;

// A fresh directory per test, removed on scope exit.
struct TempDir {
  TempDir() {
    std::string templ = ::testing::TempDir() + "mvrc_persist_XXXXXX";
    std::vector<char> buffer(templ.begin(), templ.end());
    buffer.push_back('\0');
    EXPECT_NE(::mkdtemp(buffer.data()), nullptr);
    path = buffer.data();
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string DeterministicBytes(size_t n) {
  std::string out(n, '\0');
  uint32_t state = 0x2545F491u + static_cast<uint32_t>(n);
  for (size_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;  // LCG: reproducible junk
    out[i] = static_cast<char>(state >> 24);
  }
  return out;
}

void FlipByteAt(const std::string& path, uint64_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x5A;
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

TEST(Crc32Test, MatchesTheReferenceCheckValue) {
  // The standard CRC-32 check value ("check" column of the Rocksoft model).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
  const std::string data = DeterministicBytes(1000);
  const uint32_t whole = Crc32(data.data(), data.size());
  const uint32_t first = Crc32(data.data(), 400);
  EXPECT_EQ(Crc32(data.data() + 400, 600, first), whole);
}

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjection::Global().Reset();
    store_ = std::make_unique<SnapshotStore>(dir_.path);
    ASSERT_TRUE(store_->Init().ok());
  }
  void TearDown() override { FaultInjection::Global().Reset(); }

  TempDir dir_;
  std::unique_ptr<SnapshotStore> store_;
};

TEST_F(SnapshotStoreTest, RoundTripsPayloadsAcrossPageBoundaries) {
  const size_t sizes[] = {0,
                          1,
                          100,
                          SnapshotStore::kChunkSize - 1,
                          SnapshotStore::kChunkSize,
                          SnapshotStore::kChunkSize + 1,
                          3 * SnapshotStore::kChunkSize + 7};
  for (size_t size : sizes) {
    SCOPED_TRACE(size);
    const std::string payload = DeterministicBytes(size);
    ASSERT_TRUE(store_->Write("k", payload).ok());
    Result<std::string> read = store_->Read("k");
    ASSERT_TRUE(read.ok()) << read.error();
    EXPECT_EQ(read.value(), payload);
    // File size is always a whole number of pages: header + ceil(n/chunk).
    const uint64_t pages = (size + SnapshotStore::kChunkSize - 1) / SnapshotStore::kChunkSize;
    EXPECT_EQ(fs::file_size(store_->PathForKey("k")), (pages + 1) * SnapshotStore::kPageSize);
  }
}

TEST_F(SnapshotStoreTest, WriteAtomicallyReplaces) {
  ASSERT_TRUE(store_->Write("k", "old payload").ok());
  ASSERT_TRUE(store_->Write("k", DeterministicBytes(10000)).ok());
  Result<std::string> read = store_->Read("k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), DeterministicBytes(10000));
  EXPECT_EQ(store_->ListKeys(), std::vector<std::string>{"k"});
}

TEST_F(SnapshotStoreTest, RemoveIsIdempotent) {
  ASSERT_TRUE(store_->Write("k", "x").ok());
  EXPECT_TRUE(store_->Remove("k").ok());
  EXPECT_FALSE(store_->Read("k").ok());
  EXPECT_TRUE(store_->Remove("k").ok());  // already gone: still ok
}

TEST_F(SnapshotStoreTest, KeyCodecRoundTripsAndStaysInjective) {
  for (const std::string name : {"plain", "with space", "a/b\\c", "pct%20esc", "\xC3\xA9"}) {
    SCOPED_TRACE(name);
    const std::string encoded = SnapshotStore::EncodeKey(name);
    // Encoded keys are filesystem-safe by construction.
    EXPECT_EQ(encoded.find('/'), std::string::npos);
    Result<std::string> decoded = SnapshotStore::DecodeKey(encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), name);
  }
  // "a b" and the literal "a%20b" must land on different files.
  EXPECT_NE(SnapshotStore::EncodeKey("a b"), SnapshotStore::EncodeKey("a%20b"));
  EXPECT_FALSE(SnapshotStore::DecodeKey("bad%2").ok());
  EXPECT_FALSE(SnapshotStore::DecodeKey("bad%zz").ok());
}

TEST_F(SnapshotStoreTest, FlippedPayloadByteIsQuarantinedNotReturned) {
  ASSERT_TRUE(store_->Write("k", DeterministicBytes(500)).ok());
  // Page 1, past the 8-byte chunk header: inside the checksummed payload.
  FlipByteAt(store_->PathForKey("k"), SnapshotStore::kPageSize + 8 + 100);
  EXPECT_FALSE(store_->Read("k").ok());
  SnapshotStore::ScanResult scan = store_->ScanAll();
  EXPECT_TRUE(scan.payloads.empty());
  ASSERT_EQ(scan.quarantined.size(), 1u);
  EXPECT_TRUE(fs::exists(scan.quarantined[0]));
  EXPECT_FALSE(fs::exists(store_->PathForKey("k")));
  // A second scan is clean: quarantine is idempotent, not a loop.
  EXPECT_TRUE(store_->ScanAll().quarantined.empty());
}

TEST_F(SnapshotStoreTest, BadMagicAndBadHeaderAreQuarantined) {
  ASSERT_TRUE(store_->Write("magic", "payload").ok());
  ASSERT_TRUE(store_->Write("header", "payload").ok());
  FlipByteAt(store_->PathForKey("magic"), 0);    // magic
  FlipByteAt(store_->PathForKey("header"), 16);  // page count: breaks header CRC
  SnapshotStore::ScanResult scan = store_->ScanAll();
  EXPECT_TRUE(scan.payloads.empty());
  EXPECT_EQ(scan.quarantined.size(), 2u);
}

TEST_F(SnapshotStoreTest, TruncatedFileIsQuarantined) {
  ASSERT_TRUE(store_->Write("k", DeterministicBytes(3 * SnapshotStore::kChunkSize)).ok());
  fs::resize_file(store_->PathForKey("k"), SnapshotStore::kPageSize + 100);
  SnapshotStore::ScanResult scan = store_->ScanAll();
  EXPECT_TRUE(scan.payloads.empty());
  EXPECT_EQ(scan.quarantined.size(), 1u);
}

TEST_F(SnapshotStoreTest, ScanRemovesTempDebrisAndKeepsValidFiles) {
  ASSERT_TRUE(store_->Write("good", "payload").ok());
  const std::string debris = store_->PathForKey("half") + SnapshotStore::kTempSuffix;
  std::ofstream(debris) << "partial write from a crashed process";
  SnapshotStore::ScanResult scan = store_->ScanAll();
  EXPECT_FALSE(fs::exists(debris));
  ASSERT_EQ(scan.payloads.size(), 1u);
  EXPECT_EQ(scan.payloads[0].first, "good");
  EXPECT_EQ(scan.payloads[0].second, "payload");
  EXPECT_TRUE(scan.quarantined.empty());
}

// ---------------------------------------------------------------------------
// Session snapshots: encode -> restore must reproduce the session exactly.

constexpr char kTinySchemaSql[] =
    "TABLE Wallet(id, balance, PRIMARY KEY(id));\n"
    "\n"
    "PROGRAM Deposit(:a, :v):\n"
    "  UPDATE Wallet SET balance = balance + :v WHERE id = :a;\n"
    "COMMIT;\n";

constexpr char kDepositV2Sql[] =
    "PROGRAM Deposit(:a, :v):\n"
    "  SELECT balance INTO :b FROM Wallet WHERE id = :a;\n"
    "  UPDATE Wallet SET balance = :b + :v WHERE id = :a;\n"
    "COMMIT;\n";

// The observable state restore must reproduce: program set and the full
// type-I/II verdicts (edge counts pin the summary graph, not just the bit).
struct SessionFingerprint {
  std::vector<std::string> programs;
  bool robust_type1 = false;
  bool robust_type2 = false;
  int64_t num_edges = 0;
  int64_t num_counterflow = 0;

  friend bool operator==(const SessionFingerprint&, const SessionFingerprint&) = default;
};

SessionFingerprint FingerprintOf(WorkloadSession& session) {
  SessionFingerprint fp;
  fp.programs = session.ProgramNames();
  CheckResult type2 = session.Check(Method::kTypeII);
  fp.robust_type2 = type2.robust;
  fp.num_edges = type2.num_edges;
  fp.num_counterflow = type2.num_counterflow_edges;
  fp.robust_type1 = session.Check(Method::kTypeI).robust;
  return fp;
}

class SessionSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjection::Global().Reset();
    store_ = std::make_unique<SnapshotStore>(dir_.path);
    ASSERT_TRUE(store_->Init().ok());
  }
  void TearDown() override { FaultInjection::Global().Reset(); }

  std::shared_ptr<WorkloadSession> NewSession(SessionManager& manager,
                                              const std::string& name) {
    return manager.GetOrCreate(name, AnalysisSettings::AttrDepFk());
  }

  TempDir dir_;
  std::unique_ptr<SnapshotStore> store_;
};

TEST_F(SessionSnapshotTest, RoundTripsThroughEveryJournaledMutation) {
  SessionManager manager;
  std::shared_ptr<WorkloadSession> session = NewSession(manager, "s");
  ASSERT_TRUE(session->LoadSql(SmallBankSql()).ok());
  ASSERT_TRUE(session->LoadSql(kTinySchemaSql).ok());
  ASSERT_TRUE(session->RemoveProgram("Balance").ok());
  ASSERT_TRUE(session->ReplaceProgramSql(kDepositV2Sql).ok());
  const SessionFingerprint original = FingerprintOf(*session);

  ASSERT_TRUE(TrySnapshotSession(*store_, *session).ok());

  SessionManager recovered_manager(1);
  RestoreReport report = RestoreAllSessions(*store_, recovered_manager);
  ASSERT_EQ(report.restored, std::vector<std::string>{"s"});
  EXPECT_TRUE(report.quarantined.empty());
  std::shared_ptr<WorkloadSession> recovered = recovered_manager.Find("s");
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(FingerprintOf(*recovered), original);

  // The restored session is not a read-only replica: identical further
  // mutations must keep it bit-identical to the original.
  ASSERT_TRUE(session->RemoveProgram("Deposit").ok());
  ASSERT_TRUE(recovered->RemoveProgram("Deposit").ok());
  EXPECT_EQ(FingerprintOf(*recovered), FingerprintOf(*session));
  EXPECT_EQ(recovered->replay_state().journal, session->replay_state().journal);
}

TEST_F(SessionSnapshotTest, BuiltinLoadsReplayByName) {
  SessionManager manager;
  std::shared_ptr<WorkloadSession> session = NewSession(manager, "builtin");
  std::optional<Workload> auction = MakeBuiltinWorkload("auction");
  ASSERT_TRUE(auction.has_value());
  ASSERT_TRUE(session->LoadWorkload(*auction, "auction").ok());
  const SessionFingerprint original = FingerprintOf(*session);
  ASSERT_TRUE(TrySnapshotSession(*store_, *session).ok());

  SessionManager recovered_manager(1);
  RestoreReport report = RestoreAllSessions(*store_, recovered_manager);
  ASSERT_EQ(report.restored, std::vector<std::string>{"builtin"});
  std::shared_ptr<WorkloadSession> recovered = recovered_manager.Find("builtin");
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(FingerprintOf(*recovered), original);
}

TEST_F(SessionSnapshotTest, PrebuiltBtpSessionsAreSkippedNotFailed) {
  SessionManager manager;
  std::shared_ptr<WorkloadSession> session = NewSession(manager, "prebuilt");
  // No builtin name: the session holds Btps with no recorded source.
  std::optional<Workload> smallbank = MakeBuiltinWorkload("smallbank");
  ASSERT_TRUE(smallbank.has_value());
  ASSERT_TRUE(session->LoadWorkload(*smallbank).ok());
  EXPECT_FALSE(session->replay_state().replayable);
  EXPECT_FALSE(EncodeSessionSnapshot(*session).ok());
  bool skipped = false;
  EXPECT_FALSE(TrySnapshotSession(*store_, *session, &skipped).ok());
  EXPECT_TRUE(skipped);
  EXPECT_TRUE(store_->ListKeys().empty());
}

TEST_F(SessionSnapshotTest, CrcCleanButUnreplayablePayloadIsQuarantined) {
  SessionManager manager;
  std::shared_ptr<WorkloadSession> session = NewSession(manager, "s");
  ASSERT_TRUE(session->LoadSql(kTinySchemaSql).ok());
  Result<std::string> payload = EncodeSessionSnapshot(*session);
  ASSERT_TRUE(payload.ok());
  // Corrupt the *semantics*, not the bytes: the recorded cursor state no
  // longer matches what replay produces. CRCs cannot catch this — the
  // post-replay verification must.
  Result<Json> doc = Json::Parse(payload.value());
  ASSERT_TRUE(doc.ok());
  Json tampered = doc.value();
  tampered.Set("label_counter", Json::Int(9999));
  ASSERT_TRUE(store_->Write(SnapshotStore::EncodeKey("s"), tampered.Dump()).ok());

  SessionManager recovered_manager(1);
  RestoreReport report = RestoreAllSessions(*store_, recovered_manager);
  EXPECT_TRUE(report.restored.empty());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(recovered_manager.Find("s"), nullptr);  // no half-restored session
  EXPECT_TRUE(fs::exists(report.quarantined[0]));
}

TEST_F(SessionSnapshotTest, RestoreSkipsSessionsAlreadyLive) {
  SessionManager manager;
  std::shared_ptr<WorkloadSession> session = NewSession(manager, "s");
  ASSERT_TRUE(session->LoadSql(kTinySchemaSql).ok());
  ASSERT_TRUE(TrySnapshotSession(*store_, *session).ok());
  // The live session must win over its (now mutated) snapshot.
  ASSERT_TRUE(session->LoadSql(SmallBankSql()).ok());
  RestoreReport report = RestoreAllSessions(*store_, manager);
  EXPECT_TRUE(report.restored.empty());
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(manager.Find("s")->num_programs(), 6);
}

// ---------------------------------------------------------------------------
// The kill-at-every-fault-point matrix (the ISSUE's acceptance criterion).
//
// Protocol: put a good snapshot of state A on disk, mutate the session to
// state B, then attempt to snapshot B with one fault point armed to fire on
// its k-th hit — for every registered point, for every k until the attempt
// completes without the fault firing. After each attempt, recover into a
// fresh manager from a fresh store handle. The recovered world must be
// exactly one of: state A's verdicts, state B's verdicts, or a quarantined
// file with no session. Anything else — a wrong verdict, a crash, a
// half-restored session — fails the matrix.
TEST(FaultMatrixTest, EveryFaultPointEveryHitRestoresOrQuarantines) {
  FaultInjection::Global().Reset();

  // Reference fingerprints computed once, outside any faulting.
  SessionFingerprint state_a;
  SessionFingerprint state_b;
  {
    SessionManager reference(1);
    std::shared_ptr<WorkloadSession> session =
        reference.GetOrCreate("s", AnalysisSettings::AttrDepFk());
    ASSERT_TRUE(session->LoadSql(SmallBankSql()).ok());
    state_a = FingerprintOf(*session);
    ASSERT_TRUE(session->RemoveProgram("Balance").ok());
    state_b = FingerprintOf(*session);
  }
  ASSERT_NE(state_a, state_b);

  for (const char* point : RegisteredFaultPoints()) {
    bool completed_without_firing = false;
    for (int64_t fire_at = 1; fire_at <= 64 && !completed_without_firing; ++fire_at) {
      SCOPED_TRACE(std::string(point) + "@" + std::to_string(fire_at));
      TempDir dir;
      {
        SessionManager manager;
        std::shared_ptr<WorkloadSession> session =
            manager.GetOrCreate("s", AnalysisSettings::AttrDepFk());
        ASSERT_TRUE(session->LoadSql(SmallBankSql()).ok());
        SnapshotStore store(dir.path);
        ASSERT_TRUE(store.Init().ok());
        ASSERT_TRUE(TrySnapshotSession(store, *session).ok());  // good snapshot of A
        ASSERT_TRUE(session->RemoveProgram("Balance").ok());    // now at B

        FaultInjection::Global().Arm(point, fire_at);
        (void)TrySnapshotSession(store, *session);  // may fail; matrix judges recovery
        completed_without_firing = FaultInjection::Global().fired() == 0;
        FaultInjection::Global().Reset();
      }

      // Recover exactly as a restarted daemon would: new store handle, new
      // manager, scan-validate-restore.
      SnapshotStore recovered_store(dir.path);
      ASSERT_TRUE(recovered_store.Init().ok());
      SessionManager recovered_manager(1);
      RestoreReport report = RestoreAllSessions(recovered_store, recovered_manager);

      if (report.restored.empty()) {
        // Only acceptable as an explicit quarantine (a torn B overwrote A);
        // "file silently missing" would be a third outcome.
        EXPECT_FALSE(report.quarantined.empty());
        EXPECT_EQ(recovered_manager.Find("s"), nullptr);
      } else {
        ASSERT_EQ(report.restored, std::vector<std::string>{"s"});
        std::shared_ptr<WorkloadSession> recovered = recovered_manager.Find("s");
        ASSERT_NE(recovered, nullptr);
        const SessionFingerprint fp = FingerprintOf(*recovered);
        EXPECT_TRUE(fp == state_a || fp == state_b)
            << "recovered state matches neither pre- nor post-mutation reference";
      }
    }
    EXPECT_TRUE(completed_without_firing)
        << point << " still firing after 64 scheduled hits — snapshot path runaway?";
  }
  FaultInjection::Global().Reset();
}

}  // namespace
}  // namespace mvrc
