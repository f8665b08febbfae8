// A named, mutable workload whose summary graph is maintained incrementally
// across program mutations — the core of the analysis service.
//
// Incremental maintenance exploits the locality of Algorithm 1: whether an
// edge (P_i, q_i, c, q_j, P_j) exists depends only on the two programs
// involved (the same fact that lets AnalyzeSubsets restrict one full graph
// to induced subgraphs). The session therefore stores the graph as a grid of
// *cells*, one per ordered pair of member programs, each holding the summary
// edges between the two programs' unfolded LTPs. AddProgram computes only
// the new program's row and column of cells (2k + 1 cells against k existing
// programs); RemoveProgram deletes a row and column and computes nothing;
// ReplaceProgram recomputes the program's row and column and compares them
// against the old cells. Materializing the full SummaryGraph concatenates
// the cells in the serial builder's iteration order, so the result is
// bit-identical to a from-scratch BuildSummaryGraph over the same programs
// (asserted by tests/service_test.cc after every mutation).
//
// Robustness verdicts — of the full set and of every subset the subset
// search evaluates — are memoized in one VerdictCache under one key type:
// a 128-bit WideFingerprint of the analysis settings (granularity, FK
// usage, isolation level), the method, and each member's (name, revision).
// A revision only advances when a mutation actually changed one of the
// program's incident cells (ReplaceProgram with equivalent edges keeps the
// revision), so cached verdicts survive every mutation that provably cannot
// change them and incremental re-checks skip straight to the subsets
// touching the changed program. Every verdict comes from one memoized
// MaskedDetector over the materialized graph: Check queries it with the
// full set, and the subset search that follows reuses it. A subset search
// also leaves its minimal non-robust cores behind, in member revisions, so
// a Check after removals answers any subset of the analysed set from them
// (Proposition 5.2: a set is non-robust iff it contains a core).
//
// Thread safety: public methods lock an internal mutex, so a session may be
// shared across server threads. The optional ThreadPool (borrowed, not
// owned — typically the SessionManager's) parallelizes cell recomputation
// and the subset search; pass nullptr for fully serial operation.

#ifndef MVRC_SERVICE_WORKLOAD_SESSION_H_
#define MVRC_SERVICE_WORKLOAD_SESSION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "btp/ltp.h"
#include "btp/program.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "robust/verdict_cache.h"
#include "schema/schema.h"
#include "search/counterexample.h"
#include "summary/statement_interner.h"
#include "summary/summary_graph.h"
#include "util/json.h"
#include "util/result.h"
#include "workloads/workload.h"

namespace mvrc {

class ThreadPool;

/// Counters describing a session's lifetime work; `stats` protocol requests
/// render these. stmt_pairs_evaluated is the dep-table work measure the
/// incremental-vs-from-scratch benchmark compares: one unit per (occurrence,
/// occurrence) pair fed through Algorithm 1's condition tables.
struct SessionStats {
  int64_t programs_added = 0;
  int64_t programs_removed = 0;
  int64_t programs_replaced = 0;
  int64_t cells_computed = 0;        // LTP-pair cells recomputed
  int64_t stmt_pairs_evaluated = 0;  // statement pairs fed to the dep tables
  int64_t shapes_interned = 0;       // distinct statement shapes hash-consed
  int64_t graph_materializations = 0;
  int64_t detector_runs = 0;   // cycle tests actually executed
  int64_t subset_sweeps = 0;
  int64_t verdict_cache_hits = 0;
  int64_t verdict_cache_misses = 0;
  int64_t verdict_cache_size = 0;

  /// One flat object, one key per field above, same spelling — the single
  /// rendering shared by the protocol's `stats` response, the `metrics`
  /// command's per-session block, and `mvrcdet --json`'s "session_stats"
  /// (tests/service_test.cc pins the field names).
  Json ToJson() const;
};

/// One replayable mutation in a session's journal — the unit of the durable
/// snapshot format (src/persist/session_snapshot.h). Replaying a journal in
/// order through a fresh session reproduces the original bit for bit: every
/// mutation is deterministic, so the materialized graph, the revisions, and
/// with them every verdict are identical (the recovery contract the
/// fault-matrix tests pin).
///   op = "load_sql"     arg = the SQL source handed to LoadSql
///   op = "builtin"      arg = the builtin workload name (workloads/builtins.h)
///   op = "remove"       arg = the program name handed to RemoveProgram
///   op = "replace_sql"  arg = the SQL source handed to ReplaceProgramSql
struct SessionJournalOp {
  std::string op;
  std::string arg;

  friend bool operator==(const SessionJournalOp&, const SessionJournalOp&) = default;
};

/// Everything a snapshot needs to rebuild a session and to verify the
/// rebuild: the settings string, the mutation journal, and the expected
/// post-replay cursor state (per-program revisions, the revision counter,
/// the statement-label counter). `replayable` is false when the session was
/// mutated through a non-journaled entry point (programs handed in as
/// prebuilt Btps, or a workload without a builtin name) — such sessions
/// cannot be snapshotted and degrade gracefully to in-memory-only.
struct SessionReplayState {
  std::string settings;
  std::vector<SessionJournalOp> journal;
  std::vector<std::pair<std::string, int64_t>> revisions;  // (name, revision)
  int64_t next_revision = 1;
  int label_counter = 0;
  bool replayable = true;
};

/// Outcome of a (possibly cached) full-set robustness check.
struct CheckResult {
  bool robust = false;
  // Verdict served without the detector: from the VerdictCache, or read off
  // the core lattice of an earlier subset analysis covering the set.
  bool from_cache = false;
  int num_programs = 0;
  int num_unfolded = 0;
  int num_edges = 0;
  int num_counterflow_edges = 0;
  // Witness of the violated condition; empty when robust, and empty on a
  // cached non-robust verdict (the cache stores verdicts, not witnesses).
  std::string witness;
};

/// A session: schema + named programs + incrementally maintained summary
/// cells + verdict cache.
class WorkloadSession {
 public:
  /// `pool` (may be null) is borrowed and must outlive the session.
  WorkloadSession(std::string name, AnalysisSettings settings, ThreadPool* pool = nullptr);

  WorkloadSession(const WorkloadSession&) = delete;
  WorkloadSession& operator=(const WorkloadSession&) = delete;

  const std::string& name() const { return name_; }
  const AnalysisSettings& settings() const { return settings_; }

  // --- Mutations. All validate first and leave the session unchanged on
  // error.

  /// Parses SQL (TABLE / FOREIGN KEY / PROGRAM declarations) into the
  /// session: the schema is extended, programs are added. Program names must
  /// not collide with existing members. Returns the names added, in file
  /// order.
  Result<std::vector<std::string>> LoadSql(const std::string& source);

  /// Adopts a prebuilt workload: requires an empty session (the schema is
  /// taken over wholesale); adds every program. `builtin_name`, when
  /// non-empty, journals the load as a replayable `builtin` op (the caller
  /// asserts MakeBuiltinWorkload(builtin_name) produced `workload`); without
  /// it the session becomes non-snapshottable (see SessionReplayState).
  Status LoadWorkload(const Workload& workload, const std::string& builtin_name = {});

  /// Adds one program built against the session's schema. The name must be
  /// unused.
  Status AddProgram(const Btp& program);

  /// Removes the program named `name`.
  Status RemoveProgram(const std::string& name);

  /// Replaces the program sharing `program`'s name. When the replacement
  /// admits exactly the same incident summary edges (and unfolds to the same
  /// number of LTPs), the program's revision — and with it every cached
  /// verdict involving it — is preserved.
  Status ReplaceProgram(const Btp& program);

  /// Parses SQL declaring exactly one program and replaces its namesake.
  Status ReplaceProgramSql(const std::string& source);

  // --- Queries.

  int num_programs() const;
  std::vector<std::string> ProgramNames() const;
  /// Copies of the member programs in session order — what a from-scratch
  /// analysis of this session's workload would run on.
  std::vector<Btp> Programs() const;
  Schema schema() const;

  /// The current summary graph, materialized from the cells. Bit-identical
  /// to BuildSummaryGraph(UnfoldAtMost2(Programs()), settings()).
  SummaryGraph Graph();

  /// Full-set robustness under the session settings: the full-set query of
  /// the session's memoized MaskedDetector (built here if no earlier request
  /// built it, and reused by the Subsets call that typically follows),
  /// served from the verdict cache when the full set's fingerprint is known
  /// — whether an earlier Check or a subset analysis stored it — or else
  /// from the cores of the last Subsets(method) when every current member
  /// took part in it at its current revision (after removals, say).
  CheckResult Check(Method method = Method::kTypeII);

  /// Subset analysis over the current programs with the core-guided search
  /// (robust/core_search.h), at every program count through
  /// kMaxCoreSearchPrograms, and an error above that. Through
  /// kMaxSubsetPrograms the report also lists every robust subset as a mask
  /// and equals AnalyzeSubsets(Programs(), settings(), method). The search
  /// runs on the detector Check uses and memoizes every subset verdict in
  /// the verdict cache under the same wide fingerprints as Check, so a
  /// subset whose members' fingerprints are cached — the full set after a
  /// Check included — skips the detector. When `names` is
  /// non-null it receives the member program names in mask-bit order,
  /// snapshotted atomically with the analysis — a caller reading names
  /// separately could race a concurrent mutation and mislabel masks.
  Result<SubsetReport> Subsets(Method method = Method::kTypeII,
                               std::vector<std::string>* names = nullptr);

  /// Bounded counterexample search over the current programs' LTPs.
  std::optional<Counterexample> SearchCounterexample(const SearchOptions& options,
                                                     SearchStats* stats);

  SessionStats stats() const;

  /// Snapshot view of the session's journal and replay cursors, copied
  /// atomically with respect to mutations.
  SessionReplayState replay_state() const;

 private:
  // One member program with its unfolding (plain and interned — the
  // interned form is what cell computation reads) and cache revision.
  struct Entry {
    Btp program;
    std::vector<Ltp> ltps;
    std::vector<InternedLtp> interned;  // parallel to ltps, over interner_
    int64_t revision = 0;
  };
  // Summary edges from entry i's LTPs to entry j's LTPs, stored CSR-style:
  // one flat arena in the serial builder's inner order — (source LTP a,
  // target LTP b, q_i, q_j, non-counterflow before counterflow) — with
  // row_start[a] .. row_start[a+1] delimiting the edges whose source is LTP
  // a, so materialization reads each (row, cell) slice contiguously.
  // from_program = a and to_program = b are pair-local LTP indices.
  struct Cell {
    std::vector<SummaryEdge> edges;
    std::vector<int32_t> row_start;  // size = from-entry LTP count + 1

    friend bool operator==(const Cell&, const Cell&) = default;
  };

  // Resolves a pair index to the entry it denotes — lets ReplaceProgram
  // compute cells against a candidate entry not yet installed.
  using EntryAt = std::function<const Entry&(int)>;

  int FindEntryLocked(const std::string& name) const;
  // Unfolds and interns `program` (growing interner_/matrix_); the caller
  // assigns the revision.
  Entry MakeEntryLocked(const Btp& program);
  Cell ComputeCellLocked(const Entry& from, const Entry& to) const;
  // Computes the cells for `pairs` (fanning across the pool when present)
  // and accounts the dep-table work in stats_.
  std::vector<Cell> ComputeCellsLocked(const std::vector<std::pair<int, int>>& pairs,
                                       const EntryAt& entry_at);
  // Appends `program` (already validated) as a new entry with fresh cells.
  void AppendEntryLocked(const Btp& program);
  Status ReplaceProgramLocked(const Btp& program);
  SummaryGraph MaterializeLocked();
  const SummaryGraph& CachedGraphLocked();
  const MaskedDetector& CachedDetectorLocked();
  // Drops the memoized graph and the detector borrowing it; every mutation
  // that touches cells must call this.
  void InvalidateGraphLocked();
  // Snapshot fingerprinter over the current (name, revision) state: the one
  // verdict-cache key of Check and of the subset search's hooks.
  WideFingerprinter WideFingerprinterLocked(Method method) const;
  std::vector<std::pair<int, int>> LtpRangesLocked() const;
  void SyncCacheStatsLocked();
  // The current member set's verdict read off lattices_[method], or nullopt
  // when some current member is not one that lattice covers.
  std::optional<bool> LatticeVerdictLocked(Method method) const;

  const std::string name_;
  const AnalysisSettings settings_;
  ThreadPool* const pool_;  // borrowed; may be null

  mutable std::mutex mutex_;
  Schema schema_;
  // Session-lifetime statement-shape interner and the verdict matrix over it
  // (under settings_). Append-only: shapes of removed programs linger, which
  // costs a few bytes and keeps every InternedLtp's ids stable.
  StatementInterner interner_;
  ShapeVerdictMatrix matrix_;
  std::vector<Entry> entries_;
  // cells_[i][j], square over entries_.
  std::vector<std::vector<Cell>> cells_;
  std::optional<SummaryGraph> graph_;  // memoized materialization
  // Memoized mask-native detector over *graph_ (borrows it; reset together).
  // Check and Subsets share it; re-checks after a mutation reuse its
  // precomputed bitsets and only pay detector time for subsets the verdict
  // cache cannot answer.
  std::optional<MaskedDetector> detector_;
  VerdictCache verdict_cache_;
  // The lattice the last successful Subsets per method found, indexed by
  // Method, in member revisions. Revisions are unique within a session and
  // a revision pins its program's edges to every other revision, so a
  // current set whose revisions all lie in `members` has the verdict it had
  // in that analysis: robust iff it contains no core.
  struct RevisionLattice {
    std::vector<int64_t> members;             // ascending
    std::vector<std::vector<int64_t>> cores;  // each ascending
  };
  std::array<std::optional<RevisionLattice>, 2> lattices_;
  SessionStats stats_;
  // Replayable mutation history (see SessionReplayState); appended only
  // after a mutation commits, so the journal never records a failed op.
  std::vector<SessionJournalOp> journal_;
  bool replayable_ = true;
  int64_t next_revision_ = 1;
  int label_counter_ = 0;  // statement labels handed out to SQL-added programs
};

}  // namespace mvrc

#endif  // MVRC_SERVICE_WORKLOAD_SESSION_H_
