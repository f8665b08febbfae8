#include "service/workload_session.h"

#include <algorithm>
#include <string>
#include <utility>

#include "btp/unfold.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/core_search.h"
#include "sql/analyzer.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mvrc {

namespace {

// Shared tail of every applied mutation (add/remove/replace/load): error
// returns skip it, so the counters measure mutations that changed state.
void RecordMutation(const Stopwatch& timer) {
  static Counter* mutations = MetricsRegistry::Global().counter("session.mutations");
  static Histogram* mutation_us = MetricsRegistry::Global().histogram("session.mutation_us");
  mutations->Add(1);
  mutation_us->Record(timer.ElapsedMicros());
}

// Everything the cycle detectors read besides the edge list: the number of
// LTPs (subset masks keep whole programs), each LTP's occurrence count
// (edges reference occurrence positions, and Algorithm 2 compares them for
// the q'_i <_{P_i} q_i clause), and each occurrence's statement type
// (Algorithm 2's adjacent-pair condition tests type(q_{i-1})). Replacing a
// program may preserve its revision — and with it the cached verdicts —
// only when this view is unchanged on top of the incident cells.
bool SameDetectorView(const std::vector<Ltp>& a, const std::vector<Ltp>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (int q = 0; q < a[i].size(); ++q) {
      if (a[i].stmt(q).type() != b[i].stmt(q).type()) return false;
    }
  }
  return true;
}

}  // namespace

Json SessionStats::ToJson() const {
  Json stats = Json::Object();
  stats.Set("programs_added", Json::Int(programs_added));
  stats.Set("programs_removed", Json::Int(programs_removed));
  stats.Set("programs_replaced", Json::Int(programs_replaced));
  stats.Set("cells_computed", Json::Int(cells_computed));
  stats.Set("stmt_pairs_evaluated", Json::Int(stmt_pairs_evaluated));
  stats.Set("shapes_interned", Json::Int(shapes_interned));
  stats.Set("graph_materializations", Json::Int(graph_materializations));
  stats.Set("detector_runs", Json::Int(detector_runs));
  stats.Set("subset_sweeps", Json::Int(subset_sweeps));
  stats.Set("verdict_cache_hits", Json::Int(verdict_cache_hits));
  stats.Set("verdict_cache_misses", Json::Int(verdict_cache_misses));
  stats.Set("verdict_cache_size", Json::Int(verdict_cache_size));
  return stats;
}

WorkloadSession::WorkloadSession(std::string name, AnalysisSettings settings)
    : name_(std::move(name)), settings_(settings) {}

int WorkloadSession::FindEntryLocked(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].program.name() == name) return static_cast<int>(i);
  }
  return -1;
}

WorkloadSession::Cell WorkloadSession::ComputeCellLocked(const Entry& from,
                                                         const Entry& to) const {
  // Interned bucket-join emission — bit-identical to the per-pair oracle
  // over the plain LTPs (tests/support/build_oracle.h, the contract the
  // interned builder is differentially gated on), straight into the cell's
  // flat arena.
  Cell cell;
  cell.row_start.reserve(from.interned.size() + 1);
  cell.row_start.push_back(0);
  for (size_t a = 0; a < from.interned.size(); ++a) {
    for (size_t b = 0; b < to.interned.size(); ++b) {
      AppendInternedCellEdges(from.interned[a], static_cast<int>(a), to.interned[b],
                              static_cast<int>(b), matrix_, cell.edges);
    }
    cell.row_start.push_back(static_cast<int32_t>(cell.edges.size()));
  }
  return cell;
}

std::vector<WorkloadSession::Cell> WorkloadSession::ComputeCellsLocked(
    const std::vector<std::pair<int, int>>& pairs, const EntryAt& entry_at) {
  TraceSpan span("session/compute_cells", "cells=" + std::to_string(pairs.size()));
  std::vector<Cell> computed;
  computed.reserve(pairs.size());
  for (const auto& [i, j] : pairs) {
    computed.push_back(ComputeCellLocked(entry_at(i), entry_at(j)));
  }
  stats_.cells_computed += static_cast<int64_t>(pairs.size());
  static Counter* cells = MetricsRegistry::Global().counter("session.cells_computed");
  cells->Add(static_cast<int64_t>(pairs.size()));
  for (const auto& [i, j] : pairs) {
    for (const Ltp& a : entry_at(i).ltps) {
      for (const Ltp& b : entry_at(j).ltps) {
        stats_.stmt_pairs_evaluated += static_cast<int64_t>(a.size()) * b.size();
      }
    }
  }
  return computed;
}

WorkloadSession::Entry WorkloadSession::MakeEntryLocked(const Btp& program) {
  // The caller assigns the revision.
  Entry entry{program, UnfoldAtMost2(program), {}, 0};
  entry.interned.reserve(entry.ltps.size());
  for (const Ltp& ltp : entry.ltps) entry.interned.push_back(InternLtp(interner_, ltp));
  // Cover any newly interned shapes before cell computation.
  matrix_.Sync(interner_, settings_);
  return entry;
}

void WorkloadSession::AppendEntryLocked(const Btp& program) {
  entries_.push_back(MakeEntryLocked(program));
  entries_.back().revision = next_revision_++;
  const int k = static_cast<int>(entries_.size()) - 1;

  // Grow the grid and compute the new program's column and row: the only
  // cells Algorithm 1's pairwise-local conditions allow to change.
  for (auto& row : cells_) row.emplace_back();
  cells_.emplace_back(std::vector<Cell>(k + 1));

  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(2 * k + 1);
  for (int i = 0; i < k; ++i) pairs.push_back({i, k});
  for (int j = 0; j <= k; ++j) pairs.push_back({k, j});

  std::vector<Cell> computed =
      ComputeCellsLocked(pairs, [this](int index) -> const Entry& { return entries_[index]; });
  for (size_t t = 0; t < pairs.size(); ++t) {
    cells_[pairs[t].first][pairs[t].second] = std::move(computed[t]);
  }
  label_counter_ += program.num_statements();
  InvalidateGraphLocked();
}

Result<std::vector<std::string>> WorkloadSession::LoadSql(const std::string& source) {
  TraceSpan span("session/load_sql");
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(mutex_);
  Result<Workload> parsed = ParseWorkloadSqlInto(source, schema_, label_counter_);
  if (!parsed.ok()) return Result<std::vector<std::string>>::Error(parsed.error());
  const Workload& workload = parsed.value();
  for (size_t i = 0; i < workload.programs.size(); ++i) {
    const std::string& name = workload.programs[i].name();
    if (FindEntryLocked(name) >= 0) {
      return Result<std::vector<std::string>>::Error(
          "program " + name + " already exists in session " + name_ +
          " (use replace_program to change it)");
    }
    for (size_t j = i + 1; j < workload.programs.size(); ++j) {
      if (workload.programs[j].name() == name) {
        return Result<std::vector<std::string>>::Error("duplicate program " + name +
                                                       " in input");
      }
    }
  }
  schema_ = workload.schema;
  std::vector<std::string> names;
  for (const Btp& program : workload.programs) {
    AppendEntryLocked(program);
    names.push_back(program.name());
    ++stats_.programs_added;
  }
  journal_.push_back({"load_sql", source});
  span.AppendArgs("programs=" + std::to_string(names.size()));
  RecordMutation(timer);
  return names;
}

Status WorkloadSession::LoadWorkload(const Workload& workload, const std::string& builtin_name) {
  TraceSpan span("session/load_workload",
                 "programs=" + std::to_string(workload.programs.size()));
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!entries_.empty() || schema_.num_relations() > 0) {
    return Status::Error("load requires an empty session (session " + name_ +
                         " already holds a schema or programs)");
  }
  for (size_t i = 0; i < workload.programs.size(); ++i) {
    for (size_t j = i + 1; j < workload.programs.size(); ++j) {
      if (workload.programs[i].name() == workload.programs[j].name()) {
        return Status::Error("duplicate program " + workload.programs[i].name() +
                             " in workload");
      }
    }
  }
  schema_ = workload.schema;
  for (const Btp& program : workload.programs) {
    AppendEntryLocked(program);
    ++stats_.programs_added;
  }
  if (!builtin_name.empty()) {
    journal_.push_back({"builtin", builtin_name});
  } else {
    replayable_ = false;  // prebuilt Btps have no recorded source to replay
  }
  RecordMutation(timer);
  return Status();
}

Status WorkloadSession::AddProgram(const Btp& program) {
  TraceSpan span("session/add_program", "name=" + program.name());
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(mutex_);
  if (FindEntryLocked(program.name()) >= 0) {
    return Status::Error("program " + program.name() + " already exists in session " +
                         name_);
  }
  AppendEntryLocked(program);
  ++stats_.programs_added;
  replayable_ = false;  // prebuilt Btps have no recorded source to replay
  RecordMutation(timer);
  return Status();
}

Status WorkloadSession::RemoveProgram(const std::string& name) {
  TraceSpan span("session/remove_program", "name=" + name);
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(mutex_);
  const int r = FindEntryLocked(name);
  if (r < 0) return Status::Error("no program named " + name + " in session " + name_);
  entries_.erase(entries_.begin() + r);
  cells_.erase(cells_.begin() + r);
  for (auto& row : cells_) row.erase(row.begin() + r);
  // Remaining cells are untouched: Algorithm 1's edge conditions are local
  // to the two programs of an edge, so removing a program only removes its
  // incident edges.
  ++stats_.programs_removed;
  journal_.push_back({"remove", name});
  InvalidateGraphLocked();
  RecordMutation(timer);
  return Status();
}

Status WorkloadSession::ReplaceProgram(const Btp& program) {
  TraceSpan span("session/replace_program", "name=" + program.name());
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(mutex_);
  Status status = ReplaceProgramLocked(program);
  if (status.ok()) {
    replayable_ = false;  // prebuilt Btps have no recorded source to replay
    RecordMutation(timer);
  }
  return status;
}

Status WorkloadSession::ReplaceProgramLocked(const Btp& program) {
  const int r = FindEntryLocked(program.name());
  if (r < 0) {
    return Status::Error("no program named " + program.name() + " in session " + name_ +
                         " (use add_program to add it)");
  }
  const int n = static_cast<int>(entries_.size());

  Entry candidate = MakeEntryLocked(program);
  candidate.revision = entries_[r].revision;

  // Recompute the replaced program's row and column of cells against the
  // candidate.
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(2 * n - 1);
  for (int j = 0; j < n; ++j) pairs.push_back({r, j});
  for (int i = 0; i < n; ++i) {
    if (i != r) pairs.push_back({i, r});
  }
  std::vector<Cell> computed = ComputeCellsLocked(
      pairs, [this, r, &candidate](int index) -> const Entry& {
        return index == r ? candidate : entries_[index];
      });

  // The revision — and with it every cached verdict involving this program —
  // survives when no incident edge changed and the detectors' view of the
  // program (occurrence counts and statement types, see SameDetectorView)
  // is intact.
  bool incident_edges_changed = !SameDetectorView(candidate.ltps, entries_[r].ltps);
  if (!incident_edges_changed) {
    for (size_t t = 0; t < pairs.size(); ++t) {
      if (!(computed[t] == cells_[pairs[t].first][pairs[t].second])) {
        incident_edges_changed = true;
        break;
      }
    }
  }
  if (incident_edges_changed) candidate.revision = next_revision_++;

  entries_[r] = std::move(candidate);
  for (size_t t = 0; t < pairs.size(); ++t) {
    cells_[pairs[t].first][pairs[t].second] = std::move(computed[t]);
  }
  label_counter_ += program.num_statements();
  ++stats_.programs_replaced;
  InvalidateGraphLocked();
  return Status();
}

Status WorkloadSession::ReplaceProgramSql(const std::string& source) {
  TraceSpan span("session/replace_program");
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(mutex_);
  Result<Workload> parsed = ParseWorkloadSqlInto(source, schema_, label_counter_);
  if (!parsed.ok()) return Status::Error(parsed.error());
  const Workload& workload = parsed.value();
  if (workload.programs.size() != 1) {
    return Status::Error("replace_program expects exactly one PROGRAM, got " +
                         std::to_string(workload.programs.size()));
  }
  // Validate the target exists before committing the (possibly extended)
  // schema — a failed replace must leave the session untouched.
  if (FindEntryLocked(workload.programs[0].name()) < 0) {
    return Status::Error("no program named " + workload.programs[0].name() +
                         " in session " + name_ + " (use add_program to add it)");
  }
  schema_ = workload.schema;
  Status status = ReplaceProgramLocked(workload.programs[0]);
  if (status.ok()) {
    journal_.push_back({"replace_sql", source});
    RecordMutation(timer);
  }
  return status;
}

int WorkloadSession::num_programs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(entries_.size());
}

std::vector<std::string> WorkloadSession::ProgramNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.program.name());
  return names;
}

std::vector<Btp> WorkloadSession::Programs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Btp> programs;
  programs.reserve(entries_.size());
  for (const Entry& entry : entries_) programs.push_back(entry.program);
  return programs;
}

Schema WorkloadSession::schema() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return schema_;
}

std::vector<std::pair<int, int>> WorkloadSession::LtpRangesLocked() const {
  std::vector<std::pair<int, int>> ranges;
  ranges.reserve(entries_.size());
  int offset = 0;
  for (const Entry& entry : entries_) {
    ranges.push_back({offset, offset + static_cast<int>(entry.ltps.size())});
    offset += static_cast<int>(entry.ltps.size());
  }
  return ranges;
}

SummaryGraph WorkloadSession::MaterializeLocked() {
  TraceSpan span("session/materialize",
                 "programs=" + std::to_string(entries_.size()));
  std::vector<std::pair<int, int>> ranges = LtpRangesLocked();
  std::vector<Ltp> all_ltps;
  for (const Entry& entry : entries_) {
    all_ltps.insert(all_ltps.end(), entry.ltps.begin(), entry.ltps.end());
  }
  // Emit cells in the serial builder's order — source LTP major, then target
  // LTP — so the edge list is bit-identical to a from-scratch build. Each
  // (row, cell) contribution is one contiguous arena slice; only the
  // pair-local program indices need remapping into the global node space.
  const int n = static_cast<int>(entries_.size());
  size_t total = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) total += cells_[i][j].edges.size();
  }
  std::vector<SummaryEdge> edges;
  edges.reserve(total);
  for (int i = 0; i < n; ++i) {
    for (size_t a = 0; a < entries_[i].ltps.size(); ++a) {
      for (int j = 0; j < n; ++j) {
        const Cell& cell = cells_[i][j];
        const int32_t begin = cell.row_start[a], end = cell.row_start[a + 1];
        for (int32_t e = begin; e < end; ++e) {
          const SummaryEdge& edge = cell.edges[e];
          edges.push_back({ranges[i].first + edge.from_program, edge.from_occ,
                           edge.counterflow, edge.to_occ,
                           ranges[j].first + edge.to_program});
        }
      }
    }
  }
  ++stats_.graph_materializations;
  return SummaryGraph(std::move(all_ltps), std::move(edges));
}

const SummaryGraph& WorkloadSession::CachedGraphLocked() {
  if (!graph_.has_value()) graph_ = MaterializeLocked();
  return *graph_;
}

const MaskedDetector& WorkloadSession::CachedDetectorLocked() {
  const SummaryGraph& graph = CachedGraphLocked();
  if (!detector_.has_value()) detector_.emplace(graph, LtpRangesLocked(), settings_.policy());
  return *detector_;
}

void WorkloadSession::InvalidateGraphLocked() {
  detector_.reset();  // borrows *graph_, so it must go first
  graph_.reset();
}

SummaryGraph WorkloadSession::Graph() {
  std::lock_guard<std::mutex> lock(mutex_);
  return CachedGraphLocked();
}

WideFingerprinter WorkloadSession::WideFingerprinterLocked(Method method) const {
  // The settings (granularity, FK usage, isolation), the method and each
  // member's (name, revision): one snapshot per request, a few ns per subset
  // after that. The settings string keeps sessions under different
  // isolation levels apart even if their caches were merged. Identical
  // (name, revision) states yield identical fingerprints across requests,
  // so verdicts persist in the cache across mutations that leave members'
  // incident cells unchanged.
  std::vector<std::pair<std::string, int64_t>> members;
  members.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    members.emplace_back(entry.program.name(), entry.revision);
  }
  return WideFingerprinter(settings_.ToString(), static_cast<int>(method), members);
}

void WorkloadSession::SyncCacheStatsLocked() {
  stats_.verdict_cache_hits = verdict_cache_.hits();
  stats_.verdict_cache_misses = verdict_cache_.misses();
  stats_.verdict_cache_size = static_cast<int64_t>(verdict_cache_.size());
  stats_.shapes_interned = interner_.num_shapes();
}

std::optional<bool> WorkloadSession::LatticeVerdictLocked(Method method) const {
  const std::optional<RevisionLattice>& lattice = lattices_[static_cast<int>(method)];
  if (!lattice.has_value() || entries_.empty()) return std::nullopt;
  std::vector<int64_t> current;
  current.reserve(entries_.size());
  for (const Entry& entry : entries_) current.push_back(entry.revision);
  std::sort(current.begin(), current.end());
  if (!std::includes(lattice->members.begin(), lattice->members.end(), current.begin(),
                     current.end())) {
    return std::nullopt;
  }
  for (const std::vector<int64_t>& core : lattice->cores) {
    if (std::includes(current.begin(), current.end(), core.begin(), core.end())) return false;
  }
  return true;
}

CheckResult WorkloadSession::Check(Method method) {
  TraceSpan span("session/check");
  Stopwatch timer;
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* checks = registry.counter("session.checks");
  static Counter* cache_hits = registry.counter("session.check_cache_hits");
  static Counter* cache_misses = registry.counter("session.check_cache_misses");
  static Histogram* check_us = registry.histogram("session.check_us");
  static Histogram* hit_us = registry.histogram("session.check_hit_us");
  static Histogram* miss_us = registry.histogram("session.check_miss_us");
  checks->Add(1);

  std::lock_guard<std::mutex> lock(mutex_);
  const SummaryGraph& graph = CachedGraphLocked();

  CheckResult result;
  result.num_programs = static_cast<int>(entries_.size());
  result.num_unfolded = graph.num_programs();
  result.num_edges = graph.num_edges();
  result.num_counterflow_edges = graph.num_counterflow_edges();

  // The full set under the same fingerprint the subset analyses use, so a
  // checked full set answers their first candidate and vice versa.
  const ProgramSet full = ProgramSet::Full(static_cast<int>(entries_.size()));
  const WideFingerprint fingerprint = WideFingerprinterLocked(method).Of(full);
  std::optional<bool> cached = verdict_cache_.Lookup(fingerprint);
  if (!cached.has_value()) {
    // A lattice answer is stored under the full set's key too, so the next
    // subset search finds its first candidate decided.
    cached = LatticeVerdictLocked(method);
    if (cached.has_value()) verdict_cache_.Store(fingerprint, *cached);
  }
  if (cached.has_value()) {
    result.robust = *cached;
    result.from_cache = true;
    SyncCacheStatsLocked();
    cache_hits->Add(1);
    const int64_t elapsed = timer.ElapsedMicros();
    check_us->Record(elapsed);
    hit_us->Record(elapsed);
    span.AppendArgs("cached=1 robust=" + std::to_string(result.robust ? 1 : 0));
    return result;
  }

  ++stats_.detector_runs;
  CycleTestOutcome outcome = RunCycleTest(CachedDetectorLocked(), full, method);
  result.robust = outcome.robust;
  result.witness = std::move(outcome.witness);
  verdict_cache_.Store(fingerprint, result.robust);
  SyncCacheStatsLocked();
  cache_misses->Add(1);
  const int64_t elapsed = timer.ElapsedMicros();
  check_us->Record(elapsed);
  miss_us->Record(elapsed);
  span.AppendArgs("cached=0 robust=" + std::to_string(result.robust ? 1 : 0));
  return result;
}

Result<SubsetReport> WorkloadSession::Subsets(Method method, std::vector<std::string>* names) {
  TraceSpan span("session/subsets");
  Stopwatch timer;
  static Counter* requests = MetricsRegistry::Global().counter("session.subset_requests");
  static Histogram* subsets_us = MetricsRegistry::Global().histogram("session.subsets_us");
  requests->Add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  if (names != nullptr) {
    names->clear();
    for (const Entry& entry : entries_) names->push_back(entry.program.name());
  }

  // The core-guided search runs against the memoized MaskedDetector, so
  // repeated subset requests (and re-checks after mutations, where the
  // verdict cache answers the untouched subsets) skip both graph copies and
  // the detector precomputation. Its verdicts are keyed through one
  // fingerprinter snapshot, in the key space Check uses, so a checked full
  // set answers the search's first candidate and a fully cached request
  // costs one lookup per query the search would make. The search's own
  // counters are merged into stats_ afterwards. Sessions past the search's
  // range get the program-count error without building anything.
  const int n = static_cast<int>(entries_.size());
  Result<SubsetReport> report = [&]() -> Result<SubsetReport> {
    if (!CoreSearchProgramCountOk(n)) {
      return Result<SubsetReport>::Error(
          "subset analysis supports 1.." + std::to_string(kMaxCoreSearchPrograms) +
          " programs (got " + std::to_string(n) + ")");
    }
    const WideFingerprinter fingerprinter = WideFingerprinterLocked(method);
    SubsetSweepHooks hooks;
    hooks.wide_lookup = [this, &fingerprinter](const ProgramSet& subset) {
      return verdict_cache_.Lookup(fingerprinter.Of(subset));
    };
    hooks.wide_store = [this, &fingerprinter](const ProgramSet& subset, bool robust) {
      verdict_cache_.Store(fingerprinter.Of(subset), robust);
    };
    CoreSearchStats search_stats;
    Result<SubsetReport> wide_report = AnalyzeSubsetsCoreGuided(
        CachedDetectorLocked(), method, &hooks, &search_stats);
    stats_.detector_runs += search_stats.detector_queries;
    if (wide_report.ok()) {
      RevisionLattice lattice;
      for (const Entry& entry : entries_) lattice.members.push_back(entry.revision);
      std::sort(lattice.members.begin(), lattice.members.end());
      for (const ProgramSet& core : wide_report.value().cores) {
        std::vector<int64_t>& revisions = lattice.cores.emplace_back();
        for (int i : core.ToIndices()) revisions.push_back(entries_[i].revision);
        std::sort(revisions.begin(), revisions.end());
      }
      lattices_[static_cast<int>(method)] = std::move(lattice);
    }
    return wide_report;
  }();
  if (report.ok()) ++stats_.subset_sweeps;
  SyncCacheStatsLocked();
  subsets_us->Record(timer.ElapsedMicros());
  span.AppendArgs("programs=" + std::to_string(n) + " ok=" +
                  std::to_string(report.ok() ? 1 : 0));
  return report;
}

std::optional<Counterexample> WorkloadSession::SearchCounterexample(
    const SearchOptions& options, SearchStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Ltp> all_ltps;
  for (const Entry& entry : entries_) {
    all_ltps.insert(all_ltps.end(), entry.ltps.begin(), entry.ltps.end());
  }
  return FindCounterexample(all_ltps, options, stats);
}

SessionReplayState WorkloadSession::replay_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionReplayState state;
  state.settings = settings_.ToString();
  state.journal = journal_;
  state.revisions.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    state.revisions.emplace_back(entry.program.name(), entry.revision);
  }
  state.next_revision = next_revision_;
  state.label_counter = label_counter_;
  state.replayable = replayable_;
  return state;
}

SessionStats WorkloadSession::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionStats copy = stats_;
  copy.verdict_cache_hits = verdict_cache_.hits();
  copy.verdict_cache_misses = verdict_cache_.misses();
  copy.verdict_cache_size = static_cast<int64_t>(verdict_cache_.size());
  copy.shapes_interned = interner_.num_shapes();
  return copy;
}

}  // namespace mvrc
