// Closed-loop end-to-end benchmark of the analysis service.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--trace-out FILE]
//
// One client drives one SessionManager in-process: it renders each request
// as an NDJSON line, hands it to HandleRequestLine (the handler mvrcd serves
// over stdio and TCP) and waits for the reply before sending the next one.
// Snapshots go through EncodeSessionSnapshot / RestoreSessionFromPayload in
// memory. Every reply is checked against hand-derived answers
// (workloads.h); a failed or wrong reply counts in "failed" and makes the
// run incorrect.
//
// --trace 0 reports the end-to-end metrics (trimmed means over the run's
// samples, see TrimmedMean). --trace 1 alternates plain and traced cycles:
// a traced cycle switches the library's own spans on and, after each
// end-to-end operation, calls the public entry point of every layer the
// operation goes through on the same inputs, timing each call as a child
// span of the operation. The per-layer metrics come from those spans; the
// plain cycles give the untraced baseline for obs.trace_overhead_pct. Spans
// are kept in memory and written as one Chrome trace at exit (--trace-out).
//
// The last stdout line is the result object
//   {"correct":B,"attempted":N,"failed":N,"metrics":{name:{"value","unit"}}}
// and the line before it carries sample counts and run details.
// README.md in this directory lists the workloads and metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "btp/unfold.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/session_snapshot.h"
#include "robust/core_search.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/program_set.h"
#include "robust/subsets.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "summary/build_summary.h"
#include "workloads.h"
#include "workloads/sql_texts.h"

namespace mvrc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return args;
}

// Median of a sample (mean of the two middle values when even); 0 when
// empty.
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) / 2;
}

// Mean of a sample without its lowest and highest tenth; 0 when empty. This
// is the run's statistic for every timing. Each vCPU of a shared host runs
// this code at one of two speeds about 1.6x apart, switching every few tens of
// seconds. So a run's samples are a two-speed mixture whose weights drift.
// Any quantile, the median included, jumps between the two speeds as the
// weights cross it, while a trimmed mean follows the weights smoothly and
// still ignores rare stalls.
double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

// The CPUs the process may run on, and pins of the calling thread to one of
// them or to all of them. The client thread moves to the next CPU every other
// cycle (and every set-up), so each run samples every vCPU's speed equally
// rather than the one the scheduler happened to keep it on. Pool workers are
// created while the thread holds all CPUs, and keep that mask. A failed pin
// leaves the thread where it is.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void PinToCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// Shortest round-trip rendering of a double (JSON number).
std::string Num(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

// Spans recorded by the benchmark's own code: each operation's parent is its
// cycle, each layer call's parent is its operation. Kept in memory, written
// once at exit together with the library's own spans.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  double MicrosSinceEpoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  int64_t NextId() { return next_id_++; }

  void Record(const std::string& name, int64_t id, int64_t parent, int64_t cycle,
              Clock::time_point begin, Clock::time_point end) {
    spans_.push_back(
        {name, id, parent, cycle, MicrosSinceEpoch(begin), MicrosSinceEpoch(end) -
                                                               MicrosSinceEpoch(begin)});
  }

  // Starts the library's TraceBuffer for one traced cycle.
  void StartLibrary() {
    TraceBuffer::Global().Start(size_t{1} << 16);
    library_offset_us_ = MicrosSinceEpoch(Clock::now());
  }

  // Stops the library's TraceBuffer and keeps its events, rebased onto this
  // tracer's clock.
  void StopLibrary() {
    TraceBuffer::Global().Stop();
    const Json chrome = TraceBuffer::Global().ToChromeJson();
    const Json* events = chrome.Find("traceEvents");
    if (events == nullptr) return;
    for (int i = 0; i < events->size(); ++i) {
      const Json& event = events->at(i);
      Json copy = Json::Object();
      for (int k = 0; k < event.size(); ++k) {
        const std::string& key = event.key_at(k);
        if (key == "ts") {
          copy.Set(key, Json::Number(event.value_at(k).number_value() + library_offset_us_));
        } else if (key == "pid") {
          copy.Set(key, Json::Int(2));
        } else {
          copy.Set(key, event.value_at(k));
        }
      }
      library_events_.push_back(std::move(copy));
    }
  }

  // Streams the events out one at a time rather than building one document
  // holding copies of all of them.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const Json& event) {
      out << (first ? "" : ",") << event.Dump();
      first = false;
    };
    for (const Span& span : spans_) {
      Json event = Json::Object();
      event.Set("name", Json::Str(span.name));
      event.Set("cat", Json::Str("perfbench"));
      event.Set("ph", Json::Str("X"));
      event.Set("ts", Json::Number(span.ts_us));
      event.Set("dur", Json::Number(span.dur_us));
      event.Set("pid", Json::Int(1));
      event.Set("tid", Json::Int(1));
      Json args = Json::Object();
      args.Set("id", Json::Int(span.id));
      args.Set("parent", Json::Int(span.parent));
      args.Set("cycle", Json::Int(span.cycle));
      event.Set("args", std::move(args));
      emit(event);
    }
    for (const Json& event : library_events_) emit(event);
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int64_t id, parent, cycle;
    double ts_us, dur_us;
  };
  Clock::time_point epoch_;
  int64_t next_id_ = 1;
  double library_offset_us_ = 0;
  std::vector<Span> spans_;
  std::vector<Json> library_events_;
};

// Layers a traced cycle attributes time to, in report order.
enum Layer { kSql, kBtp, kSummary, kRobust, kPersist, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {"sql", "btp", "summary", "robust", "persist"};

// What one cycle did, as counted by the sessions it used.
struct CycleCounts {
  int64_t cells_computed = 0;
  int64_t stmt_pairs = 0;
  int64_t detector_runs = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;

  void Add(const SessionStats& now, const SessionStats& base) {
    cells_computed += now.cells_computed - base.cells_computed;
    stmt_pairs += now.stmt_pairs_evaluated - base.stmt_pairs_evaluated;
    detector_runs += now.detector_runs - base.detector_runs;
    cache_hits += now.verdict_cache_hits - base.verdict_cache_hits;
    cache_misses += now.verdict_cache_misses - base.verdict_cache_misses;
  }
};

// A protocol request naming its command and session.
Json Command(const char* cmd, const std::string& session) {
  Json request = Json::Object();
  request.Set("cmd", Json::Str(cmd));
  request.Set("session", Json::Str(session));
  return request;
}

// A reply and the time the client waited for it.
struct Reply {
  Json json;
  double ms = 0;
  int64_t span = 0;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        rng_(args.seed),
        settings_(AnalysisSettings::Parse(spec.settings).value()),
        names_(ProgramNames(spec.items)),
        session_(spec.name) {}

  int Run();

 private:
  // --- Request plumbing and the oracle.
  Reply Request(SessionManager& manager, const char* op, const Json& request);
  void Expect(bool condition, const std::string& what);
  void ExpectCheck(const Reply& reply, bool cached);
  void ExpectSubsets(const Reply& reply);
  static std::string Canonical(const Json& reply);

  // --- Operations. Each sends one request (or persist call), checks the
  // answer and, in a traced cycle, times the layer calls beneath it.
  Reply Load(SessionManager& manager);
  Reply Check(SessionManager& manager, bool cached);
  Reply Subsets(SessionManager& manager, bool cached);
  Reply Replace(SessionManager& manager, const std::string& sql);
  std::string Snapshot(SessionManager& manager);
  Reply Drop(SessionManager& manager);
  double Restore(SessionManager& manager, const std::string& payload);

  // --- Layer calls of a traced cycle.
  template <typename F>
  auto TimeLayer(const char* name, Layer layer, int64_t parent, const char* metric, F&& fn);
  double DecomposeSource(SessionManager& manager, const std::string& source, int64_t parent,
                         bool full);
  double DecomposeCheck(SessionManager& manager, int64_t parent);
  double DecomposeSubsets(SessionManager& manager, int64_t parent);
  void ProbeProtocol(SessionManager& manager, const char* cmd, int64_t parent);
  // Charges an operation's time not covered by its layer calls: to the
  // persist layer for snapshot/restore, to service.unattributed otherwise.
  void AddOpSelfTime(double op_ms, double children_ms, bool persist);

  // --- Structure.
  double SetupOnce();
  std::pair<std::string, std::string> EditRound(SessionManager& manager);
  void RunCycle(bool traced);
  void Sample(const char* metric, double ms);
  void AccountSession(SessionManager& manager, const SessionStats& base);

  void PrintResult(double setup_s);

  const WorkloadSpec& spec_;
  const Args& args_;
  std::mt19937_64 rng_;
  const AnalysisSettings settings_;
  const std::vector<std::string> names_;
  const std::string session_;
  const std::vector<int> cpus_ = AllowedCpus();
  size_t setups_done_ = 0;
  std::string source_;  // AuctionNSql(items)

  std::unique_ptr<SessionManager> manager_;
  // Long-lived workloads: manager_ holds the edited session and the
  // per-cycle sessions live in side_manager_.
  std::unique_ptr<SessionManager> side_manager_;

  int64_t attempted_ = 0;
  int64_t failed_ = 0;               // operations with an error or a wrong answer
  int64_t last_failed_op_ = -1;      // counts each operation at most once
  std::string first_error_;

  // End-to-end samples (ms), recorded outside the warm-up cycle.
  bool recording_ = true;
  std::map<std::string, std::vector<double>> samples_;
  double pool_busy_ratio_ = 0;

  // Traced-cycle state.
  bool traced_ = false;
  int64_t cycle_ = 0;
  int64_t cycle_span_ = 0;
  Tracer tracer_;
  std::map<std::string, std::vector<double>> layer_samples_;
  double layer_ms_[kNumLayers] = {};
  double unattributed_ms_ = 0;
  double op_ms_ = 0;  // sum of operation times in the current cycle
  std::vector<double> traced_op_ms_, plain_op_ms_;
  std::vector<double> layer_self_[kNumLayers];
  std::vector<double> unattributed_;
  CycleCounts counts_;
  std::optional<CycleCounts> first_traced_counts_;
  std::map<std::string, double> first_counts_;  // per-layer counts, first traced cycle
};

// Checks an answer of the latest operation; a wrong one fails it.
void Runner::Expect(bool condition, const std::string& what) {
  if (condition) return;
  if (last_failed_op_ != attempted_) {
    last_failed_op_ = attempted_;
    ++failed_;
  }
  if (first_error_.empty()) first_error_ = what;
}

Reply Runner::Request(SessionManager& manager, const char* op, const Json& request) {
  const std::string line = request.Dump();
  const Clock::time_point begin = Clock::now();
  const std::string response = HandleRequestLine(manager, line);
  const Clock::time_point end = Clock::now();
  ++attempted_;
  Reply reply;
  reply.ms = Ms(begin, end);
  op_ms_ += reply.ms;
  if (traced_) {
    reply.span = tracer_.NextId();
    tracer_.Record(op, reply.span, cycle_span_, cycle_, begin, end);
  }
  Result<Json> parsed = Json::Parse(response);
  if (!parsed.ok() || !parsed.value().GetBool("ok")) {
    Expect(false, std::string(op) + ": " + response);
    return reply;
  }
  reply.json = std::move(parsed).value();
  return reply;
}

// A reply without its timing, cache flag and detector-query count (which
// depend on what the verdict cache held): what a restored session must
// reproduce exactly.
std::string Runner::Canonical(const Json& reply) {
  Json copy = Json::Object();
  for (int i = 0; i < reply.size(); ++i) {
    const std::string& key = reply.key_at(i);
    if (key != "elapsed_us" && key != "cached" && key != "detector_queries") {
      copy.Set(key, reply.value_at(i));
    }
  }
  return copy.Dump();
}

void Runner::ExpectCheck(const Reply& reply, bool cached) {
  if (!reply.json.is_object()) return;  // already counted as failed
  const Json& json = reply.json;
  Expect(json.GetBool("robust", !spec_.robust) == spec_.robust, "check: wrong verdict");
  Expect(json.GetInt("num_programs") == 2 * spec_.items, "check: wrong program count");
  Expect(json.GetBool("cached", !cached) == cached,
         cached ? "check: edge-preserving edit not answered from cache"
                : "check: answered from cache after a detector-visible change");
}

void Runner::ExpectSubsets(const Reply& reply) {
  if (!reply.json.is_object()) return;
  const Json& json = reply.json;
  auto names_of = [](const Json& set) {
    std::vector<std::string> names;
    for (int i = 0; i < set.size(); ++i) names.push_back(set.at(i).string_value());
    return names;
  };
  // The one maximal robust subset.
  std::vector<std::string> maximal;
  for (const std::string& name : names_) {
    if (spec_.robust || name.rfind("FindBids", 0) == 0) maximal.push_back(name);
  }
  const Json* got_maximal = json.Find("maximal");
  Expect(got_maximal != nullptr && got_maximal->size() == 1 &&
             names_of(got_maximal->at(0)) == maximal,
         "subsets: wrong maximal robust subsets");
  const int n = 2 * spec_.items;
  if (n <= kMaxSubsetPrograms) {
    const int64_t robust_subsets =
        (int64_t{1} << (spec_.robust ? n : spec_.items)) - 1;
    Expect(json.GetString("search") == "exhaustive", "subsets: expected the exhaustive sweep");
    Expect(json.GetInt("num_robust_subsets") == robust_subsets,
           "subsets: wrong robust-subset count");
    return;
  }
  Expect(json.GetString("search") == "core_guided", "subsets: expected the core-guided search");
  // Cores: the singletons {PlaceBid_i} without FKs, none with them.
  std::vector<std::string> cores;
  const Json* got_cores = json.Find("cores");
  bool singletons = got_cores != nullptr;
  for (int i = 0; singletons && i < got_cores->size(); ++i) {
    const std::vector<std::string> core = names_of(got_cores->at(i));
    singletons = core.size() == 1;
    if (singletons) cores.push_back(core[0]);
  }
  std::sort(cores.begin(), cores.end());
  std::vector<std::string> expected_cores;
  if (!spec_.robust) {
    for (const std::string& name : names_) {
      if (name.rfind("PlaceBid", 0) == 0) expected_cores.push_back(name);
    }
  }
  std::sort(expected_cores.begin(), expected_cores.end());
  Expect(singletons && cores == expected_cores, "subsets: wrong minimal non-robust cores");
}

template <typename F>
auto Runner::TimeLayer(const char* name, Layer layer, int64_t parent, const char* metric,
                       F&& fn) {
  const Clock::time_point begin = Clock::now();
  auto result = fn();
  const Clock::time_point end = Clock::now();
  const double ms = Ms(begin, end);
  tracer_.Record(name, tracer_.NextId(), parent, cycle_, begin, end);
  layer_ms_[layer] += ms;
  if (metric != nullptr) layer_samples_[metric].push_back(ms);
  return std::make_pair(std::move(result), ms);
}

// Parse -> analyze -> Unfold<=2 (-> summary graph when `full`) of one SQL
// source, the layers load_sql and its replay go through. Returns the time of
// the layer calls.
double Runner::DecomposeSource(SessionManager& manager, const std::string& source,
                               int64_t parent, bool full) {
  auto [file, parse_ms] = TimeLayer("sql.parse", kSql, parent, full ? "sql.parse_ms" : nullptr,
                                    [&] { return ParseSql(source); });
  if (!file.ok()) {
    Expect(false, "sql.parse: " + file.error());
    return parse_ms;
  }
  const Schema schema = full ? Schema() : manager.Find(session_)->schema();
  auto [workload, analyze_ms] =
      TimeLayer("sql.analyze", kSql, parent, full ? "sql.analyze_ms" : nullptr,
                [&] { return AnalyzeWorkloadInto(file.value(), schema, 0); });
  if (!workload.ok()) {
    Expect(false, "sql.analyze: " + workload.error());
    return parse_ms + analyze_ms;
  }
  auto [ltps, unfold_ms] =
      TimeLayer("btp.unfold", kBtp, parent, full ? "btp.unfold_ms" : nullptr,
                [&] { return UnfoldAtMost2(workload.value().programs); });
  if (!full) return parse_ms + analyze_ms + unfold_ms;
  first_counts_.emplace("btp.ltps", static_cast<double>(ltps.size()));
  ThreadPool* pool = manager.pool();
  auto [graph, build_ms] = TimeLayer("summary.build", kSummary, parent, "summary.build_ms", [&] {
    return BuildSummaryGraph(std::move(ltps), settings_, pool);
  });
  first_counts_.emplace("summary.edges", graph.num_edges());
  return parse_ms + analyze_ms + unfold_ms + build_ms;
}

std::vector<std::pair<int, int>> LtpRanges(const std::vector<Btp>& programs) {
  std::vector<std::pair<int, int>> ranges;
  int offset = 0;
  for (const Btp& program : programs) {
    const int count = static_cast<int>(UnfoldAtMost2(program).size());
    ranges.push_back({offset, offset + count});
    offset += count;
  }
  return ranges;
}

double Runner::DecomposeCheck(SessionManager& manager, int64_t parent) {
  const SummaryGraph graph = manager.Find(session_)->Graph();
  auto [outcome, ms] =
      TimeLayer("robust.cycle_test", kRobust, parent, "robust.cycle_test_ms",
                [&] { return RunCycleTest(graph, Method::kTypeII, settings_.policy()); });
  Expect(outcome.robust == spec_.robust, "robust.cycle_test: wrong verdict");
  return ms;
}

double Runner::DecomposeSubsets(SessionManager& manager, int64_t parent) {
  std::shared_ptr<WorkloadSession> session = manager.Find(session_);
  const SummaryGraph graph = session->Graph();
  std::vector<std::pair<int, int>> ranges = LtpRanges(session->Programs());
  auto [detector, build_ms] =
      TimeLayer("robust.detector_build", kRobust, parent, "robust.detector_build_ms", [&] {
        return std::make_unique<MaskedDetector>(graph, ranges, settings_.policy());
      });
  DetectorScratch scratch = detector->MakeScratch();
  const ProgramSet full = ProgramSet::Full(detector->num_programs());
  auto [robust, query_ms] = TimeLayer("robust.detector_query", kRobust, parent, nullptr,
                                      [&] { return detector->IsRobust(full, Method::kTypeII,
                                                                      scratch); });
  layer_samples_["robust.detector_query_us"].push_back(query_ms * 1e3);
  Expect(robust == spec_.robust, "robust.detector_query: wrong verdict");
  // The engine the session routes this program count to, without its cache.
  ThreadPool* pool = manager.pool();
  int64_t queries = 0;
  auto [report, lattice_ms] =
      TimeLayer("robust.lattice", kRobust, parent, "robust.lattice_ms", [&] {
        if (SubsetProgramCountOk(detector->num_programs())) {
          SubsetSweepHooks counting;
          counting.lookup = [](uint32_t) { return std::optional<bool>(); };
          counting.store = [&queries](uint32_t, bool) { ++queries; };
          return AnalyzeSubsetsOnDetector(*detector, Method::kTypeII, pool, &counting);
        }
        Result<SubsetReport> wide = AnalyzeSubsetsCoreGuided(*detector, Method::kTypeII, pool);
        if (wide.ok()) queries = wide.value().detector_queries;
        return wide;
      });
  if (!report.ok()) {
    Expect(false, "robust.lattice: " + report.error());
    return build_ms + query_ms + lattice_ms;
  }
  first_counts_.emplace("robust.lattice_queries", static_cast<double>(queries));
  first_counts_.emplace("robust.cores", static_cast<double>(report.value().cores.size()));
  first_counts_.emplace("robust.maximal_sets",
                        static_cast<double>(report.value().from_core_search
                                                ? report.value().maximal_sets.size()
                                                : report.value().maximal_masks.size()));
  return build_ms + query_ms + lattice_ms;
}

// Cost of the protocol around an answer the session serves from memory: the
// same request as a direct WorkloadSession call, through HandleRequestLine,
// and directly again, all on the state the operation just left behind. The
// two direct calls bracket the protocol one so that neither side gets the
// warmer caches.
void Runner::ProbeProtocol(SessionManager& manager, const char* cmd, int64_t parent) {
  std::shared_ptr<WorkloadSession> session = manager.Find(session_);
  const bool is_check = std::strcmp(cmd, "check") == 0;
  const std::string line = Command(cmd, session_).Dump();
  auto direct = [&] {
    const Clock::time_point begin = Clock::now();
    if (is_check) {
      session->Check();
    } else {
      Expect(session->Subsets().ok(), "direct subsets failed");
    }
    const Clock::time_point end = Clock::now();
    tracer_.Record(is_check ? "probe.direct_check" : "probe.direct_subsets", tracer_.NextId(),
                   parent, cycle_, begin, end);
    return Ms(begin, end);
  };
  // The probe's own cache lookups are not the workload's.
  const SessionStats stats_before = session->stats();
  const double before = direct();
  const Clock::time_point begin = Clock::now();
  HandleRequestLine(manager, line);
  const Clock::time_point end = Clock::now();
  tracer_.Record(is_check ? "probe.protocol_check" : "probe.protocol_subsets", tracer_.NextId(),
                 parent, cycle_, begin, end);
  const double after = direct();
  counts_.Add(stats_before, session->stats());
  layer_samples_["service.protocol_us"].push_back((Ms(begin, end) - (before + after) / 2) * 1e3);
}

void Runner::AddOpSelfTime(double op_ms, double children_ms, bool persist) {
  if (persist) {
    layer_ms_[kPersist] += op_ms - children_ms;
  } else {
    unattributed_ms_ += op_ms - children_ms;
  }
}

Reply Runner::Load(SessionManager& manager) {
  Json request = Command("load_sql", session_);
  request.Set("sql", Json::Str(source_));
  request.Set("settings", Json::Str(spec_.settings));
  Reply reply = Request(manager, "load_sql", request);
  if (reply.json.is_object()) {
    Expect(reply.json.GetInt("num_programs") == 2 * spec_.items, "load_sql: wrong program count");
  }
  if (traced_ && reply.json.is_object()) {
    AddOpSelfTime(reply.ms, DecomposeSource(manager, source_, reply.span, true), false);
  }
  return reply;
}

Reply Runner::Check(SessionManager& manager, bool cached) {
  Reply reply = Request(manager, "check", Command("check", session_));
  ExpectCheck(reply, cached);
  if (traced_ && reply.json.is_object()) {
    if (cached) {
      ProbeProtocol(manager, "check", reply.span);
      AddOpSelfTime(reply.ms, 0, false);
    } else {
      AddOpSelfTime(reply.ms, DecomposeCheck(manager, reply.span), false);
    }
  }
  return reply;
}

Reply Runner::Subsets(SessionManager& manager, bool cached) {
  Reply reply = Request(manager, "subsets", Command("subsets", session_));
  ExpectSubsets(reply);
  if (traced_ && reply.json.is_object()) {
    if (cached) {
      ProbeProtocol(manager, "subsets", reply.span);
      AddOpSelfTime(reply.ms, 0, false);
    } else {
      AddOpSelfTime(reply.ms, DecomposeSubsets(manager, reply.span), false);
    }
  }
  return reply;
}

Reply Runner::Replace(SessionManager& manager, const std::string& sql) {
  Json request = Command("replace_program", session_);
  request.Set("sql", Json::Str(sql));
  Reply reply = Request(manager, "replace_program", request);
  if (traced_ && reply.json.is_object()) {
    AddOpSelfTime(reply.ms, DecomposeSource(manager, sql, reply.span, false), false);
  }
  return reply;
}

std::string Runner::Snapshot(SessionManager& manager) {
  std::shared_ptr<WorkloadSession> session = manager.Find(session_);
  if (session == nullptr) {  // its load failed, which is already counted
    ++attempted_;
    Expect(false, "snapshot: no session " + session_);
    return {};
  }
  const Clock::time_point begin = Clock::now();
  Result<std::string> payload = EncodeSessionSnapshot(*session);
  const Clock::time_point end = Clock::now();
  ++attempted_;
  op_ms_ += Ms(begin, end);
  if (!payload.ok()) {
    Expect(false, "snapshot: " + payload.error());
    return {};
  }
  if (traced_) {
    tracer_.Record("snapshot", tracer_.NextId(), cycle_span_, cycle_, begin, end);
    layer_samples_["persist.encode_ms"].push_back(Ms(begin, end));
    AddOpSelfTime(Ms(begin, end), 0, true);
    first_counts_.emplace("persist.payload_bytes", static_cast<double>(payload.value().size()));
  }
  return payload.value();
}

Reply Runner::Drop(SessionManager& manager) {
  Reply reply = Request(manager, "drop_session", Command("drop_session", session_));
  if (reply.json.is_object()) Expect(reply.json.GetBool("dropped"), "drop_session: not dropped");
  return reply;
}

double Runner::Restore(SessionManager& manager, const std::string& payload) {
  const Clock::time_point begin = Clock::now();
  Result<std::string> restored = RestoreSessionFromPayload(manager, payload);
  const Clock::time_point end = Clock::now();
  ++attempted_;
  const double ms = Ms(begin, end);
  op_ms_ += ms;
  if (!restored.ok()) {
    Expect(false, "restore: " + restored.error());
    return ms;
  }
  Expect(restored.value() == session_, "restore: wrong session name");
  if (traced_) {
    const int64_t span = tracer_.NextId();
    tracer_.Record("restore", span, cycle_span_, cycle_, begin, end);
    layer_samples_["persist.replay_ms"].push_back(ms);
    // The replay's layer calls: one per journaled source.
    double children = 0;
    for (const SessionJournalOp& op : manager.Find(session_)->replay_state().journal) {
      children += DecomposeSource(manager, op.arg, span, op.op == "load_sql");
    }
    AddOpSelfTime(ms, children, true);
  }
  return ms;
}

void Runner::AccountSession(SessionManager& manager, const SessionStats& base) {
  std::shared_ptr<WorkloadSession> session = manager.Find(session_);
  if (session != nullptr) counts_.Add(session->stats(), base);
}

// One set-up: generate the workload's SQL, create the manager (and its
// pool), then load a session and answer check and subsets once. A
// long-lived workload keeps that session and gets a second manager for the
// per-cycle sessions beside it; the others drop it.
double Runner::SetupOnce() {
  const Clock::time_point begin = Clock::now();
  source_ = AuctionNSql(spec_.items);
  if (!cpus_.empty()) PinToCpus(cpus_);  // pool workers inherit every CPU
  manager_ = std::make_unique<SessionManager>(spec_.threads);
  if (spec_.long_lived) side_manager_ = std::make_unique<SessionManager>(spec_.threads);
  if (!cpus_.empty()) PinToCpus({cpus_[setups_done_++ % cpus_.size()]});
  Load(*manager_);
  Check(*manager_, false);
  Subsets(*manager_, false);
  if (!spec_.long_lived) Drop(*manager_);
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// Three replace_program requests on one PlaceBid program, each followed by
// check and subsets. Returns the canonical answers after the last edit.
std::pair<std::string, std::string> Runner::EditRound(SessionManager& manager) {
  std::pair<std::string, std::string> last;
  for (const Edit& edit : MakeEditRound(spec_.items, rng_)) {
    const bool cached = edit.kind == Edit::Kind::kRename;
    const Reply replace = Replace(manager, edit.sql);
    const Reply check = Check(manager, cached);
    const Reply subsets = Subsets(manager, cached);
    if (cached) {
      Sample("cached_ms", check.ms + subsets.ms);
    } else {
      Sample("edit_ms", replace.ms + check.ms + subsets.ms);
    }
    last = {Canonical(check.json), Canonical(subsets.json)};
  }
  return last;
}

void Runner::Sample(const char* metric, double ms) {
  if (recording_) samples_[metric].push_back(ms);
}

void Runner::RunCycle(bool traced) {
  // Consecutive cycles share a CPU in pairs, so that a traced run's plain and
  // traced cycles see the same CPUs.
  if (!cpus_.empty()) PinToCpus({cpus_[(cycle_ + 1) / 2 % cpus_.size()]});
  traced_ = traced;
  ++cycle_;
  cycle_span_ = traced ? tracer_.NextId() : 0;
  op_ms_ = 0;
  unattributed_ms_ = 0;
  std::fill(std::begin(layer_ms_), std::end(layer_ms_), 0.0);
  counts_ = CycleCounts();
  if (traced) tracer_.StartLibrary();
  const Clock::time_point begin = Clock::now();

  // The long-lived workload first edits its session. Every workload then
  // runs one session's life: load, answer, (edit,) snapshot, drop, restore,
  // answer again, drop.
  SessionManager& manager = spec_.long_lived ? *side_manager_ : *manager_;
  if (spec_.long_lived) {
    std::shared_ptr<WorkloadSession> kept = manager_->Find(session_);
    const SessionStats base = kept != nullptr ? kept->stats() : SessionStats();
    EditRound(*manager_);
    AccountSession(*manager_, base);
  }
  Sample("load_ms", Load(manager).ms);
  const Reply first_check = Check(manager, false);
  const Reply first_subsets = Subsets(manager, false);
  Sample("check_ms", first_check.ms);
  Sample("subsets_ms", first_subsets.ms);
  std::pair<std::string, std::string> expected = {Canonical(first_check.json),
                                                  Canonical(first_subsets.json)};
  if (!spec_.long_lived) expected = EditRound(manager);
  const std::string payload = Snapshot(manager);
  AccountSession(manager, SessionStats());
  Drop(manager);
  Sample("restore_ms", Restore(manager, payload));
  const Reply check = Check(manager, false);
  const Reply subsets = Subsets(manager, false);
  Sample("check_ms", check.ms);
  Sample("subsets_ms", subsets.ms);
  Expect(Canonical(check.json) == expected.first,
         "restored session answers check differently than before its snapshot");
  Expect(Canonical(subsets.json) == expected.second,
         "restored session answers subsets differently than before its snapshot");
  AccountSession(manager, SessionStats());
  Drop(manager);
  const Clock::time_point end = Clock::now();
  Sample("cycle_ms", Ms(begin, end));

  if (!traced) {
    if (recording_) plain_op_ms_.push_back(op_ms_);
    return;
  }
  tracer_.StopLibrary();
  tracer_.Record("cycle", cycle_span_, 0, cycle_, begin, end);
  if (!recording_) return;
  traced_op_ms_.push_back(op_ms_);
  for (int layer = 0; layer < kNumLayers; ++layer) layer_self_[layer].push_back(layer_ms_[layer]);
  unattributed_.push_back(unattributed_ms_);
  if (!first_traced_counts_.has_value()) first_traced_counts_ = counts_;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int64_t PoolCounter(const char* name) { return MetricsRegistry::Global().counter(name)->Value(); }

int Runner::Run() {
  // Set-up, repeated so its median is stable; the last one is kept.
  std::vector<double> setups;
  const int setup_runs = args_.smoke ? 2 : 12;
  for (int i = 0; i < setup_runs; ++i) setups.push_back(SetupOnce());

  // One unrecorded cycle lets lazy state (allocator pools, the long-lived
  // session's cache) settle, then the closed loop runs for --seconds.
  recording_ = false;
  RunCycle(false);
  recording_ = true;
  const int64_t busy_before = PoolCounter("thread_pool.busy_us");
  const int64_t idle_before = PoolCounter("thread_pool.idle_us");
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args_.seconds));
  const int64_t min_cycles = args_.smoke ? 4 : 2;
  for (int64_t i = 0; i < min_cycles || (!args_.smoke && Clock::now() < deadline); ++i) {
    RunCycle(args_.trace && i % 2 == 1);
  }
  const int64_t busy = PoolCounter("thread_pool.busy_us") - busy_before;
  const int64_t idle = PoolCounter("thread_pool.idle_us") - idle_before;
  pool_busy_ratio_ = busy + idle > 0 ? static_cast<double>(busy) / (busy + idle) : 0.0;

  if (args_.trace && !args_.trace_out.empty() && !tracer_.Write(args_.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args_.trace_out.c_str());
  }
  PrintResult(Median(setups));
  if (!first_error_.empty()) std::fprintf(stderr, "perfbench: %s\n", first_error_.c_str());
  return failed_ == 0 ? 0 : 1;
}

void Runner::PrintResult(double setup_s) {
  std::string metrics;
  auto add = [&metrics](const std::string& name, double value, const char* unit) {
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + name + "\":{\"value\":" + Num(value) + ",\"unit\":\"" + unit + "\"}";
  };
  std::string detail = "{\"workload\":\"" + std::string(spec_.name) +
                       "\",\"seed\":" + std::to_string(args_.seed) +
                       ",\"threads\":" + std::to_string(spec_.threads) +
                       ",\"cpus\":" + std::to_string(cpus_.size()) +
                       ",\"cycles\":" + std::to_string(cycle_ - 1) + ",\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : samples_) {
    detail += (first ? "\"" : ",\"") + name + "\":" + std::to_string(values.size());
    first = false;
  }
  detail += "}";

  if (!args_.trace) {
    for (const char* name :
         {"load_ms", "check_ms", "subsets_ms", "cached_ms", "edit_ms", "restore_ms", "cycle_ms"}) {
      add(name, TrimmedMean(samples_[name]), "ms");
    }
    // The highest percentile with at least ten samples beyond it. It goes to
    // the details line only: on auction128_pool2 it jumps between about 110
    // and 175 ms with whether a pool worker's vCPU stalls during the run.
    std::vector<double> cycles = samples_["cycle_ms"];
    std::sort(cycles.begin(), cycles.end());
    const size_t n = cycles.size();
    const size_t rank = n > 10 ? n - 11 : 0;
    detail += ",\"cycle_ms_tail\":" + Num(n > 0 ? cycles[rank] : 0) +
              ",\"cycle_ms_tail_percentile\":" +
              Num(n > 0 ? 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n) : 0);
    add("setup_s", setup_s, "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    for (const char* name : {"sql.parse_ms", "sql.analyze_ms", "btp.unfold_ms"}) {
      add(name, TrimmedMean(layer_samples_[name]), "ms");
    }
    add("btp.ltps", first_counts_["btp.ltps"], "count");
    add("summary.build_ms", TrimmedMean(layer_samples_["summary.build_ms"]), "ms");
    add("summary.edges", first_counts_["summary.edges"], "count");
    const CycleCounts counts = first_traced_counts_.value_or(CycleCounts());
    add("summary.stmt_pairs", static_cast<double>(counts.stmt_pairs), "count");
    add("summary.cells_computed", static_cast<double>(counts.cells_computed), "count");
    add("robust.cycle_test_ms", TrimmedMean(layer_samples_["robust.cycle_test_ms"]), "ms");
    add("robust.detector_build_ms", TrimmedMean(layer_samples_["robust.detector_build_ms"]), "ms");
    add("robust.detector_query_us", TrimmedMean(layer_samples_["robust.detector_query_us"]), "us");
    add("robust.detector_runs", static_cast<double>(counts.detector_runs), "count");
    add("robust.lattice_ms", TrimmedMean(layer_samples_["robust.lattice_ms"]), "ms");
    add("robust.lattice_queries", first_counts_["robust.lattice_queries"], "count");
    add("robust.cores", first_counts_["robust.cores"], "count");
    add("robust.maximal_sets", first_counts_["robust.maximal_sets"], "count");
    add("robust.cache_hits", static_cast<double>(counts.cache_hits), "count");
    add("robust.cache_misses", static_cast<double>(counts.cache_misses), "count");
    const int64_t lookups = counts.cache_hits + counts.cache_misses;
    add("robust.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(counts.cache_hits) / static_cast<double>(lookups) : 0,
        "ratio");
    add("service.protocol_us", TrimmedMean(layer_samples_["service.protocol_us"]), "us");
    add("persist.encode_ms", TrimmedMean(layer_samples_["persist.encode_ms"]), "ms");
    add("persist.payload_bytes", first_counts_["persist.payload_bytes"], "bytes");
    add("persist.replay_ms", TrimmedMean(layer_samples_["persist.replay_ms"]), "ms");
    add("util.pool_threads", spec_.threads, "count");
    add("util.pool_busy_ratio", pool_busy_ratio_, "ratio");
    for (int layer = 0; layer < kNumLayers; ++layer) {
      add(std::string("self.") + kLayerNames[layer] + "_ms", TrimmedMean(layer_self_[layer]), "ms");
    }
    add("service.unattributed_ms", TrimmedMean(unattributed_), "ms");
    const double plain = TrimmedMean(plain_op_ms_);
    const double traced = TrimmedMean(traced_op_ms_);
    add("obs.trace_overhead_pct", plain > 0 ? 100.0 * (traced / plain - 1.0) : 0, "%");
    add("failed_share",
        attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0,
        "ratio");
    detail += ",\"traced_cycles\":" + std::to_string(traced_op_ms_.size()) +
              ",\"plain_cycles\":" + std::to_string(plain_op_ms_.size());
  }
  if (!first_error_.empty()) {
    std::string escaped;
    JsonEscape(first_error_, &escaped);
    detail += ",\"first_error\":" + escaped;
  }
  detail += "}";
  std::printf("{\"detail\":%s}\n", detail.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
              failed_ == 0 ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace mvrc::perfbench

int main(int argc, char** argv) {
  using mvrc::perfbench::kWorkloads;
  const std::optional<mvrc::perfbench::Args> args = mvrc::perfbench::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--trace-out FILE]\n");
    return 2;
  }
  for (const mvrc::perfbench::WorkloadSpec& spec : kWorkloads) {
    if (args->workload == spec.name) return mvrc::perfbench::Runner(spec, *args).Run();
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n", args->workload.c_str());
  return 2;
}
