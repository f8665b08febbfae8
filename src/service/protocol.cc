#include "service/protocol.h"

#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/session_snapshot.h"
#include "persist/snapshot_store.h"
#include "robust/core_search.h"
#include "robust/detector.h"
#include "search/counterexample.h"
#include "util/stopwatch.h"
#include "workloads/builtins.h"

namespace mvrc {

namespace {

// `retryable` marks transient server-side conditions (overload, a failed
// snapshot flush) where resending the identical request can succeed; every
// client-caused error is non-retryable. The field is always present so
// clients never need a missing-key fallback.
Json ErrorResponse(const std::string& message, bool retryable = false) {
  Json response = Json::Object();
  response.Set("ok", Json::Bool(false));
  response.Set("error", Json::Str(message));
  response.Set("retryable", Json::Bool(retryable));
  return response;
}

Json OkResponse() {
  Json response = Json::Object();
  response.Set("ok", Json::Bool(true));
  return response;
}

// The analysis parameters a load_sql/add_program request carries, resolved
// against the server defaults, plus which of them the client spelled out —
// explicit parameters must match an existing session's, implicit ones
// inherit (never silently re-default).
struct RequestedAnalysis {
  AnalysisSettings settings;
  bool explicit_settings = false;   // "settings" member present
  bool explicit_isolation = false;  // isolation named via either spelling
};

Result<RequestedAnalysis> ParseRequestedAnalysis(const Json& request,
                                                 const ProtocolOptions& options) {
  RequestedAnalysis requested;
  requested.settings = AnalysisSettings::AttrDepFk().WithIsolation(options.default_isolation);

  const std::string text = request.GetString("settings");
  if (!text.empty()) {
    // AnalysisSettings::Parse is the single source of truth for the
    // settings grammar (shared with the CLI tools), including whether the
    // string named an isolation level.
    bool settings_named_isolation = false;
    Result<AnalysisSettings> parsed = AnalysisSettings::Parse(text, &settings_named_isolation);
    if (!parsed.ok()) return Result<RequestedAnalysis>::Error(parsed.error());
    requested.settings = parsed.value();
    requested.explicit_settings = true;
    if (settings_named_isolation) {
      requested.explicit_isolation = true;
    } else {
      requested.settings.isolation = options.default_isolation;
    }
  }

  const std::string isolation_text = request.GetString("isolation");
  if (!isolation_text.empty()) {
    std::optional<IsolationLevel> level = ParseIsolationLevel(isolation_text);
    if (!level.has_value()) {
      return Result<RequestedAnalysis>::Error("unknown isolation " + isolation_text +
                                              " (expected mvrc or rc)");
    }
    if (requested.explicit_isolation && requested.settings.isolation != *level) {
      return Result<RequestedAnalysis>::Error(
          "conflicting isolation: settings string says " +
          std::string(ToString(requested.settings.isolation)) + " but \"isolation\" says " +
          isolation_text);
    }
    requested.settings.isolation = *level;
    requested.explicit_isolation = true;
  }
  return requested;
}

std::optional<Method> ParseMethod(const std::string& text) {
  if (text.empty() || text == "type2") return Method::kTypeII;
  if (text == "type1") return Method::kTypeI;
  return std::nullopt;
}

Json NamesArray(const std::vector<std::string>& names) {
  Json array = Json::Array();
  for (const std::string& name : names) array.Append(Json::Str(name));
  return array;
}

// Resolves the target session for commands that require one to exist.
std::shared_ptr<WorkloadSession> RequireSession(SessionManager& manager, const Json& request,
                                                Json* error) {
  const std::string name = request.GetString("session");
  if (name.empty()) {
    *error = ErrorResponse("missing \"session\"");
    return nullptr;
  }
  std::shared_ptr<WorkloadSession> session = manager.Find(name);
  if (session == nullptr) {
    *error = ErrorResponse("unknown session " + name + " (load_sql creates sessions)");
  }
  return session;
}

Json HandleLoad(SessionManager& manager, const Json& request, const ProtocolOptions& options) {
  const std::string session_name = request.GetString("session");
  if (session_name.empty()) return ErrorResponse("missing \"session\"");
  Result<RequestedAnalysis> requested = ParseRequestedAnalysis(request, options);
  if (!requested.ok()) return ErrorResponse(requested.error());
  const AnalysisSettings& settings = requested.value().settings;

  // Validate arguments before touching the registry, and drop a session we
  // created if its very first load fails — otherwise a typo would leak an
  // empty session pinned to possibly unintended settings.
  std::optional<Workload> builtin_workload;
  const std::string builtin = request.GetString("builtin");
  const Json* sql = request.Find("sql");
  if (!builtin.empty()) {
    builtin_workload = MakeBuiltinWorkload(builtin);
    if (!builtin_workload.has_value()) {
      return ErrorResponse("unknown builtin " + builtin +
                           " (expected smallbank, tpcc, auction or auction<N>)");
    }
  } else if (sql == nullptr || !sql->is_string()) {
    return ErrorResponse("missing \"sql\" (or \"builtin\")");
  }

  bool created = false;
  std::shared_ptr<WorkloadSession> session =
      manager.GetOrCreate(session_name, settings, &created);
  // Only the creating request rolls back, and only while the session is
  // still empty. (Two clients racing to create the same session with
  // different content is an application-level conflict either way.)
  auto fail = [&](const std::string& message) {
    if (created && session->num_programs() == 0) manager.Drop(session_name);
    return ErrorResponse(message);
  };

  // An existing session keeps the analysis parameters it was created under;
  // a request that explicitly asks for different ones must fail loudly
  // rather than silently analyze under something else. Implicit parameters
  // inherit the session's.
  if (!created) {
    const AnalysisSettings& have = session->settings();
    if (requested.value().explicit_isolation && have.isolation != settings.isolation) {
      return ErrorResponse("session " + session_name + " was created under isolation " +
                           ToString(have.isolation) + " (got " +
                           ToString(settings.isolation) +
                           "); drop it or use a differently named session");
    }
    if (requested.value().explicit_settings &&
        (have.granularity != settings.granularity ||
         have.use_foreign_keys != settings.use_foreign_keys)) {
      return ErrorResponse("session " + session_name + " was created with settings " +
                           have.ToString() + " (got " + settings.ToString() +
                           "); drop it or use a differently named session");
    }
  }

  std::vector<std::string> added;
  if (builtin_workload.has_value()) {
    // Passing the builtin's *name* keeps the session replayable: the
    // snapshot journal records "builtin smallbank", not 2n Btps.
    Status status = session->LoadWorkload(*builtin_workload, builtin);
    if (!status.ok()) return fail(status.error());
    for (const Btp& program : builtin_workload->programs) added.push_back(program.name());
  } else {
    Result<std::vector<std::string>> names = session->LoadSql(sql->string_value());
    if (!names.ok()) return fail(names.error());
    added = names.value();
  }

  Json response = OkResponse();
  response.Set("session", Json::Str(session_name));
  response.Set("programs", NamesArray(added));
  response.Set("num_programs", Json::Int(session->num_programs()));
  return response;
}

Json HandleRemove(SessionManager& manager, const Json& request) {
  Json error;
  std::shared_ptr<WorkloadSession> session = RequireSession(manager, request, &error);
  if (session == nullptr) return error;
  const std::string name = request.GetString("name");
  if (name.empty()) return ErrorResponse("missing \"name\"");
  Status status = session->RemoveProgram(name);
  if (!status.ok()) return ErrorResponse(status.error());
  Json response = OkResponse();
  response.Set("session", Json::Str(session->name()));
  response.Set("removed", Json::Str(name));
  response.Set("num_programs", Json::Int(session->num_programs()));
  return response;
}

Json HandleReplace(SessionManager& manager, const Json& request) {
  Json error;
  std::shared_ptr<WorkloadSession> session = RequireSession(manager, request, &error);
  if (session == nullptr) return error;
  const Json* sql = request.Find("sql");
  if (sql == nullptr || !sql->is_string()) return ErrorResponse("missing \"sql\"");
  Status status = session->ReplaceProgramSql(sql->string_value());
  if (!status.ok()) return ErrorResponse(status.error());
  Json response = OkResponse();
  response.Set("session", Json::Str(session->name()));
  response.Set("num_programs", Json::Int(session->num_programs()));
  return response;
}

Json HandleCheck(SessionManager& manager, const Json& request) {
  Json error;
  std::shared_ptr<WorkloadSession> session = RequireSession(manager, request, &error);
  if (session == nullptr) return error;
  std::optional<Method> method = ParseMethod(request.GetString("method"));
  if (!method.has_value()) return ErrorResponse("unknown method (expected type1 or type2)");
  CheckResult result = session->Check(*method);
  Json response = OkResponse();
  response.Set("session", Json::Str(session->name()));
  response.Set("robust", Json::Bool(result.robust));
  response.Set("cached", Json::Bool(result.from_cache));
  response.Set("num_programs", Json::Int(result.num_programs));
  response.Set("num_unfolded", Json::Int(result.num_unfolded));
  response.Set("num_edges", Json::Int(result.num_edges));
  response.Set("num_counterflow_edges", Json::Int(result.num_counterflow_edges));
  if (!result.witness.empty()) response.Set("witness", Json::Str(result.witness));
  return response;
}

Json HandleSubsets(SessionManager& manager, const Json& request) {
  Json error;
  std::shared_ptr<WorkloadSession> session = RequireSession(manager, request, &error);
  if (session == nullptr) return error;
  std::optional<Method> method = ParseMethod(request.GetString("method"));
  if (!method.has_value()) return ErrorResponse("unknown method (expected type1 or type2)");
  std::vector<std::string> names;  // snapshotted atomically with the search
  Result<SubsetReport> result = session->Subsets(*method, &names);
  if (!result.ok()) return ErrorResponse(result.error());
  const SubsetReport& report = result.value();
  auto name_members = [&](const std::vector<int>& indices) {
    Json members = Json::Array();
    for (int i : indices) members.Append(Json::Str(names.at(i)));
    return members;
  };
  Json maximal = Json::Array();
  for (const ProgramSet& set : report.maximal_sets) maximal.Append(name_members(set.ToIndices()));
  // The response shape follows the program count, not the engine (one
  // engine answers every count): through kMaxSubsetPrograms the verdict
  // list is materialized, and the response is the per-mask shape — the
  // robust-subset count and the maximal sets. Past it, the lattice shape
  // names the cores and the detector work instead, and omits the count
  // rather than report a wrong 0.
  const bool per_mask = report.num_programs <= kMaxSubsetPrograms;
  Json response = OkResponse();
  response.Set("session", Json::Str(session->name()));
  response.Set("num_programs", Json::Int(report.num_programs));
  response.Set("search", Json::Str(per_mask ? "exhaustive" : "core_guided"));
  if (per_mask) {
    response.Set("num_robust_subsets",
                 Json::Int(static_cast<int64_t>(report.robust_masks.size())));
  }
  response.Set("maximal", std::move(maximal));
  if (!per_mask) {
    Json cores = Json::Array();
    for (const ProgramSet& core : report.cores) cores.Append(name_members(core.ToIndices()));
    response.Set("num_cores", Json::Int(static_cast<int64_t>(report.cores.size())));
    response.Set("cores", std::move(cores));
    response.Set("detector_queries", Json::Int(report.detector_queries));
  }
  return response;
}

Json HandleCounterexample(SessionManager& manager, const Json& request) {
  Json error;
  std::shared_ptr<WorkloadSession> session = RequireSession(manager, request, &error);
  if (session == nullptr) return error;
  // The search is exponential in every bound; reject anything outside the
  // ranges the daemon can serve interactively (also keeps the int64 -> int
  // narrowing below in range).
  const int64_t domain_size = request.GetInt("domain_size", 2);
  const int64_t max_txns = request.GetInt("max_txns", 3);
  const int64_t max_schedules = request.GetInt("max_schedules", 2'000'000);
  SearchOptions options;
  if (domain_size < 1 || domain_size > 4 || max_txns < options.min_txns || max_txns > 6 ||
      max_schedules < 1 || max_schedules > 1'000'000'000'000) {
    return ErrorResponse("invalid search bounds (domain_size 1..4, max_txns 2..6, "
                         "max_schedules 1..1e12)");
  }
  options.domain_size = static_cast<int>(domain_size);
  options.max_txns = static_cast<int>(max_txns);
  options.max_schedules = max_schedules;
  SearchStats stats;
  std::optional<Counterexample> counterexample = session->SearchCounterexample(options, &stats);
  Json response = OkResponse();
  response.Set("session", Json::Str(session->name()));
  response.Set("found", Json::Bool(counterexample.has_value()));
  if (counterexample.has_value()) {
    response.Set("description", Json::Str(counterexample->Describe(session->schema())));
  }
  response.Set("schedules_checked", Json::Int(stats.schedules_checked));
  response.Set("bindings_checked", Json::Int(stats.bindings_checked));
  response.Set("budget_exhausted", Json::Bool(stats.budget_exhausted));
  return response;
}

Json HandleStats(SessionManager& manager, const Json& request) {
  const std::string session_name = request.GetString("session");
  if (session_name.empty()) {
    Json response = OkResponse();
    response.Set("sessions", NamesArray(manager.SessionNames()));
    return response;
  }
  Json error;
  std::shared_ptr<WorkloadSession> session = RequireSession(manager, request, &error);
  if (session == nullptr) return error;
  Json response = OkResponse();
  response.Set("session", Json::Str(session->name()));
  response.Set("settings", Json::Str(session->settings().name()));
  response.Set("isolation", Json::Str(ToString(session->settings().isolation)));
  response.Set("programs", NamesArray(session->ProgramNames()));
  // Splice the shared SessionStats rendering in as flat fields — the
  // response shape predates ToJson and stays wire-compatible.
  Json stats = session->stats().ToJson();
  for (int i = 0; i < stats.size(); ++i) {
    response.Set(stats.key_at(i), Json(stats.value_at(i)));
  }
  return response;
}

// Process-wide metrics snapshot (counters / gauges / histograms), the trace
// buffer's state, and — when "session" names one — that session's stats
// block. The global snapshot spans every session and both CLIs' codepaths;
// see docs/OBSERVABILITY.md for the metric inventory.
Json HandleMetrics(SessionManager& manager, const Json& request) {
  Json response = OkResponse();
  Json snapshot = MetricsRegistry::Global().ToJson();
  for (int i = 0; i < snapshot.size(); ++i) {
    response.Set(snapshot.key_at(i), Json(snapshot.value_at(i)));
  }
  const TraceBuffer& trace = TraceBuffer::Global();
  Json trace_info = Json::Object();
  trace_info.Set("enabled", Json::Bool(trace.enabled()));
  trace_info.Set("recorded", Json::Int(trace.recorded()));
  trace_info.Set("dropped", Json::Int(trace.dropped()));
  response.Set("trace", std::move(trace_info));
  const std::string session_name = request.GetString("session");
  if (!session_name.empty()) {
    Json error;
    std::shared_ptr<WorkloadSession> session = RequireSession(manager, request, &error);
    if (session == nullptr) return error;
    response.Set("session", Json::Str(session->name()));
    response.Set("session_stats", session->stats().ToJson());
  }
  return response;
}

Json HandleDrop(SessionManager& manager, const Json& request, const ProtocolOptions& options) {
  const std::string session_name = request.GetString("session");
  if (session_name.empty()) return ErrorResponse("missing \"session\"");
  const bool dropped = manager.Drop(session_name);
  // Dropping is also a durability event: without this, a restart would
  // resurrect the session from its stale snapshot.
  if (dropped && options.store != nullptr) {
    (void)options.store->Remove(SnapshotStore::EncodeKey(session_name));
  }
  Json response = OkResponse();
  response.Set("session", Json::Str(session_name));
  response.Set("dropped", Json::Bool(dropped));
  return response;
}

Json HandleSnapshot(SessionManager& manager, const Json& request,
                    const ProtocolOptions& options) {
  if (options.store == nullptr) {
    return ErrorResponse("no snapshot store (start mvrcd with --state-dir=)");
  }
  const std::string session_name = request.GetString("session");
  std::vector<std::shared_ptr<WorkloadSession>> targets;
  if (!session_name.empty()) {
    Json error;
    std::shared_ptr<WorkloadSession> session = RequireSession(manager, request, &error);
    if (session == nullptr) return error;
    targets.push_back(std::move(session));
  } else {
    for (const std::string& name : manager.SessionNames()) {
      std::shared_ptr<WorkloadSession> session = manager.Find(name);
      if (session != nullptr) targets.push_back(std::move(session));
    }
  }
  Json snapshotted = Json::Array();
  Json skipped_names = Json::Array();
  Json failed = Json::Array();
  std::string first_error;
  for (const std::shared_ptr<WorkloadSession>& session : targets) {
    bool skipped = false;
    Status status = TrySnapshotSession(*options.store, *session, &skipped);
    if (status.ok()) {
      snapshotted.Append(Json::Str(session->name()));
    } else if (skipped) {
      skipped_names.Append(Json::Str(session->name()));
    } else {
      failed.Append(Json::Str(session->name()));
      if (first_error.empty()) first_error = status.error();
    }
  }
  // A flush that hit an I/O error is worth retrying; partial progress (the
  // sessions that did flush) is already on disk either way.
  if (failed.size() > 0 && !session_name.empty()) {
    return ErrorResponse("snapshot of " + session_name + " failed: " + first_error,
                         /*retryable=*/true);
  }
  Json response = OkResponse();
  response.Set("snapshotted", std::move(snapshotted));
  response.Set("skipped", std::move(skipped_names));
  response.Set("failed", std::move(failed));
  if (!first_error.empty()) response.Set("error_detail", Json::Str(first_error));
  return response;
}

Json HandleRestore(SessionManager& manager, const ProtocolOptions& options) {
  if (options.store == nullptr) {
    return ErrorResponse("no snapshot store (start mvrcd with --state-dir=)");
  }
  RestoreReport report = RestoreAllSessions(*options.store, manager);
  Json response = OkResponse();
  response.Set("restored", NamesArray(report.restored));
  response.Set("quarantined", NamesArray(report.quarantined));
  return response;
}

// Commands whose success mutates session state — exactly the set whose
// responses carry "durable" when a store is configured.
bool IsMutationCommand(const std::string& cmd) {
  return cmd == "load_sql" || cmd == "add_program" || cmd == "remove_program" ||
         cmd == "replace_program";
}

// Auto-flush after a successful mutation: annotates `response` with whether
// the session's new state survived to disk. A failed flush degrades, never
// fails the mutation — the in-memory session already advanced, and lying
// about that with an error would desync the client.
void StampDurability(SessionManager& manager, const ProtocolOptions& options, Json* response) {
  const Json* ok = response->Find("ok");
  if (ok == nullptr || !ok->bool_value() || options.store == nullptr) return;
  const std::string session_name = response->GetString("session");
  std::shared_ptr<WorkloadSession> session = manager.Find(session_name);
  if (session == nullptr) return;  // dropped concurrently; nothing to flush
  Status status = TrySnapshotSession(*options.store, *session);
  response->Set("durable", Json::Bool(status.ok()));
  if (!status.ok()) response->Set("persist_error", Json::Str(status.error()));
}

}  // namespace

Json HandleRequest(SessionManager& manager, const Json& request,
                   const ProtocolOptions& options) {
  Stopwatch timer;
  static Counter* requests = MetricsRegistry::Global().counter("protocol.requests");
  static Counter* errors = MetricsRegistry::Global().counter("protocol.errors");
  static Histogram* request_us = MetricsRegistry::Global().histogram("protocol.request_us");
  requests->Add(1);
  auto finish = [&](Json response) {
    const int64_t elapsed = timer.ElapsedMicros();
    request_us->Record(elapsed);
    const Json* ok = response.Find("ok");
    if (ok == nullptr || !ok->bool_value()) errors->Add(1);
    // Server-side handling time; transport latency is the client's to add.
    response.Set("elapsed_us", Json::Int(elapsed));
    return response;
  };
  // Admission control sits in front of parsing: a server past its in-flight
  // bound sheds with the one error clients should retry.
  AdmissionController::Slot slot(options.admission);
  if (!slot.admitted()) {
    return finish(ErrorResponse("server overloaded (in-flight request bound reached)",
                                /*retryable=*/true));
  }
  if (!request.is_object()) return finish(ErrorResponse("request must be a JSON object"));
  const Json* cmd = request.Find("cmd");
  if (cmd == nullptr || !cmd->is_string()) return finish(ErrorResponse("missing \"cmd\""));
  const std::string& name = cmd->string_value();
  TraceSpan span("protocol/request", "cmd=" + name);
  Json response;
  if (name == "load_sql" || name == "add_program") {
    response = HandleLoad(manager, request, options);
  } else if (name == "remove_program") {
    response = HandleRemove(manager, request);
  } else if (name == "replace_program") {
    response = HandleReplace(manager, request);
  } else if (name == "check") {
    response = HandleCheck(manager, request);
  } else if (name == "subsets") {
    response = HandleSubsets(manager, request);
  } else if (name == "counterexample") {
    response = HandleCounterexample(manager, request);
  } else if (name == "stats") {
    response = HandleStats(manager, request);
  } else if (name == "metrics") {
    response = HandleMetrics(manager, request);
  } else if (name == "drop_session") {
    response = HandleDrop(manager, request, options);
  } else if (name == "snapshot") {
    response = HandleSnapshot(manager, request, options);
  } else if (name == "restore") {
    response = HandleRestore(manager, options);
  } else {
    response = ErrorResponse("unknown cmd " + name);
  }
  if (IsMutationCommand(name)) StampDurability(manager, options, &response);
  // Echo the command first for log readability.
  response.SetFront("cmd", Json::Str(name));
  return finish(std::move(response));
}

std::string HandleRequestLine(SessionManager& manager, const std::string& line,
                              const ProtocolOptions& options) {
  Result<Json> request = Json::Parse(line);
  if (!request.ok()) return ErrorResponse(request.error()).Dump();
  return HandleRequest(manager, request.value(), options).Dump();
}

}  // namespace mvrc
