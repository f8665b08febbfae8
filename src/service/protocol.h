// The analysis service's request/response protocol: newline-delimited JSON
// objects, one request per line, one response line per request (the `mvrcd`
// daemon is a thin stdin/stdout loop over HandleRequestLine).
//
// Requests are objects with a "cmd" member and command-specific arguments;
// responses always carry "ok" (and, when false, "error" with a message plus
// "retryable": true only for transient server-side conditions — overload
// shedding, a failed snapshot flush — where the identical request can
// succeed later. Client-side errors (malformed JSON, unknown commands or
// sessions, settings conflicts, out-of-range bounds) are "retryable": false:
// resending the same bytes cannot help.)
// Commands:
//
//   {"cmd":"load_sql","session":S,
//    "sql":TEXT | "builtin":"smallbank|tpcc|auction|auction<N>"
//    [,"settings":"<attr|tpl>[+fk][+mvrc|+rc]"][,"isolation":"mvrc|rc"]}
//       Creates the session on first use (settings/isolation apply then;
//       default attr+fk under MVRC — the paper's most precise analysis) and
//       parses TABLE / FOREIGN KEY / PROGRAM declarations into it.
//       "isolation" may also ride inside the settings string (e.g.
//       "attr+fk+rc"); giving both with different levels is an error, as is
//       addressing an existing session with explicit settings or isolation
//       that differ from the ones it was created under. ->
//       {"programs":[names],"num_programs":N}
//   {"cmd":"add_program","session":S,"sql":TEXT}
//       Alias of load_sql for incremental additions: the SQL may reference
//       the session's existing schema. -> {"programs":[names added],...}
//   {"cmd":"remove_program","session":S,"name":P}
//   {"cmd":"replace_program","session":S,"sql":TEXT}   (exactly one PROGRAM)
//   {"cmd":"check","session":S[,"method":"type1|type2"]}
//       -> {"robust":B,"cached":B,"num_edges":..,"witness"?:..}
//   {"cmd":"subsets","session":S[,"method":...]}
//       -> {"num_robust_subsets":N,"maximal":[[names]...]}
//   {"cmd":"counterexample","session":S[,"domain_size":D,"max_txns":T,
//    "max_schedules":M]}
//       -> {"found":B,"description"?:..,"schedules_checked":..}
//   {"cmd":"stats","session":S}        -> per-session counters (including
//       "settings" and "isolation")
//   {"cmd":"stats"}                    -> {"sessions":[names]}
//   {"cmd":"metrics"[,"session":S]}    -> process-wide observability snapshot
//       {"counters":{..},"gauges":{..},"histograms":{name:{"count","sum",
//       "min","max","mean","p50","p95","p99"}},"trace":{"enabled","recorded",
//       "dropped"}}, plus "session_stats" for S when given. Metric inventory:
//       docs/OBSERVABILITY.md.
//   {"cmd":"drop_session","session":S} -> {"dropped":B}   (also deletes the
//       session's snapshot file when a state dir is configured)
//   {"cmd":"snapshot"[,"session":S]}   -> flushes S (or every session) to
//       the state dir: {"snapshotted":[names],"skipped":[names],
//       "failed":[names]}. skipped = sessions holding programs without
//       recorded sources (not snapshottable, still served from memory).
//       Errors with retryable:false when the daemon has no state dir.
//   {"cmd":"restore"}                  -> re-scans the state dir and
//       restores every valid snapshot whose session is not already live:
//       {"restored":[names],"quarantined":[paths]} (corrupt or
//       non-replayable files are renamed *.corrupt, never fatal). See
//       docs/DURABILITY.md for the recovery semantics.
//
// Every response additionally carries "elapsed_us": the server-side handling
// time of that request in whole microseconds. When a state dir is
// configured, successful mutation responses also carry "durable": whether
// the post-mutation snapshot flush committed (false adds "persist_error";
// the session stays fully served from memory either way).
//
// Mutations answer from the incrementally maintained session state; see
// workload_session.h for what each mutation recomputes.

#ifndef MVRC_SERVICE_PROTOCOL_H_
#define MVRC_SERVICE_PROTOCOL_H_

#include <string>

#include "service/admission.h"
#include "service/session_manager.h"
#include "util/json.h"

namespace mvrc {

class SnapshotStore;

/// Server-side protocol defaults (mvrcd's flags feed these).
struct ProtocolOptions {
  /// Isolation level of sessions created by requests that specify none.
  IsolationLevel default_isolation = IsolationLevel::kMvrc;
  /// Session snapshot store (borrowed; may be null = no durability). When
  /// set, mutations auto-flush their session and `snapshot`/`restore`
  /// commands are served.
  SnapshotStore* store = nullptr;
  /// In-flight request gate (borrowed; may be null = unbounded). Requests
  /// beyond its capacity are shed with a retryable overload error.
  AdmissionController* admission = nullptr;
};

/// Executes one parsed request. Never aborts on bad input: every failure
/// (including unknown commands, missing arguments, unknown settings or
/// isolation strings, and isolation mismatches against an existing session)
/// is an {"ok":false,"error":...} response.
Json HandleRequest(SessionManager& manager, const Json& request,
                   const ProtocolOptions& options = {});

/// Parses one NDJSON request line, dispatches it, and renders the response
/// as a single line (no trailing newline).
std::string HandleRequestLine(SessionManager& manager, const std::string& line,
                              const ProtocolOptions& options = {});

}  // namespace mvrc

#endif  // MVRC_SERVICE_PROTOCOL_H_
