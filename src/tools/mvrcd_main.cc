// mvrcd: the incremental analysis daemon. Speaks newline-delimited JSON —
// one request line in, one response line out — over either transport:
//
//   * stdio (default, or explicit --stdio): requests on stdin, responses on
//     stdout; suitable for driving from an editor plugin or a CI bot.
//   * TCP (--listen=HOST:PORT): a non-blocking epoll front end (src/net/)
//     serving many concurrent connections, each with its own pipelined
//     request stream. See docs/NETWORKING.md for the connection lifecycle,
//     timeout/backpressure semantics, and drain behavior.
//
// Both transports share one RequestDispatcher, so a request line produces a
// byte-identical response either way. See src/service/protocol.h for the
// command reference.
//
// Usage:
//   mvrcd [--stdio | --listen=HOST:PORT]
//         [--isolation=mvrc|rc] [--trace=FILE]
//         [--metrics-json=FILE] [--state-dir=DIR] [--max-line-bytes=N]
//         [--max-inflight=N] [--fault=SPEC]
//         [--max-conns=N] [--idle-timeout=MS] [--write-timeout=MS]
//         [--drain-timeout=MS]
//
// Options:
//   --stdio              serve NDJSON on stdin/stdout (the default)
//   --listen=HOST:PORT   serve NDJSON over TCP on HOST:PORT (IPv4 dotted
//                        quad; ":PORT" binds 127.0.0.1, port 0 picks an
//                        ephemeral port). The actually bound address is
//                        printed to stderr as "mvrcd: listening on H:P".
//   --isolation=mvrc|rc  isolation level for sessions whose load request
//                        does not name one (default mvrc); individual
//                        requests may still override with "isolation" or a
//                        settings string like "attr+fk+rc"
//   --trace=FILE         record phase spans for the whole run and dump them
//                        as Chrome trace_event JSON at end of input (open in
//                        chrome://tracing or https://ui.perfetto.dev)
//   --metrics-json=FILE  dump the final metrics snapshot (the `metrics`
//                        command's counters/gauges/histograms) as JSON at
//                        end of input
//   --state-dir=DIR      durable sessions: restore every valid snapshot in
//                        DIR at startup (corrupt files are quarantined to
//                        *.corrupt, never fatal), auto-snapshot sessions
//                        after each mutation, and flush all sessions on
//                        clean shutdown. See docs/DURABILITY.md.
//   --max-line-bytes=N   bound on one request line (default 1048576). An
//                        overlong line is consumed to its newline and
//                        answered with one structured non-retryable error,
//                        keeping the response stream in sync — identically
//                        on both transports.
//   --max-inflight=N     admission bound on concurrently handled requests
//                        (default unbounded). Shed requests get a retryable
//                        error.
//   --max-conns=N        TCP only: cap on live connections (default 1024;
//                        0 = unbounded). Accepts beyond the cap get one
//                        retryable shed error line, then the close.
//   --idle-timeout=MS    TCP only: close a connection after MS with no
//                        client bytes and nothing pending (default 60000;
//                        0 disables)
//   --write-timeout=MS   TCP only: close a connection whose peer stops
//                        draining responses — MS with queued output and zero
//                        flush progress (default 10000; 0 disables)
//   --drain-timeout=MS   TCP only: bound on the graceful drain after
//                        SIGTERM/SIGINT (default 5000; 0 = close immediately
//                        without answering in-flight requests)
//   --fault=SPEC         arm deterministic fault points, e.g.
//                        "fs.write_fail@2" or "net.read_reset@3*2"; for
//                        crash-recovery and network chaos tests
//                        (util/fault_injection.h)
//
// Blank input lines are ignored. The process exits 0 at end of input (stdio)
// or on SIGTERM/SIGINT (both transports). Shutdown is graceful either way:
// over TCP the daemon stops accepting, answers every fully received request
// (bounded by --drain-timeout), then flushes session snapshots (with
// --state-dir), the trace, and the metrics dump before exiting 0.
//
// Example session (printf emits one request per line; requests elided):
//   $ printf '%s\n' '{"cmd":"load_sql",...}' '{"cmd":"check",...}' | mvrcd
//   {"cmd":"load_sql","ok":true,"session":"s","programs":[...],"num_programs":5}
//   {"cmd":"check","ok":true,"session":"s","robust":true,...}

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/session_snapshot.h"
#include "persist/snapshot_store.h"
#include "service/admission.h"
#include "service/dispatcher.h"
#include "service/line_reader.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "util/fault_injection.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

// Installed WITHOUT SA_RESTART so a signal interrupts the blocking read()
// (stdio) or epoll_wait (TCP) with EINTR and the serving loop can wind down
// and flush state.
void InstallSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

int Usage() {
  std::fprintf(stderr,
               "usage: mvrcd [--stdio | --listen=HOST:PORT] "
               "[--isolation=mvrc|rc] [--trace=FILE] [--metrics-json=FILE] "
               "[--state-dir=DIR] [--max-line-bytes=N] [--max-inflight=N] "
               "[--max-conns=N] [--idle-timeout=MS] [--write-timeout=MS] "
               "[--drain-timeout=MS] [--fault=SPEC]\n");
  return 2;
}

bool ParseNonNegative(const std::string& arg, const char* prefix, long max, long* out) {
  const char* value = arg.c_str() + std::strlen(prefix);
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0 || parsed > max) return false;
  *out = parsed;
  return true;
}

// HOST:PORT with HOST an IPv4 dotted quad; ":PORT" binds loopback.
bool ParseListenAddress(const std::string& spec, std::string* host, uint16_t* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  *host = colon == 0 ? "127.0.0.1" : spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  if (port_text.empty()) return false;
  char* end = nullptr;
  long parsed = std::strtol(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || parsed < 0 || parsed > 65535) return false;
  *port = static_cast<uint16_t>(parsed);
  return true;
}

void WriteResponseLine(const std::string& response) {
  std::fwrite(response.data(), 1, response.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// The stdio serving loop: blocking bounded reads on stdin, every framed line
// through the same RequestDispatcher the TCP front end uses.
void ServeStdio(mvrc::RequestDispatcher& dispatcher) {
  mvrc::BoundedLineReader reader(/*fd=*/0, dispatcher.max_line_bytes(), &g_stop);
  std::string line;
  bool running = true;
  while (running && g_stop == 0) {
    switch (reader.Next(&line)) {
      case mvrc::BoundedLineReader::Event::kLine: {
        std::optional<std::string> response = dispatcher.OnLine(line);
        if (response.has_value()) WriteResponseLine(*response);
        break;
      }
      case mvrc::BoundedLineReader::Event::kOverflow:
        WriteResponseLine(dispatcher.OverflowResponse());
        break;
      case mvrc::BoundedLineReader::Event::kEof:
      case mvrc::BoundedLineReader::Event::kInterrupted:
        running = false;
        break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  mvrc::ProtocolOptions options;
  std::string trace_path;
  std::string metrics_path;
  std::string state_dir;
  std::string fault_spec;
  std::string listen_spec;
  bool stdio_requested = false;
  long max_line_bytes = 1 << 20;
  long max_inflight = 0;  // 0 = unbounded
  long max_conns = 1024;
  long idle_timeout_ms = 60'000;
  long write_timeout_ms = 10'000;
  long drain_timeout_ms = 5'000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--stdio") {
      stdio_requested = true;
    } else if (arg.rfind("--listen=", 0) == 0) {
      listen_spec = arg.substr(std::strlen("--listen="));
      if (listen_spec.empty()) return Usage();
    } else if (arg.rfind("--isolation=", 0) == 0) {
      std::optional<mvrc::IsolationLevel> level =
          mvrc::ParseIsolationLevel(arg.substr(std::strlen("--isolation=")));
      if (!level.has_value()) return Usage();
      options.default_isolation = *level;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
      if (trace_path.empty()) return Usage();
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics-json="));
      if (metrics_path.empty()) return Usage();
    } else if (arg.rfind("--state-dir=", 0) == 0) {
      state_dir = arg.substr(std::strlen("--state-dir="));
      if (state_dir.empty()) return Usage();
    } else if (arg.rfind("--max-line-bytes=", 0) == 0) {
      if (!ParseNonNegative(arg, "--max-line-bytes=", 1L << 30, &max_line_bytes) ||
          max_line_bytes < 16) {
        return Usage();
      }
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      if (!ParseNonNegative(arg, "--max-inflight=", 1 << 20, &max_inflight)) return Usage();
    } else if (arg.rfind("--max-conns=", 0) == 0) {
      if (!ParseNonNegative(arg, "--max-conns=", 1 << 20, &max_conns)) return Usage();
    } else if (arg.rfind("--idle-timeout=", 0) == 0) {
      if (!ParseNonNegative(arg, "--idle-timeout=", 1L << 31, &idle_timeout_ms)) return Usage();
    } else if (arg.rfind("--write-timeout=", 0) == 0) {
      if (!ParseNonNegative(arg, "--write-timeout=", 1L << 31, &write_timeout_ms)) return Usage();
    } else if (arg.rfind("--drain-timeout=", 0) == 0) {
      if (!ParseNonNegative(arg, "--drain-timeout=", 1L << 31, &drain_timeout_ms)) return Usage();
    } else if (arg.rfind("--fault=", 0) == 0) {
      fault_spec = arg.substr(std::strlen("--fault="));
      if (fault_spec.empty()) return Usage();
    } else {
      return Usage();
    }
  }
  if (stdio_requested && !listen_spec.empty()) {
    std::fprintf(stderr, "mvrcd: --stdio and --listen are mutually exclusive\n");
    return 2;
  }
  std::string listen_host;
  uint16_t listen_port = 0;
  if (!listen_spec.empty() && !ParseListenAddress(listen_spec, &listen_host, &listen_port)) {
    std::fprintf(stderr, "mvrcd: bad --listen address '%s' (want HOST:PORT)\n",
                 listen_spec.c_str());
    return 2;
  }

  if (!fault_spec.empty()) {
    mvrc::Status armed = mvrc::FaultInjection::Global().ArmFromSpec(fault_spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "mvrcd: --fault: %s\n", armed.error().c_str());
      return 2;
    }
  }

  std::unique_ptr<mvrc::SnapshotStore> store;
  if (!state_dir.empty()) {
    store = std::make_unique<mvrc::SnapshotStore>(state_dir);
    mvrc::Status init = store->Init();
    if (!init.ok()) {
      std::fprintf(stderr, "mvrcd: --state-dir: %s\n", init.error().c_str());
      return 2;
    }
    options.store = store.get();
  }
  std::unique_ptr<mvrc::AdmissionController> admission;
  if (max_inflight > 0) {
    admission = std::make_unique<mvrc::AdmissionController>(static_cast<int>(max_inflight));
    options.admission = admission.get();
  }

  if (!trace_path.empty()) mvrc::TraceBuffer::Global().Start(size_t{1} << 16);
  InstallSignalHandlers();

  {
    // Scope the manager and the server so they wind down before the metrics
    // snapshot is written.
    mvrc::SessionManager manager;

    if (store != nullptr) {
      mvrc::RestoreReport report = mvrc::RestoreAllSessions(*store, manager);
      // Startup recovery goes to stderr, not the response stream: stdout
      // stays one-response-per-request.
      std::fprintf(stderr, "mvrcd: restored %zu session(s), quarantined %zu file(s) from %s\n",
                   report.restored.size(), report.quarantined.size(), store->dir().c_str());
      for (const std::string& path : report.quarantined) {
        std::fprintf(stderr, "mvrcd: quarantined %s\n", path.c_str());
      }
    }

    mvrc::RequestDispatcher dispatcher(manager, options,
                                       static_cast<size_t>(max_line_bytes));

    if (listen_spec.empty()) {
      ServeStdio(dispatcher);
    } else {
      mvrc::NetServer::Options server_options;
      server_options.host = listen_host;
      server_options.port = listen_port;
      server_options.max_conns = static_cast<size_t>(max_conns);
      server_options.limits.max_line_bytes = static_cast<size_t>(max_line_bytes);
      server_options.limits.idle_timeout_ms = idle_timeout_ms;
      server_options.limits.write_timeout_ms = write_timeout_ms;
      server_options.drain_timeout_ms = drain_timeout_ms;
      mvrc::NetServer server(dispatcher, server_options);
      mvrc::Status started = server.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "mvrcd: --listen: %s\n", started.error().c_str());
        return 2;
      }
      // Scripts discover an ephemeral port (--listen=:0) from this line.
      std::fprintf(stderr, "mvrcd: listening on %s:%u\n", listen_host.c_str(),
                   static_cast<unsigned>(server.port()));
      std::fflush(stderr);
      server.Run(&g_stop);
    }

    // Graceful shutdown — reached on end of input AND on SIGTERM/SIGINT:
    // flush every session so a restart with the same --state-dir resumes
    // where this process stopped.
    if (store != nullptr) {
      size_t flushed = 0;
      size_t skipped_count = 0;
      for (const std::string& name : manager.SessionNames()) {
        std::shared_ptr<mvrc::WorkloadSession> session = manager.Find(name);
        if (session == nullptr) continue;
        bool skipped = false;
        if (mvrc::TrySnapshotSession(*store, *session, &skipped).ok()) {
          ++flushed;
        } else if (skipped) {
          ++skipped_count;
        } else {
          std::fprintf(stderr, "mvrcd: final snapshot of %s failed\n", name.c_str());
        }
      }
      std::fprintf(stderr, "mvrcd: shutdown flush: %zu snapshotted, %zu skipped\n", flushed,
                   skipped_count);
    }
  }

  if (!trace_path.empty()) {
    mvrc::TraceBuffer::Global().Stop();
    if (!mvrc::TraceBuffer::Global().WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "mvrcd: cannot write trace to %s\n", trace_path.c_str());
      return 1;
    }
  }
  if (!metrics_path.empty()) {
    const std::string rendered = mvrc::MetricsRegistry::Global().ToJson().Dump();
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "mvrcd: cannot write metrics to %s\n", metrics_path.c_str());
      return 1;
    }
    std::fputs(rendered.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return 0;
}
