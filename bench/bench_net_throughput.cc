// Benchmark + correctness gate for the TCP front end (src/net/): an
// in-process NetServer is driven by N pipelined clients (default 64), each
// running its own session workload — one load_sql, then rounds of
// check(type2)/check(type1)/stats — with every request pipelined onto its
// connection. The gate is *verdict parity at scale*: each client's response
// stream must be byte-identical (modulo elapsed_us timing) to a single-
// client reference replay of the same request sequence through the shared
// RequestDispatcher — i.e. the stdio code path. Any divergence exits 1.
//
// Everything runs on one thread (the reactor is single-threaded by design;
// clients are non-blocking sockets pumped in lockstep), so the numbers
// measure protocol + framing + event-loop overhead deterministically rather
// than scheduler noise. Reported: sustained requests/sec across all clients,
// and request-latency quantiles from the protocol.request_us histogram.
//
// Flags:
//   --clients=N     concurrent pipelined connections (default 64)
//   --rounds=R      check/check/stats rounds per client (default 8)
//   --json-out=PATH JSON record (default BENCH_net_throughput.json; "-"
//                   disables)

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "bench_json.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/dispatcher.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace mvrc {
namespace {

constexpr const char* kWalletSql =
    "TABLE Wallet(id, balance, PRIMARY KEY(id));\\n"
    "PROGRAM Deposit(:a, :v):\\n"
    "  UPDATE Wallet SET balance = balance + :v WHERE id = :a;\\n"
    "COMMIT;\\n"
    "PROGRAM Audit(:a):\\n"
    "  SELECT balance INTO :b FROM Wallet WHERE id = :a;\\n"
    "COMMIT;\\n";

std::vector<std::string> ClientRequests(int client, int rounds) {
  const std::string session = "c" + std::to_string(client);
  std::vector<std::string> requests;
  requests.push_back("{\"cmd\":\"load_sql\",\"session\":\"" + session +
                     "\",\"sql\":\"" + kWalletSql + "\"}");
  for (int round = 0; round < rounds; ++round) {
    requests.push_back("{\"cmd\":\"check\",\"session\":\"" + session +
                       "\",\"method\":\"type2\"}");
    requests.push_back("{\"cmd\":\"check\",\"session\":\"" + session +
                       "\",\"method\":\"type1\"}");
    requests.push_back("{\"cmd\":\"stats\",\"session\":\"" + session + "\"}");
  }
  return requests;
}

std::string NormalizeTimings(const std::string& response) {
  static const std::regex elapsed("\"elapsed_us\":[0-9]+");
  return std::regex_replace(response, elapsed, "\"elapsed_us\":0");
}

// One pipelined non-blocking client connection.
struct BenchClient {
  int fd = -1;
  std::string outbox;        // all requests, newline-framed, sent as one stream
  size_t sent = 0;
  std::string inbox;         // raw bytes received
  std::vector<std::string> responses;
  size_t expected = 0;
  bool eof = false;

  bool done() const { return responses.size() >= expected; }

  bool Connect(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
      return false;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return true;
  }

  void PumpSend() {
    while (sent < outbox.size()) {
      const ssize_t n = ::send(fd, outbox.data() + sent, outbox.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;  // EAGAIN: the socket buffer is full, retry later
      sent += static_cast<size_t>(n);
    }
  }

  void PumpRecv() {
    char chunk[32 * 1024];
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        inbox.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) eof = true;
      break;
    }
    size_t start = 0;
    while (true) {
      const size_t newline = inbox.find('\n', start);
      if (newline == std::string::npos) break;
      responses.push_back(inbox.substr(start, newline - start));
      start = newline + 1;
    }
    inbox.erase(0, start);
  }

  ~BenchClient() {
    if (fd >= 0) ::close(fd);
  }
};

struct Options {
  int clients = 64;
  int rounds = 8;
  std::string json_out = "BENCH_net_throughput.json";
};

int RunBench(const Options& options) {
  SessionManager manager;
  RequestDispatcher dispatcher(manager, ProtocolOptions(), size_t{1} << 20);
  NetServer::Options server_options;
  server_options.port = 0;
  server_options.max_conns = static_cast<size_t>(options.clients) + 8;
  server_options.limits.idle_timeout_ms = 0;
  server_options.limits.write_timeout_ms = 0;
  NetServer server(dispatcher, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::printf("FAIL: %s\n", started.error().c_str());
    return 1;
  }

  std::vector<std::unique_ptr<BenchClient>> clients;
  size_t total_requests = 0;
  for (int i = 0; i < options.clients; ++i) {
    auto client = std::make_unique<BenchClient>();
    if (!client->Connect(server.port())) {
      std::printf("FAIL: client %d cannot connect\n", i);
      return 1;
    }
    const std::vector<std::string> requests = ClientRequests(i, options.rounds);
    client->expected = requests.size();
    total_requests += requests.size();
    for (const std::string& request : requests) client->outbox += request + "\n";
    clients.push_back(std::move(client));
    server.Poll(0);  // accept as we go so the backlog never overflows
  }

  Stopwatch stopwatch;
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (auto& client : clients) {
      client->PumpSend();
      client->PumpRecv();
      if (!client->done()) {
        all_done = false;
        if (client->eof) {
          std::printf("FAIL: connection closed after %zu/%zu responses\n",
                      client->responses.size(), client->expected);
          return 1;
        }
      }
    }
    if (!all_done) server.Poll(1);
  }
  const double elapsed_ms = stopwatch.ElapsedMillis();

  // Verdict parity: replay every client's request sequence through a fresh
  // dispatcher — the single-client stdio reference — and demand byte
  // equality modulo timing.
  size_t divergences = 0;
  {
    SessionManager reference_manager(1);
    RequestDispatcher reference(reference_manager, ProtocolOptions(), size_t{1} << 20);
    for (int i = 0; i < options.clients; ++i) {
      const std::vector<std::string> requests = ClientRequests(i, options.rounds);
      for (size_t r = 0; r < requests.size(); ++r) {
        std::optional<std::string> expected = reference.OnLine(requests[r]);
        if (!expected.has_value()) continue;
        const std::string& got = clients[static_cast<size_t>(i)]->responses[r];
        if (NormalizeTimings(got) != NormalizeTimings(*expected)) {
          if (++divergences <= 3) {
            std::printf("DIVERGENCE client %d request %zu:\n  tcp: %s\n  ref: %s\n", i,
                        r, got.c_str(), expected->c_str());
          }
        }
      }
    }
  }

  const Histogram::Snapshot latency =
      MetricsRegistry::Global().histogram("protocol.request_us")->Snap();
  const double qps = elapsed_ms > 0 ? 1000.0 * static_cast<double>(total_requests) /
                                          elapsed_ms
                                    : 0.0;
  std::printf(
      "clients=%d rounds=%d requests=%zu elapsed_ms=%.1f qps=%.0f p50_us=%lld "
      "p99_us=%lld divergences=%zu\n",
      options.clients, options.rounds, total_requests, elapsed_ms, qps,
      static_cast<long long>(latency.Percentile(50)),
      static_cast<long long>(latency.Percentile(99)), divergences);

  const bool ok = divergences == 0;
  Json doc = Json::Object();
  doc.Set("bench", Json::Str("net_throughput"));
  doc.Set("clients", Json::Int(options.clients));
  doc.Set("rounds", Json::Int(options.rounds));
  doc.Set("requests", Json::Int(static_cast<int64_t>(total_requests)));
  doc.Set("elapsed_ms", Json::Int(static_cast<int64_t>(elapsed_ms)));
  doc.Set("qps", Json::Int(static_cast<int64_t>(qps)));
  doc.Set("p50_request_us", Json::Int(latency.Percentile(50)));
  doc.Set("p99_request_us", Json::Int(latency.Percentile(99)));
  doc.Set("divergences", Json::Int(static_cast<int64_t>(divergences)));
  return bench::FinishBenchJson(std::move(doc), ok, options.json_out) ? 0 : 1;
}

}  // namespace
}  // namespace mvrc

int main(int argc, char** argv) {
  mvrc::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--clients=", 0) == 0) {
      options.clients = std::atoi(arg.c_str() + 10);
      if (options.clients < 1 || options.clients > 4096) {
        std::fprintf(stderr, "bad --clients\n");
        return 2;
      }
    } else if (arg.rfind("--rounds=", 0) == 0) {
      options.rounds = std::atoi(arg.c_str() + 9);
      if (options.rounds < 1 || options.rounds > 100000) {
        std::fprintf(stderr, "bad --rounds\n");
        return 2;
      }
    } else if (arg.rfind("--json-out=", 0) == 0) {
      options.json_out = arg.substr(11);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--clients=N] [--rounds=R] [--json-out=PATH|-]\n",
                   argv[0]);
      return 2;
    }
  }
  return mvrc::RunBench(options);
}
