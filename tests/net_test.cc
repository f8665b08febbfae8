// The TCP front end must be observably the stdio daemon, many times over:
// every request line gets exactly one response line, in order, per
// connection, byte-identical to what the stdin loop would have produced —
// under pipelining, blank lines, oversized lines, backpressure, half-close,
// injected network faults, connection caps, and graceful drain. Plus unit
// coverage for the timer wheel the timeouts ride on.
//
// Test shape: the server runs on the test thread (Poll() steps the reactor),
// clients are plain blocking-connect/non-blocking-read sockets pumped in
// lockstep with the server. Single-threaded, so every interleaving is
// deterministic.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/server.h"
#include "net/timer_wheel.h"
#include "obs/metrics.h"
#include "service/dispatcher.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "util/fault_injection.h"

namespace mvrc {
namespace {

// ---------------------------------------------------------------------------
// TimerWheel units
// ---------------------------------------------------------------------------

TEST(TimerWheelTest, FiresAtTheRightTickAndInOrder) {
  TimerWheel wheel(/*tick_ms=*/10, /*num_slots=*/8);
  std::vector<int> fired;
  wheel.Schedule(0, 30, [&] { fired.push_back(30); });
  wheel.Schedule(0, 10, [&] { fired.push_back(10); });
  wheel.Schedule(0, 20, [&] { fired.push_back(20); });

  wheel.Advance(9);
  EXPECT_TRUE(fired.empty());
  wheel.Advance(10);
  EXPECT_EQ(fired, std::vector<int>({10}));
  wheel.Advance(35);
  EXPECT_EQ(fired, std::vector<int>({10, 20, 30}));
}

TEST(TimerWheelTest, DelaysLongerThanTheWheelSpanUseRounds) {
  // 8 slots * 10ms = 80ms span; 250ms needs multiple laps.
  TimerWheel wheel(10, 8);
  int fired = 0;
  wheel.Schedule(0, 250, [&] { ++fired; });
  wheel.Advance(240);
  EXPECT_EQ(fired, 0);
  wheel.Advance(260);
  EXPECT_EQ(fired, 1);
  wheel.Advance(1000);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, CancelPreventsFiringAndIsIdempotent) {
  TimerWheel wheel(10, 8);
  int fired = 0;
  TimerWheel::TimerId id = wheel.Schedule(0, 20, [&] { ++fired; });
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));
  wheel.Advance(100);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(wheel.Cancel(TimerWheel::kInvalidTimer));
}

TEST(TimerWheelTest, ZeroDelayFiresOnTheNextTickNotImmediately) {
  TimerWheel wheel(10, 8);
  int fired = 0;
  wheel.Schedule(5, 0, [&] { ++fired; });
  wheel.Advance(5);
  EXPECT_EQ(fired, 0);
  wheel.Advance(20);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, MsUntilNextTickBoundsTheNextDueTimer) {
  TimerWheel wheel(10, 8);
  EXPECT_EQ(wheel.MsUntilNextTick(0), -1);  // empty: no bound needed
  wheel.Schedule(0, 50, [] {});
  const int64_t wait = wheel.MsUntilNextTick(0);
  ASSERT_GE(wait, 0);
  EXPECT_LE(wait, 50);
}

TEST(TimerWheelTest, CallbackMayCancelAnotherTimerDueInTheSameAdvance) {
  // The "first timer closes the connection owning the second" hazard: the
  // wheel collects due callbacks before firing any, and a Cancel of an
  // already-collected timer must not crash (the callback runs; the owner is
  // responsible for making it a no-op, as Connection does via closed_).
  TimerWheel wheel(10, 8);
  int second_fired = 0;
  TimerWheel::TimerId second = TimerWheel::kInvalidTimer;
  wheel.Schedule(0, 10, [&] { wheel.Cancel(second); });
  second = wheel.Schedule(0, 10, [&] { ++second_fired; });
  wheel.Advance(20);
  EXPECT_LE(second_fired, 1);
}

// ---------------------------------------------------------------------------
// End-to-end server harness
// ---------------------------------------------------------------------------

constexpr const char* kWalletSql =
    "TABLE Wallet(id, balance, PRIMARY KEY(id));\\n"
    "PROGRAM Deposit(:a, :v):\\n"
    "  UPDATE Wallet SET balance = balance + :v WHERE id = :a;\\n"
    "COMMIT;\\n";

std::string LoadRequest(const std::string& session) {
  return "{\"cmd\":\"load_sql\",\"session\":\"" + session + "\",\"sql\":\"" +
         kWalletSql + "\"}";
}

std::string CheckRequest(const std::string& session) {
  return "{\"cmd\":\"check\",\"session\":\"" + session + "\",\"method\":\"type2\"}";
}

int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().counter(name)->Value();
}

/// A NetServer over a fresh SessionManager, stepped manually on this thread.
class TestServer {
 public:
  explicit TestServer(const NetServer::Options& options,
                      size_t max_line_bytes = size_t{1} << 20)
      : manager_(1),
        dispatcher_(manager_, ProtocolOptions(), max_line_bytes),
        server_(dispatcher_, options) {
    Status started = server_.Start();
    EXPECT_TRUE(started.ok()) << started.error();
  }

  uint16_t port() const { return server_.port(); }
  NetServer& server() { return server_; }
  RequestDispatcher& dispatcher() { return dispatcher_; }

  void Poll(int max_wait_ms = 5) { server_.Poll(max_wait_ms); }

  /// Steps the reactor until `pred` holds or `timeout_ms` elapses.
  bool PumpUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      server_.Poll(5);
    }
    return true;
  }

 private:
  SessionManager manager_;
  RequestDispatcher dispatcher_;
  NetServer server_;
};

/// Blocking-connect, non-blocking-read client pumped in lockstep with the
/// server on the same thread.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    return true;
  }

  /// Sends all of `data`, pumping the server whenever the socket buffer is
  /// full (the server must drain its side for a huge pipeline to fit).
  bool SendAll(const std::string& data, TestServer* server = nullptr) {
    size_t sent = 0;
    int stalls = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (server == nullptr || ++stalls > 100000) return false;
        server->Poll(5);
        Drain();  // make room by consuming responses
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  /// Reads the next response line, pumping the server while waiting.
  bool ReadLine(TestServer& server, std::string* line, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      if (eof_) return false;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      server.Poll(5);
      Drain();
    }
  }

  /// True once the server closed the connection (and no buffered line
  /// remains unread — call ReadLine first when responses are expected).
  bool WaitForEof(TestServer& server, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!eof_) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      server.Poll(5);
      Drain();
    }
    return true;
  }

  /// Shuts down the write side (half-close) while still reading responses.
  void FinishSending() { ::shutdown(fd_, SHUT_WR); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  const std::string& buffered() const { return buffer_; }

 private:
  void Drain() {
    char chunk[16 * 1024];
    while (fd_ >= 0) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) eof_ = true;
      break;  // EAGAIN, EOF, or error (ECONNRESET counts as EOF here)
    }
    if (errno == ECONNRESET) eof_ = true;
  }

  int fd_ = -1;
  std::string buffer_;
  bool eof_ = false;
};

NetServer::Options FastOptions() {
  NetServer::Options options;
  options.port = 0;  // ephemeral
  options.limits.idle_timeout_ms = 0;
  options.limits.write_timeout_ms = 0;
  options.drain_timeout_ms = 2000;
  return options;
}

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Global().Reset(); }
  void TearDown() override { FaultInjection::Global().Reset(); }
};

TEST_F(NetServerTest, RoundTripLoadAndCheck) {
  TestServer server(FastOptions());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendAll(LoadRequest("s") + "\n" + CheckRequest("s") + "\n"));

  std::string response;
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("\"cmd\":\"load_sql\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("\"cmd\":\"check\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"robust\""), std::string::npos) << response;
}

TEST_F(NetServerTest, PipelinedRequestsAnswerInOrder) {
  TestServer server(FastOptions());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  std::string pipeline;
  for (int i = 0; i < 20; ++i) pipeline += LoadRequest("s" + std::to_string(i)) + "\n";
  ASSERT_TRUE(client.SendAll(pipeline, &server));

  for (int i = 0; i < 20; ++i) {
    std::string response;
    ASSERT_TRUE(client.ReadLine(server, &response)) << "response " << i;
    EXPECT_NE(response.find("\"session\":\"s" + std::to_string(i) + "\""),
              std::string::npos)
        << "out of order at " << i << ": " << response;
  }
}

TEST_F(NetServerTest, BlankLinesIgnoredAndOverflowKeepsStreamInSync) {
  NetServer::Options options = FastOptions();
  options.limits.max_line_bytes = 64;
  TestServer server(options, /*max_line_bytes=*/64);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  const std::string oversized(200, 'x');
  ASSERT_TRUE(client.SendAll("\n" + oversized + "\n{\"cmd\":\"nope\"}\n", &server));

  std::string response;
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("exceeds 64 bytes"), std::string::npos) << response;
  EXPECT_NE(response.find("\"retryable\":false"), std::string::npos) << response;
  // The stream stayed in sync: the next response answers the next request.
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("unknown cmd"), std::string::npos) << response;
}

TEST_F(NetServerTest, HalfCloseStillAnswersIncludingFinalUnterminatedLine) {
  TestServer server(FastOptions());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Final request has no trailing newline — EOF terminates it, like stdio.
  ASSERT_TRUE(client.SendAll(LoadRequest("s") + "\n" + CheckRequest("s")));
  client.FinishSending();

  std::string response;
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("\"cmd\":\"load_sql\""), std::string::npos);
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("\"cmd\":\"check\""), std::string::npos);
  EXPECT_TRUE(client.WaitForEof(server));
}

TEST_F(NetServerTest, MaxConnsShedsWithRetryableErrorLine) {
  NetServer::Options options = FastOptions();
  options.max_conns = 1;
  TestServer server(options);
  const int64_t shed_before = CounterValue("net.conns_shed");

  TestClient first;
  ASSERT_TRUE(first.Connect(server.port()));
  ASSERT_TRUE(server.PumpUntil([&] { return server.server().live_connections() == 1; }));

  TestClient second;
  ASSERT_TRUE(second.Connect(server.port()));
  std::string response;
  ASSERT_TRUE(second.ReadLine(server, &response));
  EXPECT_NE(response.find("connection capacity"), std::string::npos) << response;
  EXPECT_NE(response.find("\"retryable\":true"), std::string::npos) << response;
  EXPECT_TRUE(second.WaitForEof(server));
  EXPECT_EQ(CounterValue("net.conns_shed"), shed_before + 1);

  // The first connection still works, and closing it frees the slot.
  ASSERT_TRUE(first.SendAll(LoadRequest("s") + "\n"));
  ASSERT_TRUE(first.ReadLine(server, &response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  first.Close();
  ASSERT_TRUE(server.PumpUntil([&] { return server.server().live_connections() == 0; }));

  TestClient third;
  ASSERT_TRUE(third.Connect(server.port()));
  ASSERT_TRUE(third.SendAll(CheckRequest("missing") + "\n"));
  ASSERT_TRUE(third.ReadLine(server, &response));
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
}

TEST_F(NetServerTest, IdleTimeoutClosesQuietConnections) {
  NetServer::Options options = FastOptions();
  options.limits.idle_timeout_ms = 50;
  TestServer server(options);
  const int64_t timeouts_before = CounterValue("net.idle_timeouts");

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  EXPECT_TRUE(client.WaitForEof(server));
  EXPECT_EQ(CounterValue("net.idle_timeouts"), timeouts_before + 1);
}

TEST_F(NetServerTest, ActivityResetsTheIdleTimeout) {
  NetServer::Options options = FastOptions();
  options.limits.idle_timeout_ms = 200;
  TestServer server(options);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Keep sending blank lines (ignored, but they are activity) well past the
  // idle deadline; the connection must survive.
  const auto end = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < end) {
    ASSERT_TRUE(client.SendAll("\n"));
    server.Poll(20);
  }
  std::string response;
  ASSERT_TRUE(client.SendAll(CheckRequest("none") + "\n"));
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
}

TEST_F(NetServerTest, WriteTimeoutKillsAPeerThatNeverDrains) {
  NetServer::Options options = FastOptions();
  options.limits.write_timeout_ms = 50;
  TestServer server(options);
  const int64_t timeouts_before = CounterValue("net.write_timeouts");

  // Every flush attempt reports EAGAIN: the response is queued, never sent,
  // and the progress-based write timeout must fire.
  FaultInjection::Global().Arm("net.write_stall", 1, 1'000'000);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendAll(CheckRequest("none") + "\n"));
  EXPECT_TRUE(client.WaitForEof(server));
  EXPECT_EQ(CounterValue("net.write_timeouts"), timeouts_before + 1);
}

TEST_F(NetServerTest, InjectedReadResetClosesTheConnection) {
  TestServer server(FastOptions());
  const int64_t errors_before = CounterValue("net.read_errors");

  FaultInjection::Global().Arm("net.read_reset", 1);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendAll(CheckRequest("none") + "\n"));
  EXPECT_TRUE(client.WaitForEof(server));
  EXPECT_EQ(CounterValue("net.read_errors"), errors_before + 1);
  EXPECT_EQ(server.server().live_connections(), 0u);
}

TEST_F(NetServerTest, InjectedAcceptFailDropsOneConnectionNotTheListener) {
  TestServer server(FastOptions());
  FaultInjection::Global().Arm("net.accept_fail", 1);

  TestClient dropped;
  ASSERT_TRUE(dropped.Connect(server.port()));
  EXPECT_TRUE(dropped.WaitForEof(server));

  TestClient next;
  ASSERT_TRUE(next.Connect(server.port()));
  ASSERT_TRUE(next.SendAll(CheckRequest("none") + "\n"));
  std::string response;
  ASSERT_TRUE(next.ReadLine(server, &response));
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
}

TEST_F(NetServerTest, InjectedShortWritesStillDeliverFullResponses) {
  TestServer server(FastOptions());
  // Every send is capped to one byte for a while: responses must still
  // arrive complete and in order.
  FaultInjection::Global().Arm("net.write_short", 1, 1'000'000);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendAll(LoadRequest("s") + "\n" + CheckRequest("s") + "\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("\"cmd\":\"load_sql\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("\"cmd\":\"check\""), std::string::npos) << response;
}

TEST_F(NetServerTest, BackpressurePausesReadingAndRecovers) {
  NetServer::Options options = FastOptions();
  // Tiny write buffer cap: a pipelining client that reads nothing trips
  // backpressure almost immediately.
  options.limits.max_write_buffer_bytes = 512;
  TestServer server(options);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  std::string pipeline;
  const int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    pipeline += CheckRequest("missing" + std::to_string(i)) + "\n";
  }
  // Send without reading responses; the server must survive (pausing reads,
  // never buffering unboundedly) and answer everything once we drain.
  ASSERT_TRUE(client.SendAll(pipeline, &server));
  for (int i = 0; i < kRequests; ++i) {
    std::string response;
    ASSERT_TRUE(client.ReadLine(server, &response)) << "response " << i;
    EXPECT_NE(response.find("missing" + std::to_string(i)), std::string::npos)
        << "out of order at " << i;
  }
}

TEST_F(NetServerTest, DrainAnswersBufferedRequestsThenCloses) {
  TestServer server(FastOptions());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Queue a response the server cannot flush yet (the first two flush
  // attempts stall), then drain: the drain must wait for the flush, so the
  // client still receives its answer before the close.
  FaultInjection::Global().Arm("net.write_stall", 1, 2);
  ASSERT_TRUE(client.SendAll(CheckRequest("none") + "\n"));
  ASSERT_TRUE(server.PumpUntil(
      [&] { return FaultInjection::Global().hits("net.write_stall") >= 1; }));

  volatile std::sig_atomic_t stop = 1;
  server.server().Run(&stop);  // stop already set: serve nothing, drain

  std::string response;
  ASSERT_TRUE(client.ReadLine(server, &response));
  EXPECT_NE(response.find("\"cmd\":\"check\""), std::string::npos) << response;
  EXPECT_TRUE(client.WaitForEof(server));
  EXPECT_EQ(server.server().live_connections(), 0u);
}

TEST_F(NetServerTest, DrainDeadlineForceClosesStuckConnections) {
  NetServer::Options options = FastOptions();
  options.drain_timeout_ms = 100;
  TestServer server(options);
  const int64_t forced_before = CounterValue("net.drain_forced_closes");

  // The peer never drains and every flush stalls: drain cannot complete.
  FaultInjection::Global().Arm("net.write_stall", 1, 1'000'000);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendAll(CheckRequest("none") + "\n"));
  ASSERT_TRUE(server.PumpUntil(
      [&] { return FaultInjection::Global().hits("net.write_stall") >= 1; }));

  volatile std::sig_atomic_t stop = 1;
  const auto begin = std::chrono::steady_clock::now();
  server.server().Run(&stop);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 2000);
  EXPECT_EQ(server.server().live_connections(), 0u);
  EXPECT_EQ(CounterValue("net.drain_forced_closes"), forced_before + 1);
  EXPECT_TRUE(client.WaitForEof(server));
}

// ---------------------------------------------------------------------------
// Cross-transport parity
// ---------------------------------------------------------------------------

std::string NormalizeTimings(const std::string& response) {
  static const std::regex elapsed("\"elapsed_us\":[0-9]+");
  return std::regex_replace(response, elapsed, "\"elapsed_us\":0");
}

TEST_F(NetServerTest, TcpResponsesAreByteIdenticalToStdioDispatch) {
  const std::vector<std::string> requests = {
      LoadRequest("s"),
      CheckRequest("s"),
      "{\"cmd\":\"check\",\"session\":\"s\",\"method\":\"type1\"}",
      "{\"cmd\":\"subsets\",\"session\":\"s\"}",
      "{\"cmd\":\"stats\",\"session\":\"s\"}",
      "{\"cmd\":\"remove_program\",\"session\":\"s\",\"name\":\"Deposit\"}",
      "{\"cmd\":\"check\",\"session\":\"s\",\"method\":\"type2\"}",
      "not json at all",
      "{\"cmd\":\"what\"}",
      "{\"cmd\":\"check\",\"session\":\"absent\"}",
  };

  // Reference: the same dispatch path the stdio loop uses, fresh manager.
  std::vector<std::string> reference;
  {
    SessionManager manager;
    RequestDispatcher dispatcher(manager, ProtocolOptions(), size_t{1} << 20);
    for (const std::string& request : requests) {
      std::optional<std::string> response = dispatcher.OnLine(request);
      ASSERT_TRUE(response.has_value());
      reference.push_back(NormalizeTimings(*response));
    }
  }

  TestServer server(FastOptions());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  std::string pipeline;
  for (const std::string& request : requests) pipeline += request + "\n";
  ASSERT_TRUE(client.SendAll(pipeline, &server));
  for (size_t i = 0; i < requests.size(); ++i) {
    std::string response;
    ASSERT_TRUE(client.ReadLine(server, &response)) << "response " << i;
    EXPECT_EQ(NormalizeTimings(response), reference[i]) << "request: " << requests[i];
  }
}

TEST_F(NetServerTest, ManyConcurrentClientsAllGetTheirOwnAnswers) {
  TestServer server(FastOptions());
  constexpr int kClients = 32;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<TestClient>());
    ASSERT_TRUE(clients.back()->Connect(server.port())) << "client " << i;
  }
  ASSERT_TRUE(server.PumpUntil([&] {
    return server.server().live_connections() == static_cast<size_t>(kClients);
  }));
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(clients[i]->SendAll(LoadRequest("c" + std::to_string(i)) + "\n"));
  }
  for (int i = 0; i < kClients; ++i) {
    std::string response;
    ASSERT_TRUE(clients[i]->ReadLine(server, &response)) << "client " << i;
    EXPECT_NE(response.find("\"session\":\"c" + std::to_string(i) + "\""),
              std::string::npos)
        << "client " << i << " got: " << response;
  }
}

}  // namespace
}  // namespace mvrc
