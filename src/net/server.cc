#include "net/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace mvrc {

namespace {

struct ServerCounters {
  Gauge* conns;
  Counter* conns_shed;
  Counter* drain_forced_closes;
};

const ServerCounters& Counters() {
  static const ServerCounters counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    ServerCounters c;
    c.conns = registry.gauge("net.conns");
    c.conns_shed = registry.counter("net.conns_shed");
    c.drain_forced_closes = registry.counter("net.drain_forced_closes");
    return c;
  }();
  return counters;
}

// The shed error follows the protocol's retryable contract: the server is
// momentarily over capacity, the exact same connection attempt can succeed
// after backoff (PROTOCOL.md documents the client loop).
std::string ShedResponseLine() {
  Json response = Json::Object();
  response.Set("ok", Json::Bool(false));
  response.Set("error", Json::Str("server at connection capacity"));
  response.Set("retryable", Json::Bool(true));
  std::string line = response.Dump();
  line.push_back('\n');
  return line;
}

}  // namespace

NetServer::NetServer(RequestDispatcher& dispatcher, const Options& options)
    : dispatcher_(dispatcher), options_(options) {}

NetServer::~NetServer() {
  // Destruction order matters: connections deregister from the loop in their
  // destructors, so they must die before loop_ — and listener_ likewise.
  listener_.reset();
  connections_.clear();
  Counters().conns->Set(0);
}

Status NetServer::Start() {
  if (!loop_.ok()) return Status::Error(loop_.error());
  listener_ = std::make_unique<Listener>(loop_, [this](int fd) { OnAccept(fd); });
  Status listening = listener_->Listen(options_.host, options_.port);
  if (!listening.ok()) {
    listener_.reset();
    return listening;
  }
  return Status();
}

uint16_t NetServer::port() const {
  return listener_ != nullptr ? listener_->bound_port() : 0;
}

int NetServer::Run(const volatile std::sig_atomic_t* stop) {
  // 100ms cap: the stop flag is re-checked at least that often even when the
  // signal landed on another thread and did not interrupt epoll_wait.
  while (*stop == 0) loop_.RunOnce(100);
  Drain();
  return 0;
}

std::optional<std::string> NetServer::DispatchLine(const std::string& line) {
  return dispatcher_.OnLine(line);
}

std::string NetServer::OverflowResponseLine() { return dispatcher_.OverflowResponse(); }

void NetServer::OnConnectionClosed(Connection* connection) {
  Counters().conns->Add(-1);
  // The pointer may still sit in the current epoll batch or timer list;
  // destroying it is deferred past both (event_loop.h, "Lifetime hazard").
  loop_.Defer([this, connection] { connections_.erase(connection); });
}

void NetServer::OnAccept(int fd) {
  if (options_.max_conns > 0 && connections_.size() >= options_.max_conns) {
    Shed(fd);
    return;
  }
  auto connection = std::make_unique<Connection>(fd, *this, options_.limits);
  Connection* raw = connection.get();
  Status registered = raw->Register();
  if (!registered.ok()) return;  // destructor closes the fd
  connections_.emplace(raw, std::move(connection));
  Counters().conns->Set(static_cast<int64_t>(connections_.size()));
}

void NetServer::Shed(int fd) {
  TraceSpan span("net/shed");
  Counters().conns_shed->Add(1);
  // Best effort: one send into the socket buffer (a fresh connection's buffer
  // is empty, so this virtually always fits), then close. If it does not fit
  // the client just sees the close and retries.
  static const std::string kShedLine = ShedResponseLine();
  (void)::send(fd, kShedLine.data(), kShedLine.size(), MSG_NOSIGNAL);
  ::close(fd);
}

void NetServer::Drain() {
  TraceSpan span("net/drain");
  if (listener_ != nullptr) listener_->Close();
  if (options_.drain_timeout_ms <= 0) {
    std::vector<Connection*> live;
    live.reserve(connections_.size());
    for (const auto& entry : connections_) live.push_back(entry.first);
    for (Connection* connection : live) {
      if (!connection->closed()) connection->CloseNow("shutdown");
    }
    loop_.RunOnce(0);  // run the deferred destructions
    return;
  }

  // StartDrain may close a connection synchronously, which defers an erase
  // from connections_ — snapshot the pointers before touching any of them.
  std::vector<Connection*> live;
  live.reserve(connections_.size());
  for (const auto& entry : connections_) live.push_back(entry.first);
  for (Connection* connection : live) {
    if (!connection->closed()) connection->StartDrain();
  }
  loop_.RunOnce(0);

  const int64_t deadline = loop_.NowMs() + options_.drain_timeout_ms;
  while (!connections_.empty()) {
    const int64_t remaining = deadline - loop_.NowMs();
    if (remaining <= 0) break;
    loop_.RunOnce(static_cast<int>(std::min<int64_t>(remaining, 100)));
  }

  if (!connections_.empty()) {
    live.clear();
    for (const auto& entry : connections_) live.push_back(entry.first);
    for (Connection* connection : live) {
      if (connection->closed()) continue;
      Counters().drain_forced_closes->Add(1);
      connection->CloseNow("drain-timeout");
    }
    loop_.RunOnce(0);
  }
}

}  // namespace mvrc
