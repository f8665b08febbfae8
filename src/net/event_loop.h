// Single-threaded epoll event loop: the reactor under the TCP front end.
// Handlers (the listener, each connection) register a file descriptor with an
// interest mask; RunOnce dispatches one epoll_wait batch, runs deferred
// destructions, and advances the timer wheel.
//
// Threading model: everything — accept, framing, request dispatch, response
// flushing, timers — runs on the one thread calling RunOnce, and so does
// the analysis each request triggers. One reactor thread comfortably serves thousands of mostly-idle NDJSON connections, and
// a single dispatch thread is what makes cross-transport verdict parity
// trivially deterministic (responses per connection are in request order;
// sessions see a serial mutation stream).
//
// Lifetime hazard handled here: a handler must not be destroyed while the
// dispatch loop may still hold its pointer in the current epoll_wait batch
// (a connection closing itself, or one handler closing another). Defer()
// queues the destruction; RunOnce runs the queue only after the batch is
// fully dispatched.

#ifndef MVRC_NET_EVENT_LOOP_H_
#define MVRC_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "net/timer_wheel.h"
#include "util/result.h"

namespace mvrc {

/// epoll reactor plus timer wheel; owns neither fds nor handlers.
class EventLoop {
 public:
  /// An fd's event callback. Implementations may Remove/close their own fd
  /// and Defer their own destruction from inside OnEvent.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// `events` is the epoll event bitmask (EPOLLIN/EPOLLOUT/EPOLLHUP/...).
    virtual void OnEvent(uint32_t events) = 0;
  };

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when epoll_create1 failed at construction (error() says why) —
  /// the loop is unusable and Run must not be called.
  bool ok() const { return epoll_fd_ >= 0; }
  const std::string& error() const { return error_; }

  /// Registers `fd` with `interest` (EPOLLIN etc.). The handler pointer must
  /// stay valid until Remove(fd) plus the end of the dispatch batch that
  /// observed it (use Defer for destruction).
  Status Add(int fd, uint32_t interest, Handler* handler);
  /// Replaces the interest mask of a registered fd.
  Status Modify(int fd, uint32_t interest, Handler* handler);
  /// Deregisters; the fd stays open (closing it is the owner's job). Pass
  /// the fd's handler so events already harvested for it in the current
  /// dispatch batch are suppressed (the pointer is compared, not followed).
  void Remove(int fd, Handler* handler = nullptr);

  /// Queues `fn` to run after the current dispatch batch (and after timer
  /// callbacks, when called from one).
  void Defer(std::function<void()> fn);

  /// One reactor step: epoll_wait (bounded by `max_wait_ms` and the timer
  /// wheel's next tick), dispatch, deferred work, timer advance. Returns the
  /// number of fd events dispatched (0 on timeout or EINTR).
  int RunOnce(int max_wait_ms);

  /// Steady-clock milliseconds; the time base every timer uses.
  int64_t NowMs() const;

  TimerWheel& timers() { return timers_; }

 private:
  int epoll_fd_ = -1;
  std::string error_;
  TimerWheel timers_;
  std::vector<std::function<void()>> deferred_;
  // Handlers Remove()d during the current dispatch batch: their remaining
  // harvested events must not re-enter a closed connection.
  std::unordered_set<Handler*> suppressed_;
  bool dispatching_ = false;
};

}  // namespace mvrc

#endif  // MVRC_NET_EVENT_LOOP_H_
