// A minimal fixed-size thread pool (no work stealing: one shared FIFO
// queue). Used by the parallel subset-robustness engine and the parallel
// summary-graph builder; both fan independent items over the pool and
// join at a barrier, so a shared queue is contention-light and keeps the
// scheduling easy to reason about.
//
// The pool does NOT support nesting: Wait() (and hence every ParallelFor*)
// blocks until the queue drains, so calling it from inside a pool task
// would deadlock the moment all workers are parked in nested waits. Wait()
// CHECK-aborts when invoked from one of the pool's own workers; fan out in
// phases from one orchestrating thread instead (see
// robust/core_search.cc for the pattern).

#ifndef MVRC_UTIL_THREAD_POOL_H_
#define MVRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mvrc {

/// Fixed set of worker threads draining one shared task queue. Tasks must
/// not throw (the library is exception-free; a throwing task aborts).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending tasks are still executed before shutdown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing.
  void Wait();

  /// Runs fn(0) .. fn(count - 1) across the pool and blocks until all calls
  /// returned. Items are handed out dynamically (one at a time), so
  /// heterogeneous item costs balance; callers must make items independent
  /// (our callers write to disjoint output slots).
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn);

  /// ParallelFor with a worker slot: fn(slot, index) where `slot` is stable
  /// within one pool task and ranges over [0, min(num_threads, count)).
  /// At most one item runs per slot at a time, so callers can keep mutable
  /// per-slot state (the core-guided subset search reuses one
  /// DetectorScratch per slot) without locking.
  void ParallelForWorkers(int64_t count, const std::function<void(int, int64_t)>& fn);

  /// Grain-chunked ParallelFor: workers claim half-open ranges
  /// [begin, begin + grain) instead of single indices, so fine-grained
  /// loops (summary-graph rows) pay one atomic claim
  /// and one std::function dispatch per `grain` items instead of per item.
  /// Ranges are claimed in ascending order; grain < 1 is clamped to 1, so
  /// grain 1 degrades to the unchunked dynamic schedule.
  void ParallelForChunked(int64_t count, int64_t grain,
                          const std::function<void(int64_t, int64_t)>& fn);

  /// Chunked variant with a worker slot: fn(slot, begin, end), same slot
  /// exclusivity as ParallelForWorkers.
  void ParallelForWorkersChunked(int64_t count, int64_t grain,
                                 const std::function<void(int, int64_t, int64_t)>& fn);

  /// A grain that yields ~8 claimable chunks per worker — small enough to
  /// balance heterogeneous items, big enough to amortize dispatch.
  static int64_t DefaultGrain(int64_t count, int num_threads);

  /// Maps a requested thread count to an effective one: values >= 1 pass
  /// through, values < 1 mean "use the hardware concurrency".
  static int ResolveThreadCount(int requested);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  int in_flight_ = 0;  // tasks popped but not yet finished
  bool stopping_ = false;
};

}  // namespace mvrc

#endif  // MVRC_UTIL_THREAD_POOL_H_
