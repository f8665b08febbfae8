// Holds the analysis service's sessions behind a mutex-sharded map and owns
// the worker pool every session's analysis is dispatched onto.
//
// Sharding keeps name -> session resolution contention-light under many
// concurrent clients: a lookup locks only the shard its name hashes to, and
// the heavy work (cell recomputation, subset searches) runs outside any shard
// lock under the target session's own mutex, fanned across the shared
// ThreadPool. Sessions are handed out as shared_ptr so a Drop cannot
// invalidate a request in flight.

#ifndef MVRC_SERVICE_SESSION_MANAGER_H_
#define MVRC_SERVICE_SESSION_MANAGER_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/workload_session.h"
#include "summary/dep_tables.h"
#include "util/thread_pool.h"

namespace mvrc {

/// Registry of named WorkloadSessions sharing one ThreadPool.
class SessionManager {
 public:
  /// `num_threads` follows the AnalysisSettings convention: 1 (default)
  /// means fully serial (no pool is created), < 1 means hardware
  /// concurrency.
  explicit SessionManager(int num_threads = 1);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Worker threads analysis fans across (1 when serial).
  int num_threads() const { return pool_ != nullptr ? pool_->num_threads() : 1; }
  /// The shared pool, or nullptr when serial.
  ThreadPool* pool() { return pool_.get(); }

  /// Returns the named session, creating it with `settings` on first use.
  /// An existing session keeps its original settings — the argument only
  /// applies to creation. `created` (optional) reports, atomically with the
  /// lookup, whether this call created the session: exactly one concurrent
  /// caller observes true, so the creator alone may roll a failed first
  /// load back with Drop.
  std::shared_ptr<WorkloadSession> GetOrCreate(const std::string& name,
                                               const AnalysisSettings& settings,
                                               bool* created = nullptr);

  /// The named session, or nullptr when absent.
  std::shared_ptr<WorkloadSession> Find(const std::string& name) const;

  /// Removes the named session; returns whether it existed. In-flight users
  /// holding the shared_ptr finish their request on the detached session.
  bool Drop(const std::string& name);

  /// Names of all live sessions, sorted.
  std::vector<std::string> SessionNames() const;

 private:
  static constexpr size_t kNumShards = 16;

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<WorkloadSession>> sessions;
  };

  const Shard& ShardFor(const std::string& name) const;
  Shard& ShardFor(const std::string& name);

  std::unique_ptr<ThreadPool> pool_;  // null when serial
  std::array<Shard, kNumShards> shards_;
};

}  // namespace mvrc

#endif  // MVRC_SERVICE_SESSION_MANAGER_H_
