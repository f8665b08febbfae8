// Holds the analysis service's sessions behind a mutex-sharded map.
//
// Sharding keeps name -> session resolution contention-light under many
// concurrent clients: a lookup locks only the shard its name hashes to, and
// the heavy work (cell recomputation, subset searches) runs outside any shard
// lock under the target session's own mutex, on the requesting thread.
// Sessions are handed out as shared_ptr so a Drop cannot invalidate a
// request in flight.

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

namespace mvrc {

/// Registry of named WorkloadSessions.
class SessionManager {
 public:
  SessionManager() = default;

  // perfbench/e2e_main.cc still constructs the manager with a worker count
  // and passes pool() on; the count is ignored and no thread is started.
  explicit SessionManager(int) {}
  ThreadPool* pool() { return nullptr; }

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

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

  std::array<Shard, kNumShards> shards_;
};

}  // namespace mvrc

#endif  // MVRC_SERVICE_SESSION_MANAGER_H_
