#include "service/session_manager.h"

#include <algorithm>
#include <functional>
#include <mutex>

#include "obs/metrics.h"

namespace mvrc {

namespace {

// Uncontended shards acquire on the try_lock; a failed try_lock means another
// server thread holds the shard, which the blocking fallback then waits out —
// the shard_waits counter is the daemon's contention signal.
std::unique_lock<std::mutex> LockShard(std::mutex& mutex) {
  std::unique_lock<std::mutex> lock(mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    static Counter* waits =
        MetricsRegistry::Global().counter("session_manager.shard_waits");
    waits->Add(1);
    lock.lock();
  }
  return lock;
}

Gauge* LiveSessionsGauge() {
  static Gauge* sessions = MetricsRegistry::Global().gauge("session_manager.sessions");
  return sessions;
}

}  // namespace

const SessionManager::Shard& SessionManager::ShardFor(const std::string& name) const {
  return shards_[std::hash<std::string>{}(name) % kNumShards];
}

SessionManager::Shard& SessionManager::ShardFor(const std::string& name) {
  return shards_[std::hash<std::string>{}(name) % kNumShards];
}

std::shared_ptr<WorkloadSession> SessionManager::GetOrCreate(
    const std::string& name, const AnalysisSettings& settings, bool* created) {
  static Counter* lookups = MetricsRegistry::Global().counter("session_manager.lookups");
  static Counter* creates = MetricsRegistry::Global().counter("session_manager.creates");
  lookups->Add(1);
  Shard& shard = ShardFor(name);
  std::unique_lock<std::mutex> lock = LockShard(shard.mutex);
  auto it = shard.sessions.find(name);
  if (it != shard.sessions.end()) {
    if (created != nullptr) *created = false;
    return it->second;
  }
  auto session = std::make_shared<WorkloadSession>(name, settings);
  shard.sessions.emplace(name, session);
  creates->Add(1);
  LiveSessionsGauge()->Add(1);
  if (created != nullptr) *created = true;
  return session;
}

std::shared_ptr<WorkloadSession> SessionManager::Find(const std::string& name) const {
  static Counter* lookups = MetricsRegistry::Global().counter("session_manager.lookups");
  lookups->Add(1);
  const Shard& shard = ShardFor(name);
  std::unique_lock<std::mutex> lock = LockShard(shard.mutex);
  auto it = shard.sessions.find(name);
  return it != shard.sessions.end() ? it->second : nullptr;
}

bool SessionManager::Drop(const std::string& name) {
  Shard& shard = ShardFor(name);
  std::unique_lock<std::mutex> lock = LockShard(shard.mutex);
  const bool dropped = shard.sessions.erase(name) > 0;
  if (dropped) {
    static Counter* drops = MetricsRegistry::Global().counter("session_manager.drops");
    drops->Add(1);
    LiveSessionsGauge()->Add(-1);
  }
  return dropped;
}

std::vector<std::string> SessionManager::SessionNames() const {
  std::vector<std::string> names;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, session] : shard.sessions) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace mvrc
