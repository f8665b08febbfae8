// Memoization of robustness verdicts, keyed by a program-set fingerprint.
//
// The incremental analysis service (src/service/) fingerprints a set of
// programs as the analysis method and settings plus each member's
// (name, revision) pair, where a program's revision only advances when a
// mutation actually changed one of its incident summary-graph edges
// (Algorithm 1's edge conditions are local to the two programs of an edge,
// so a subset's graph — and hence its verdict — is unchanged while all
// members keep their revisions). A cached verdict therefore stays valid
// across arbitrary workload mutations that leave the fingerprint unchanged:
// after adding a program to an n-program workload, every previously decided
// subset hits the cache and only subsets containing the new program reach
// the detector.
//
// One key type serves every caller: the 128-bit WideFingerprint. A
// WideFingerprinter is snapshotted from the session's (name, revision)
// state once per request; hashing a ProgramSet is then one mix per member
// bit, with no string materialization on the hot path. The full-set check
// and the core-guided subset search both hash through it, so they share one
// key space: a verdict either of them computed answers the other. The
// fingerprint depends on the member *identities* (name + revision), not
// their bit positions, so cached verdicts survive index shifts from
// unrelated removals.
//
// Internally synchronized: the core-guided search invokes its verdict-cache
// hooks from thread-pool workers (see SubsetSweepHooks::wide_lookup), so
// Lookup/Store take an internal mutex. The check runs under the session
// lock and simply pays one uncontended lock acquisition.

#ifndef MVRC_ROBUST_VERDICT_CACHE_H_
#define MVRC_ROBUST_VERDICT_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "robust/program_set.h"

namespace mvrc {

/// A 128-bit subset fingerprint — wide enough that distinct subsets of
/// distinct (name, revision) members collide with negligible probability
/// (~2^-128 per pair; tests/verdict_cache_test.cc exercises tens of
/// thousands of distinct subsets without a collision).
struct WideFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const WideFingerprint&, const WideFingerprint&) = default;
};

struct WideFingerprintHash {
  size_t operator()(const WideFingerprint& fp) const noexcept {
    return static_cast<size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// splitmix64's finalizer: a cheap invertible 64-bit mix with full avalanche,
/// the building block of the fingerprint chains below.
inline uint64_t MixBits64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes ProgramSet subsets of one fixed member list into WideFingerprints.
///
/// Construction pre-hashes each member's (name, revision) pair against a
/// seed derived from the analysis context (settings string + method), so the
/// same subset under different settings, isolation levels, methods, or
/// member revisions never shares a fingerprint. Of() then folds the member
/// hashes of a subset's set bits into two independent accumulator chains in
/// ascending index order — a few ns per member, no allocation.
///
/// A fingerprinter is an immutable snapshot: safe to share across threads,
/// but stale the moment any member's revision advances (callers snapshot a
/// fresh one per request, as WorkloadSession::Check and Subsets do).
class WideFingerprinter {
 public:
  /// `context` disambiguates analyses (the session passes
  /// settings.ToString()), `method` the detector method, and `members` the
  /// per-program (name, revision) pairs in bit order.
  WideFingerprinter(const std::string& context, int method,
                    const std::vector<std::pair<std::string, int64_t>>& members);

  /// The fingerprint of `subset`, which must range over exactly the member
  /// list this fingerprinter was built from.
  WideFingerprint Of(const ProgramSet& subset) const;

  int num_members() const { return static_cast<int>(member_hash_.size()); }

 private:
  uint64_t seed_hi_ = 0;
  uint64_t seed_lo_ = 0;
  std::vector<uint64_t> member_hash_;
};

/// Fingerprint -> robustness verdict map with hit/miss accounting.
/// Thread-safe.
class VerdictCache {
 public:
  /// Entry count at which Store() discards the map before inserting.
  /// Fingerprints of dropped programs and stale revisions accumulate over a
  /// long-lived session; a full reset at the cap bounds memory while keeping
  /// the common (small-session) case unthrottled.
  static constexpr size_t kMaxEntries = size_t{1} << 21;

  /// The cached verdict for `fingerprint`, or nullopt on a miss.
  std::optional<bool> Lookup(const WideFingerprint& fingerprint);

  /// Records a verdict (overwrites on a repeated fingerprint).
  void Store(const WideFingerprint& fingerprint, bool robust);

  void Clear();

  size_t size() const;
  int64_t hits() const;
  int64_t misses() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<WideFingerprint, bool, WideFingerprintHash> verdicts_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace mvrc

#endif  // MVRC_ROBUST_VERDICT_CACHE_H_
