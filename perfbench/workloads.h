// The benchmark's workloads: Auction(n) SQL (workloads/sql_texts.h), the
// seeded program edits applied to it, and the hand-derived answers every
// response is checked against.
//
// Expected answers (derived from the programs, not from the analyzer):
//  * Without foreign keys ("attr"), every PlaceBid_i is non-robust on its
//    own: two instances read Bids_i by key and then update it (a lost
//    update MVRC admits). The FindBids_i programs are mutually robust. So
//    the minimal non-robust subsets (cores) are exactly the singletons
//    {PlaceBid_i}, the one maximal robust subset is {FindBids_1..n}, and an
//    exhaustive sweep counts 2^n - 1 robust subsets.
//  * With foreign keys ("attr+fk"), Auction(n) is robust (paper §7.3), so
//    the one maximal robust subset is the whole program set and there are no
//    cores.
//  * None of the edits changes these answers: renaming a parameter changes
//    no summary edge; dropping PlaceBid_i's Log INSERT removes a statement,
//    which removes edges and keeps the lost update on Bids_i; the revert
//    restores the original text.

#ifndef MVRC_PERFBENCH_WORKLOADS_H_
#define MVRC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace mvrc::perfbench {

struct WorkloadSpec {
  const char* name;
  int items;             // Auction(items) has 2 * items programs
  const char* settings;  // session settings string of the protocol
  int threads;           // analysis pool workers (1 = serial)
  bool long_lived;       // one session loaded at set-up and edited each cycle
  bool robust;           // hand-derived verdict of the full program set
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {"auction128_pool2", 64, "attr", 2, false, false},
    {"sweep16", 8, "attr", 1, false, false},
    {"edit128", 64, "attr+fk", 1, true, true},
};

/// PlaceBid<k> exactly as AuctionNSql renders it when `bidder`/`value` are
/// "B"/"V" and `log_insert` is set.
inline std::string PlaceBidSql(int k, const std::string& bidder, const std::string& value,
                               bool log_insert) {
  const std::string b = ":" + bidder, v = ":" + value, bids = "Bids" + std::to_string(k);
  std::string sql = "PROGRAM PlaceBid" + std::to_string(k) + "(" + b + ", " + v + "):\n";
  sql += "  UPDATE Buyer SET calls = calls + 1 WHERE id = " + b + ";\n";
  sql += "  SELECT bid INTO :C FROM " + bids + " WHERE buyerId = " + b + ";\n";
  sql += "  IF :C < " + v + " THEN\n";
  sql += "    UPDATE " + bids + " SET bid = " + v + " WHERE buyerId = " + b + ";\n";
  sql += "  END IF;\n";
  if (log_insert) sql += "  INSERT INTO Log VALUES (:logId, " + b + ", " + v + ");\n";
  sql += "COMMIT;\n";
  return sql;
}

/// One replace_program request of an edit round.
struct Edit {
  enum class Kind { kRename, kDropLog, kRevert };
  Kind kind;
  std::string sql;
};

/// The three edits of one round on PlaceBid<k>: an edge-preserving rename
/// (the verdict cache answers the following check and subsets), a variant
/// without the Log INSERT (the detector sees a changed program), and the
/// revert to the original text. The seed picks k and which parameter is
/// renamed.
inline std::vector<Edit> MakeEditRound(int items, std::mt19937_64& rng) {
  const int k = 1 + static_cast<int>(rng() % static_cast<uint64_t>(items));
  const bool rename_bidder = rng() % 2 == 0;
  return {
      {Edit::Kind::kRename,
       PlaceBidSql(k, rename_bidder ? "X" : "B", rename_bidder ? "V" : "W", true)},
      {Edit::Kind::kDropLog, PlaceBidSql(k, "B", "V", false)},
      {Edit::Kind::kRevert, PlaceBidSql(k, "B", "V", true)},
  };
}

/// Program names in session order (AuctionNSql declares FindBids<i>,
/// PlaceBid<i> per item).
inline std::vector<std::string> ProgramNames(int items) {
  std::vector<std::string> names;
  for (int i = 1; i <= items; ++i) {
    names.push_back("FindBids" + std::to_string(i));
    names.push_back("PlaceBid" + std::to_string(i));
  }
  return names;
}

}  // namespace mvrc::perfbench

#endif  // MVRC_PERFBENCH_WORKLOADS_H_
