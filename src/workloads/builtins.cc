#include "workloads/builtins.h"

#include "robust/core_search.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {

std::optional<Workload> MakeBuiltinWorkload(const std::string& name) {
  if (name == "smallbank") return MakeSmallBank();
  if (name == "tpcc") return MakeTpcc();
  if (name == "auction") return MakeAuction();
  // auction<N>, N >= 1: the Auction(n) scaling family (2n programs) — the
  // protocol's route to workloads past the 20-program per-mask range, where
  // `subsets` answers in the lattice shape.
  if (name.size() > 7 && name.compare(0, 7, "auction") == 0) {
    int n = 0;
    for (size_t i = 7; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9' || n > kMaxCoreSearchPrograms) return std::nullopt;
      n = n * 10 + (name[i] - '0');
    }
    if (n >= 1 && 2 * n <= kMaxCoreSearchPrograms) return MakeAuctionN(n);
  }
  return std::nullopt;
}

}  // namespace mvrc
