// The seeded random-workload generator shared by the differential suites
// (masked detector, core-guided search, isolation policies, policy pinning).
//
// A workload is 2-3 relations of 2-4 attributes, optional foreign keys from
// later relations to relation 0, and 4-5 programs (or a caller-chosen
// count) of 2-4 random statements each. Half of the programs wrap a random
// contiguous statement range in a loop, an optional block, or a choice, so
// several programs unfold to more than one LTP and subset-mask bits map to
// LTP ranges rather than single nodes. The same seed always yields the same
// workload.

#ifndef MVRC_TESTS_SUPPORT_RANDOM_WORKLOAD_H_
#define MVRC_TESTS_SUPPORT_RANDOM_WORKLOAD_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "btp/program.h"
#include "btp/statement.h"
#include "schema/schema.h"

namespace mvrc::test_support {

class RandomWorkloadGen {
 public:
  explicit RandomWorkloadGen(uint64_t seed) : rng_(seed) {}

  /// Adds the random relations and foreign keys to `schema` and returns the
  /// programs over it. `num_programs` == 0 draws the count (4 or 5) from the
  /// generator; any other value fixes it without consuming a draw.
  std::vector<Btp> Generate(Schema& schema, int num_programs = 0);

 private:
  int Pick(int lo, int hi);
  bool Chance(double p);
  AttrSet RandomSubset(const Schema& schema, RelationId rel, bool non_empty);
  Statement RandomStatement(const Schema& schema, const std::string& label);
  Btp GenerateProgram(const Schema& schema, int index);

  std::mt19937_64 rng_;
};

}  // namespace mvrc::test_support

#endif  // MVRC_TESTS_SUPPORT_RANDOM_WORKLOAD_H_
