// A dynamic bitset over program (BTP) indices — the wide-mask currency of
// the core-guided subset search (robust/core_search.h).
//
// SubsetReport's per-mask lists encode subsets as bits of a `uint32_t` and
// are capped at kMaxSubsetPrograms; the core-guided search reasons about
// workloads of up to kMaxCoreSearchPrograms programs, whose subsets no
// longer fit a machine word. A ProgramSet is the word-packed equivalent: bit
// i selects program i, exactly as in the narrow masks, and the ordering
// (operator<) is the numeric order of the encoded integer, so sorted
// ProgramSet vectors line up element-for-element with sorted uint32_t mask
// vectors whenever both encodings apply (num_programs <= 32).
//
// Header-only by design: every operation is a few word ops, and the
// core-guided search calls them in inner loops (Berge hitting-set updates,
// lattice membership tests).

#ifndef MVRC_ROBUST_PROGRAM_SET_H_
#define MVRC_ROBUST_PROGRAM_SET_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace mvrc {

/// A subset of the programs [0, num_programs), word-packed. All binary
/// operations require both operands to share the same num_programs.
class ProgramSet {
 public:
  ProgramSet() = default;

  /// The empty subset of `num_programs` programs.
  explicit ProgramSet(int num_programs)
      : num_programs_(num_programs), words_((num_programs + 63) / 64, 0) {
    MVRC_CHECK(num_programs >= 0);
  }

  /// The full subset {0, ..., num_programs - 1}.
  static ProgramSet Full(int num_programs) {
    ProgramSet set(num_programs);
    for (int i = 0; i < num_programs; ++i) set.Set(i);
    return set;
  }

  /// Lifts a narrow subset mask (bit i <-> program i, as in SubsetReport)
  /// into the wide encoding. Requires num_programs <= 32 so the mask can
  /// name every program.
  static ProgramSet FromMask(uint32_t mask, int num_programs) {
    MVRC_CHECK_MSG(num_programs <= 32, "uint32_t masks encode at most 32 programs");
    ProgramSet set(num_programs);
    if (!set.words_.empty()) set.words_[0] = mask;
    return set;
  }

  int num_programs() const { return num_programs_; }
  int num_words() const { return static_cast<int>(words_.size()); }
  const uint64_t* data() const { return words_.data(); }
  const std::vector<uint64_t>& words() const { return words_; }

  bool Test(int i) const { return (words_[i / 64] >> (i % 64)) & 1; }
  void Set(int i) { words_[i / 64] |= uint64_t{1} << (i % 64); }
  void Reset(int i) { words_[i / 64] &= ~(uint64_t{1} << (i % 64)); }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  int Count() const {
    int count = 0;
    for (uint64_t w : words_) count += __builtin_popcountll(w);
    return count;
  }

  /// True when `other` is a subset of this set (not necessarily strict).
  bool ContainsAll(const ProgramSet& other) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      if ((other.words_[w] & ~words_[w]) != 0) return false;
    }
    return true;
  }

  bool Intersects(const ProgramSet& other) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      if ((words_[w] & other.words_[w]) != 0) return true;
    }
    return false;
  }

  /// The complement within [0, num_programs).
  ProgramSet Complement() const {
    ProgramSet out(num_programs_);
    for (size_t w = 0; w < words_.size(); ++w) out.words_[w] = ~words_[w];
    out.TrimTail();
    return out;
  }

  ProgramSet With(int i) const {
    ProgramSet out = *this;
    out.Set(i);
    return out;
  }

  ProgramSet Without(int i) const {
    ProgramSet out = *this;
    out.Reset(i);
    return out;
  }

  /// The member program indices, ascending.
  std::vector<int> ToIndices() const {
    std::vector<int> indices;
    indices.reserve(Count());
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t rest = words_[w]; rest != 0; rest &= rest - 1) {
        indices.push_back(static_cast<int>(w) * 64 + __builtin_ctzll(rest));
      }
    }
    return indices;
  }

  /// The narrow mask encoding of this set; requires num_programs <= 32.
  uint32_t ToMask() const {
    MVRC_CHECK_MSG(num_programs_ <= 32, "uint32_t masks encode at most 32 programs");
    return words_.empty() ? 0 : static_cast<uint32_t>(words_[0]);
  }

  friend bool operator==(const ProgramSet& a, const ProgramSet& b) = default;

  /// Numeric order of the encoded integer (most-significant word first):
  /// identical to comparing ToMask() values when num_programs <= 32, so
  /// sorted wide and narrow representations of the same subsets agree.
  friend bool operator<(const ProgramSet& a, const ProgramSet& b) {
    MVRC_CHECK(a.num_programs_ == b.num_programs_);
    for (size_t w = a.words_.size(); w-- > 0;) {
      if (a.words_[w] != b.words_[w]) return a.words_[w] < b.words_[w];
    }
    return false;
  }

 private:
  // Clears the bits past num_programs in the last word, keeping the
  // invariant that unused tail bits are zero (operator== and the word-level
  // subset tests rely on it).
  void TrimTail() {
    const int tail = num_programs_ % 64;
    if (tail != 0 && !words_.empty()) words_.back() &= (uint64_t{1} << tail) - 1;
  }

  int num_programs_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace mvrc

#endif  // MVRC_ROBUST_PROGRAM_SET_H_
