#ifndef DBTF_TENSOR_SPARSE_TENSOR_H_
#define DBTF_TENSOR_SPARSE_TENSOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace dbtf {

/// Index of one non-zero cell of a three-way binary tensor (0-based).
struct Coord {
  std::uint32_t i;
  std::uint32_t j;
  std::uint32_t k;

  friend bool operator==(const Coord& a, const Coord& b) {
    return a.i == b.i && a.j == b.j && a.k == b.k;
  }
  friend bool operator<(const Coord& a, const Coord& b) {
    if (a.i != b.i) return a.i < b.i;
    if (a.j != b.j) return a.j < b.j;
    return a.k < b.k;
  }
};

/// Three-way binary tensor in coordinate (COO) format: the set of cells whose
/// value is 1. This is the canonical input type of the library; all unfoldings
/// and partitionings are derived from it.
class SparseTensor {
 public:
  /// Empty tensor of shape 0x0x0.
  SparseTensor() : i_(0), j_(0), k_(0), sorted_(true) {}

  /// Validating factory for an empty tensor of the given shape.
  static Result<SparseTensor> Create(std::int64_t dim_i, std::int64_t dim_j,
                                     std::int64_t dim_k);

  /// Validating factory that adopts `entries` as the tensor's storage (no
  /// copy), then sorts and deduplicates them. An entry outside the shape
  /// returns kOutOfRange.
  static Result<SparseTensor> FromEntries(std::int64_t dim_i,
                                          std::int64_t dim_j,
                                          std::int64_t dim_k,
                                          std::vector<Coord> entries);

  std::int64_t dim_i() const { return i_; }
  std::int64_t dim_j() const { return j_; }
  std::int64_t dim_k() const { return k_; }

  /// Total number of cells, |I|*|J|*|K|.
  std::int64_t NumCells() const { return i_ * j_ * k_; }

  /// Number of non-zero cells. Call SortAndDedup() first if duplicate Adds
  /// may have occurred.
  std::int64_t NumNonZeros() const {
    return static_cast<std::int64_t>(entries_.size());
  }

  /// Fraction of cells that are 1.
  double Density() const {
    const std::int64_t cells = NumCells();
    return cells == 0 ? 0.0 : static_cast<double>(NumNonZeros()) /
                                  static_cast<double>(cells);
  }

  /// Records cell (i, j, k) = 1. Out-of-range coordinates return an error.
  Status Add(std::int64_t i, std::int64_t j, std::int64_t k);

  /// Records cell (i, j, k) = 1 without bounds checking (hot path for
  /// generators that guarantee their own ranges).
  void AddUnchecked(std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    entries_.push_back(Coord{i, j, k});
    sorted_ = false;
  }

  /// Sorts entries lexicographically (skipped when they already are) and
  /// removes duplicates.
  void SortAndDedup();

  /// True when the entries are sorted and duplicate-free: after
  /// SortAndDedup() and before the next Add.
  bool sorted() const { return sorted_; }

  /// True iff cell (i, j, k) is 1. Requires sorted entries (SortAndDedup).
  bool Contains(std::int64_t i, std::int64_t j, std::int64_t k) const;

  /// All non-zero cells. Order is insertion order until SortAndDedup().
  const std::vector<Coord>& entries() const { return entries_; }

  /// Pre-allocates storage for n entries.
  void Reserve(std::int64_t n) {
    entries_.reserve(static_cast<std::size_t>(n));
  }

  bool operator==(const SparseTensor& other) const;
  bool operator!=(const SparseTensor& other) const { return !(*this == other); }

 private:
  SparseTensor(std::int64_t i, std::int64_t j, std::int64_t k)
      : i_(i), j_(j), k_(k), sorted_(true) {}

  std::int64_t i_;
  std::int64_t j_;
  std::int64_t k_;
  std::vector<Coord> entries_;
  bool sorted_;
};

}  // namespace dbtf

#endif  // DBTF_TENSOR_SPARSE_TENSOR_H_
