#include "tensor/sparse_tensor.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace dbtf {

Result<SparseTensor> SparseTensor::Create(std::int64_t dim_i,
                                          std::int64_t dim_j,
                                          std::int64_t dim_k) {
  if (dim_i < 0 || dim_j < 0 || dim_k < 0) {
    return Status::InvalidArgument("tensor dimensions must be non-negative");
  }
  const std::int64_t max_dim = std::numeric_limits<std::uint32_t>::max();
  if (dim_i > max_dim || dim_j > max_dim || dim_k > max_dim) {
    return Status::InvalidArgument("tensor dimensions must fit in 32 bits");
  }
  return SparseTensor(dim_i, dim_j, dim_k);
}

Result<SparseTensor> SparseTensor::FromEntries(std::int64_t dim_i,
                                               std::int64_t dim_j,
                                               std::int64_t dim_k,
                                               std::vector<Coord> entries) {
  DBTF_ASSIGN_OR_RETURN(SparseTensor tensor, Create(dim_i, dim_j, dim_k));
  for (const Coord& c : entries) {
    if (c.i >= dim_i || c.j >= dim_j || c.k >= dim_k) {
      return Status::OutOfRange("tensor coordinate out of range");
    }
  }
  tensor.entries_ = std::move(entries);
  tensor.SortAndDedup();
  return tensor;
}

Status SparseTensor::Add(std::int64_t i, std::int64_t j, std::int64_t k) {
  if (i < 0 || i >= i_ || j < 0 || j >= j_ || k < 0 || k >= k_) {
    return Status::OutOfRange("tensor coordinate out of range");
  }
  AddUnchecked(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j),
               static_cast<std::uint32_t>(k));
  return Status::OK();
}

void SparseTensor::SortAndDedup() {
  if (!std::is_sorted(entries_.begin(), entries_.end())) {
    std::sort(entries_.begin(), entries_.end());
  }
  entries_.erase(std::unique(entries_.begin(), entries_.end()),
                 entries_.end());
  sorted_ = true;
}

bool SparseTensor::Contains(std::int64_t i, std::int64_t j,
                            std::int64_t k) const {
  const Coord target{static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j),
                     static_cast<std::uint32_t>(k)};
  if (sorted_) {
    return std::binary_search(entries_.begin(), entries_.end(), target);
  }
  return std::find(entries_.begin(), entries_.end(), target) != entries_.end();
}

bool SparseTensor::operator==(const SparseTensor& other) const {
  if (i_ != other.i_ || j_ != other.j_ || k_ != other.k_) return false;
  std::vector<Coord> a = entries_;
  std::vector<Coord> b = other.entries_;
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return a == b;
}

}  // namespace dbtf
