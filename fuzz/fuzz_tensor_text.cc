// Fuzz target: the tensor text parser (src/tensor/io.cc ParseTensorText)
// over arbitrary file contents. Hostile input must fail with a Status,
// never with a wrapped coordinate, an out-of-bounds read, or an allocation
// sized by a header's nnz claim.
//
// When the parser accepts an input, the harness checks the reader contract
// and aborts on a violation: the entries are sorted, unique and inside the
// dims, and WriteTensorText of the tensor reads back as the same tensor.

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "common/status.h"
#include "tensor/io.h"
#include "tensor/sparse_tensor.h"

namespace {

const std::string& ScratchPath() {
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fuzz_tensor_text." + std::to_string(::getpid()) + ".tns"))
          .string();
  return path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  dbtf::Result<dbtf::SparseTensor> tensor = dbtf::ParseTensorText(text);
  if (!tensor.ok()) return 0;

  const auto& entries = tensor->entries();
  const auto not_increasing = [](const dbtf::Coord& a, const dbtf::Coord& b) {
    return !(a < b);
  };
  if (!tensor->sorted() ||
      std::adjacent_find(entries.begin(), entries.end(), not_increasing) !=
          entries.end()) {
    std::abort();
  }
  for (const dbtf::Coord& c : entries) {
    if (c.i >= tensor->dim_i() || c.j >= tensor->dim_j() ||
        c.k >= tensor->dim_k()) {
      std::abort();
    }
  }

  if (!dbtf::WriteTensorText(*tensor, ScratchPath()).ok()) std::abort();
  dbtf::Result<dbtf::SparseTensor> back = dbtf::ReadTensorText(ScratchPath());
  std::remove(ScratchPath().c_str());
  if (!back.ok() || back->dim_i() != tensor->dim_i() ||
      back->dim_j() != tensor->dim_j() || back->dim_k() != tensor->dim_k() ||
      back->entries() != entries) {
    std::abort();
  }
  return 0;
}
