#ifndef DBTF_TENSOR_IO_H_
#define DBTF_TENSOR_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "tensor/bit_matrix.h"
#include "tensor/sparse_tensor.h"

namespace dbtf {

/// Writes a tensor as text: a header line "i j k nnz" followed by one
/// "i j k" line per non-zero (0-based coordinates).
Status WriteTensorText(const SparseTensor& tensor, const std::string& path);

/// Parses the text of a tensor file. Empty lines and lines starting with '#'
/// are skipped. A first line of four numbers is the "I J K nnz" header;
/// without one, dimensions are inferred as max coordinate + 1. Every other
/// line is an entry: its first three integers are (i, j, k), and anything
/// after them is ignored. A malformed or negative entry returns kIoError, an
/// entry outside the header's dims kOutOfRange. The result is sorted and
/// deduplicated.
Result<SparseTensor> ParseTensorText(std::string_view text);

/// Reads a tensor written by WriteTensorText (ParseTensorText of the file).
Result<SparseTensor> ReadTensorText(const std::string& path);

/// Writes a binary factor matrix as text: "rows cols" then one 0/1 row of
/// characters per line.
Status WriteMatrixText(const BitMatrix& matrix, const std::string& path);

/// Reads a matrix written by WriteMatrixText.
Result<BitMatrix> ReadMatrixText(const std::string& path);

}  // namespace dbtf

#endif  // DBTF_TENSOR_IO_H_
