#include "tensor/io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <utility>
#include <vector>

namespace dbtf {

Status WriteTensorText(const SparseTensor& tensor, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << tensor.dim_i() << ' ' << tensor.dim_j() << ' ' << tensor.dim_k()
      << ' ' << tensor.NumNonZeros() << '\n';
  for (const Coord& c : tensor.entries()) {
    out << c.i << ' ' << c.j << ' ' << c.k << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

namespace {

/// Whitespace inside a line, as `istream >> long long` skips it.
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Reads one integer at `*p` the way `istream >> long long` does: leading
/// whitespace, an optional sign, base-10 digits up to the first other
/// character. Returns false when no integer starts there or it does not fit
/// in 64 bits.
bool ParseInt(const char** p, const char* end, std::int64_t* out) {
  const char* q = *p;
  while (q != end && IsBlank(*q)) ++q;
  // from_chars takes '-' but not '+'; "+-1" is still malformed.
  if (q != end && *q == '+') {
    ++q;
    if (q == end || *q < '0' || *q > '9') return false;
  }
  const std::from_chars_result r = std::from_chars(q, end, *out);
  if (r.ec != std::errc()) return false;
  *p = r.ptr;
  return true;
}

}  // namespace

Result<SparseTensor> ParseTensorText(std::string_view text) {
  constexpr std::int64_t kMaxCoord = std::numeric_limits<std::uint32_t>::max();
  // "0 0 0\n" is the shortest entry line: no file holds more entries than
  // this, whatever its header claims.
  const std::int64_t max_entries = static_cast<std::int64_t>(text.size() / 6);

  std::vector<Coord> entries;
  std::int64_t dims[3] = {0, 0, 0};
  bool have_header = false;
  bool first = true;
  std::int64_t line_number = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const char* eol = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    if (eol == nullptr) eol = end;
    const char* q = p;
    p = eol == end ? end : eol + 1;
    ++line_number;
    if (q == eol || *q == '#') continue;

    std::int64_t v[4];
    if (!ParseInt(&q, eol, &v[0]) || !ParseInt(&q, eol, &v[1]) ||
        !ParseInt(&q, eol, &v[2])) {
      return Status::IoError("malformed line " + std::to_string(line_number));
    }
    if (first) {
      first = false;
      if (ParseInt(&q, eol, &v[3])) {
        // Four numbers on the first line: "I J K nnz" header.
        have_header = true;
        std::copy(v, v + 3, dims);
        entries.reserve(static_cast<std::size_t>(
            std::clamp<std::int64_t>(v[3], 0, max_entries)));
        continue;
      }
    }
    for (int d = 0; d < 3; ++d) {
      if (v[d] < 0) {
        return Status::IoError("negative coordinate on line " +
                               std::to_string(line_number));
      }
      if (v[d] > kMaxCoord) {
        // Never wrap: past 32 bits a coordinate lies outside any header's
        // dims, and an inferred dimension would not fit.
        return have_header ? Status::OutOfRange("tensor coordinate out of range")
                           : Status::InvalidArgument(
                                 "tensor dimensions must fit in 32 bits");
      }
      if (!have_header) dims[d] = std::max(dims[d], v[d] + 1);
    }
    entries.push_back(Coord{static_cast<std::uint32_t>(v[0]),
                            static_cast<std::uint32_t>(v[1]),
                            static_cast<std::uint32_t>(v[2])});
  }
  return SparseTensor::FromEntries(dims[0], dims[1], dims[2],
                                   std::move(entries));
}

Result<SparseTensor> ReadTensorText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string text;
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) text.reserve(static_cast<std::size_t>(size));
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)), in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IoError("read failed: " + path);
  Result<SparseTensor> tensor = ParseTensorText(text);
  if (!tensor.ok()) {
    return Status(tensor.status().code(),
                  tensor.status().message() + " in " + path);
  }
  return tensor;
}

Status WriteMatrixText(const BitMatrix& matrix, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << matrix.rows() << ' ' << matrix.cols() << '\n';
  for (std::int64_t r = 0; r < matrix.rows(); ++r) {
    for (std::int64_t c = 0; c < matrix.cols(); ++c) {
      out << (matrix.Get(r, c) ? '1' : '0');
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<BitMatrix> ReadMatrixText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  in >> rows >> cols;
  if (!in || rows < 0 || cols < 0) {
    return Status::IoError("malformed matrix header in " + path);
  }
  std::string line;
  std::getline(in, line);  // Consume the rest of the header line.
  DBTF_ASSIGN_OR_RETURN(BitMatrix m, BitMatrix::Create(rows, cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    if (!std::getline(in, line) ||
        static_cast<std::int64_t>(line.size()) < cols) {
      return Status::IoError("truncated matrix row in " + path);
    }
    for (std::int64_t c = 0; c < cols; ++c) {
      if (line[static_cast<std::size_t>(c)] == '1') {
        m.Set(r, c, true);
      } else if (line[static_cast<std::size_t>(c)] != '0') {
        return Status::IoError("matrix entries must be 0/1 in " + path);
      }
    }
  }
  return m;
}

}  // namespace dbtf
