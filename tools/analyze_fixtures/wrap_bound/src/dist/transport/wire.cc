// Fixture: bounds on untrusted counts written as products. Lines 12, 16 and
// 19 must trip wrap-bound; the suppressed bound on line 22 must not.
#include "common/serde.h"

namespace dbtf {

Status DecodeRuns(ByteReader* reader, std::uint64_t count,
                  std::uint64_t rows, std::uint64_t words) {
  // A wrapped product passes the check, then the allocation sized by count
  // throws or overruns.
  constexpr std::uint64_t kBlockBytes = 65;
  if (count * kBlockBytes > reader->remaining()) return Corrupt("blocks");
  std::vector<std::int32_t> nnz;
  nnz.reserve(count);
  // The product can sit on either side of the comparison.
  if (reader->remaining() < (rows * words) * 8) return Corrupt("matrix");
  // A cast on the count does not make the product safe.
  const bool ok =
      static_cast<std::uint64_t>(rows) * 8 <= reader->remaining();
  if (!ok) return Corrupt("masks");
  // Bounded by the caller to 2^20, so the product cannot wrap.
  if (words * 8 > reader->remaining()) {  // analyze-ignore(wrap-bound): fixture
    return Corrupt("words");
  }
  return Status::OK();
}

}  // namespace dbtf
