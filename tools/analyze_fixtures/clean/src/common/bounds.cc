// Fixture: bounds on untrusted counts phrased as divisions, plus the
// multiplications near a remaining() call that are not bounds.
#include "common/serde.h"

namespace dbtf {

Status DecodeRuns(ByteReader* reader, std::uint64_t count,
                  std::uint64_t rows, std::uint64_t words) {
  if (count > reader->remaining() / 65) return Corrupt("blocks");
  if (words != 0 && rows > reader->remaining() / 8 / words) {
    return Corrupt("matrix");
  }
  // A product in another clause of the condition is not the bound.
  if (rows * words == 0 || reader->remaining() < 8) return Corrupt("empty");
  // Pointer casts and products used as arguments are not comparisons.
  const auto* out = reinterpret_cast<std::uint64_t*>(Buffer(rows * 8));
  Consume(reader->remaining(), count * 4);
  return reader->ReadU64s(out, static_cast<std::size_t>(count));
}

}  // namespace dbtf
