#ifndef DBTF_COMMON_SERDE_H_
#define DBTF_COMMON_SERDE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dbtf {

// The serde formats (and the wire frames and checkpoints built on them)
// promise little-endian bytes, and serde.cc, wire.cc and socket.cc copy
// multi-byte values with memcpy in host order. That is only correct on a
// little-endian host, so any other host fails to build here.
static_assert(std::endian::native == std::endian::little,
              "serde copies host-order words; add byte swaps before building "
              "on a big-endian host");

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes,
/// table-driven slice-by-8 (eight bytes per step). Test vector:
/// Crc32("123456789", 9) == 0xCBF43926.
std::uint32_t Crc32(const void* data, std::size_t size);

/// FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit hash. Used for cheap content fingerprints (configuration
/// and tensor identity checks on resume), not for integrity — integrity is
/// Crc32's job. Passing a previous result as `hash` continues it, so a
/// stream hashed in pieces gives the same value as the whole.
std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t hash = kFnv1a64Basis);

/// Append-only little-endian binary writer. All multi-byte fields are
/// serialized little-endian, so snapshots written on one machine parse on
/// any other (see the static_assert above).
class ByteWriter {
 public:
  void WriteU8(std::uint8_t value);
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  /// `count` values as one run, the same bytes as `count` single writes.
  void WriteU32s(const std::uint32_t* values, std::size_t count);
  void WriteU64s(const std::uint64_t* values, std::size_t count);
  void WriteI64(std::int64_t value);
  void WriteDouble(double value);
  /// Length-prefixed (u64) byte string.
  void WriteString(const std::string& value);
  void WriteBytes(const void* data, std::size_t size);

  /// Makes room for `more` bytes beyond size(), for encoders that know
  /// their encoded size up front.
  void Reserve(std::size_t more) { bytes_.reserve(bytes_.size() + more); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }
  /// CRC-32 of everything written so far.
  std::uint32_t Crc() const { return Crc32(bytes_.data(), bytes_.size()); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounded little-endian reader over a byte buffer it does not own. Every
/// read is checked against the remaining length and fails with kIoError on
/// truncation; ExpectEnd() rejects trailing bytes, so a parse that returns
/// OK consumed exactly the buffer.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size)
      : data_(static_cast<const std::uint8_t*>(data)), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::int64_t> ReadI64();
  Result<double> ReadDouble();
  /// Length-prefixed (u64) byte string; the length is validated against the
  /// remaining buffer before any allocation.
  Result<std::string> ReadString();
  /// Copies `size` raw bytes into `out`.
  Status ReadBytes(void* out, std::size_t size);
  /// Reads `count` values written by WriteU32s / WriteU64s. The count is
  /// checked against the remaining buffer by division, so no count can wrap
  /// the bound.
  Status ReadU32s(std::uint32_t* out, std::size_t count);
  Status ReadU64s(std::uint64_t* out, std::size_t count);

  std::size_t remaining() const { return size_ - offset_; }
  std::size_t offset() const { return offset_; }
  /// Fails with kIoError unless the buffer was consumed exactly.
  Status ExpectEnd() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace dbtf

#endif  // DBTF_COMMON_SERDE_H_
