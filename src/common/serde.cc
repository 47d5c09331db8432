#include "common/serde.h"

#include <array>
#include <cstring>

namespace dbtf {
namespace {

/// Slice-by-8 tables: kCrcTables[0] is the bytewise CRC-32 table, and
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups fold one little-endian 64-bit word into the CRC.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0xEDB88320U : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFU];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size) {
  const auto& t = kCrcTables;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xFFFFFFFFU;
  for (; size >= 8; size -= 8, bytes += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes, sizeof(word));
    word ^= crc;
    crc = t[7][word & 0xFFU] ^ t[6][(word >> 8) & 0xFFU] ^
          t[5][(word >> 16) & 0xFFU] ^ t[4][(word >> 24) & 0xFFU] ^
          t[3][(word >> 32) & 0xFFU] ^ t[2][(word >> 40) & 0xFFU] ^
          t[1][(word >> 48) & 0xFFU] ^ t[0][word >> 56];
  }
  for (; size > 0; --size, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::uint64_t Fnv1a64(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void ByteWriter::WriteU8(std::uint8_t value) { bytes_.push_back(value); }

void ByteWriter::WriteU32(std::uint32_t value) {
  WriteBytes(&value, sizeof(value));
}

void ByteWriter::WriteU64(std::uint64_t value) {
  WriteBytes(&value, sizeof(value));
}

void ByteWriter::WriteU32s(const std::uint32_t* values, std::size_t count) {
  WriteBytes(values, count * sizeof(std::uint32_t));
}

void ByteWriter::WriteU64s(const std::uint64_t* values, std::size_t count) {
  WriteBytes(values, count * sizeof(std::uint64_t));
}

void ByteWriter::WriteI64(std::int64_t value) {
  WriteU64(static_cast<std::uint64_t>(value));
}

void ByteWriter::WriteDouble(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteString(const std::string& value) {
  WriteU64(value.size());
  WriteBytes(value.data(), value.size());
}

void ByteWriter::WriteBytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

Result<std::uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) return Status::IoError("serde: truncated u8");
  return data_[offset_++];
}

Result<std::uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) return Status::IoError("serde: truncated u32");
  std::uint32_t value = 0;
  std::memcpy(&value, data_ + offset_, sizeof(value));
  offset_ += sizeof(value);
  return value;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) return Status::IoError("serde: truncated u64");
  std::uint64_t value = 0;
  std::memcpy(&value, data_ + offset_, sizeof(value));
  offset_ += sizeof(value);
  return value;
}

Result<std::int64_t> ByteReader::ReadI64() {
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t value, ReadU64());
  return static_cast<std::int64_t>(value);
}

Result<double> ByteReader::ReadDouble() {
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t bits, ReadU64());
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<std::string> ByteReader::ReadString() {
  DBTF_ASSIGN_OR_RETURN(const std::uint64_t length, ReadU64());
  if (length > remaining()) {
    return Status::IoError("serde: string length exceeds remaining buffer");
  }
  std::string value(reinterpret_cast<const char*>(data_ + offset_),
                    static_cast<std::size_t>(length));
  offset_ += static_cast<std::size_t>(length);
  return value;
}

Status ByteReader::ReadBytes(void* out, std::size_t size) {
  if (size > remaining()) return Status::IoError("serde: truncated bytes");
  if (size == 0) return Status::OK();  // `out` may be null for an empty run
  std::memcpy(out, data_ + offset_, size);
  offset_ += size;
  return Status::OK();
}

Status ByteReader::ReadU32s(std::uint32_t* out, std::size_t count) {
  if (count > remaining() / sizeof(std::uint32_t)) {
    return Status::IoError("serde: truncated u32 run");
  }
  return ReadBytes(out, count * sizeof(std::uint32_t));
}

Status ByteReader::ReadU64s(std::uint64_t* out, std::size_t count) {
  if (count > remaining() / sizeof(std::uint64_t)) {
    return Status::IoError("serde: truncated u64 run");
  }
  return ReadBytes(out, count * sizeof(std::uint64_t));
}

Status ByteReader::ExpectEnd() const {
  if (offset_ != size_) {
    return Status::IoError("serde: trailing bytes after parsed payload");
  }
  return Status::OK();
}

}  // namespace dbtf
