#include "common/serde.h"

#include <array>
#include <cstring>

namespace dbtf {
namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0xEDB88320U : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> kTable = BuildCrcTable();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xFFU] ^ (crc >> 8);
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
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void ByteWriter::WriteU64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
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
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return value;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) return Status::IoError("serde: truncated u64");
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
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
  std::memcpy(out, data_ + offset_, size);
  offset_ += size;
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (offset_ != size_) {
    return Status::IoError("serde: trailing bytes after parsed payload");
  }
  return Status::OK();
}

}  // namespace dbtf
