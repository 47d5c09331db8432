#include "common/serde.h"

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "dbtf/partition.h"
#include "dist/messages.h"
#include "dist/transport/socket.h"
#include "dist/transport/wire.h"
#include "tensor/bit_matrix.h"
#include "test_util.h"

namespace dbtf {
namespace {

TEST(Crc32Test, MatchesIeeeTestVector) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, SensitiveToEveryByte) {
  const std::string a = "checkpoint";
  std::string b = a;
  b[3] ^= 0x01;
  EXPECT_NE(Crc32(a.data(), a.size()), Crc32(b.data(), b.size()));
}

TEST(Fnv1a64Test, DistinguishesContent) {
  const std::string a = "config-a";
  const std::string b = "config-b";
  EXPECT_NE(Fnv1a64(a.data(), a.size()), Fnv1a64(b.data(), b.size()));
  EXPECT_EQ(Fnv1a64(a.data(), a.size()), Fnv1a64(a.data(), a.size()));
}

TEST(Fnv1a64Test, EmptyInputIsOffsetBasis) {
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ull);
}

TEST(SerdeTest, RoundTripsEveryType) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI64(-42);
  w.WriteI64(std::numeric_limits<std::int64_t>::min());
  w.WriteDouble(3.141592653589793);
  w.WriteString("factor");
  w.WriteString("");  // empty strings round-trip too

  ByteReader r(w.bytes());
  ASSERT_TRUE(r.ReadU8().ok());
  ByteReader r2(w.bytes());
  EXPECT_EQ(r2.ReadU8().value(), 0xAB);
  EXPECT_EQ(r2.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r2.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r2.ReadI64().value(), -42);
  EXPECT_EQ(r2.ReadI64().value(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r2.ReadDouble().value(), 3.141592653589793);
  EXPECT_EQ(r2.ReadString().value(), "factor");
  EXPECT_EQ(r2.ReadString().value(), "");
  EXPECT_TRUE(r2.ExpectEnd().ok());
}

TEST(SerdeTest, LittleEndianOnTheWire) {
  ByteWriter w;
  w.WriteU32(0x01020304u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[1], 0x03);
  EXPECT_EQ(w.bytes()[2], 0x02);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(SerdeTest, RawBytesRoundTrip) {
  const std::uint8_t payload[4] = {1, 2, 3, 4};
  ByteWriter w;
  w.WriteBytes(payload, sizeof(payload));
  ByteReader r(w.bytes());
  std::uint8_t out[4] = {0, 0, 0, 0};
  ASSERT_TRUE(r.ReadBytes(out, sizeof(out)).ok());
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeTest, TruncationFailsEveryReader) {
  ByteWriter w;
  w.WriteU64(7);
  // Chop one byte off; every multi-byte read past the end must fail with
  // kIoError instead of reading out of bounds.
  ByteReader r(w.bytes().data(), w.size() - 1);
  EXPECT_EQ(r.ReadU64().status().code(), StatusCode::kIoError);

  ByteReader empty(w.bytes().data(), 0);
  EXPECT_EQ(empty.ReadU8().status().code(), StatusCode::kIoError);
  EXPECT_EQ(empty.ReadU32().status().code(), StatusCode::kIoError);
  EXPECT_EQ(empty.ReadI64().status().code(), StatusCode::kIoError);
  EXPECT_EQ(empty.ReadDouble().status().code(), StatusCode::kIoError);
  EXPECT_EQ(empty.ReadString().status().code(), StatusCode::kIoError);
  std::uint8_t sink = 0;
  EXPECT_EQ(empty.ReadBytes(&sink, 1).code(), StatusCode::kIoError);
}

TEST(SerdeTest, StringLengthBeyondBufferIsRejected) {
  // A length prefix claiming more bytes than remain must fail before any
  // allocation, not over-read.
  ByteWriter w;
  w.WriteU64(1000);  // claims a 1000-byte string...
  w.WriteU8('x');    // ...but only one byte follows
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadString().status().code(), StatusCode::kIoError);
}

TEST(SerdeTest, TrailingBytesAreRejected) {
  ByteWriter w;
  w.WriteU32(5);
  w.WriteU8(0xFF);  // one stray byte after the parsed prefix
  ByteReader r(w.bytes());
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_EQ(r.ExpectEnd().code(), StatusCode::kIoError);
  ASSERT_TRUE(r.ReadU8().ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeTest, WriterCrcTracksContent) {
  ByteWriter w;
  EXPECT_EQ(w.Crc(), 0u);
  w.WriteString("123456789");
  // The string is length-prefixed, so the CRC covers prefix + payload.
  EXPECT_EQ(w.Crc(), Crc32(w.bytes().data(), w.size()));
  const std::uint32_t before = w.Crc();
  w.WriteU8(0);
  EXPECT_NE(w.Crc(), before);
}

TEST(SerdeTest, OffsetAndRemainingTrackReads) {
  ByteWriter w;
  w.WriteU32(1);
  w.WriteU32(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.offset(), 0u);
  EXPECT_EQ(r.remaining(), 8u);
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_EQ(r.offset(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

// --- Wire-message codecs (dist/transport/wire.h) ----------------------------
//
// Property-style coverage of every WireMessage kind: encode -> decode ->
// encode must be byte-stable (the codecs are exact inverses), every strict
// prefix of an encoding must be rejected with a Status (truncation is never
// UB — the bytes arrive from another process), and frame-level corruption
// must be caught by the CRC trailer.

/// Encodes, decodes, re-encodes, and asserts byte-stability. The decoder
/// must also consume the buffer exactly (no trailing bytes, nothing short).
template <typename T, typename Encode, typename Decode>
void ExpectWireRoundTrip(const T& msg, const Encode& encode,
                         const Decode& decode) {
  ByteWriter first;
  encode(msg, &first);
  ByteReader reader(first.bytes());
  auto decoded = decode(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(reader.ExpectEnd().ok());
  ByteWriter second;
  encode(*decoded, &second);
  EXPECT_EQ(first.bytes(), second.bytes());
}

/// Every strict prefix of `bytes` must fail to decode — with a Status, not
/// UB (run under ASan/UBSan in CI, this is the no-overread proof).
template <typename Decode>
void ExpectEveryTruncationRejected(const std::vector<std::uint8_t>& bytes,
                                   const Decode& decode) {
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader reader(bytes.data(), cut);
    auto decoded = decode(&reader);
    // Either a read ran off the shortened buffer, or the decoder finished
    // early without consuming what the full encoding contains.
    const bool rejected = !decoded.ok() || !reader.ExpectEnd().ok();
    EXPECT_TRUE(rejected) << "prefix of " << cut << " of " << bytes.size()
                          << " bytes decoded cleanly";
  }
}

BitMatrix TestMatrix(std::int64_t rows, std::int64_t cols,
                     std::uint64_t seed) {
  BitMatrix m(rows, cols);
  std::uint64_t state = seed;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      m.Set(r, c, (state >> 62) & 1);
    }
  }
  return m;
}

FactorDelta TestFactorDelta() {
  FactorDelta msg;
  msg.mode = Mode::kTwo;
  msg.rows = 24;
  msg.mf_slot = 2;
  msg.ms_slot = 1;
  msg.cache_group_size = 7;
  msg.enable_caching = false;
  MatrixDelta full;
  full.slot = 2;
  full.generation = 41;
  full.full = true;
  full.dense = TestMatrix(12, 5, 3);
  full.rows = 12;
  full.cols = 5;
  msg.updates.push_back(std::move(full));
  MatrixDelta delta;
  delta.slot = 1;
  delta.generation = 42;
  delta.base_generation = 40;
  delta.full = false;
  delta.rows = 70;  // two BitWords per column
  delta.cols = 4;
  delta.columns = {0, 3};
  delta.column_bits = {{0x00000000000000FFull, 0x1Full},
                       {0xAAAAAAAAAAAAAAAAull, 0x2Aull}};
  msg.updates.push_back(std::move(delta));
  return msg;
}

StorePartitionRequest TestStoreRequest() {
  using dbtf::testing::RandomTensor;
  const SparseTensor t = RandomTensor(12, 10, 8, 0.3, 99);
  auto unfolding = PartitionedUnfolding::Build(t, Mode::kOne, 2);
  StorePartitionRequest msg;
  msg.mode = Mode::kOne;
  msg.index = 1;
  msg.shape = unfolding->shape();
  std::vector<Partition> parts = std::move(*unfolding).ReleasePartitions();
  msg.partition = std::move(parts[parts.size() > 1 ? 1 : 0]);
  return msg;
}

TEST(WireCodec, FactorDeltaRoundTripsByteStable) {
  ExpectWireRoundTrip(TestFactorDelta(), EncodeFactorDelta, DecodeFactorDelta);
}

TEST(WireCodec, FactorDeltaTruncationRejected) {
  ByteWriter w;
  EncodeFactorDelta(TestFactorDelta(), &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeFactorDelta);
}

TEST(WireCodec, RunUpdateColumnRoundTripsByteStable) {
  RunUpdateColumn msg;
  msg.mode = Mode::kThree;
  msg.column = 5;
  msg.rows = 3;
  msg.row_masks = {0x1ull, 0xFFFFull, 0x8000000000000001ull};
  ExpectWireRoundTrip(msg, EncodeRunUpdateColumn, DecodeRunUpdateColumn);
  ByteWriter w;
  EncodeRunUpdateColumn(msg, &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeRunUpdateColumn);
}

TEST(WireCodec, CollectErrorsRequestRoundTripsByteStable) {
  CollectErrorsRequest msg;
  msg.mode = Mode::kTwo;
  msg.rows = 17;
  msg.want_stats = true;
  ExpectWireRoundTrip(msg, EncodeCollectErrorsRequest,
                      DecodeCollectErrorsRequest);
  ByteWriter w;
  EncodeCollectErrorsRequest(msg, &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeCollectErrorsRequest);
}

TEST(WireCodec, CollectErrorsResponseRoundTripsByteStable) {
  CollectErrorsResponse msg;
  msg.totals0 = {0, 5, 123456789};
  msg.totals1 = {9, 0, 42};
  msg.wire_bytes = 4096;
  msg.cache_entries = 17;
  msg.cache_bytes = 2048;
  ExpectWireRoundTrip(msg, EncodeCollectErrorsResponse,
                      DecodeCollectErrorsResponse);
  ByteWriter w;
  EncodeCollectErrorsResponse(msg, &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeCollectErrorsResponse);
}

TEST(WireCodec, StorePartitionRequestRoundTripsByteStable) {
  const StorePartitionRequest msg = TestStoreRequest();
  ExpectWireRoundTrip(msg, EncodeStorePartitionRequest,
                      DecodeStorePartitionRequest);
  ByteWriter w;
  EncodeStorePartitionRequest(msg, &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeStorePartitionRequest);
}

TEST(WireCodec, ListPartitionsRoundTripsByteStable) {
  {
    ByteWriter first;
    EncodeListPartitionsRequest(Mode::kThree, &first);
    ByteReader reader(first.bytes());
    auto mode = DecodeListPartitionsRequest(&reader);
    ASSERT_TRUE(mode.ok());
    ASSERT_TRUE(reader.ExpectEnd().ok());
    ByteWriter second;
    EncodeListPartitionsRequest(*mode, &second);
    EXPECT_EQ(first.bytes(), second.bytes());
    ExpectEveryTruncationRejected(first.bytes(), DecodeListPartitionsRequest);
  }
  {
    const std::vector<std::int64_t> indexes = {0, 7, 3};
    ByteWriter first;
    EncodeListPartitionsResponse(indexes, &first);
    ByteReader reader(first.bytes());
    auto decoded = DecodeListPartitionsResponse(&reader);
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(reader.ExpectEnd().ok());
    EXPECT_EQ(*decoded, indexes);
    ExpectEveryTruncationRejected(first.bytes(), DecodeListPartitionsResponse);
  }
}

TEST(WireCodec, ReplyRoundTripsByteStable) {
  WireReply reply;
  reply.status = Status::FailedPrecondition("stale base generation");
  reply.compute_seconds = 0.125;
  reply.body = {1, 2, 3, 0xFF, 0};
  ExpectWireRoundTrip(reply, EncodeReply, DecodeReply);
  ByteWriter w;
  EncodeReply(reply, &w);
  ExpectEveryTruncationRejected(w.bytes(), DecodeReply);
}

TEST(WireCodec, InvalidModeIsRejectedNotUb) {
  ByteWriter w;
  w.WriteU8(9);  // Mode is 1..3 on the wire
  ByteReader reader(w.bytes());
  EXPECT_FALSE(DecodeListPartitionsRequest(&reader).ok());
}

TEST(WireFrameTest, FrameRoundTripsAndRejectsDamage) {
  ByteWriter payload;
  EncodeRunUpdateColumn(
      RunUpdateColumn{Mode::kOne, 2, {0xF0ull, 0x0Full}, 2}, &payload);
  const std::vector<std::uint8_t> frame =
      EncodeFrame(WireKind::kRunUpdateColumn, payload);
  ASSERT_GE(frame.size(), kFrameHeaderBytes + kFrameCrcBytes);

  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, WireKind::kRunUpdateColumn);
  EXPECT_EQ(decoded->payload, payload.bytes());

  // Every single-bit flip anywhere in the frame is rejected: header damage
  // fails the magic/version/kind/length checks, payload damage fails the
  // CRC, CRC damage fails the comparison.
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    std::vector<std::uint8_t> damaged = frame;
    damaged[byte] ^= 0x40;
    auto result = DecodeFrame(damaged);
    EXPECT_FALSE(result.ok()) << "bit flip in byte " << byte << " accepted";
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    }
  }

  // Truncation at every length is a clean kIoError, never an overread.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<std::uint8_t> short_frame(frame.begin(),
                                          frame.begin() + cut);
    EXPECT_FALSE(DecodeFrame(short_frame).ok());
  }
}

TEST(WireFrameTest, ShutdownFrameIsEmptyPayload) {
  ByteWriter empty;
  const std::vector<std::uint8_t> frame =
      EncodeFrame(WireKind::kShutdown, empty);
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, WireKind::kShutdown);
  EXPECT_TRUE(decoded->payload.empty());
}

/// A padding-bit violation in a dense matrix payload is data corruption the
/// CRC cannot see (it was encoded that way); the decoder must reject it
/// rather than import a matrix whose popcounts lie.
TEST(WireCodec, PaddingBitViolationRejected) {
  MatrixDelta d;
  d.slot = 0;
  d.generation = 1;
  d.full = true;
  d.dense = TestMatrix(3, 5, 11);  // 5 cols -> 59 padding bits per word
  d.rows = 3;
  d.cols = 5;
  FactorDelta msg;
  msg.mode = Mode::kOne;
  msg.rows = 3;
  msg.updates.push_back(std::move(d));
  ByteWriter w;
  EncodeFactorDelta(msg, &w);
  // The matrix words are the trailing cols-bit groups; flip a high bit in
  // the last row word (belongs to padding, not to any column).
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes[bytes.size() - 1] ^= 0x80;  // top byte of the final little-endian word
  ByteReader reader(bytes);
  auto decoded = DecodeFactorDelta(&reader);
  EXPECT_FALSE(decoded.ok());
}


// --- Byte-stability goldens -------------------------------------------------
//
// Recorded with the byte-at-a-time codecs (one push_back or shift per byte,
// bytewise table CRC) before the word-run rewrite. The wire and checkpoint
// formats promise bytes that do not depend on how they are produced, so
// these digests must never move without a kWireVersion / kFormatVersion
// bump.

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::uint8_t> SplitMixBytes(std::size_t size, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes(size);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t word = SplitMix64(&state);
    for (std::size_t b = 0; b < 8 && i + b < size; ++b) {
      bytes[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return bytes;
}

/// Bit-at-a-time CRC-32/IEEE: the definition the table-driven Crc32 must
/// reproduce.
std::uint32_t ReferenceCrc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> bytes = SplitMixBytes(256 + 8, 17);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 256; ++length) {
      ASSERT_EQ(Crc32(bytes.data() + offset, length),
                ReferenceCrc32(bytes.data() + offset, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Crc32Test, GoldenOneMebibyte) {
  // Checkpoint blobs and frames written before the slice-by-8 rewrite carry
  // CRCs computed bytewise; they must still verify.
  const std::vector<std::uint8_t> bytes =
      SplitMixBytes(std::size_t{1} << 20, 1);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x0F206EBAu);
}

/// FNV-1a of one encoding: a compact pin of every byte.
template <typename T, typename Encode>
std::uint64_t EncodedDigest(const T& msg, const Encode& encode) {
  ByteWriter writer;
  encode(msg, &writer);
  return Fnv1a64(writer.bytes().data(), writer.size());
}

/// A hand-built three-block partition: 5 rows (an odd u32 row-nnz run), and
/// block widths 100, 36 and 64 — the first two end on a ragged last word.
StorePartitionRequest GoldenStoreRequest() {
  StorePartitionRequest msg;
  msg.mode = Mode::kTwo;
  msg.index = 3;
  msg.shape = UnfoldShape{5, 4, 100};
  msg.partition.col_begin = 100;
  msg.partition.col_end = 300;
  const struct {
    std::int64_t block, begin, end;
    BlockType type;
  } kBlocks[] = {{1, 0, 100, BlockType::kFullPvm},
                 {2, 64, 100, BlockType::kSuffix},
                 {3, 0, 64, BlockType::kPrefix}};
  std::uint64_t seed = 5;
  for (const auto& spec : kBlocks) {
    PartitionBlock block;
    block.block_index = spec.block;
    block.within_begin = spec.begin;
    block.within_end = spec.end;
    block.word_begin = spec.begin / 64;
    const std::int64_t width = spec.end - spec.begin;
    block.last_word_mask =
        width % 64 == 0 ? ~0ull : (std::uint64_t{1} << (width % 64)) - 1;
    block.type = spec.type;
    block.rows = TestMatrix(5, width, seed++);
    for (std::int64_t r = 0; r < block.rows.rows(); ++r) {
      block.row_nnz.push_back(static_cast<std::int32_t>(block.rows.RowNnz(r)));
    }
    msg.partition.blocks.push_back(std::move(block));
  }
  return msg;
}

FactorDelta GoldenFullDelta() {
  FactorDelta msg;
  msg.mode = Mode::kThree;
  msg.rows = 40;
  msg.mf_slot = 0;
  msg.ms_slot = 1;
  msg.cache_group_size = 15;
  msg.enable_caching = true;
  for (int slot = 0; slot < 2; ++slot) {
    MatrixDelta d;
    d.slot = slot;
    d.generation = 100 + static_cast<std::uint64_t>(slot);
    d.full = true;
    d.dense = TestMatrix(slot == 0 ? 33 : 70, slot == 0 ? 9 : 64,
                         static_cast<std::uint64_t>(21 + slot));
    d.rows = d.dense.rows();
    d.cols = d.dense.cols();
    msg.updates.push_back(std::move(d));
  }
  return msg;
}

FactorDelta GoldenColumnDelta() {
  FactorDelta msg;
  msg.mode = Mode::kOne;
  msg.rows = 130;
  msg.mf_slot = 1;
  msg.ms_slot = 2;
  msg.cache_group_size = 8;
  msg.apply_only = true;
  MatrixDelta d;
  d.slot = 2;
  d.generation = 77;
  d.base_generation = 76;
  d.full = false;
  d.rows = 130;  // three words per column, the last one ragged
  d.cols = 12;
  d.columns = {0, 5, 11};
  std::uint64_t state = 9;
  for (std::size_t i = 0; i < d.columns.size(); ++i) {
    std::vector<BitWord> bits;
    for (int w = 0; w < 3; ++w) bits.push_back(SplitMix64(&state));
    bits[2] &= 0x3ull;  // 130 rows: two live bits in the last word
    d.column_bits.push_back(std::move(bits));
  }
  msg.updates.push_back(std::move(d));
  return msg;
}

RunUpdateColumn GoldenRunUpdateColumn() {
  RunUpdateColumn msg;
  msg.mode = Mode::kTwo;
  msg.column = 13;
  msg.rows = 11;
  std::uint64_t state = 31;
  for (std::int64_t r = 0; r < msg.rows; ++r) {
    msg.row_masks.push_back(SplitMix64(&state));
  }
  return msg;
}

CollectErrorsResponse GoldenCollectResponse() {
  CollectErrorsResponse msg;
  for (std::int64_t r = 0; r < 9; ++r) {
    msg.totals0.push_back(r * 1000003 - 7);
    msg.totals1.push_back(-r * 65537 + (std::int64_t{1} << 40));
  }
  msg.wire_bytes = 8 * 9 * 2;
  msg.cache_entries = 4096;
  msg.cache_bytes = 1 << 20;
  return msg;
}

QueryRequest GoldenQueryRequest() {
  QueryRequest msg;
  msg.kind = QueryKind::kTopConcepts;
  msg.id = 0xABCDEF;
  msg.mode = Mode::kTwo;
  msg.i = 3;
  msg.j = 1;
  msg.k = 4;
  msg.top_r = 5;
  msg.slice_len = 150;  // three words, the last one ragged
  std::uint64_t state = 41;
  for (int w = 0; w < 3; ++w) msg.slice_bits.push_back(SplitMix64(&state));
  msg.slice_bits[2] &= (std::uint64_t{1} << 22) - 1;
  return msg;
}

QueryResponse GoldenQueryResponse() {
  QueryResponse msg;
  msg.id = 0xABCDEF;
  msg.member = true;
  msg.explain_mask = 0x8000000000000011ull;
  msg.fiber_len = 70;
  msg.fiber_bits = {0x0123456789ABCDEFull, 0x3Full};
  msg.concept_ids = {7, 2, 63};
  msg.concept_scores = {120, 64, -1};
  msg.generations = {11, 12, 13};
  return msg;
}

TEST(WireGolden, EncodingsAreByteStable) {
  EXPECT_EQ(EncodedDigest(GoldenStoreRequest(), EncodeStorePartitionRequest),
            0xeca2e049e8708018ull);
  EXPECT_EQ(EncodedDigest(GoldenFullDelta(), EncodeFactorDelta),
            0xa520bae150eca797ull);
  EXPECT_EQ(EncodedDigest(GoldenColumnDelta(), EncodeFactorDelta),
            0x2ed1c2949ebfb1a1ull);
  EXPECT_EQ(EncodedDigest(GoldenRunUpdateColumn(), EncodeRunUpdateColumn),
            0x3956aa3db7f9a08dull);
  EXPECT_EQ(
      EncodedDigest(GoldenCollectResponse(), EncodeCollectErrorsResponse),
      0x221f83608790b070ull);
  EXPECT_EQ(EncodedDigest(GoldenQueryRequest(), EncodeQueryRequest),
            0x30044798aaccee90ull);
  EXPECT_EQ(EncodedDigest(GoldenQueryResponse(), EncodeQueryResponse),
            0x93617f922b3c76d2ull);
}

TEST(WireGolden, WholeFrameIsByteStable) {
  ByteWriter payload;
  EncodeStorePartitionRequest(GoldenStoreRequest(), &payload);
  const std::vector<std::uint8_t> frame =
      EncodeFrame(WireKind::kStorePartition, payload);
  EXPECT_EQ(frame.size(), 490u);
  EXPECT_EQ(Fnv1a64(frame.data(), frame.size()), 0x4d88e673d5261e37ull);
}

TEST(WireGolden, GoldenMessagesRoundTrip) {
  ExpectWireRoundTrip(GoldenStoreRequest(), EncodeStorePartitionRequest,
                      DecodeStorePartitionRequest);
  ExpectWireRoundTrip(GoldenFullDelta(), EncodeFactorDelta, DecodeFactorDelta);
  ExpectWireRoundTrip(GoldenColumnDelta(), EncodeFactorDelta,
                      DecodeFactorDelta);
  ExpectWireRoundTrip(GoldenRunUpdateColumn(), EncodeRunUpdateColumn,
                      DecodeRunUpdateColumn);
  ExpectWireRoundTrip(GoldenCollectResponse(), EncodeCollectErrorsResponse,
                      DecodeCollectErrorsResponse);
  ExpectWireRoundTrip(GoldenQueryRequest(), EncodeQueryRequest,
                      DecodeQueryRequest);
  ExpectWireRoundTrip(GoldenQueryResponse(), EncodeQueryResponse,
                      DecodeQueryResponse);
}


/// Flips bit `bit` of the second word of `row` in the golden request's
/// first block (width 100: bits 36..63 of that word are padding).
std::vector<std::uint8_t> GoldenStoreWithBitSet(std::int64_t row, int bit) {
  ByteWriter writer;
  EncodeStorePartitionRequest(GoldenStoreRequest(), &writer);
  std::vector<std::uint8_t> bytes = writer.bytes();
  // mode + six i64 header fields + block count, then the block's four i64
  // bounds, last-word mask and type byte, then the matrix's i64 shape.
  const std::size_t words_start = (1 + 6 * 8 + 8) + (4 * 8 + 8 + 1) + 2 * 8;
  const std::size_t word =
      words_start + static_cast<std::size_t>(row * 2 + 1) * 8;
  bytes[word + static_cast<std::size_t>(bit / 8)] ^=
      static_cast<std::uint8_t>(1u << (bit % 8));
  return bytes;
}

TEST(WireGolden, PartitionPaddingBitRejectedInEveryRow) {
  for (const std::int64_t row : {std::int64_t{2}, std::int64_t{4}}) {
    // Column 64 is data: flipping it still decodes, which proves the offset
    // lands in this row's second word.
    const std::vector<std::uint8_t> data_flip = GoldenStoreWithBitSet(row, 0);
    ByteReader data_reader(data_flip);
    auto decoded = DecodeStorePartitionRequest(&data_reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_NE(decoded->partition.blocks[0].rows.Get(row, 64),
              GoldenStoreRequest().partition.blocks[0].rows.Get(row, 64));

    const std::vector<std::uint8_t> pad_flip = GoldenStoreWithBitSet(row, 63);
    ByteReader pad_reader(pad_flip);
    EXPECT_EQ(DecodeStorePartitionRequest(&pad_reader).status().code(),
              StatusCode::kIoError)
        << "padding bit of row " << row << " accepted";
  }
}

/// StorePartitionRequest header with valid fields up to the block count.
ByteWriter StoreHeaderWithBlockCount(std::uint64_t block_count) {
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(Mode::kOne));
  for (int field = 0; field < 6; ++field) w.WriteI64(0);
  w.WriteU64(block_count);
  return w;
}

TEST(WireCodec, HostileBlockCountCannotWrapTheBound) {
  // block_count * 65 wraps to 49 for this count; 49 bytes follow, so a
  // bound written as a product passes and reserve() throws.
  ByteWriter w = StoreHeaderWithBlockCount(~std::uint64_t{0} / 65 + 1);
  for (int i = 0; i < 49; ++i) w.WriteU8(0);
  ByteReader reader(w.bytes());
  EXPECT_EQ(DecodeStorePartitionRequest(&reader).status().code(),
            StatusCode::kIoError);
}

TEST(WireCodec, HostileRowNnzCountCannotWrapTheBound) {
  // One empty block whose row-nnz count times 4 wraps to zero.
  ByteWriter w = StoreHeaderWithBlockCount(1);
  for (int field = 0; field < 5; ++field) w.WriteU64(0);  // bounds + mask
  w.WriteU8(0);                                            // type
  w.WriteI64(0);                                           // matrix rows
  w.WriteI64(0);                                           // matrix cols
  w.WriteU64(std::uint64_t{1} << 62);                      // row-nnz count
  w.WriteU64(0);
  ByteReader reader(w.bytes());
  EXPECT_EQ(DecodeStorePartitionRequest(&reader).status().code(),
            StatusCode::kIoError);
}

TEST(SerdeTest, BulkRunsMatchSingleWrites) {
  const std::uint64_t words[3] = {0x0102030405060708ull, 0, ~0ull};
  const std::uint32_t halves[3] = {0x01020304u, 7, ~0u};
  ByteWriter single;
  ByteWriter bulk;
  for (const std::uint64_t w : words) single.WriteU64(w);
  for (const std::uint32_t h : halves) single.WriteU32(h);
  bulk.WriteU64s(words, 3);
  bulk.WriteU32s(halves, 3);
  bulk.WriteU64s(nullptr, 0);
  EXPECT_EQ(single.bytes(), bulk.bytes());

  ByteReader reader(bulk.bytes());
  std::uint64_t words_out[5] = {};
  std::uint32_t halves_out[3] = {};
  ASSERT_TRUE(reader.ReadU64s(words_out, 3).ok());
  ASSERT_TRUE(reader.ReadU32s(halves_out, 3).ok());
  EXPECT_TRUE(reader.ReadU64s(nullptr, 0).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(words_out[2], ~0ull);
  EXPECT_EQ(halves_out[0], 0x01020304u);

  // A run longer than the 36-byte buffer fails without reading, even when
  // the count times the element size would wrap.
  ByteReader short_reader(bulk.bytes());
  EXPECT_EQ(short_reader.ReadU64s(words_out, 5).code(), StatusCode::kIoError);
  EXPECT_EQ(short_reader.ReadU64s(words_out, ~std::size_t{0} / 8 + 1).code(),
            StatusCode::kIoError);
  EXPECT_EQ(short_reader.offset(), 0u);
}

TEST(WireFrameTest, SocketWriteSendsTheEncodedFrameAcrossInterrupts) {
  // A signal that interrupts a blocked send after some bytes went out makes
  // sendmsg return a short count, and one that lands before any byte makes
  // it fail with EINTR. The reader signals the writer before every chunk it
  // drains, so WriteFrameTo has to resume mid-part many times over.
  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the send must see the signal
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<std::uint8_t> body = SplitMixBytes(4 << 20, 5);
  ByteWriter payload;
  payload.WriteBytes(body.data(), body.size());
  const std::vector<std::uint8_t> expected =
      EncodeFrame(WireKind::kStorePartition, payload);

  const pthread_t writer = ::pthread_self();
  std::vector<std::uint8_t> received;
  std::thread reader([&] {
    std::vector<std::uint8_t> chunk(64 << 10);
    while (received.size() < expected.size()) {
      ::pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      const ssize_t n = ::recv(fds[1], chunk.data(), chunk.size(), 0);
      if (n <= 0) break;
      received.insert(received.end(), chunk.begin(), chunk.begin() + n);
    }
  });
  const Status written =
      WriteFrameTo(fds[0], WireKind::kStorePartition, payload);
  reader.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  ASSERT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(received, expected);

  // An empty payload still sends header and CRC.
  ByteWriter empty;
  ASSERT_TRUE(WriteFrameTo(fds[0], WireKind::kShutdown, empty).ok());
  auto frame = ReadFrameFrom(fds[1]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->frame.kind, WireKind::kShutdown);
  EXPECT_TRUE(frame->frame.payload.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireFrameTest, SocketWriteRetriesAnInterruptBeforeAnyByteGoesOut) {
  // With the send buffer already full, a signal that interrupts the blocked
  // sendmsg lands before any frame byte has gone out, so the call fails
  // with EINTR instead of returning a short count. WriteFrameTo must retry
  // it; the reader signals the writer many times before it drains a byte.
  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the send must see the signal
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A reader that gives up after 2 s, so a writer that fails cannot leave
  // it waiting for a frame that never comes.
  const timeval timeout{2, 0};
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  // Fill the send buffer without blocking, then make the socket blocking.
  const int flags = ::fcntl(fds[0], F_GETFL);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK), 0);
  const std::vector<std::uint8_t> filler(4096, 0xAB);
  std::size_t prefilled = 0;
  for (;;) {
    const ssize_t n =
        ::send(fds[0], filler.data(), filler.size(), MSG_NOSIGNAL);
    if (n < 0) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
      break;
    }
    prefilled += static_cast<std::size_t>(n);
  }
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, flags), 0);

  const std::vector<std::uint8_t> body = SplitMixBytes(1024, 9);
  ByteWriter payload;
  payload.WriteBytes(body.data(), body.size());
  const std::vector<std::uint8_t> expected =
      EncodeFrame(WireKind::kStorePartition, payload);

  const pthread_t writer = ::pthread_self();
  std::vector<std::uint8_t> received;
  std::thread reader([&] {
    for (int i = 0; i < 20; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ::pthread_kill(writer, SIGUSR1);
    }
    std::vector<std::uint8_t> chunk(64 << 10);
    while (received.size() < prefilled + expected.size()) {
      const ssize_t n = ::recv(fds[1], chunk.data(), chunk.size(), 0);
      if (n <= 0) break;
      received.insert(received.end(), chunk.begin(), chunk.begin() + n);
    }
  });
  const Status written =
      WriteFrameTo(fds[0], WireKind::kStorePartition, payload);
  reader.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  ::close(fds[0]);
  ::close(fds[1]);
  ASSERT_TRUE(written.ok()) << written.ToString();
  ASSERT_EQ(received.size(), prefilled + expected.size());
  EXPECT_EQ(std::vector<std::uint8_t>(received.begin() + prefilled,
                                      received.end()),
            expected);
}

}  // namespace
}  // namespace dbtf
