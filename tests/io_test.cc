#include "tensor/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "test_util.h"

namespace dbtf {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TensorIo, RoundTrip) {
  const SparseTensor t = dbtf::testing::RandomTensor(10, 12, 14, 0.1, 5);
  const std::string path = TempPath("tensor_roundtrip.txt");
  ASSERT_TRUE(WriteTensorText(t, path).ok());
  auto back = ReadTensorText(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, t);
  EXPECT_EQ(back->dim_i(), 10);
  EXPECT_EQ(back->dim_j(), 12);
  EXPECT_EQ(back->dim_k(), 14);
  std::remove(path.c_str());
}

TEST(TensorIo, EmptyTensorRoundTrip) {
  auto t = SparseTensor::Create(3, 3, 3);
  ASSERT_TRUE(t.ok());
  const std::string path = TempPath("tensor_empty.txt");
  ASSERT_TRUE(WriteTensorText(*t, path).ok());
  auto back = ReadTensorText(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumNonZeros(), 0);
  EXPECT_EQ(back->dim_i(), 3);
  std::remove(path.c_str());
}

TEST(TensorIo, HeaderlessInfersDimensions) {
  const std::string path = TempPath("tensor_headerless.txt");
  {
    std::ofstream out(path);
    out << "# comment line\n";
    out << "0 1 2\n";
    out << "4 0 0\n";
  }
  auto t = ReadTensorText(path);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->dim_i(), 5);
  EXPECT_EQ(t->dim_j(), 2);
  EXPECT_EQ(t->dim_k(), 3);
  EXPECT_EQ(t->NumNonZeros(), 2);
  EXPECT_TRUE(t->Contains(0, 1, 2));
  std::remove(path.c_str());
}

TEST(TensorIo, MissingFileFails) {
  auto t = ReadTensorText(TempPath("does_not_exist.txt"));
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIoError);
}

TEST(TensorIo, MalformedLineFails) {
  const std::string path = TempPath("tensor_malformed.txt");
  {
    std::ofstream out(path);
    out << "1 2\n";
  }
  EXPECT_FALSE(ReadTensorText(path).ok());
  std::remove(path.c_str());
}

TEST(TensorIo, NegativeCoordinateFails) {
  const std::string path = TempPath("tensor_negative.txt");
  {
    std::ofstream out(path);
    out << "0 0 0\n";
    out << "-1 0 0\n";
  }
  EXPECT_FALSE(ReadTensorText(path).ok());
  std::remove(path.c_str());
}

// --- Parser parity ----------------------------------------------------------
//
// Each case pins what the reader accepted or rejected before it moved to a
// bulk from_chars parser, so the rewrite keeps the text format it accepts.

/// Writes `content` byte for byte (no newline translation) and reads it back.
Result<SparseTensor> ReadRaw(const std::string& name,
                             const std::string& content) {
  const std::string path = TempPath(name);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  Result<SparseTensor> t = ReadTensorText(path);
  std::remove(path.c_str());
  return t;
}

TEST(TensorIoParity, CrlfTabsCommentsAndBlankLines) {
  auto t = ReadRaw("parity_crlf.txt",
                   "# leading comment\r\n"
                   "3\t3\t3\t2\r\n"
                   "\n"
                   "# another comment\r\n"
                   "0\t1 2\r\n"
                   "  2 2\t0\r\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->dim_i(), 3);
  EXPECT_EQ(t->dim_j(), 3);
  EXPECT_EQ(t->dim_k(), 3);
  EXPECT_EQ(t->NumNonZeros(), 2);
  EXPECT_TRUE(t->Contains(0, 1, 2));
  EXPECT_TRUE(t->Contains(2, 2, 0));
}

TEST(TensorIoParity, OnlyEmptyLinesCountAsBlank) {
  // A blank line is an empty one; a line holding only "\r" or spaces is a
  // malformed entry, as is a comment that does not start in column one.
  EXPECT_EQ(ReadRaw("parity_cr_blank.txt", "0 0 0\r\n\r\n1 1 1\r\n")
                .status()
                .code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadRaw("parity_space_blank.txt", "0 0 0\n   \n").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadRaw("parity_indented_comment.txt", "0 0 0\n # c\n")
                .status()
                .code(),
            StatusCode::kIoError);
}

TEST(TensorIoParity, LastLineWithoutNewline) {
  auto t = ReadRaw("parity_no_eol.txt", "2 2 2 1\n1 1 1");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->NumNonZeros(), 1);
  EXPECT_TRUE(t->Contains(1, 1, 1));
}

TEST(TensorIoParity, EmptyAndCommentOnlyFiles) {
  for (const std::string content : {"", "# nothing\n", "\n\n"}) {
    auto t = ReadRaw("parity_empty.txt", content);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t->dim_i(), 0);
    EXPECT_EQ(t->dim_j(), 0);
    EXPECT_EQ(t->dim_k(), 0);
    EXPECT_EQ(t->NumNonZeros(), 0);
  }
}

TEST(TensorIoParity, ThreeVersusFourNumberFirstLine) {
  // Three numbers: an entry, and dims are inferred.
  auto headerless = ReadRaw("parity_three.txt", "1 2 3\n0 0 0\n");
  ASSERT_TRUE(headerless.ok()) << headerless.status().ToString();
  EXPECT_EQ(headerless->dim_i(), 2);
  EXPECT_EQ(headerless->dim_j(), 3);
  EXPECT_EQ(headerless->dim_k(), 4);
  EXPECT_EQ(headerless->NumNonZeros(), 2);

  // Four (or more) numbers: the "I J K nnz" header. Only the first line can
  // be a header; a later four-number line is the entry of its first three.
  auto header = ReadRaw("parity_four.txt", "4 5 6 7 8\n1 2 3 3\n");
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->dim_i(), 4);
  EXPECT_EQ(header->dim_j(), 5);
  EXPECT_EQ(header->dim_k(), 6);
  EXPECT_EQ(header->NumNonZeros(), 1);
  EXPECT_TRUE(header->Contains(1, 2, 3));

  // A first line whose fourth token is not a number is an entry.
  auto junk = ReadRaw("parity_four_junk.txt", "1 2 3 x\n");
  ASSERT_TRUE(junk.ok()) << junk.status().ToString();
  EXPECT_EQ(junk->dim_i(), 2);
  EXPECT_TRUE(junk->Contains(1, 2, 3));
}

TEST(TensorIoParity, LeadingPlusIsAccepted) {
  auto t = ReadRaw("parity_plus.txt", "+3 3 +3 +1\n+1 +2 0\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->dim_i(), 3);
  EXPECT_TRUE(t->Contains(1, 2, 0));
  EXPECT_EQ(ReadRaw("parity_plus_minus.txt", "+-1 0 0\n").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadRaw("parity_bare_plus.txt", "+ 1 0 0\n").status().code(),
            StatusCode::kIoError);
}

TEST(TensorIoParity, MalformedAndNegativeInput) {
  EXPECT_EQ(ReadRaw("parity_letters.txt", "a b c\n").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadRaw("parity_two.txt", "0 0 0\n1 2\n").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadRaw("parity_comma.txt", "1,2,3\n").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadRaw("parity_negative.txt", "0 -1 0\n").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadRaw("parity_negative_dim.txt", "-1 2 2 0\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TensorIoParity, TextAfterTheThirdNumberIsIgnored) {
  auto t = ReadRaw("parity_trailing.txt", "2 2 2 2\n0 1 1 trailing\n1 0 1.5\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->NumNonZeros(), 2);
  EXPECT_TRUE(t->Contains(0, 1, 1));
  EXPECT_TRUE(t->Contains(1, 0, 1));
}

TEST(TensorIoParity, CoordinatesPast32BitsAreErrorsNotWraps) {
  // 2^32 + 1 would wrap to 1, inside the header's dims.
  EXPECT_EQ(ReadRaw("parity_wrap_header.txt", "5 5 5 1\n4294967297 0 0\n")
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // Without a header the inferred dimension does not fit in 32 bits.
  EXPECT_EQ(ReadRaw("parity_wrap_inferred.txt", "4294967296 0 0\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadRaw("parity_max_u32.txt", "4294967295 0 0\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TensorIoParity, ValuePastInt64IsMalformed) {
  EXPECT_EQ(ReadRaw("parity_past_i64.txt", "9223372036854775808 0 0\n")
                .status()
                .code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadRaw("parity_past_i64_neg.txt", "-9223372036854775809 0 0\n")
                .status()
                .code(),
            StatusCode::kIoError);
}

TEST(TensorIoParity, CoordinateOutsideHeaderDimsIsOutOfRange) {
  EXPECT_EQ(ReadRaw("parity_outside.txt", "2 2 2 1\n0 2 0\n").status().code(),
            StatusCode::kOutOfRange);
}

TEST(TensorIoParity, HugeHeaderNnzInATinyFile) {
  // A reserve taken from the header alone would ask for 2^60 entries.
  auto t = ReadRaw("parity_huge_nnz.txt", "2 2 2 1152921504606846976\n1 1 1\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->NumNonZeros(), 1);
}

TEST(TensorIoParity, UnsortedAndDuplicateEntriesAreNormalized) {
  auto t = ReadRaw("parity_unsorted.txt", "1 1 1\n0 0 0\n1 1 1\n0 1 0\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->NumNonZeros(), 3);
  EXPECT_EQ(t->entries()[0], (Coord{0, 0, 0}));
  EXPECT_EQ(t->entries()[1], (Coord{0, 1, 0}));
  EXPECT_EQ(t->entries()[2], (Coord{1, 1, 1}));
}

TEST(MatrixIo, RoundTrip) {
  auto m = BitMatrix::FromStrings({"0101", "1110", "0000"});
  ASSERT_TRUE(m.ok());
  const std::string path = TempPath("matrix_roundtrip.txt");
  ASSERT_TRUE(WriteMatrixText(*m, path).ok());
  auto back = ReadMatrixText(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, *m);
  std::remove(path.c_str());
}

TEST(MatrixIo, WideMatrixRoundTrip) {
  Rng rng(7);
  const BitMatrix m = BitMatrix::Random(5, 130, 0.3, &rng);
  const std::string path = TempPath("matrix_wide.txt");
  ASSERT_TRUE(WriteMatrixText(m, path).ok());
  auto back = ReadMatrixText(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
  std::remove(path.c_str());
}

TEST(MatrixIo, TruncatedRowFails) {
  const std::string path = TempPath("matrix_truncated.txt");
  {
    std::ofstream out(path);
    out << "2 4\n";
    out << "0101\n";
    out << "01\n";
  }
  EXPECT_FALSE(ReadMatrixText(path).ok());
  std::remove(path.c_str());
}

TEST(MatrixIo, BadCharacterFails) {
  const std::string path = TempPath("matrix_badchar.txt");
  {
    std::ofstream out(path);
    out << "1 3\n";
    out << "0x1\n";
  }
  EXPECT_FALSE(ReadMatrixText(path).ok());
  std::remove(path.c_str());
}

TEST(MatrixIo, MissingFileFails) {
  EXPECT_FALSE(ReadMatrixText(TempPath("nope_matrix.txt")).ok());
}

}  // namespace
}  // namespace dbtf
