#include "tensor/sparse_tensor.h"

#include <gtest/gtest.h>

namespace dbtf {
namespace {

TEST(SparseTensor, CreateValidatesShape) {
  EXPECT_TRUE(SparseTensor::Create(1, 2, 3).ok());
  EXPECT_TRUE(SparseTensor::Create(0, 0, 0).ok());
  EXPECT_FALSE(SparseTensor::Create(-1, 2, 3).ok());
  EXPECT_FALSE(SparseTensor::Create(1, -2, 3).ok());
  EXPECT_FALSE(SparseTensor::Create(1, 2, std::int64_t{1} << 40).ok());
}

TEST(SparseTensor, DimsAndCells) {
  auto t = SparseTensor::Create(2, 3, 4);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->dim_i(), 2);
  EXPECT_EQ(t->dim_j(), 3);
  EXPECT_EQ(t->dim_k(), 4);
  EXPECT_EQ(t->NumCells(), 24);
  EXPECT_EQ(t->NumNonZeros(), 0);
  EXPECT_EQ(t->Density(), 0.0);
}

TEST(SparseTensor, AddBoundsChecked) {
  auto t = SparseTensor::Create(2, 2, 2);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->Add(0, 0, 0).ok());
  EXPECT_TRUE(t->Add(1, 1, 1).ok());
  EXPECT_FALSE(t->Add(2, 0, 0).ok());
  EXPECT_FALSE(t->Add(0, 2, 0).ok());
  EXPECT_FALSE(t->Add(0, 0, 2).ok());
  EXPECT_FALSE(t->Add(-1, 0, 0).ok());
  EXPECT_EQ(t->NumNonZeros(), 2);
}

TEST(SparseTensor, SortAndDedup) {
  auto t = SparseTensor::Create(4, 4, 4);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Add(3, 2, 1).ok());
  ASSERT_TRUE(t->Add(0, 0, 0).ok());
  ASSERT_TRUE(t->Add(3, 2, 1).ok());
  ASSERT_TRUE(t->Add(0, 0, 0).ok());
  t->SortAndDedup();
  EXPECT_EQ(t->NumNonZeros(), 2);
  EXPECT_EQ(t->entries()[0], (Coord{0, 0, 0}));
  EXPECT_EQ(t->entries()[1], (Coord{3, 2, 1}));
}

TEST(SparseTensor, SortedTracksAddsAndSortAndDedup) {
  auto t = SparseTensor::Create(4, 4, 4);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->sorted()) << "an empty tensor is trivially sorted";
  // An Add clears the flag even when it keeps the order.
  ASSERT_TRUE(t->Add(0, 0, 0).ok());
  ASSERT_TRUE(t->Add(0, 0, 1).ok());
  ASSERT_TRUE(t->Add(0, 0, 1).ok());
  EXPECT_FALSE(t->sorted());
  // Already-ordered entries skip the sort but are still deduplicated.
  t->SortAndDedup();
  EXPECT_TRUE(t->sorted());
  EXPECT_EQ(t->NumNonZeros(), 2);
}

TEST(SparseTensor, FromEntriesAdoptsSortsAndChecksBounds) {
  auto t = SparseTensor::FromEntries(
      3, 3, 3, {Coord{2, 0, 1}, Coord{0, 1, 2}, Coord{2, 0, 1}});
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(t->sorted());
  ASSERT_EQ(t->NumNonZeros(), 2);
  EXPECT_EQ(t->entries()[0], (Coord{0, 1, 2}));
  EXPECT_EQ(t->entries()[1], (Coord{2, 0, 1}));

  EXPECT_EQ(SparseTensor::FromEntries(3, 3, 3, {Coord{0, 3, 0}})
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(SparseTensor::FromEntries(-1, 3, 3, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SparseTensor, ContainsAfterSort) {
  auto t = SparseTensor::Create(8, 8, 8);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Add(1, 2, 3).ok());
  ASSERT_TRUE(t->Add(4, 5, 6).ok());
  t->SortAndDedup();
  EXPECT_TRUE(t->Contains(1, 2, 3));
  EXPECT_TRUE(t->Contains(4, 5, 6));
  EXPECT_FALSE(t->Contains(1, 2, 4));
  EXPECT_FALSE(t->Contains(0, 0, 0));
}

TEST(SparseTensor, ContainsBeforeSortUsesLinearScan) {
  auto t = SparseTensor::Create(8, 8, 8);
  ASSERT_TRUE(t.ok());
  t->AddUnchecked(5, 5, 5);
  t->AddUnchecked(1, 1, 1);
  EXPECT_TRUE(t->Contains(5, 5, 5));
  EXPECT_FALSE(t->Contains(2, 2, 2));
}

TEST(SparseTensor, Density) {
  auto t = SparseTensor::Create(2, 2, 2);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Add(0, 0, 0).ok());
  ASSERT_TRUE(t->Add(1, 1, 1).ok());
  EXPECT_DOUBLE_EQ(t->Density(), 0.25);
}

TEST(SparseTensor, EqualityIgnoresOrderAndDuplicates) {
  auto a = SparseTensor::Create(4, 4, 4);
  auto b = SparseTensor::Create(4, 4, 4);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->Add(1, 1, 1).ok());
  ASSERT_TRUE(a->Add(2, 2, 2).ok());
  ASSERT_TRUE(b->Add(2, 2, 2).ok());
  ASSERT_TRUE(b->Add(1, 1, 1).ok());
  ASSERT_TRUE(b->Add(1, 1, 1).ok());
  EXPECT_EQ(*a, *b);
  ASSERT_TRUE(b->Add(3, 3, 3).ok());
  EXPECT_NE(*a, *b);
}

TEST(SparseTensor, EqualityRequiresSameShape) {
  auto a = SparseTensor::Create(2, 2, 2);
  auto b = SparseTensor::Create(2, 2, 3);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
}

TEST(CoordTest, LexicographicOrder) {
  EXPECT_LT((Coord{0, 0, 1}), (Coord{0, 1, 0}));
  EXPECT_LT((Coord{0, 1, 0}), (Coord{1, 0, 0}));
  EXPECT_LT((Coord{1, 2, 3}), (Coord{1, 2, 4}));
  EXPECT_FALSE((Coord{1, 2, 3}) < (Coord{1, 2, 3}));
}

}  // namespace
}  // namespace dbtf
