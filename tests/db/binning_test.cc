#include "db/binning.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace seedb::db {
namespace {

Table MakeNumericTable() {
  Schema schema({ColumnDef::Dimension("d"), ColumnDef::Measure("m")});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    Status s = t.AppendRow(
        {Value(i % 2 ? "a" : "b"), Value(static_cast<double>(i))});
    (void)s;
  }
  return t;
}

TEST(BinningTest, AddsDimensionColumn) {
  Table t = MakeNumericTable();
  auto binned = WithBinnedColumn(t, "m", {.num_bins = 10}).ValueOrDie();
  EXPECT_EQ(binned.num_columns(), 3u);
  EXPECT_EQ(binned.num_rows(), t.num_rows());
  const ColumnDef& def = binned.schema().column(2);
  EXPECT_EQ(def.name, "m_bin");
  EXPECT_EQ(def.role, ColumnRole::kDimension);
  EXPECT_EQ(def.type, ValueType::kString);
  // Values 0..99 over 10 equi-width bins: 10 distinct labels.
  const Column* col = binned.ColumnByName("m_bin").ValueOrDie();
  EXPECT_EQ(col->CountDistinct(), 10u);
}

TEST(BinningTest, BucketsHoldEqualCounts) {
  Table t = MakeNumericTable();
  auto binned = WithBinnedColumn(t, "m", {.num_bins = 10}).ValueOrDie();
  GroupByQuery q;
  q.table = "t";
  q.group_by = {"m_bin"};
  q.aggregates = {AggregateSpec::Count("n")};
  auto result = ::seedb::testing::ExecuteOn(binned, q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 10u);
  for (size_t r = 0; r < result.num_rows(); ++r) {
    EXPECT_EQ(result.ValueAt(r, 1), Value(10.0));
  }
}

TEST(BinningTest, LabelsSortInBucketOrder) {
  for (size_t k = 1; k < 10; ++k) {
    EXPECT_LT(BinLabel(k - 1, 10, 0, 100, true), BinLabel(k, 10, 0, 100, true));
    EXPECT_LT(BinLabel(k - 1, 10, 0, 100, false),
              BinLabel(k, 10, 0, 100, false));
  }
}

TEST(BinningTest, LastBucketClosedIntervalIncludesMax) {
  Table t = MakeNumericTable();
  auto binned = WithBinnedColumn(t, "m", {.num_bins = 4}).ValueOrDie();
  // Row with m = 99 (the max) lands in the last bucket, not out of range.
  Value last_label = binned.ValueAt(99, 2);
  EXPECT_NE(last_label.ToString().find("]"), std::string::npos);
}

TEST(BinningTest, NullsStayNull) {
  Schema schema({ColumnDef::Measure("m")});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2.0)}).ok());
  auto binned = WithBinnedColumn(t, "m", {.num_bins = 2}).ValueOrDie();
  EXPECT_TRUE(binned.ValueAt(1, 1).is_null());
  EXPECT_FALSE(binned.ValueAt(0, 1).is_null());
}

TEST(BinningTest, CustomNameAndBinStyle) {
  Table t = MakeNumericTable();
  BinningOptions options;
  options.num_bins = 5;
  options.output_name = "m_bucket";
  options.range_labels = false;
  auto binned = WithBinnedColumn(t, "m", options).ValueOrDie();
  EXPECT_TRUE(binned.schema().HasColumn("m_bucket"));
  EXPECT_EQ(binned.ValueAt(0, 2), Value("bin00"));
  EXPECT_EQ(binned.ValueAt(99, 2), Value("bin04"));
}

TEST(BinningTest, ErrorsOnBadInput) {
  Table t = MakeNumericTable();
  EXPECT_FALSE(WithBinnedColumn(t, "d", {}).ok());       // string column
  EXPECT_FALSE(WithBinnedColumn(t, "ghost", {}).ok());   // missing column
  EXPECT_FALSE(WithBinnedColumn(t, "m", {.num_bins = 0}).ok());
  BinningOptions clash;
  clash.output_name = "d";  // existing name
  EXPECT_FALSE(WithBinnedColumn(t, "m", clash).ok());
}

TEST(BinningTest, ConstantColumnGetsOneBucket) {
  Schema schema({ColumnDef::Measure("m")});
  Table t(schema);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(7.0)}).ok());
  }
  auto binned = WithBinnedColumn(t, "m", {.num_bins = 3}).ValueOrDie();
  const Column* col = binned.ColumnByName("m_bin").ValueOrDie();
  EXPECT_EQ(col->CountDistinct(), 1u);
}

TEST(BinningTest, EmptyNumericColumnFails) {
  Schema schema({ColumnDef::Measure("m")});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  EXPECT_FALSE(WithBinnedColumn(t, "m", {}).ok());
}

}  // namespace
}  // namespace seedb::db
