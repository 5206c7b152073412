#include "db/statistics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "util/random.h"

namespace seedb::db {
namespace {

TEST(ColumnStatsTest, NumericProfile) {
  Schema schema({ColumnDef::Measure("m")});
  Table t(schema);
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.row_count, 4u);
  EXPECT_EQ(cs.distinct_count, 4u);
  EXPECT_EQ(cs.min, 1.0);
  EXPECT_EQ(cs.max, 4.0);
  EXPECT_DOUBLE_EQ(cs.mean, 2.5);
  EXPECT_DOUBLE_EQ(cs.variance, 1.25);
}

TEST(ColumnStatsTest, DiversityOfUniformColumn) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(i % 4 == 0   ? "a"
                           : i % 4 == 1 ? "b"
                           : i % 4 == 2 ? "c"
                                        : "d")})
            .ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  // Uniform over 4 values: diversity = 1 - 4*(1/4)^2 = 0.75, entropy = 1.
  EXPECT_NEAR(cs.diversity, 0.75, 1e-9);
  EXPECT_NEAR(cs.normalized_entropy, 1.0, 1e-9);
}

TEST(ColumnStatsTest, DiversityOfConstantColumnIsZero) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("only")}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.diversity, 0.0);
  EXPECT_EQ(cs.normalized_entropy, 0.0);
  EXPECT_EQ(cs.distinct_count, 1u);
}

TEST(ColumnStatsTest, NearConstantHasLowDiversity) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i < 97 ? "no" : "yes")}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_LT(cs.diversity, 0.06);
  EXPECT_GT(cs.diversity, 0.0);
}

TEST(ColumnStatsTest, NullsExcluded) {
  Schema schema({ColumnDef::Measure("m")});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value(2.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(4.0)}).ok());
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.null_count, 1u);
  EXPECT_EQ(cs.distinct_count, 2u);
  EXPECT_DOUBLE_EQ(cs.mean, 3.0);
}

TEST(ColumnStatsTest, TopValuesSortedByCount) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t.AppendRow({Value("big")}).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(t.AppendRow({Value("mid")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("small")}).ok());
  ColumnStats cs = ComputeColumnStats(t, 0);
  ASSERT_EQ(cs.top_values.size(), 3u);
  EXPECT_EQ(cs.top_values[0].first, Value("big"));
  EXPECT_EQ(cs.top_values[0].second, 5u);
  EXPECT_EQ(cs.top_values[1].first, Value("mid"));
  EXPECT_EQ(cs.top_values[2].first, Value("small"));
}

// Every ColumnStats field of a table with nulls (including null slots that
// hold dictionary code 0 before any value exists, and a column that is null
// throughout), repeated doubles (+0.0 and -0.0 count as one value) and
// repeated int64s. Distinct counts, diversity, entropy and top values all
// derive from one frequency table.
TEST(ColumnStatsTest, EveryFieldFromOneFrequencyTable) {
  Schema schema({
      ColumnDef::Dimension("s"),
      ColumnDef::Dimension("z"),
      ColumnDef::Measure("m"),
      ColumnDef::Measure("k", ValueType::kInt64),
  });
  Table t(schema);
  const Value null;
  const std::vector<std::vector<Value>> rows = {
      {null, null, Value(2.5), Value(int64_t{1})},
      {Value("b"), null, Value(2.5), Value(int64_t{1})},
      {Value("a"), null, null, Value(int64_t{2})},
      {Value("b"), null, Value(-1.0), null},
      {null, null, Value(2.5), Value(int64_t{1})},
      {Value("c"), null, Value(0.0), Value(int64_t{3})},
      {Value("b"), null, Value(-0.0), Value(int64_t{3})},
      {Value("a"), null, Value(-1.0), Value(int64_t{1})},
  };
  for (const auto& row : rows) ASSERT_TRUE(t.AppendRow(row).ok());
  // Entropy of a distribution normalized by log of its support size.
  const auto entropy = [](std::vector<double> p) {
    double h = 0.0;
    for (double x : p) h -= x * std::log(x);
    return h / std::log(static_cast<double>(p.size()));
  };
  using Top = std::vector<std::pair<Value, size_t>>;

  ColumnStats s = ComputeColumnStats(t, 0);
  EXPECT_EQ(s.name, "s");
  EXPECT_EQ(s.type, ValueType::kString);
  EXPECT_EQ(s.role, ColumnRole::kDimension);
  EXPECT_EQ(s.row_count, 8u);
  EXPECT_EQ(s.null_count, 2u);
  EXPECT_EQ(s.distinct_count, 3u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.diversity, 1.0 - (9.0 + 4.0 + 1.0) / 36.0);
  EXPECT_DOUBLE_EQ(s.normalized_entropy,
                   entropy({3.0 / 6.0, 2.0 / 6.0, 1.0 / 6.0}));
  EXPECT_EQ(s.top_values, (Top{{Value("b"), 3}, {Value("a"), 2},
                               {Value("c"), 1}}));

  ColumnStats z = ComputeColumnStats(t, 1);
  EXPECT_EQ(z.name, "z");
  EXPECT_EQ(z.row_count, 8u);
  EXPECT_EQ(z.null_count, 8u);
  EXPECT_EQ(z.distinct_count, 0u);
  EXPECT_EQ(z.diversity, 0.0);
  EXPECT_EQ(z.normalized_entropy, 0.0);
  EXPECT_TRUE(z.top_values.empty());

  ColumnStats m = ComputeColumnStats(t, 2);
  EXPECT_EQ(m.name, "m");
  EXPECT_EQ(m.type, ValueType::kDouble);
  EXPECT_EQ(m.role, ColumnRole::kMeasure);
  EXPECT_EQ(m.row_count, 8u);
  EXPECT_EQ(m.null_count, 1u);
  EXPECT_EQ(m.distinct_count, 3u);
  EXPECT_EQ(m.min, -1.0);
  EXPECT_EQ(m.max, 2.5);
  EXPECT_DOUBLE_EQ(m.mean, 5.5 / 7.0);
  EXPECT_DOUBLE_EQ(m.variance, 2.3469387755102042);
  EXPECT_DOUBLE_EQ(m.diversity, 1.0 - (9.0 + 4.0 + 4.0) / 49.0);
  EXPECT_DOUBLE_EQ(m.normalized_entropy,
                   entropy({3.0 / 7.0, 2.0 / 7.0, 2.0 / 7.0}));
  // Ties on count order by value; the zero keeps its first spelling, +0.0.
  EXPECT_EQ(m.top_values, (Top{{Value(2.5), 3}, {Value(-1.0), 2},
                               {Value(0.0), 2}}));
  EXPECT_FALSE(std::signbit(m.top_values[2].first.AsDouble()));

  ColumnStats k = ComputeColumnStats(t, 3);
  EXPECT_EQ(k.type, ValueType::kInt64);
  EXPECT_EQ(k.null_count, 1u);
  EXPECT_EQ(k.distinct_count, 3u);
  EXPECT_EQ(k.min, 1.0);
  EXPECT_EQ(k.max, 3.0);
  EXPECT_DOUBLE_EQ(k.mean, 12.0 / 7.0);
  EXPECT_DOUBLE_EQ(k.variance, 0.7755102040816327);
  EXPECT_DOUBLE_EQ(k.diversity, 1.0 - (16.0 + 4.0 + 1.0) / 49.0);
  EXPECT_DOUBLE_EQ(k.normalized_entropy,
                   entropy({4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0}));
  EXPECT_EQ(k.top_values, (Top{{Value(int64_t{1}), 4}, {Value(int64_t{3}), 2},
                               {Value(int64_t{2}), 1}}));
  EXPECT_EQ(k.top_values[0].first.type(), ValueType::kInt64);
}

TEST(TableStatsTest, CoversAllColumnsAndFind) {
  Table t = ::seedb::testing::MakeTinyTable();
  TableStats stats = ComputeTableStats(t, "tiny");
  EXPECT_EQ(stats.table_name, "tiny");
  EXPECT_EQ(stats.num_rows, 6u);
  EXPECT_EQ(stats.columns.size(), 4u);
  EXPECT_TRUE(stats.Find("m1").ok());
  EXPECT_EQ((*stats.Find("m1"))->role, ColumnRole::kMeasure);
  EXPECT_FALSE(stats.Find("zzz").ok());
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(CramersVTest, PerfectlyCorrelatedColumns) {
  Schema schema(
      {ColumnDef::Dimension("a"), ColumnDef::Dimension("b")});
  Table t(schema);
  Random rng(3);
  const char* va[] = {"x", "y", "z"};
  const char* vb[] = {"X", "Y", "Z"};
  for (int i = 0; i < 300; ++i) {
    size_t k = rng.Uniform(3);
    ASSERT_TRUE(t.AppendRow({Value(va[k]), Value(vb[k])}).ok());
  }
  double v = CramersV(t, "a", "b").ValueOrDie();
  EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(CramersVTest, IndependentColumnsNearZero) {
  Schema schema(
      {ColumnDef::Dimension("a"), ColumnDef::Dimension("b")});
  Table t(schema);
  Random rng(5);
  const char* vals[] = {"p", "q", "r", "s"};
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(vals[rng.Uniform(4)]),
                             Value(vals[rng.Uniform(4)])})
                    .ok());
  }
  double v = CramersV(t, "a", "b").ValueOrDie();
  EXPECT_LT(v, 0.05);
}

TEST(CramersVTest, DegenerateSingleValueColumnsGiveZero) {
  Schema schema(
      {ColumnDef::Dimension("a"), ColumnDef::Dimension("b")});
  Table t(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("only"), Value(i % 2 ? "u" : "v")}).ok());
  }
  EXPECT_EQ(CramersV(t, "a", "b").ValueOrDie(), 0.0);
}

TEST(CramersVTest, RejectsNumericDoubleColumns) {
  Table t = ::seedb::testing::MakeTinyTable();
  EXPECT_FALSE(CramersV(t, "d", "m1").ok());
}

TEST(CramersVTest, SymmetricInArguments) {
  Table t = ::seedb::testing::MakeTinyTable();
  double ab = CramersV(t, "d", "e").ValueOrDie();
  double ba = CramersV(t, "e", "d").ValueOrDie();
  EXPECT_NEAR(ab, ba, 1e-12);
}

}  // namespace
}  // namespace seedb::db
