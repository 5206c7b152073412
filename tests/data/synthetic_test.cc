#include "data/synthetic.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "db/statistics.h"

namespace seedb::data {
namespace {

TEST(SyntheticSpecTest, SimpleBuildsExpectedShape) {
  SyntheticSpec spec = SyntheticSpec::Simple(100, 3, 2, 5, 9);
  EXPECT_EQ(spec.rows, 100u);
  EXPECT_EQ(spec.dimensions.size(), 3u);
  EXPECT_EQ(spec.measures.size(), 2u);
  EXPECT_EQ(spec.dimensions[0].cardinality, 5u);
  ASSERT_TRUE(spec.deviation.has_value());
}

TEST(SyntheticTest, GeneratesRequestedRowsAndSchema) {
  auto dataset =
      GenerateSynthetic(SyntheticSpec::Simple(500, 3, 2, 4)).ValueOrDie();
  EXPECT_EQ(dataset.table.num_rows(), 500u);
  EXPECT_EQ(dataset.table.schema().DimensionColumns().size(), 3u);
  EXPECT_EQ(dataset.table.schema().MeasureColumns().size(), 2u);
}

TEST(SyntheticTest, DeterministicForSeed) {
  auto a = GenerateSynthetic(SyntheticSpec::Simple(200, 2, 1, 4, 5))
               .ValueOrDie();
  auto b = GenerateSynthetic(SyntheticSpec::Simple(200, 2, 1, 4, 5))
               .ValueOrDie();
  for (size_t r = 0; r < 200; ++r) {
    for (size_t c = 0; c < a.table.num_columns(); ++c) {
      ASSERT_EQ(a.table.ValueAt(r, c), b.table.ValueAt(r, c));
    }
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  auto a = GenerateSynthetic(SyntheticSpec::Simple(200, 2, 1, 4, 5))
               .ValueOrDie();
  auto b = GenerateSynthetic(SyntheticSpec::Simple(200, 2, 1, 4, 6))
               .ValueOrDie();
  size_t diffs = 0;
  for (size_t r = 0; r < 200; ++r) {
    if (!(a.table.ValueAt(r, 0) == b.table.ValueAt(r, 0))) ++diffs;
  }
  EXPECT_GT(diffs, 0u);
}

TEST(SyntheticTest, CardinalityRespected) {
  auto dataset =
      GenerateSynthetic(SyntheticSpec::Simple(2000, 2, 1, 7)).ValueOrDie();
  const db::Column& col =
      *dataset.table.ColumnByName("dim0").ValueOrDie();
  EXPECT_LE(col.CountDistinct(), 7u);
  EXPECT_GE(col.CountDistinct(), 6u);  // 2000 rows should hit nearly all
}

TEST(SyntheticTest, GroundTruthSelectionMatchesRows) {
  auto dataset =
      GenerateSynthetic(SyntheticSpec::Simple(1000, 3, 1, 4)).ValueOrDie();
  ASSERT_TRUE(dataset.selection != nullptr);
  std::vector<uint8_t> mask;
  ASSERT_TRUE(dataset.selection->EvaluateMask(dataset.table, &mask).ok());
  size_t matched = std::count(mask.begin(), mask.end(), uint8_t{1});
  // Selector picks one of 4 values of dim0: about a quarter of rows.
  EXPECT_GT(matched, 150u);
  EXPECT_LT(matched, 400u);
  EXPECT_EQ(dataset.expected_dimension, "dim1");
  EXPECT_EQ(dataset.expected_measure, "m0");
}

TEST(SyntheticTest, PlantedDeviationSkewsConditionalMean) {
  SyntheticSpec spec = SyntheticSpec::Simple(20000, 2, 1, 4, 11);
  spec.deviation->strength = 5.0;
  auto dataset = GenerateSynthetic(spec).ValueOrDie();

  // AVG(m0) grouped by dim1, under the selector: odd-indexed dim1 values
  // should average ~5x the even-indexed ones.
  db::GroupByQuery q;
  q.table = "t";
  q.where = dataset.selection;
  q.group_by = {"dim1"};
  q.aggregates = {
      db::AggregateSpec::Make(db::AggregateFunction::kAvg, "m0")};
  auto result = ::seedb::testing::ExecuteOn(dataset.table, q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 4u);
  double even_avg = 0, odd_avg = 0;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    std::string key = result.ValueAt(r, 0).ToString();
    double v = result.ValueAt(r, 1).ToDouble().ValueOrDie();
    // Key form: dim1_v<j>.
    int j = std::stoi(key.substr(key.find("_v") + 2));
    (j % 2 == 1 ? odd_avg : even_avg) += v / 2.0;
  }
  EXPECT_NEAR(odd_avg / even_avg, 5.0, 0.5);
}

TEST(SyntheticTest, ZipfDimensionIsSkewed) {
  SyntheticSpec spec = SyntheticSpec::Simple(20000, 2, 1, 10, 3);
  spec.deviation.reset();
  spec.dimensions[0].distribution = DimensionSpec::Dist::kZipf;
  spec.dimensions[0].zipf_s = 1.2;
  auto dataset = GenerateSynthetic(spec).ValueOrDie();
  db::TableStats stats = db::ComputeTableStats(dataset.table, "t");
  const db::ColumnStats* zipf_dim = stats.Find("dim0").ValueOrDie();
  const db::ColumnStats* uniform_dim = stats.Find("dim1").ValueOrDie();
  // Zipf concentrates mass: lower entropy than the uniform dimension.
  EXPECT_LT(zipf_dim->normalized_entropy, uniform_dim->normalized_entropy);
  // Top value share should be large under s=1.2.
  EXPECT_GT(static_cast<double>(zipf_dim->top_values[0].second) / 20000.0,
            0.25);
}

TEST(SyntheticTest, CorrelatedDimensionsHaveHighCramersV) {
  SyntheticSpec spec = SyntheticSpec::Simple(5000, 3, 1, 5, 7);
  spec.deviation.reset();
  spec.dimensions[2].correlated_with = 0;
  spec.dimensions[2].correlation_noise = 0.02;
  auto dataset = GenerateSynthetic(spec).ValueOrDie();
  double v = db::CramersV(dataset.table, "dim0", "dim2").ValueOrDie();
  EXPECT_GT(v, 0.9);
  double independent =
      db::CramersV(dataset.table, "dim0", "dim1").ValueOrDie();
  EXPECT_LT(independent, 0.1);
}

TEST(SyntheticTest, ValidationErrors) {
  SyntheticSpec spec;  // no dims/measures
  EXPECT_FALSE(GenerateSynthetic(spec).ok());

  spec = SyntheticSpec::Simple(10, 2, 1, 4);
  spec.deviation->deviating_dim = 9;
  EXPECT_FALSE(GenerateSynthetic(spec).ok());

  spec = SyntheticSpec::Simple(10, 2, 1, 4);
  spec.deviation->selector_dim = spec.deviation->deviating_dim;
  EXPECT_FALSE(GenerateSynthetic(spec).ok());

  spec = SyntheticSpec::Simple(10, 2, 1, 4);
  spec.dimensions[0].cardinality = 0;
  EXPECT_FALSE(GenerateSynthetic(spec).ok());
}

TEST(SyntheticTest, MeasureDistributions) {
  SyntheticSpec spec = SyntheticSpec::Simple(20000, 2, 3, 4, 19);
  spec.deviation.reset();
  spec.measures[0].distribution = MeasureSpec::Dist::kGaussian;
  spec.measures[0].mean = 50.0;
  spec.measures[0].stddev = 5.0;
  spec.measures[1].distribution = MeasureSpec::Dist::kUniform;
  spec.measures[1].lo = 0.0;
  spec.measures[1].hi = 10.0;
  spec.measures[2].distribution = MeasureSpec::Dist::kExponential;
  spec.measures[2].rate = 0.1;
  auto dataset = GenerateSynthetic(spec).ValueOrDie();
  db::TableStats stats = db::ComputeTableStats(dataset.table, "t");
  EXPECT_NEAR(stats.Find("m0").ValueOrDie()->mean, 50.0, 0.5);
  const auto* uniform = stats.Find("m1").ValueOrDie();
  EXPECT_GE(uniform->min, 0.0);
  EXPECT_LT(uniform->max, 10.0);
  EXPECT_NEAR(stats.Find("m2").ValueOrDie()->mean, 10.0, 0.5);  // 1/rate
}

}  // namespace
}  // namespace seedb::data
