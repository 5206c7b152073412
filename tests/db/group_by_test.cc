// Grouped aggregation through Engine::Execute: every GroupByQuery runs as a
// one-query batch of the shared scan. Each test registers its table in a
// fresh catalog and checks results and the batch's engine counters.

#include "db/group_by.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace seedb::db {
namespace {

using ::seedb::testing::ExecuteOn;
using ::seedb::testing::FindRowByKey;
using ::seedb::testing::MakeLaserwaveTable;
using ::seedb::testing::MakeTinyTable;

// COUNT(*) of the rows `q` selects, summed over its groups.
double RowsMatched(const Table& t, GroupByQuery q) {
  q.aggregates = {AggregateSpec::Count()};
  Table result = ExecuteOn(t, q, nullptr).ValueOrDie();
  double total = 0.0;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    total += result.ValueAt(r, result.num_columns() - 1).AsDouble();
  }
  return total;
}

GroupByQuery BasicQuery() {
  GroupByQuery q;
  q.table = "t";
  q.group_by = {"d"};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1")};
  return q;
}

TEST(GroupByTest, SingleDimensionSum) {
  Table t = MakeTinyTable();
  EngineStatsSnapshot stats;
  auto result = ExecuteOn(t, BasicQuery(), &stats);
  ASSERT_TRUE(result.ok());
  const Table& r = *result;
  ASSERT_EQ(r.num_rows(), 2u);
  // Rows sorted by key: a, b.
  EXPECT_EQ(r.ValueAt(0, 0), Value("a"));
  EXPECT_EQ(r.ValueAt(0, 1), Value(8.0));  // 1 + 2 + 5
  EXPECT_EQ(r.ValueAt(1, 0), Value("b"));
  EXPECT_EQ(r.ValueAt(1, 1), Value(13.0));  // 3 + 4 + 6
  EXPECT_EQ(stats.groups_created, 2u);
  EXPECT_EQ(stats.rows_scanned, 6u);
  EXPECT_EQ(stats.queries_executed, 1u);
  EXPECT_EQ(stats.table_scans, 1u);
  EXPECT_EQ(RowsMatched(t, BasicQuery()), 6.0);
}

TEST(GroupByTest, WhereFiltersRows) {
  Table t = MakeTinyTable();
  GroupByQuery q = BasicQuery();
  q.where = PredicatePtr(Eq("e", Value("x")));
  EngineStatsSnapshot stats;
  auto result = ExecuteOn(t, q, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->ValueAt(0, 1), Value(6.0));   // a: 1 + 5
  EXPECT_EQ(result->ValueAt(1, 1), Value(3.0));   // b: 3
  EXPECT_EQ(stats.rows_scanned, 6u);
  EXPECT_EQ(RowsMatched(t, q), 3.0);
}

TEST(GroupByTest, MultipleAggregates) {
  Table t = MakeTinyTable();
  GroupByQuery q = BasicQuery();
  q.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m1", "s"),
      AggregateSpec::Make(AggregateFunction::kAvg, "m2", "a"),
      AggregateSpec::Make(AggregateFunction::kMax, "m1", "mx"),
      AggregateSpec::Count("n"),
  };
  auto result = ExecuteOn(t, q, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_columns(), 5u);
  int a_row = FindRowByKey(*result, Value("a"));
  ASSERT_GE(a_row, 0);
  EXPECT_EQ(result->ValueAt(a_row, 1), Value(8.0));              // sum m1
  EXPECT_NEAR(result->ValueAt(a_row, 2).ToDouble().ValueOrDie(),
              (10.0 + 20.0 + 50.0) / 3.0, 1e-9);                 // avg m2
  EXPECT_EQ(result->ValueAt(a_row, 3), Value(5.0));              // max m1
  EXPECT_EQ(result->ValueAt(a_row, 4), Value(3.0));              // count
}

TEST(GroupByTest, FilterAggregates) {
  // The combined target/comparison pattern: one unconditional aggregate, one
  // FILTER-ed aggregate, same scan.
  Table t = MakeTinyTable();
  GroupByQuery q = BasicQuery();
  q.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m1", "tgt",
                          PredicatePtr(Eq("e", Value("x")))),
      AggregateSpec::Make(AggregateFunction::kSum, "m1", "cmp"),
  };
  auto result = ExecuteOn(t, q, nullptr);
  ASSERT_TRUE(result.ok());
  int a_row = FindRowByKey(*result, Value("a"));
  int b_row = FindRowByKey(*result, Value("b"));
  ASSERT_GE(a_row, 0);
  ASSERT_GE(b_row, 0);
  EXPECT_EQ(result->ValueAt(a_row, 1), Value(6.0));   // filtered
  EXPECT_EQ(result->ValueAt(a_row, 2), Value(8.0));   // unconditional
  EXPECT_EQ(result->ValueAt(b_row, 1), Value(3.0));
  EXPECT_EQ(result->ValueAt(b_row, 2), Value(13.0));
}

TEST(GroupByTest, FilteredEqualsWhereSemantics) {
  // f(m) FILTER (WHERE p) over all rows == f(m) WHERE p, for groups present
  // in both. (Groups absent from p's selection appear with 0 in the former.)
  Table t = MakeTinyTable();
  PredicatePtr p(Eq("e", Value("y")));

  GroupByQuery filtered = BasicQuery();
  filtered.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m1", "v", p)};
  GroupByQuery where_q = BasicQuery();
  where_q.where = p;
  where_q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1", "v")};

  auto fr = ExecuteOn(t, filtered, nullptr);
  auto wr = ExecuteOn(t, where_q, nullptr);
  ASSERT_TRUE(fr.ok());
  ASSERT_TRUE(wr.ok());
  for (size_t r = 0; r < wr->num_rows(); ++r) {
    int fi = FindRowByKey(*fr, wr->ValueAt(r, 0));
    ASSERT_GE(fi, 0);
    EXPECT_EQ(fr->ValueAt(fi, 1), wr->ValueAt(r, 1));
  }
}

TEST(GroupByTest, MultiColumnGroupBy) {
  Table t = MakeTinyTable();
  GroupByQuery q = BasicQuery();
  q.group_by = {"d", "e"};
  EngineStatsSnapshot stats;
  auto result = ExecuteOn(t, q, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 4u);  // (a,x),(a,y),(b,x),(b,y)
  EXPECT_EQ(stats.groups_created, 4u);
  // Sorted lexicographically: (a,x) first.
  EXPECT_EQ(result->ValueAt(0, 0), Value("a"));
  EXPECT_EQ(result->ValueAt(0, 1), Value("x"));
  EXPECT_EQ(result->ValueAt(0, 2), Value(6.0));  // m1: 1 + 5
}

TEST(GroupByTest, EmptyGroupByIsGlobalAggregate) {
  Table t = MakeTinyTable();
  GroupByQuery q = BasicQuery();
  q.group_by = {};
  auto result = ExecuteOn(t, q, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->ValueAt(0, 0), Value(21.0));  // sum of all m1
}

TEST(GroupByTest, NullGroupKeyFormsItsOwnGroup) {
  Schema schema({ColumnDef::Dimension("d"), ColumnDef::Measure("m")});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value("a"), Value(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value(2.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value(3.0)}).ok());
  GroupByQuery q = BasicQuery();
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m")};
  auto result = ExecuteOn(t, q, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  // Null sorts first.
  EXPECT_TRUE(result->ValueAt(0, 0).is_null());
  EXPECT_EQ(result->ValueAt(0, 1), Value(5.0));
}

TEST(GroupByTest, NullMeasuresSkipped) {
  Schema schema({ColumnDef::Dimension("d"), ColumnDef::Measure("m")});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value("a"), Value(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("a"), Value::Null()}).ok());
  GroupByQuery q = BasicQuery();
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m", "s"),
                  AggregateSpec::Make(AggregateFunction::kCount, "m", "c"),
                  AggregateSpec::Count("star")};
  auto result = ExecuteOn(t, q, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ValueAt(0, 1), Value(1.0));  // sum skips null
  EXPECT_EQ(result->ValueAt(0, 2), Value(1.0));  // COUNT(m) skips null
  EXPECT_EQ(result->ValueAt(0, 3), Value(2.0));  // COUNT(*) does not
}

TEST(GroupByTest, SamplingReducesRowsScanned) {
  Table t = MakeLaserwaveTable();
  GroupByQuery q;
  q.table = "t";
  q.group_by = {"store"};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "amount")};
  q.sample_fraction = 0.5;
  q.sample_seed = 3;
  EngineStatsSnapshot stats;
  auto result = ExecuteOn(t, q, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(stats.rows_scanned, t.num_rows());
  EXPECT_GT(stats.rows_scanned, 0u);
}

TEST(GroupByTest, SampleFractionValidated) {
  Table t = MakeTinyTable();
  GroupByQuery q = BasicQuery();
  q.sample_fraction = 0.0;
  EXPECT_FALSE(ExecuteOn(t, q, nullptr).ok());
  q.sample_fraction = 1.5;
  EXPECT_FALSE(ExecuteOn(t, q, nullptr).ok());
}

TEST(GroupByTest, ValidationErrors) {
  Table t = MakeTinyTable();
  GroupByQuery q = BasicQuery();
  q.group_by = {"missing"};
  EXPECT_FALSE(ExecuteOn(t, q, nullptr).ok());

  q = BasicQuery();
  q.aggregates = {};
  EXPECT_FALSE(ExecuteOn(t, q, nullptr).ok());

  q = BasicQuery();
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "d")};
  EXPECT_FALSE(ExecuteOn(t, q, nullptr).ok());  // string measure

  q = BasicQuery();
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "")};
  EXPECT_FALSE(ExecuteOn(t, q, nullptr).ok());  // SUM needs input
}

TEST(GroupByTest, AggStateBytesReported) {
  Table t = MakeTinyTable();
  GroupByQuery q = BasicQuery();
  q.aggregates.push_back(AggregateSpec::Make(AggregateFunction::kAvg, "m2"));
  EngineStatsSnapshot stats;
  ASSERT_TRUE(ExecuteOn(t, q, &stats).ok());
  // 2 groups x 2 accumulators (m1, m2).
  EXPECT_EQ(stats.peak_agg_state_bytes, 2u * 2u * sizeof(AggState));

  // More functions of the same measures read the same accumulators.
  q.aggregates.push_back(AggregateSpec::Make(AggregateFunction::kMax, "m1"));
  q.aggregates.push_back(AggregateSpec::Make(AggregateFunction::kCount, "m2"));
  ASSERT_TRUE(ExecuteOn(t, q, &stats).ok());
  EXPECT_EQ(stats.peak_agg_state_bytes, 2u * 2u * sizeof(AggState));
}

TEST(GroupByTest, ToSqlRendering) {
  GroupByQuery q = BasicQuery();
  q.where = PredicatePtr(Eq("e", Value("x")));
  EXPECT_EQ(q.ToSql(),
            "SELECT d, SUM(m1) FROM t WHERE e = 'x' GROUP BY d");
  q.sample_fraction = 0.25;
  EXPECT_NE(q.ToSql().find("TABLESAMPLE BERNOULLI (25)"), std::string::npos);
}

TEST(GroupByTest, LaserwaveTable1Reproduction) {
  // The paper's Table 1: total sales by store for the Laserwave.
  Table t = MakeLaserwaveTable();
  GroupByQuery q;
  q.table = "sales";
  q.where = PredicatePtr(Eq("product", Value("Laserwave")));
  q.group_by = {"store"};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "amount")};
  auto result = ExecuteOn(t, q, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 4u);
  int cambridge = FindRowByKey(*result, Value("Cambridge, MA"));
  int seattle = FindRowByKey(*result, Value("Seattle, WA"));
  int ny = FindRowByKey(*result, Value("New York, NY"));
  int sf = FindRowByKey(*result, Value("San Francisco, CA"));
  EXPECT_NEAR(result->ValueAt(cambridge, 1).ToDouble().ValueOrDie(), 180.55,
              1e-9);
  EXPECT_NEAR(result->ValueAt(seattle, 1).ToDouble().ValueOrDie(), 145.50,
              1e-9);
  EXPECT_NEAR(result->ValueAt(ny, 1).ToDouble().ValueOrDie(), 122.00, 1e-9);
  EXPECT_NEAR(result->ValueAt(sf, 1).ToDouble().ValueOrDie(), 90.13, 1e-9);
}

}  // namespace
}  // namespace seedb::db
