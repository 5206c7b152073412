// GROUPING SETS through Engine::Execute: one query, several group-bys, one
// shared-scan batch. Each test registers its table in a fresh catalog and
// checks results, the batch's engine counters, and agreement with the
// row-at-a-time reference executor.

#include "db/grouping_sets.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "reference_executor.h"

namespace seedb::db {
namespace {

using ::seedb::testing::ExecuteOn;
using ::seedb::testing::MakeTinyTable;

GroupingSetsQuery TwoSetQuery() {
  GroupingSetsQuery q;
  q.table = "t";
  q.grouping_sets = {{"d"}, {"e"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1")};
  return q;
}

TEST(GroupingSetsTest, MatchesIndependentGroupBys) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q = TwoSetQuery();
  EngineStatsSnapshot stats;
  auto results = ExecuteOn(t, q, &stats);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);

  // Cross-check each result set against a GroupByQuery for the same set and
  // against the reference executor.
  auto reference = ::seedb::testing::ReferenceExecute(t, q);
  ASSERT_TRUE(reference.ok());
  for (size_t s = 0; s < 2; ++s) {
    GroupByQuery single;
    single.table = "t";
    single.group_by = q.grouping_sets[s];
    single.aggregates = q.aggregates;
    auto expected = ExecuteOn(t, single);
    ASSERT_TRUE(expected.ok());
    const Table& got = (*results)[s];
    EXPECT_EQ(::seedb::testing::BitDifference(got, (*reference)[s]), "")
        << "set " << s;
    ASSERT_EQ(got.num_rows(), expected->num_rows());
    for (size_t r = 0; r < got.num_rows(); ++r) {
      for (size_t c = 0; c < got.num_columns(); ++c) {
        EXPECT_EQ(got.ValueAt(r, c), expected->ValueAt(r, c))
            << "set " << s << " row " << r << " col " << c;
      }
    }
  }
  EXPECT_EQ(stats.groups_created, 4u);  // 2 values of d + 2 values of e
  EXPECT_EQ(stats.table_scans, 1u);      // one scan for both sets
}

TEST(GroupingSetsTest, SharedWhere) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q = TwoSetQuery();
  q.where = PredicatePtr(Gt("m1", Value(2.0)));
  auto results = ExecuteOn(t, q);
  ASSERT_TRUE(results.ok());
  // m1 in {3,4,5,6}: COUNT(*) over the selected rows.
  GroupingSetsQuery count = q;
  count.grouping_sets = {{}};
  count.aggregates = {AggregateSpec::Count()};
  auto matched = ExecuteOn(t, count, nullptr);
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ((*matched)[0].ValueAt(0, 0), Value(4.0));
  // Set 0 (by d): a -> 5, b -> 13.
  const Table& by_d = (*results)[0];
  EXPECT_EQ(by_d.ValueAt(0, 1), Value(5.0));
  EXPECT_EQ(by_d.ValueAt(1, 1), Value(13.0));
}

TEST(GroupingSetsTest, FilterAggregatesPerSet) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q = TwoSetQuery();
  q.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m1", "tgt",
                          PredicatePtr(Eq("e", Value("x")))),
      AggregateSpec::Make(AggregateFunction::kSum, "m1", "cmp"),
  };
  auto results = ExecuteOn(t, q, nullptr);
  ASSERT_TRUE(results.ok());
  const Table& by_d = (*results)[0];
  // a: filtered 1+5=6, unfiltered 8. b: filtered 3, unfiltered 13.
  EXPECT_EQ(by_d.ValueAt(0, 1), Value(6.0));
  EXPECT_EQ(by_d.ValueAt(0, 2), Value(8.0));
  EXPECT_EQ(by_d.ValueAt(1, 1), Value(3.0));
  EXPECT_EQ(by_d.ValueAt(1, 2), Value(13.0));
  const Table& by_e = (*results)[1];
  // x: filtered=unfiltered=9; y: filtered 0, unfiltered 12.
  EXPECT_EQ(by_e.ValueAt(0, 1), Value(9.0));
  EXPECT_EQ(by_e.ValueAt(0, 2), Value(9.0));
  EXPECT_EQ(by_e.ValueAt(1, 1), Value(0.0));
  EXPECT_EQ(by_e.ValueAt(1, 2), Value(12.0));
}

TEST(GroupingSetsTest, MultiColumnSet) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q;
  q.table = "t";
  q.grouping_sets = {{"d", "e"}, {"d"}};
  q.aggregates = {AggregateSpec::Count("n")};
  auto results = ExecuteOn(t, q, nullptr);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ((*results)[0].num_rows(), 4u);
  EXPECT_EQ((*results)[1].num_rows(), 2u);
  EXPECT_EQ((*results)[0].num_columns(), 3u);  // d, e, n
}

TEST(GroupingSetsTest, SingleSetEquivalentToGroupBy) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q;
  q.table = "t";
  q.grouping_sets = {{"d"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kAvg, "m2")};
  auto results = ExecuteOn(t, q, nullptr);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].num_rows(), 2u);
}

TEST(GroupingSetsTest, StatsCountAllSetsGroups) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q;
  q.table = "t";
  q.grouping_sets = {{"d"}, {"e"}, {"d", "e"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1"),
                  AggregateSpec::Make(AggregateFunction::kSum, "m2")};
  EngineStatsSnapshot stats;
  ASSERT_TRUE(ExecuteOn(t, q, &stats).ok());
  EXPECT_EQ(stats.groups_created, 8u);  // 2 + 2 + 4
  EXPECT_EQ(stats.peak_agg_state_bytes, 8u * 2u * sizeof(AggState));
  EXPECT_EQ(stats.rows_scanned, 6u);
  EXPECT_EQ(stats.table_scans, 1u);
}

TEST(GroupingSetsTest, ValidationErrors) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q;
  q.table = "t";
  EXPECT_FALSE(ExecuteOn(t, q, nullptr).ok());  // no sets
  q.grouping_sets = {{"missing"}};
  q.aggregates = {AggregateSpec::Count()};
  EXPECT_FALSE(ExecuteOn(t, q, nullptr).ok());
}

TEST(GroupingSetsTest, ToSqlUsesGroupingSetsSyntax) {
  GroupingSetsQuery q = TwoSetQuery();
  std::string sql = q.ToSql();
  EXPECT_NE(sql.find("GROUP BY GROUPING SETS ((d), (e))"), std::string::npos);
  EXPECT_NE(sql.find("SELECT d, e, SUM(m1)"), std::string::npos);
}

TEST(GroupingSetsTest, SamplingSharedAcrossSets) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q = TwoSetQuery();
  q.sample_fraction = 0.5;
  q.sample_seed = 1;
  EngineStatsSnapshot stats;
  auto results = ExecuteOn(t, q, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_LE(stats.rows_scanned, 6u);
  // Both sets saw the same sampled subset: their total row counts agree.
  double sum_d = 0, sum_e = 0;
  for (size_t r = 0; r < (*results)[0].num_rows(); ++r) {
    sum_d += (*results)[0].ValueAt(r, 1).ToDouble().ValueOrDie();
  }
  for (size_t r = 0; r < (*results)[1].num_rows(); ++r) {
    sum_e += (*results)[1].ValueAt(r, 1).ToDouble().ValueOrDie();
  }
  EXPECT_EQ(sum_d, sum_e);
}

}  // namespace
}  // namespace seedb::db
