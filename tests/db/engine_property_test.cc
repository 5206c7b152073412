// Randomized property tests over engine invariants. Each test sweeps random
// tables, predicates, and queries (parameterized by seed) and checks
// algebraic identities that must hold for any input:
//
//   1. vectorized predicate masks == row-at-a-time evaluation
//   2. sum of per-group COUNT(*) == number of WHERE-matching rows
//   3. per-group SUMs add up to the global SUM under the same predicate
//   4. GROUPING SETS results == independent GROUP BY results, set by set,
//      and == the row-at-a-time reference executor, bit for bit
//   5. SQL round trip: executing ToSql() output == executing the query
//   6. FILTER-ed aggregates == WHERE-ed aggregates on common groups

#include <gtest/gtest.h>

#include <map>

#include "../test_util.h"
#include "db/engine.h"
#include "db/sql/parser.h"
#include "reference_executor.h"
#include "util/random.h"

namespace seedb::db {
namespace {

// Random table: 2-4 string dims (cardinality 2-8), 1-3 double measures,
// ~3% nulls everywhere.
Table RandomTable(Random* rng) {
  size_t num_dims = 2 + rng->Uniform(3);
  size_t num_measures = 1 + rng->Uniform(3);
  Schema schema;
  std::vector<size_t> cards;
  for (size_t d = 0; d < num_dims; ++d) {
    Status s = schema.AddColumn(
        ColumnDef::Dimension("d" + std::to_string(d)));
    (void)s;
    cards.push_back(2 + rng->Uniform(7));
  }
  for (size_t m = 0; m < num_measures; ++m) {
    Status s = schema.AddColumn(ColumnDef::Measure("m" + std::to_string(m)));
    (void)s;
  }
  Table table(schema);
  size_t rows = 200 + rng->Uniform(800);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t d = 0; d < num_dims; ++d) {
      if (rng->Bernoulli(0.03)) {
        row.push_back(Value::Null());
      } else {
        row.push_back(Value("v" + std::to_string(rng->Uniform(cards[d]))));
      }
    }
    for (size_t m = 0; m < num_measures; ++m) {
      if (rng->Bernoulli(0.03)) {
        row.push_back(Value::Null());
      } else {
        row.push_back(Value(rng->Gaussian(50.0, 30.0)));  // signed values
      }
    }
    Status s = table.AppendRow(row);
    (void)s;
  }
  return table;
}

// Random predicate tree of depth <= 3 over the table's columns.
std::unique_ptr<Predicate> RandomPredicate(const Schema& schema, Random* rng,
                                           int depth = 0) {
  auto dims = schema.DimensionColumns();
  auto measures = schema.MeasureColumns();
  int kind = static_cast<int>(rng->Uniform(depth >= 3 ? 4 : 7));
  switch (kind) {
    case 0:
      return Eq(dims[rng->Uniform(dims.size())],
                Value("v" + std::to_string(rng->Uniform(8))));
    case 1: {
      CompareOp op = static_cast<CompareOp>(rng->Uniform(6));
      return std::make_unique<ComparisonPredicate>(
          measures[rng->Uniform(measures.size())], op,
          Value(rng->Gaussian(50.0, 40.0)));
    }
    case 2: {
      std::vector<Value> vals;
      size_t n = 1 + rng->Uniform(3);
      for (size_t i = 0; i < n; ++i) {
        vals.emplace_back("v" + std::to_string(rng->Uniform(8)));
      }
      return In(dims[rng->Uniform(dims.size())], std::move(vals));
    }
    case 3: {
      double lo = rng->Gaussian(30.0, 20.0);
      return Between(measures[rng->Uniform(measures.size())], Value(lo),
                     Value(lo + rng->UniformDouble(5.0, 60.0)));
    }
    case 4:
      return And(RandomPredicate(schema, rng, depth + 1),
                 RandomPredicate(schema, rng, depth + 1));
    case 5:
      return Or(RandomPredicate(schema, rng, depth + 1),
                RandomPredicate(schema, rng, depth + 1));
    default:
      return Not(RandomPredicate(schema, rng, depth + 1));
  }
}

class EnginePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EnginePropertyTest, MaskAgreesWithRowEvaluation) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  Table table = RandomTable(&rng);
  for (int trial = 0; trial < 5; ++trial) {
    auto pred = RandomPredicate(table.schema(), &rng);
    std::vector<uint8_t> mask;
    ASSERT_TRUE(pred->EvaluateMask(table, &mask).ok()) << pred->ToSql();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      ASSERT_EQ(pred->Matches(table, r), mask[r] == 1)
          << pred->ToSql() << " row " << r;
    }
  }
}

TEST_P(EnginePropertyTest, GroupCountsSumToMatchedRows) {
  Random rng(static_cast<uint64_t>(GetParam()) * 104729 + 2);
  Table table = RandomTable(&rng);
  PredicatePtr where(RandomPredicate(table.schema(), &rng));
  std::vector<uint8_t> mask;
  ASSERT_TRUE(where->EvaluateMask(table, &mask).ok());
  auto matched = static_cast<double>(
      std::count(mask.begin(), mask.end(), uint8_t{1}));

  GroupByQuery q;
  q.table = "t";
  q.where = where;
  q.group_by = {"d0"};
  q.aggregates = {AggregateSpec::Count("n")};
  auto result = ::seedb::testing::ExecuteOn(table, q).ValueOrDie();
  double total = 0.0;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    total += result.ValueAt(r, 1).ToDouble().ValueOrDie();
  }
  EXPECT_EQ(total, matched);
}

TEST_P(EnginePropertyTest, GroupSumsAddUpToGlobalSum) {
  Random rng(static_cast<uint64_t>(GetParam()) * 1299709 + 3);
  Table table = RandomTable(&rng);
  PredicatePtr where(RandomPredicate(table.schema(), &rng));

  GroupByQuery grouped;
  grouped.table = "t";
  grouped.where = where;
  grouped.group_by = {"d1"};
  grouped.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0")};
  auto by_group = ::seedb::testing::ExecuteOn(table, grouped).ValueOrDie();
  double group_total = 0.0;
  for (size_t r = 0; r < by_group.num_rows(); ++r) {
    group_total += by_group.ValueAt(r, 1).ToDouble().ValueOrDie();
  }

  GroupByQuery global = grouped;
  global.group_by = {};
  auto overall = ::seedb::testing::ExecuteOn(table, global).ValueOrDie();
  ASSERT_EQ(overall.num_rows(), 1u);
  EXPECT_NEAR(group_total, overall.ValueAt(0, 0).ToDouble().ValueOrDie(),
              1e-6);
}

TEST_P(EnginePropertyTest, GroupingSetsMatchIndependentGroupBys) {
  Random rng(static_cast<uint64_t>(GetParam()) * 15485863 + 4);
  Table table = RandomTable(&rng);
  PredicatePtr where(RandomPredicate(table.schema(), &rng));
  auto dims = table.schema().DimensionColumns();

  GroupingSetsQuery gs;
  gs.table = "t";
  gs.where = where;
  for (const auto& d : dims) gs.grouping_sets.push_back({d});
  gs.grouping_sets.push_back({dims[0], dims[1]});  // one multi-column set
  gs.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0", "s"),
                   AggregateSpec::Count("n")};
  auto results = ::seedb::testing::ExecuteOn(table, gs).ValueOrDie();
  ASSERT_EQ(results.size(), gs.grouping_sets.size());
  auto reference = ::seedb::testing::ReferenceExecute(table, gs).ValueOrDie();

  for (size_t s = 0; s < gs.grouping_sets.size(); ++s) {
    GroupByQuery single;
    single.table = "t";
    single.where = where;
    single.group_by = gs.grouping_sets[s];
    single.aggregates = gs.aggregates;
    auto expected = ::seedb::testing::ExecuteOn(table, single).ValueOrDie();
    EXPECT_EQ(::seedb::testing::BitDifference(results[s], reference[s]), "")
        << "set " << s;
    ASSERT_EQ(results[s].num_rows(), expected.num_rows()) << "set " << s;
    for (size_t r = 0; r < expected.num_rows(); ++r) {
      for (size_t c = 0; c < expected.num_columns(); ++c) {
        ASSERT_EQ(results[s].ValueAt(r, c), expected.ValueAt(r, c))
            << "set " << s << " row " << r << " col " << c;
      }
    }
  }
}

TEST_P(EnginePropertyTest, SqlRoundTripExecutesIdentically) {
  Random rng(static_cast<uint64_t>(GetParam()) * 32452843 + 5);
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", RandomTable(&rng)).ok());
  Engine engine(&catalog);
  const Table* table = catalog.GetTable("t").ValueOrDie();

  GroupByQuery q;
  q.table = "t";
  q.where = PredicatePtr(RandomPredicate(table->schema(), &rng));
  q.group_by = {"d0"};
  q.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m0", "s"),
      AggregateSpec::Make(AggregateFunction::kAvg, "m0", "a",
                          PredicatePtr(RandomPredicate(table->schema(), &rng))),
      AggregateSpec::Count("n"),
  };

  auto direct = engine.Execute(q).ValueOrDie();
  auto via_sql = engine.ExecuteSql(q.ToSql());
  ASSERT_TRUE(via_sql.ok()) << q.ToSql() << " -> " << via_sql.status();
  ASSERT_EQ(direct.num_rows(), via_sql->num_rows()) << q.ToSql();
  for (size_t r = 0; r < direct.num_rows(); ++r) {
    for (size_t c = 0; c < direct.num_columns(); ++c) {
      db::Value a = direct.ValueAt(r, c);
      db::Value b = via_sql->ValueAt(r, c);
      if (a.is_numeric() && b.is_numeric()) {
        // SQL text carries doubles through decimal printing; allow rounding
        // slack proportional to magnitude.
        double av = a.ToDouble().ValueOrDie();
        double bv = b.ToDouble().ValueOrDie();
        ASSERT_NEAR(av, bv, 1e-6 * (1.0 + std::abs(av))) << q.ToSql();
      } else {
        ASSERT_EQ(a, b) << q.ToSql();
      }
    }
  }
}

TEST_P(EnginePropertyTest, FilterAggregateMatchesWhereAggregate) {
  Random rng(static_cast<uint64_t>(GetParam()) * 49979687 + 6);
  Table table = RandomTable(&rng);
  PredicatePtr pred(RandomPredicate(table.schema(), &rng));

  GroupByQuery filtered;
  filtered.table = "t";
  filtered.group_by = {"d0"};
  filtered.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m0", "v", pred)};
  auto fr = ::seedb::testing::ExecuteOn(table, filtered).ValueOrDie();

  GroupByQuery whered;
  whered.table = "t";
  whered.where = pred;
  whered.group_by = {"d0"};
  whered.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0", "v")};
  auto wr = ::seedb::testing::ExecuteOn(table, whered).ValueOrDie();

  // Every group present in the WHERE result matches the FILTER result.
  std::map<std::string, double> filtered_vals;
  for (size_t r = 0; r < fr.num_rows(); ++r) {
    filtered_vals[fr.ValueAt(r, 0).ToString()] =
        fr.ValueAt(r, 1).ToDouble().ValueOrDie();
  }
  for (size_t r = 0; r < wr.num_rows(); ++r) {
    auto it = filtered_vals.find(wr.ValueAt(r, 0).ToString());
    ASSERT_NE(it, filtered_vals.end());
    EXPECT_NEAR(it->second, wr.ValueAt(r, 1).ToDouble().ValueOrDie(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedSweeps, EnginePropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace seedb::db
