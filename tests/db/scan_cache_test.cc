#include "db/scan_cache.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "db/catalog.h"
#include "db/engine.h"
#include "db/predicate.h"
#include "db/shared_scan.h"

namespace seedb::db {
namespace {

using ::seedb::testing::MakeTinyTable;

// -- Literal normalization ---------------------------------------------------

TEST(NormalizedValueKeyTest, NumericSpellingsCollapse) {
  // `1` vs `1.0`: equal as doubles, and the engine compares in the double
  // domain, so they must share one key.
  EXPECT_EQ(NormalizedValueKey(Value(static_cast<int64_t>(1))),
            NormalizedValueKey(Value(1.0)));
  // IEEE -0.0 == +0.0 selects the same rows.
  EXPECT_EQ(NormalizedValueKey(Value(0.0)), NormalizedValueKey(Value(-0.0)));
  EXPECT_EQ(NormalizedValueKey(Value(static_cast<int64_t>(0))),
            NormalizedValueKey(Value(-0.0)));
}

TEST(NormalizedValueKeyTest, DistinctValuesAndTypesStayDistinct) {
  EXPECT_NE(NormalizedValueKey(Value(1.0)), NormalizedValueKey(Value(2.0)));
  EXPECT_NE(NormalizedValueKey(Value(1.0)), NormalizedValueKey(Value(1.5)));
  // The string "1" never collides with the number 1.
  EXPECT_NE(NormalizedValueKey(Value("1")),
            NormalizedValueKey(Value(static_cast<int64_t>(1))));
  EXPECT_NE(NormalizedValueKey(Value()), NormalizedValueKey(Value(0.0)));
  EXPECT_NE(NormalizedValueKey(Value()), NormalizedValueKey(Value("")));
}

TEST(PredicateFingerprintTest, EqualSpellingsShareFingerprint) {
  Table t = MakeTinyTable();
  ComparisonPredicate as_int("m1", CompareOp::kEq, Value(static_cast<int64_t>(1)));
  ComparisonPredicate as_double("m1", CompareOp::kEq, Value(1.0));
  EXPECT_EQ(PredicateFingerprint(&as_int, t.schema()),
            PredicateFingerprint(&as_double, t.schema()));

  ComparisonPredicate pos_zero("m1", CompareOp::kGt, Value(0.0));
  ComparisonPredicate neg_zero("m1", CompareOp::kGt, Value(-0.0));
  EXPECT_EQ(PredicateFingerprint(&pos_zero, t.schema()),
            PredicateFingerprint(&neg_zero, t.schema()));
}

TEST(PredicateFingerprintTest, TypesAndColumnsNeverCollide) {
  Table t = MakeTinyTable();
  // Same column, string literal vs numeric literal.
  ComparisonPredicate str("d", CompareOp::kEq, Value("1"));
  ComparisonPredicate num("d", CompareOp::kEq, Value(static_cast<int64_t>(1)));
  EXPECT_NE(PredicateFingerprint(&str, t.schema()),
            PredicateFingerprint(&num, t.schema()));

  // Same literal, different columns (d vs e) or different ops.
  ComparisonPredicate on_d("d", CompareOp::kEq, Value("a"));
  ComparisonPredicate on_e("e", CompareOp::kEq, Value("a"));
  EXPECT_NE(PredicateFingerprint(&on_d, t.schema()),
            PredicateFingerprint(&on_e, t.schema()));
  ComparisonPredicate ge("m1", CompareOp::kGe, Value(1.0));
  ComparisonPredicate gt("m1", CompareOp::kGt, Value(1.0));
  EXPECT_NE(PredicateFingerprint(&ge, t.schema()),
            PredicateFingerprint(&gt, t.schema()));

  // Same column name backed by different physical types on two tables.
  Schema int_schema({ColumnDef::Measure("x", ValueType::kInt64)});
  Schema dbl_schema({ColumnDef::Measure("x", ValueType::kDouble)});
  ComparisonPredicate on_x("x", CompareOp::kEq, Value(1.0));
  EXPECT_NE(PredicateFingerprint(&on_x, int_schema),
            PredicateFingerprint(&on_x, dbl_schema));
}

TEST(PredicateFingerprintTest, NullAndCompoundPredicates) {
  Table t = MakeTinyTable();
  EXPECT_EQ(PredicateFingerprint(nullptr, t.schema()), "*");
  // Non-comparison predicates stay total via the SQL rendering fallback.
  auto between = Between("m1", Value(1.0), Value(3.0));
  std::string fp = PredicateFingerprint(between.get(), t.schema());
  EXPECT_EQ(fp.rfind("sql:", 0), 0u) << fp;
}

// -- Cache key ---------------------------------------------------------------

GroupingSetsQuery TinyQuery(PredicatePtr where = nullptr) {
  GroupingSetsQuery q;
  q.table = "t";
  q.where = std::move(where);
  q.grouping_sets = {{"d"}, {"e"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1")};
  return q;
}

TEST(PartialAggCacheKeyTest, VersionSetAndSpellingSemantics) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q1 = TinyQuery(PredicatePtr(Eq("m1", Value(1.0))));
  GroupingSetsQuery q2 =
      TinyQuery(PredicatePtr(Eq("m1", Value(static_cast<int64_t>(1)))));

  // Differently spelled but equal literals: one key.
  EXPECT_EQ(PartialAggCacheKey(t, 1, q1, 0), PartialAggCacheKey(t, 1, q2, 0));
  // Grouping sets and table versions partition the key space.
  EXPECT_NE(PartialAggCacheKey(t, 1, q1, 0), PartialAggCacheKey(t, 1, q1, 1));
  EXPECT_NE(PartialAggCacheKey(t, 1, q1, 0), PartialAggCacheKey(t, 2, q1, 0));

  // A FILTER on an aggregate changes the key; the aggregate *function* does
  // not (AggState carries every function's accumulators).
  GroupingSetsQuery filtered = q1;
  filtered.aggregates[0].filter = PredicatePtr(Eq("d", Value("a")));
  EXPECT_NE(PartialAggCacheKey(t, 1, q1, 0),
            PartialAggCacheKey(t, 1, filtered, 0));
  GroupingSetsQuery avg = q1;
  avg.aggregates[0].func = AggregateFunction::kAvg;
  EXPECT_EQ(PartialAggCacheKey(t, 1, q1, 0), PartialAggCacheKey(t, 1, avg, 0));

  // Sampling configuration participates too.
  GroupingSetsQuery sampled = q1;
  sampled.sample_fraction = 0.5;
  sampled.sample_seed = 7;
  EXPECT_NE(PartialAggCacheKey(t, 1, q1, 0),
            PartialAggCacheKey(t, 1, sampled, 0));
}

// -- LRU cache mechanics -----------------------------------------------------

CachedPartialAgg EntryOfBytes(size_t bytes) {
  CachedPartialAgg e;
  e.bytes = bytes;
  return e;
}

TEST(PartialAggCacheTest, HitMissAndLruEviction) {
  PartialAggCache cache(100);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", EntryOfBytes(40));
  cache.Insert("b", EntryOfBytes(40));
  EXPECT_NE(cache.Lookup("a"), nullptr);  // a is now most recent
  cache.Insert("c", EntryOfBytes(40));    // over budget: evicts b, not a
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);

  ScanCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 80u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
}

TEST(PartialAggCacheTest, OversizedEntryRefusedReplacementAccounted) {
  PartialAggCache cache(100);
  cache.Insert("big", EntryOfBytes(101));  // larger than the whole budget
  EXPECT_EQ(cache.Lookup("big"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);

  cache.Insert("k", EntryOfBytes(30));
  cache.Insert("k", EntryOfBytes(60));  // replacement, not accumulation
  ScanCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 60u);
}

TEST(PartialAggCacheTest, EvictedEntryStaysReadableThroughSharedPtr) {
  PartialAggCache cache(64);
  CachedPartialAgg e;
  e.rep_row = {1, 2, 3};
  e.bytes = 64;
  cache.Insert("a", std::move(e));
  std::shared_ptr<const CachedPartialAgg> held = cache.Lookup("a");
  ASSERT_NE(held, nullptr);
  cache.Insert("b", EntryOfBytes(64));  // evicts a
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(held->rep_row.size(), 3u);  // adopter unaffected by eviction
}

TEST(PartialAggCacheTest, UtilityPriors) {
  PartialAggCache cache(100);
  double u = 0;
  uint64_t w = 0;
  EXPECT_FALSE(cache.LookupUtilityPrior("k", &u, &w));
  cache.PutUtilityPrior("k", 0.75, 10);
  ASSERT_TRUE(cache.LookupUtilityPrior("k", &u, &w));
  EXPECT_DOUBLE_EQ(u, 0.75);
  EXPECT_EQ(w, 10u);
  cache.PutUtilityPrior("k", 0.25, 4);  // overwrite
  ASSERT_TRUE(cache.LookupUtilityPrior("k", &u, &w));
  EXPECT_DOUBLE_EQ(u, 0.25);
  EXPECT_EQ(w, 4u);
}

// -- Shared-scan integration -------------------------------------------------

// Two queries whose row filters differ only in literal spelling must share
// one selection recipe — hence one SelectionVector per morsel — and, through
// the engine cache, one cache entry.
TEST(ScanCacheIntegrationTest, EqualSpellingsShareRecipeAndEntry) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q1 = TinyQuery(PredicatePtr(Gt("m1", Value(0.0))));
  GroupingSetsQuery q2 = TinyQuery(PredicatePtr(Gt("m1", Value(-0.0))));
  GroupingSetsQuery q3 =
      TinyQuery(PredicatePtr(Gt("m1", Value(static_cast<int64_t>(0)))));

  SharedScanStats stats;
  auto r = ExecuteSharedScan(t, {q1, q2, q3}, SharedScanOptions{}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.selection_recipes, 1u);

  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", MakeTinyTable()).ok());
  Engine engine(&catalog);
  engine.EnableResultCache(1 << 20);
  ASSERT_TRUE(engine.ExecuteShared({q1}).ok());
  // One entry per grouping set of q1; q2/q3 resolve to the same keys.
  EXPECT_EQ(engine.result_cache()->stats().entries, 2u);
  ASSERT_TRUE(engine.ExecuteShared({q2, q3}).ok());
  EXPECT_EQ(engine.result_cache()->stats().entries, 2u);
  EngineStatsSnapshot snap = engine.stats();
  EXPECT_EQ(snap.cache_misses, 2u);  // q1's two sets, cold
  EXPECT_EQ(snap.cache_hits, 4u);    // q2 and q3, two sets each
}

// Cache keys leave the aggregate function out, so an entry published by a
// COUNT(x) query must carry the sum, min and max a later SUM(x) / MIN(x)
// query over the same input and FILTER adopts: numeric accumulators always
// carry every function's state.
TEST(ScanCacheIntegrationTest, CountEntryServesALaterSumExactly) {
  GroupingSetsQuery count;
  count.table = "t";
  count.grouping_sets = {{"d"}};
  count.aggregates = {AggregateSpec::Make(AggregateFunction::kCount, "m1")};

  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", MakeTinyTable()).ok());
  Engine engine(&catalog);
  engine.EnableResultCache(1 << 20);
  ASSERT_TRUE(engine.ExecuteShared({count}).ok());
  Engine uncached(&catalog);
  for (AggregateFunction func :
       {AggregateFunction::kSum, AggregateFunction::kMin,
        AggregateFunction::kAvg}) {
    GroupingSetsQuery later = count;
    later.aggregates = {AggregateSpec::Make(func, "m1")};
    auto want = uncached.ExecuteShared({later});
    auto got = engine.ExecuteShared({later});
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const Table& g = (*got)[0][0];
    const Table& w = (*want)[0][0];
    ASSERT_EQ(g.num_rows(), w.num_rows());
    for (size_t r = 0; r < g.num_rows(); ++r) {
      EXPECT_EQ(g.ValueAt(r, 1), w.ValueAt(r, 1))
          << AggregateFunctionToSql(func) << " row " << r;
    }
  }
  EXPECT_EQ(engine.stats().cache_hits, 3u);
}

// Distinct literal *types* (string "1" vs number 1) must produce distinct
// cache keys even when the spelling matches — and at the engine level,
// distinct literal values must produce disjoint entries.
TEST(ScanCacheIntegrationTest, DifferentTypesAndValuesNeverShareEntries) {
  Table t = MakeTinyTable();
  GroupingSetsQuery as_str = TinyQuery(PredicatePtr(Eq("d", Value("1"))));
  GroupingSetsQuery as_num =
      TinyQuery(PredicatePtr(Eq("d", Value(static_cast<int64_t>(1)))));
  EXPECT_NE(PartialAggCacheKey(t, 1, as_str, 0),
            PartialAggCacheKey(t, 1, as_num, 0));

  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", MakeTinyTable()).ok());
  Engine engine(&catalog);
  engine.EnableResultCache(1 << 20);
  GroupingSetsQuery on_a = TinyQuery(PredicatePtr(Eq("d", Value("a"))));
  GroupingSetsQuery on_b = TinyQuery(PredicatePtr(Eq("d", Value("b"))));
  ASSERT_TRUE(engine.ExecuteShared({on_a}).ok());
  ASSERT_TRUE(engine.ExecuteShared({on_b}).ok());
  EngineStatsSnapshot snap = engine.stats();
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_misses, 4u);
  EXPECT_EQ(engine.result_cache()->stats().entries, 4u);
}

TEST(ScanCacheIntegrationTest, WarmRunAdoptsWithoutScanning) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", MakeTinyTable()).ok());
  Engine engine(&catalog);
  engine.EnableResultCache(1 << 20);
  GroupingSetsQuery q = TinyQuery(PredicatePtr(Eq("d", Value("a"))));

  auto cold = engine.ExecuteShared({q});
  ASSERT_TRUE(cold.ok());
  engine.ResetStats();
  auto warm = engine.ExecuteShared({q});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(engine.stats().rows_scanned, 0u);  // fully adopted: no scan

  // Bit-identical results, not approximately equal.
  ASSERT_EQ(warm->size(), cold->size());
  for (size_t qi = 0; qi < cold->size(); ++qi) {
    ASSERT_EQ((*warm)[qi].size(), (*cold)[qi].size());
    for (size_t s = 0; s < (*cold)[qi].size(); ++s) {
      const Table& a = (*cold)[qi][s];
      const Table& b = (*warm)[qi][s];
      ASSERT_EQ(a.num_rows(), b.num_rows());
      ASSERT_EQ(a.num_columns(), b.num_columns());
      for (size_t r = 0; r < a.num_rows(); ++r) {
        for (size_t c = 0; c < a.num_columns(); ++c) {
          EXPECT_EQ(a.ValueAt(r, c), b.ValueAt(r, c))
              << "q" << qi << " set " << s << " row " << r << " col " << c;
        }
      }
    }
  }
}

TEST(ScanCacheIntegrationTest, TableReplaceInvalidatesEntries) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", MakeTinyTable()).ok());
  Engine engine(&catalog);
  engine.EnableResultCache(1 << 20);
  GroupingSetsQuery q = TinyQuery();
  ASSERT_TRUE(engine.ExecuteShared({q}).ok());
  EXPECT_EQ(engine.stats().cache_misses, 2u);

  // Replacing the table bumps its version: old entries are unreachable.
  catalog.PutTable("t", MakeTinyTable());
  engine.ResetStats();
  ASSERT_TRUE(engine.ExecuteShared({q}).ok());
  EngineStatsSnapshot snap = engine.stats();
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_misses, 2u);
  EXPECT_GT(snap.rows_scanned, 0u);
}

}  // namespace
}  // namespace seedb::db
