// Shared test fixtures: small hand-built tables with known contents,
// including the paper's §1 Laserwave running example.

#ifndef SEEDB_TESTS_TEST_UTIL_H_
#define SEEDB_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "db/engine.h"
#include "db/table.h"

namespace seedb::testing {

/// Schema: product (dim), store (dim), amount (measure).
/// Laserwave rows reproduce Table 1 of the paper exactly: totals by store
/// Cambridge 180.55, Seattle 145.50, New York 122.00, San Francisco 90.13.
/// Other products ("Widget") skew toward New York, so the Laserwave's
/// per-store distribution deviates from the overall one (Scenario A).
inline db::Table MakeLaserwaveTable() {
  db::Schema schema({
      db::ColumnDef::Dimension("product"),
      db::ColumnDef::Dimension("store"),
      db::ColumnDef::Measure("amount"),
  });
  db::Table table(schema);
  struct Row {
    const char* product;
    const char* store;
    double amount;
  };
  const Row rows[] = {
      // Laserwave: one row per store, matching Table 1 exactly.
      {"Laserwave", "Cambridge, MA", 180.55},
      {"Laserwave", "Seattle, WA", 145.50},
      {"Laserwave", "New York, NY", 122.00},
      {"Laserwave", "San Francisco, CA", 90.13},
      // Widget: heavy in New York (the "opposite trend" of Figure 2).
      {"Widget", "New York, NY", 20000.0},
      {"Widget", "New York, NY", 18000.0},
      {"Widget", "Cambridge, MA", 1000.0},
      {"Widget", "Seattle, WA", 1200.0},
      {"Widget", "San Francisco, CA", 900.0},
  };
  for (const Row& r : rows) {
    Status s = table.AppendRow(
        {db::Value(r.product), db::Value(r.store), db::Value(r.amount)});
    (void)s;
  }
  return table;
}

/// Tiny generic table: dim d (a/b), dim e (x/y), measures m1, m2.
inline db::Table MakeTinyTable() {
  db::Schema schema({
      db::ColumnDef::Dimension("d"),
      db::ColumnDef::Dimension("e"),
      db::ColumnDef::Measure("m1"),
      db::ColumnDef::Measure("m2"),
  });
  db::Table table(schema);
  struct Row {
    const char* d;
    const char* e;
    double m1;
    double m2;
  };
  const Row rows[] = {
      {"a", "x", 1.0, 10.0}, {"a", "y", 2.0, 20.0}, {"b", "x", 3.0, 30.0},
      {"b", "y", 4.0, 40.0}, {"a", "x", 5.0, 50.0}, {"b", "y", 6.0, 60.0},
  };
  for (const Row& r : rows) {
    Status s = table.AppendRow({db::Value(r.d), db::Value(r.e),
                                db::Value(r.m1), db::Value(r.m2)});
    (void)s;
  }
  return table;
}

/// Row-by-row copy of `table` (Table itself is move-only): same schema,
/// same values, same dictionary code order.
inline db::Table CopyTable(const db::Table& table) {
  db::Table copy(table.schema());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<db::Value> row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.ValueAt(r, c));
    }
    Status s = copy.AppendRow(row);
    (void)s;
  }
  return copy;
}

/// Runs `query` through Engine::Execute on a fresh engine whose catalog
/// holds a copy of `table` named query.table; `stats` (optional) receives
/// that engine's counters afterwards.
template <typename Query>
auto ExecuteOn(const db::Table& table, const Query& query,
               db::EngineStatsSnapshot* stats = nullptr) {
  db::Catalog catalog;
  Status added = catalog.AddTable(query.table, CopyTable(table));
  (void)added;
  db::Engine engine(&catalog);
  auto result = engine.Execute(query);
  if (stats != nullptr) *stats = engine.stats();
  return result;
}

/// Finds the (first) row index of `table` whose column 0 equals `key`, or
/// -1. For checking group-by outputs.
inline int FindRowByKey(const db::Table& table, const db::Value& key) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (table.ValueAt(r, 0) == key) return static_cast<int>(r);
  }
  return -1;
}

}  // namespace seedb::testing

#endif  // SEEDB_TESTS_TEST_UTIL_H_
