// Grouped aggregation: the only query shape SeeDB needs from its DBMS (§2).
//
//   SELECT a, f(m) FROM T WHERE pred GROUP BY a
//
// with optional per-aggregate FILTER predicates (conditional aggregation),
// multiple aggregates per query (§3.3 "Combine Multiple Aggregates"), and an
// optional Bernoulli sample of the scan (§3.3 "Sampling").
//
// There is one executor: Engine::Execute runs every such query as a
// one-query batch of the shared scan (db/shared_scan.h). This header holds
// the query shape and the helpers that scan uses to resolve and
// materialize it.

#ifndef SEEDB_DB_GROUP_BY_H_
#define SEEDB_DB_GROUP_BY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/aggregates.h"
#include "db/predicate.h"
#include "db/table.h"
#include "util/result.h"

namespace seedb::db {

/// \brief A single grouped-aggregation query against one table.
struct GroupByQuery {
  std::string table;
  /// Row selection; null selects all rows.
  PredicatePtr where;
  /// Zero (global aggregate), one, or several grouping columns.
  std::vector<std::string> group_by;
  std::vector<AggregateSpec> aggregates;
  /// Bernoulli sampling fraction in (0, 1]; 1 scans everything.
  double sample_fraction = 1.0;
  uint64_t sample_seed = 0;

  /// Renders the query as SQL text (the form SeeDB would send to a real
  /// DBMS in its wrapper deployment).
  std::string ToSql() const;
};

namespace internal {

/// Packs one cell into an int64 key part for hashing/equality: strings pack
/// their dictionary code, doubles their bit pattern, nulls a sentinel
/// distinct from any code. Key parts are table-global (the dictionary is
/// shared), so keys packed by different workers over disjoint row ranges
/// compare correctly — the property db/shared_scan.h's partial-state merge
/// relies on.
int64_t PackKeyPart(const Column& col, size_t row);

/// FNV-1a over packed key parts.
struct PackedKeyHash {
  size_t operator()(const std::vector<int64_t>& key) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (int64_t part : key) {
      h ^= std::hash<int64_t>{}(part);
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

/// Builds a Bernoulli scan mask: each row kept with probability `fraction`.
std::vector<uint8_t> BernoulliScanMask(size_t num_rows, double fraction,
                                       uint64_t seed);

/// Materializes the grouped-aggregation output shape of every engine query:
/// group columns with their original defs, then one DOUBLE column per
/// aggregate, one row per group sorted lexicographically by boxed key.
/// `keys[g]` is group g's boxed key (one Value per grouping column);
/// `states[a][g]` is accumulator a's state for group g, and aggregate j is
/// finalized from accumulator `agg_acc[j]` — the shared scan keeps one
/// accumulator per distinct (input, FILTER) pair, which several aggregates
/// may read.
Result<Table> MaterializeGroupedResult(
    const Table& table, const std::vector<std::string>& group_cols,
    const std::vector<AggregateSpec>& aggregates,
    std::vector<std::vector<Value>> keys,
    const std::vector<std::vector<AggState>>& states,
    const std::vector<uint32_t>& agg_acc);

/// Validates a query's aggregate list against `table`.
Status ValidateAggregates(const Table& table,
                          const std::vector<AggregateSpec>& aggregates);

}  // namespace internal
}  // namespace seedb::db

#endif  // SEEDB_DB_GROUP_BY_H_
