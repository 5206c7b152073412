// GROUPING SETS: several group-bys over one shared table scan.
//
// This is the query shape behind §3.3 "Combine Multiple Group-bys": instead
// of executing queries for views (a1,m,f) ... (an,m,f) independently
// (n scans), SeeDB issues one query with n grouping sets (1 scan, n hash
// tables held simultaneously — the working-memory trade-off the optimizer's
// bin-packing manages). Engine::Execute and Engine::ExecuteShared run it
// through the shared scan (db/shared_scan.h); result i has grouping set i's
// columns followed by one DOUBLE per aggregate.

#ifndef SEEDB_DB_GROUPING_SETS_H_
#define SEEDB_DB_GROUPING_SETS_H_

#include <string>
#include <vector>

#include "db/group_by.h"
#include "util/result.h"

namespace seedb::db {

/// \brief A multi-group-by query over one table: the same WHERE and aggregate
/// list evaluated under several grouping column sets simultaneously.
struct GroupingSetsQuery {
  std::string table;
  PredicatePtr where;
  /// Each inner vector is one grouping set (list of grouping columns).
  std::vector<std::vector<std::string>> grouping_sets;
  std::vector<AggregateSpec> aggregates;
  double sample_fraction = 1.0;
  uint64_t sample_seed = 0;

  /// SQL rendering using the GROUPING SETS syntax.
  std::string ToSql() const;
};

}  // namespace seedb::db

#endif  // SEEDB_DB_GROUPING_SETS_H_
