// Row-at-a-time reference executor: the oracle the engine's equivalence
// tests compare against.
//
// Deliberately naive and independent of the shared scan: every grouping set
// walks every row, evaluates WHERE and FILTER through Predicate::Matches,
// finds its group by linear search over boxed keys, and feeds one AggState
// per (group, aggregate). Only the sampling coin flips and AggState itself
// are shared with the engine, because they define the semantics. A
// single-threaded, single-phase engine batch adds each group's rows in the
// same row order, so its results must be bit-identical to these.

#ifndef SEEDB_TESTS_DB_REFERENCE_EXECUTOR_H_
#define SEEDB_TESTS_DB_REFERENCE_EXECUTOR_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "db/grouping_sets.h"
#include "db/table.h"
#include "util/random.h"

namespace seedb::testing {

/// Group keys match when every part is the same value; doubles compare by
/// bit pattern so +0.0 / -0.0 and NaNs group the way packed keys do.
inline bool SameKeyPart(const db::Value& a, const db::Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == db::ValueType::kDouble) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a == b;
}

/// Evaluates `query` row by row. Result i answers grouping_sets[i]: the
/// grouping columns, then one DOUBLE per aggregate, rows sorted by key.
inline Result<std::vector<db::Table>> ReferenceExecute(
    const db::Table& table, const db::GroupingSetsQuery& query) {
  const size_t n = table.num_rows();
  std::vector<uint8_t> selected(n, 1);
  if (query.sample_fraction < 1.0) {
    Random rng(query.sample_seed);
    for (size_t i = 0; i < n; ++i) {
      selected[i] = rng.Bernoulli(query.sample_fraction) ? 1 : 0;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (query.where && !query.where->Matches(table, i)) selected[i] = 0;
  }

  std::vector<db::Table> results;
  for (const auto& set : query.grouping_sets) {
    db::Schema schema;
    std::vector<const db::Column*> cols;
    for (const std::string& name : set) {
      SEEDB_ASSIGN_OR_RETURN(size_t idx, table.schema().FindColumn(name));
      SEEDB_RETURN_IF_ERROR(schema.AddColumn(table.schema().column(idx)));
      cols.push_back(&table.column(idx));
    }
    for (const auto& agg : query.aggregates) {
      SEEDB_RETURN_IF_ERROR(schema.AddColumn(db::ColumnDef(
          agg.EffectiveName(), db::ValueType::kDouble,
          db::ColumnRole::kMeasure)));
    }

    std::vector<std::vector<db::Value>> keys;
    std::vector<std::vector<db::AggState>> states;  // [group][aggregate]
    if (set.empty()) {
      // An ungrouped aggregate has its one group even over zero rows.
      keys.emplace_back();
      states.emplace_back(query.aggregates.size());
    }
    for (size_t i = 0; i < n; ++i) {
      if (!selected[i]) continue;
      std::vector<db::Value> key;
      for (const db::Column* col : cols) key.push_back(col->GetValue(i));
      size_t g = 0;
      while (g < keys.size() &&
             !std::equal(key.begin(), key.end(), keys[g].begin(),
                         SameKeyPart)) {
        ++g;
      }
      if (g == keys.size()) {
        keys.push_back(key);
        states.emplace_back(query.aggregates.size());
      }
      for (size_t j = 0; j < query.aggregates.size(); ++j) {
        const db::AggregateSpec& agg = query.aggregates[j];
        if (agg.filter && !agg.filter->Matches(table, i)) continue;
        if (agg.input.empty()) {
          states[g][j].AddCountOnly();
          continue;
        }
        SEEDB_ASSIGN_OR_RETURN(const db::Column* input,
                               table.ColumnByName(agg.input));
        if (input->IsNull(i)) continue;
        if (agg.func == db::AggregateFunction::kCount) {
          states[g][j].AddCountOnly();
        } else {
          states[g][j].Add(input->NumericAt(i));
        }
      }
    }

    std::vector<size_t> order(keys.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::lexicographical_compare(keys[a].begin(), keys[a].end(),
                                          keys[b].begin(), keys[b].end());
    });
    db::Table out(schema);
    for (size_t g : order) {
      std::vector<db::Value> row = keys[g];
      for (size_t j = 0; j < query.aggregates.size(); ++j) {
        row.emplace_back(states[g][j].Finalize(query.aggregates[j].func));
      }
      SEEDB_RETURN_IF_ERROR(out.AppendRow(row));
    }
    results.push_back(std::move(out));
  }
  return results;
}

/// Empty when `got` and `want` have the same shape and every cell is the
/// same value, doubles compared by bit pattern (NaN payloads included);
/// otherwise a description of the first difference.
inline std::string BitDifference(const db::Table& got, const db::Table& want) {
  if (got.num_rows() != want.num_rows() ||
      got.num_columns() != want.num_columns()) {
    return "shape " + std::to_string(got.num_rows()) + "x" +
           std::to_string(got.num_columns()) + " vs " +
           std::to_string(want.num_rows()) + "x" +
           std::to_string(want.num_columns());
  }
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      const db::Value g = got.ValueAt(r, c);
      const db::Value w = want.ValueAt(r, c);
      if (!SameKeyPart(g, w)) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + g.ToString() + " vs " + w.ToString();
      }
    }
  }
  return "";
}

}  // namespace seedb::testing

#endif  // SEEDB_TESTS_DB_REFERENCE_EXECUTOR_H_
