#include "db/group_by.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/random.h"
#include "util/string_util.h"

namespace seedb::db {

std::string GroupByQuery::ToSql() const {
  std::string out = "SELECT ";
  std::vector<std::string> items = group_by;
  for (const auto& agg : aggregates) items.push_back(agg.ToSql());
  out += Join(items, ", ");
  out += " FROM " + table;
  if (sample_fraction < 1.0) {
    out += StringPrintf(" TABLESAMPLE BERNOULLI (%s)",
                        FormatDouble(sample_fraction * 100.0, 4).c_str());
  }
  if (where) {
    out += " WHERE " + where->ToSql();
  }
  if (!group_by.empty()) {
    out += " GROUP BY " + Join(group_by, ", ");
  }
  return out;
}

namespace internal {

std::vector<uint8_t> BernoulliScanMask(size_t num_rows, double fraction,
                                       uint64_t seed) {
  std::vector<uint8_t> mask(num_rows, 1);
  if (fraction >= 1.0) return mask;
  Random rng(seed);
  for (size_t i = 0; i < num_rows; ++i) {
    mask[i] = rng.Bernoulli(fraction) ? 1 : 0;
  }
  return mask;
}

Status ValidateAggregates(const Table& table,
                          const std::vector<AggregateSpec>& aggregates) {
  if (aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (const auto& agg : aggregates) {
    if (agg.input.empty()) {
      if (agg.func != AggregateFunction::kCount) {
        return Status::InvalidArgument(
            std::string(AggregateFunctionToSql(agg.func)) +
            " requires an input column");
      }
    } else {
      SEEDB_ASSIGN_OR_RETURN(const Column* col,
                             table.ColumnByName(agg.input));
      if (col->type() == ValueType::kString &&
          agg.func != AggregateFunction::kCount) {
        return Status::InvalidArgument("aggregate input '" + agg.input +
                                       "' must be numeric");
      }
    }
    if (agg.filter) {
      SEEDB_RETURN_IF_ERROR(agg.filter->Validate(table.schema()));
    }
  }
  return Status::OK();
}

namespace {

// Null sentinel distinct from any dictionary code.
constexpr int64_t kNullKeyPart = std::numeric_limits<int64_t>::min() + 1;

}  // namespace

int64_t PackKeyPart(const Column& col, size_t row) {
  if (col.IsNull(row)) return kNullKeyPart;
  switch (col.type()) {
    case ValueType::kInt64:
      return col.int64_data()[row];
    case ValueType::kDouble:
      return std::bit_cast<int64_t>(col.double_data()[row]);
    case ValueType::kString:
      return col.codes()[row];
    case ValueType::kNull:
      return kNullKeyPart;
  }
  return kNullKeyPart;
}

Result<Table> MaterializeGroupedResult(
    const Table& table, const std::vector<std::string>& group_cols,
    const std::vector<AggregateSpec>& aggregates,
    std::vector<std::vector<Value>> keys,
    const std::vector<std::vector<AggState>>& states,
    const std::vector<uint32_t>& agg_acc) {
  Schema out_schema;
  for (const auto& g : group_cols) {
    SEEDB_ASSIGN_OR_RETURN(size_t idx, table.schema().FindColumn(g));
    SEEDB_RETURN_IF_ERROR(out_schema.AddColumn(table.schema().column(idx)));
  }
  for (const auto& agg : aggregates) {
    SEEDB_RETURN_IF_ERROR(out_schema.AddColumn(ColumnDef(
        agg.EffectiveName(), ValueType::kDouble, ColumnRole::kMeasure)));
  }

  int32_t num_groups = static_cast<int32_t>(keys.size());
  std::vector<int32_t> order(num_groups);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return std::lexicographical_compare(keys[a].begin(), keys[a].end(),
                                        keys[b].begin(), keys[b].end());
  });

  Table out(out_schema);
  for (int32_t g : order) {
    std::vector<Value> row = std::move(keys[g]);
    for (size_t j = 0; j < aggregates.size(); ++j) {
      row.emplace_back(states[agg_acc[j]][g].Finalize(aggregates[j].func));
    }
    SEEDB_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace internal
}  // namespace seedb::db
