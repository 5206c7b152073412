#include "db/statistics.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "util/histogram.h"

namespace seedb::db {
namespace {

// The one frequency table over a column's non-null values, as (value,
// count) pairs in the counting structure's own order: dictionary-code order
// for strings (codes that only null slots reference are dropped), hash
// order for numerics. Every distribution statistic derives from it.
std::vector<std::pair<Value, size_t>> ValueFrequencies(const Column& col) {
  std::vector<std::pair<Value, size_t>> freqs;
  const auto collect = [&freqs](const auto& counts) {
    freqs.reserve(counts.size());
    for (const auto& [v, c] : counts) {
      freqs.emplace_back(std::piecewise_construct, std::forward_as_tuple(v),
                         std::forward_as_tuple(c));
    }
  };
  switch (col.type()) {
    case ValueType::kString: {
      std::vector<size_t> counts(col.dict_size(), 0);
      for (size_t i = 0; i < col.size(); ++i) {
        if (!col.IsNull(i)) ++counts[col.codes()[i]];
      }
      for (size_t code = 0; code < counts.size(); ++code) {
        if (counts[code] == 0) continue;
        freqs.emplace_back(
            std::piecewise_construct,
            std::forward_as_tuple(col.dict_value(static_cast<int32_t>(code))),
            std::forward_as_tuple(counts[code]));
      }
      break;
    }
    case ValueType::kInt64: {
      std::unordered_map<int64_t, size_t> m;
      for (size_t i = 0; i < col.size(); ++i) {
        if (!col.IsNull(i)) ++m[col.int64_data()[i]];
      }
      collect(m);
      break;
    }
    case ValueType::kDouble: {
      std::unordered_map<double, size_t> m;
      for (size_t i = 0; i < col.size(); ++i) {
        if (!col.IsNull(i)) ++m[col.double_data()[i]];
      }
      collect(m);
      break;
    }
    case ValueType::kNull:
      break;
  }
  return freqs;
}

}  // namespace

ColumnStats ComputeColumnStats(const Table& table, size_t col_index) {
  const Column& col = table.column(col_index);
  const ColumnDef& def = table.schema().column(col_index);
  ColumnStats stats;
  stats.name = def.name;
  stats.type = def.type;
  stats.role = def.role;
  stats.row_count = col.size();
  stats.null_count = col.null_count();

  if (col.type() == ValueType::kInt64 || col.type() == ValueType::kDouble) {
    RunningStats rs;
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col.IsNull(i)) rs.Add(col.NumericAt(i));
    }
    stats.min = rs.min();
    stats.max = rs.max();
    stats.mean = rs.mean();
    stats.variance = rs.variance();
  }

  // Distinct count, diversity, entropy and top values all come from one
  // counting pass over the column.
  std::vector<std::pair<Value, size_t>> freqs = ValueFrequencies(col);
  stats.distinct_count = freqs.size();
  size_t total = 0;
  for (const auto& [_, f] : freqs) total += f;
  if (total > 0) {
    double sum_p2 = 0.0;
    double entropy = 0.0;
    for (const auto& [_, f] : freqs) {
      double p = static_cast<double>(f) / static_cast<double>(total);
      sum_p2 += p * p;
      entropy -= p * std::log(p);
    }
    stats.diversity = 1.0 - sum_p2;
    stats.normalized_entropy =
        freqs.size() > 1 ? entropy / std::log(static_cast<double>(freqs.size()))
                         : 0.0;
  }

  // Top values: count descending, ties by value.
  const size_t top = std::min(freqs.size(), ColumnStats::kTopValues);
  std::partial_sort(freqs.begin(), freqs.begin() + top, freqs.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  freqs.resize(top);
  stats.top_values = std::move(freqs);
  return stats;
}

TableStats ComputeTableStats(const Table& table, const std::string& name) {
  TableStats stats;
  stats.table_name = name;
  stats.num_rows = table.num_rows();
  stats.memory_bytes = table.MemoryBytes();
  stats.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    stats.columns.push_back(ComputeColumnStats(table, c));
  }
  return stats;
}

Result<const ColumnStats*> TableStats::Find(const std::string& column) const {
  for (const auto& c : columns) {
    if (c.name == column) return &c;
  }
  return Status::NotFound("no stats for column '" + column + "'");
}

Result<double> CramersV(const Table& table, const std::string& col_a,
                        const std::string& col_b) {
  SEEDB_ASSIGN_OR_RETURN(const Column* a, table.ColumnByName(col_a));
  SEEDB_ASSIGN_OR_RETURN(const Column* b, table.ColumnByName(col_b));
  auto code_of = [](const Column& c, size_t row) -> Result<int64_t> {
    switch (c.type()) {
      case ValueType::kString:
        return static_cast<int64_t>(c.codes()[row]);
      case ValueType::kInt64:
        return c.int64_data()[row];
      default:
        return Status::InvalidArgument(
            "Cramér's V requires categorical (string/int64) columns");
    }
  };

  // Contingency table over non-null pairs.
  std::unordered_map<int64_t, size_t> a_ids, b_ids;
  std::unordered_map<int64_t, size_t> cell_counts;  // (a_id << 32) | b_id
  std::vector<size_t> row_totals, col_totals;
  size_t n = 0;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (a->IsNull(i) || b->IsNull(i)) continue;
    SEEDB_ASSIGN_OR_RETURN(int64_t av, code_of(*a, i));
    SEEDB_ASSIGN_OR_RETURN(int64_t bv, code_of(*b, i));
    auto [ita, ia] = a_ids.emplace(av, a_ids.size());
    auto [itb, ib] = b_ids.emplace(bv, b_ids.size());
    (void)ia;
    (void)ib;
    size_t ai = ita->second, bi = itb->second;
    if (ai >= row_totals.size()) row_totals.resize(ai + 1, 0);
    if (bi >= col_totals.size()) col_totals.resize(bi + 1, 0);
    ++row_totals[ai];
    ++col_totals[bi];
    ++cell_counts[static_cast<int64_t>((ai << 32) | bi)];
    ++n;
  }
  size_t r = row_totals.size();
  size_t k = col_totals.size();
  if (n == 0 || r < 2 || k < 2) {
    // Degenerate tables carry no association signal; report 0 rather than
    // failing so pruning can proceed.
    return 0.0;
  }

  double chi2 = 0.0;
  for (size_t ai = 0; ai < r; ++ai) {
    for (size_t bi = 0; bi < k; ++bi) {
      double expected = static_cast<double>(row_totals[ai]) *
                        static_cast<double>(col_totals[bi]) /
                        static_cast<double>(n);
      auto it = cell_counts.find(static_cast<int64_t>((ai << 32) | bi));
      double observed =
          it == cell_counts.end() ? 0.0 : static_cast<double>(it->second);
      double d = observed - expected;
      if (expected > 0) chi2 += d * d / expected;
    }
  }
  double denom = static_cast<double>(n) * static_cast<double>(std::min(r, k) - 1);
  double v = std::sqrt(chi2 / denom);
  return std::min(1.0, v);
}

}  // namespace seedb::db
