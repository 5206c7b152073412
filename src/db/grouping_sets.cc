#include "db/grouping_sets.h"

#include <algorithm>

#include "util/string_util.h"

namespace seedb::db {

std::string GroupingSetsQuery::ToSql() const {
  std::string out = "SELECT ";
  // Union of all grouping columns appears in the select list; a real DBMS
  // NULL-fills the inapplicable ones per set.
  std::vector<std::string> cols;
  for (const auto& set : grouping_sets) {
    for (const auto& c : set) {
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
  }
  std::vector<std::string> items = cols;
  for (const auto& agg : aggregates) items.push_back(agg.ToSql());
  out += Join(items, ", ");
  out += " FROM " + table;
  if (sample_fraction < 1.0) {
    out += StringPrintf(" TABLESAMPLE BERNOULLI (%s)",
                        FormatDouble(sample_fraction * 100.0, 4).c_str());
  }
  if (where) out += " WHERE " + where->ToSql();
  out += " GROUP BY GROUPING SETS (";
  for (size_t s = 0; s < grouping_sets.size(); ++s) {
    if (s) out += ", ";
    out += '(';
    out += Join(grouping_sets[s], ", ");
    out += ')';
  }
  out += ")";
  return out;
}

}  // namespace seedb::db
