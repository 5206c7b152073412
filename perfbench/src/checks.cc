#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

std::vector<RankedView> TopK(const seedb::core::RecommendationSet& set) {
  std::vector<RankedView> out;
  for (const seedb::core::Recommendation& r : set.top_views) {
    out.push_back({r.view().Id(), r.view().dimension, r.view().measure,
                   r.utility()});
  }
  return out;
}

std::vector<RankedView> TopK(const seedb::server::RemoteResult& result) {
  std::vector<RankedView> out;
  for (const seedb::server::RemoteRecommendation& r : result.top) {
    out.push_back({r.view_id, r.dimension, r.measure, r.utility});
  }
  return out;
}

std::string CheckUtilitiesMatch(const std::vector<RankedView>& returned,
                                const seedb::core::RecommendationSet& reference) {
  std::unordered_map<std::string, double> utility;
  // The reference ran unpruned with every view ranked (k = all views).
  for (const seedb::core::Recommendation& r : reference.top_views) {
    utility[r.view().Id()] = r.utility();
  }
  if (returned.empty()) return "no views returned";
  for (const RankedView& v : returned) {
    auto it = utility.find(v.id);
    if (it == utility.end()) return "view " + v.id + " is not a reference candidate";
    // Workers claim morsels dynamically, so per-group sums are added in a
    // scheduling-dependent order: equal up to float reassociation.
    if (std::fabs(it->second - v.utility) >
        kUtilityTolerance * std::max(1.0, std::fabs(it->second))) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "view %s: utility %.17g, reference %.17g",
                    v.id.c_str(), v.utility, it->second);
      return buf;
    }
  }
  return "";
}

double TopKRecall(const std::vector<RankedView>& returned,
                  const std::vector<RankedView>& reference, size_t k) {
  std::unordered_set<std::string> got;
  for (const RankedView& v : returned) got.insert(v.id);
  size_t n = 0;
  size_t hit = 0;
  for (size_t i = 0; i < reference.size() && i < k; ++i, ++n) {
    hit += got.count(reference[i].id);
  }
  return n == 0 ? 1.0 : static_cast<double>(hit) / static_cast<double>(n);
}

std::string CheckSameTopK(const std::vector<RankedView>& a,
                          const std::vector<RankedView>& b) {
  if (a.size() != b.size()) {
    return "top-k sizes differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].utility != b[i].utility) {
      char buf[320];
      std::snprintf(buf, sizeof(buf), "rank %zu: %s (%.17g) vs %s (%.17g)",
                    i + 1, a[i].id.c_str(), a[i].utility, b[i].id.c_str(),
                    b[i].utility);
      return buf;
    }
  }
  return "";
}

std::string CheckTrendFound(const std::vector<RankedView>& returned,
                            const std::string& dimension,
                            const std::string& measure) {
  for (const RankedView& v : returned) {
    if (v.dimension == dimension && v.measure == measure) return "";
  }
  return "known trend (" + dimension + ", " + measure + ") not in the top-k";
}

}  // namespace perfbench
