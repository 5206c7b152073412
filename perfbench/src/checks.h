// Answer checks. A session whose answer fails one of these counts as
// failed, exactly like a session that errored.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "core/recommendation.h"
#include "server/protocol.h"

namespace perfbench {

/// One ranked view, whichever side (in-process or wire) produced it.
struct RankedView {
  std::string id;
  std::string dimension;
  std::string measure;
  double utility = 0.0;
};

std::vector<RankedView> TopK(const seedb::core::RecommendationSet& set);
std::vector<RankedView> TopK(const seedb::server::RemoteResult& result);

/// Relative tolerance of CheckUtilitiesMatch: a multi-threaded scan sums
/// in a scheduling-dependent order, which moves the last few bits.
inline constexpr double kUtilityTolerance = 1e-9;

/// Every view `returned` must carry the utility the unpruned `reference`
/// run computed for it (within kUtilityTolerance), and must be one of the
/// reference's candidates. Returns "" when it holds, else what differs.
std::string CheckUtilitiesMatch(const std::vector<RankedView>& returned,
                                const seedb::core::RecommendationSet& reference);

/// Share of the reference's top `k` view ids that `returned` contains.
double TopKRecall(const std::vector<RankedView>& returned,
                  const std::vector<RankedView>& reference, size_t k);

/// `a` and `b` list the same view ids with the same utilities, in order.
std::string CheckSameTopK(const std::vector<RankedView>& a,
                          const std::vector<RankedView>& b);

/// A view over (dimension, measure) is among `returned`.
std::string CheckTrendFound(const std::vector<RankedView>& returned,
                            const std::string& dimension,
                            const std::string& measure);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
