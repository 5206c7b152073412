// SeeDB public facade: the full pipeline of Figure 4.
//
//   analyst query Q
//     -> Metadata Collector  (catalog statistics + access tracker)
//     -> Query Generator     (view enumeration + pruning)
//     -> Optimizer           (query combining, bin packing, sampling)
//     -> DBMS                (embedded engine, optionally parallel)
//     -> View Processor      (normalization + utility)
//     -> top-k recommendations

#ifndef SEEDB_CORE_SEEDB_H_
#define SEEDB_CORE_SEEDB_H_

#include <string>

#include "core/executor.h"
#include "core/metrics.h"
#include "core/optimizer.h"
#include "core/pruning.h"
#include "core/recommendation.h"
#include "core/view_space.h"
#include "db/engine.h"
#include "util/result.h"

namespace seedb::core {

/// How view queries trade accuracy for latency via sampling (§3.3).
enum class SamplingStrategy {
  /// Full data.
  kNone,
  /// Per-query Bernoulli TABLESAMPLE with optimizer.sample_fraction. Cheap
  /// to set up but every query still walks the full row range (rows are
  /// skipped, not absent), so latency gains are modest in a columnar
  /// engine.
  kInline,
  /// The paper's strategy: "construct a sample of the dataset that can fit
  /// in memory and run all view queries against the sample." A reservoir
  /// sample of `sample_rows` rows is materialized once per (table, size,
  /// seed), cached in the catalog, and every view query runs against it —
  /// latency then scales with the sample size.
  kMaterialized,
};

/// Options for one Recommend() call.
struct SeeDBOptions {
  /// Number of views to recommend (the k of Problem 2.1).
  size_t k = 5;
  /// Utility metric S.
  DistanceMetric metric = DistanceMetric::kEarthMovers;
  /// Also return this many lowest-utility "bad views" (0 = none). Under
  /// online pruning, bottom-k ranks only the views examined to completion —
  /// the pruner discards exactly the low-utility views mid-scan, so the
  /// worst candidates land in RecommendationSet::online_pruned_views
  /// instead; ExecutionProfile::examined_view_count says how many views the
  /// ranking actually covers.
  size_t bottom_k = 0;

  ViewSpaceOptions view_space;
  PruningOptions pruning;           // default: no pruning
  OptimizerOptions optimizer;       // default: all combining on
  /// Concurrent query execution (§3.3 "Parallel Query Execution"), or
  /// morsel worker threads under kPhasedSharedScan.
  size_t parallelism = 1;
  /// kPerQuery runs each planned query as its own table pass;
  /// kPhasedSharedScan fuses the whole plan into one morsel-driven pass
  /// (db/shared_scan.h) split into online_pruning.num_phases sequential
  /// phases with online view pruning at each boundary.
  ExecutionStrategy strategy = ExecutionStrategy::kPerQuery;
  /// Phase count and mid-flight pruner for kPhasedSharedScan. keep_k = 0
  /// (the default) is wired to this request's k at execution time; online
  /// pruning discards low-utility views mid-scan, so bottom_k under a
  /// pruned run only ranks the survivors.
  OnlinePruningOptions online_pruning;

  SamplingStrategy sampling = SamplingStrategy::kNone;
  /// Reservoir size for kMaterialized (ignored otherwise). Tables at or
  /// below this size run un-sampled.
  size_t sample_rows = 100000;
  uint64_t sample_seed = 0;

  /// Per-session cap on the run's aggregation-state footprint (bytes) — the
  /// working-memory trade-off §3.3 describes, made a hard limit so one
  /// greedy session cannot starve a multi-tenant server. Enforced under
  /// every strategy: the merged state of the run's passes is metered after
  /// every phase, and kPerQuery also stops issuing queries once the
  /// finished ones break it. The Next() that observed the breach returns a
  /// graceful OutOfRange, and Finish() assembles partial results from the
  /// work already completed (profile.budget_exceeded = true). 0 = unlimited.
  size_t memory_budget_bytes = 0;

  /// Record obs trace spans (session lifecycle, scan phases, worker merge
  /// steps) for this run even when the active obs::TraceRecorder was not
  /// started with trace_all_sessions. No effect while no recorder is
  /// active — spans cost one relaxed load then.
  bool trace = false;
};

class SeeDBRequest;
class RecommendationSession;

/// \brief The SeeDB recommendation engine over an embedded DBMS.
///
/// The primary entry point is the streaming session API (core/session.h):
/// build a SeeDBRequest, Open() a RecommendationSession, drive it phase by
/// phase (or Run() it to completion). The blocking Recommend()/
/// RecommendSql() overloads survive as thin wrappers over Run().
///
/// Thread-compatible: concurrent sessions / Recommend() calls on one SeeDB
/// (or on distinct SeeDB instances sharing one Engine) are safe — all
/// per-request state lives in the session, and the engine is concurrent.
class SeeDB {
 public:
  /// `engine` must outlive this object.
  explicit SeeDB(db::Engine* engine) : engine_(engine) {}

  /// Opens a streaming recommendation session for `request`: planning runs
  /// here; execution happens as the caller drives the session. The SeeDB's
  /// engine must outlive the session.
  Result<RecommendationSession> Open(const SeeDBRequest& request);

  /// Runs `request` to completion: Open() + Finish() in one call.
  Result<RecommendationSet> Run(const SeeDBRequest& request);

  /// Recommends views for analyst selection `selection` over `table`
  /// (null selection = whole table; every view then has utility ~0).
  /// Wrapper over Run().
  Result<RecommendationSet> Recommend(const std::string& table,
                                      db::PredicatePtr selection,
                                      const SeeDBOptions& options = {});

  /// Convenience: accepts the analyst query as SQL text,
  /// e.g. "SELECT * FROM sales WHERE product = 'Laserwave'".
  Result<RecommendationSet> RecommendSql(const std::string& input_query,
                                         const SeeDBOptions& options = {});

  db::Engine* engine() { return engine_; }

 private:
  db::Engine* engine_;
};

}  // namespace seedb::core

#endif  // SEEDB_CORE_SEEDB_H_
