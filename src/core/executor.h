// Plan executor: runs an ExecutionPlan against the engine, optionally with
// parallel query execution (§3.3, "Parallel Query Execution").
//
// "We observe that as the number of queries executed in parallel increases,
// the total latency decreases at the cost of increased per query execution
// time." The executor reproduces that knob: planned queries are distributed
// over a thread pool; per-query latencies are recorded so benches can report
// both sides of the trade-off.
//
// Two strategies are offered, both driven by one PhasedPlanExecution over
// the engine's one executor, the shared scan (db/shared_scan.h). They differ
// only in how the plan's queries are batched into table passes and how many
// phases cut the pass. kPerQuery is the paper's inter-query parallelism:
// each planned query is its own one-query, single-threaded pass, and
// `parallelism` passes run at once in a single phase. kPhasedSharedScan is
// the logical endpoint of §3.3's sharing argument: the whole plan is one
// morsel-driven pass with intra-scan parallelism, cut into N sequential
// table slices (N = 1 is the one-shot fused scan). At each phase boundary
// it re-estimates every surviving view's utility from its running
// (un-finalized) aggregates and lets an online pruner
// (core/online_pruning.h) retire views that provably — or probably,
// depending on the strategy — cannot make the top k, so the remaining
// phases scan for fewer queries.

#ifndef SEEDB_CORE_EXECUTOR_H_
#define SEEDB_CORE_EXECUTOR_H_

#include <atomic>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/metrics.h"
#include "core/online_pruning.h"
#include "core/optimizer.h"
#include "core/view_processor.h"
#include "db/engine.h"
#include "util/result.h"

namespace seedb::core {

/// How the executor maps an ExecutionPlan onto engine work.
enum class ExecutionStrategy {
  /// One single-threaded table pass per planned query, bypassing the result
  /// cache; `parallelism` passes in flight, all in one phase.
  kPerQuery,
  /// The whole plan fused into one morsel-driven table pass with
  /// `parallelism` worker threads, split into `online_pruning.num_phases`
  /// sequential row slices with confidence-interval / MAB view pruning at
  /// each boundary (1 phase = one uninterrupted pass).
  kPhasedSharedScan,
};

const char* ExecutionStrategyToString(ExecutionStrategy strategy);

struct ExecutorOptions {
  /// kPerQuery: queries executed concurrently (1 = serial).
  /// kPhasedSharedScan: morsel worker threads (0 = hardware concurrency).
  size_t parallelism = 1;
  ExecutionStrategy strategy = ExecutionStrategy::kPerQuery;
  /// Rows per morsel (0 = adaptive, re-derived at every phase start from the
  /// phase's rows and the surviving query count — db::AdaptiveMorselRows).
  size_t morsel_rows = db::SharedScanOptions{}.morsel_rows;
  /// Phase count, mid-flight pruner and early-stop policy for
  /// kPhasedSharedScan (kPerQuery always runs one phase without a pruner).
  /// keep_k must be set for pruning to engage; the SeeDB facade wires it to
  /// the top-k request.
  OnlinePruningOptions online_pruning;
  /// Cooperative cancellation token. Under kPhasedSharedScan it is observed
  /// at morsel boundaries inside the scan; under kPerQuery between queries.
  /// On cancellation the executor returns the views completed so far
  /// (kPhasedSharedScan: every survivor, estimated over the rows seen) and
  /// sets ExecutionReport::cancelled. nullptr = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Record obs trace spans for this run's scan phases and worker merge
  /// steps even when the recorder is not tracing all sessions.
  bool trace = false;
  /// Cap on the plan's aggregation-state footprint in bytes; 0 = unlimited.
  /// Metered inside PhasedPlanExecution::Step: after every phase, and under
  /// kPerQuery also before each query starts, over the cumulative merged agg
  /// state of the run's passes (finished per-query passes' results are all
  /// retained). A breach stops the run gracefully with
  /// ExecutionReport::budget_exceeded set and partial results over the work
  /// already done.
  size_t memory_budget_bytes = 0;
};

/// Latency breakdown of one plan execution. Per-query wall times only exist
/// when queries actually run as their own passes (kPerQuery); every run has
/// per-phase wall times. Nothing is ever attributed evenly across queries
/// that shared a pass.
struct ExecutionReport {
  /// Wall time to run the whole plan.
  double total_seconds = 0.0;
  /// Per planned-query wall time of its own pass, in plan order (0 for
  /// queries that never ran). Populated under kPerQuery only.
  std::vector<double> query_seconds;
  /// Per-phase wall time, including each boundary's estimate/prune
  /// bookkeeping and, in the last phase, scoring the views. One entry per
  /// phase run (kPerQuery runs one).
  std::vector<double> phase_seconds;
  /// Phases the run executed (1 under kPerQuery). Smaller than the
  /// requested phase count when the run early-stopped, was cancelled or
  /// exceeded its memory budget.
  size_t phases_executed = 0;
  /// Views retired mid-flight by the online pruner (= online_pruned.size()).
  size_t views_pruned_online = 0;
  /// The retired views themselves, each with the partial utility estimate it
  /// carried at retirement — surfaced to RecommendationSet for the
  /// frontend's "views not examined" display.
  std::vector<OnlinePrunedView> online_pruned;
  /// Planned queries the scan stopped computing because every view riding
  /// on them had been pruned.
  size_t queries_deactivated = 0;
  /// The run stopped scanning before the last requested phase because the
  /// top-k was CI-stable (OnlinePruningOptions::early_stop_stable_phases);
  /// utilities are estimates over the rows seen.
  bool early_stopped = false;
  /// The run was cut short by ExecutorOptions::cancel; results are partial.
  bool cancelled = false;
  /// Engine work attributable to THIS run, summed from its own batches'
  /// statistics, so concurrent runs on one engine do not bleed into each
  /// other's profiles. kPhasedSharedScan runs one batch (table_scans = 1);
  /// kPerQuery runs one batch per query executed (table_scans =
  /// queries_executed, rows_scanned summed over those passes).
  size_t queries_executed = 0;
  size_t table_scans = 0;
  uint64_t rows_scanned = 0;
  /// Morsels of the run's passes whose inner loop ran the vectorized
  /// kernels (db/vec/) for at least one grouping set; 0 when every set fell
  /// back to the hash path.
  uint64_t vectorized_morsels = 0;
  /// Of those, morsels that additionally ran the explicit-SIMD kernel tier
  /// (db/vec/simd/); 0 when the tier is off or unavailable.
  uint64_t simd_morsels = 0;
  /// (query, grouping set) pairs this run adopted from / missed in the
  /// engine's cross-session result cache (db/scan_cache.h). Both 0 under
  /// kPerQuery or when the engine cache is disabled.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Aggregation-state footprint of the run in bytes, summed over its
  /// passes — what memory_budget_bytes is metered against.
  size_t agg_state_bytes = 0;
  /// The run stopped before completing every planned unit of work because
  /// the aggregation-state footprint crossed
  /// ExecutorOptions::memory_budget_bytes; results cover the work finished
  /// before the breach.
  bool budget_exceeded = false;

  double MeanQuerySeconds() const;
  double MaxQuerySeconds() const;
  double MeanPhaseSeconds() const;
};

/// A running utility estimate for one surviving view mid-scan.
struct ViewEstimate {
  ViewDescriptor view;
  /// Utility computed over the rows the scan has consumed so far.
  double utility = 0.0;
};

/// The provisional-ranking order: utility descending, ties on view id so
/// rankings are deterministic. The early-stop policy and the streaming
/// session's top-k display both rank with this — they must agree on what
/// "the current top-k" is.
bool RanksBefore(const ViewEstimate& a, const ViewEstimate& b);

/// Observable state of one phase of a PhasedPlanExecution, produced by
/// Step() right after the phase's boundary bookkeeping ran.
struct PhaseSnapshot {
  /// 1-based index of the phase just completed.
  size_t phase = 0;
  size_t total_phases = 0;
  /// Wall time of the phase including boundary estimate/prune bookkeeping.
  double phase_seconds = 0.0;
  /// Rows of the table consumed so far (estimated under cancellation).
  size_t rows_consumed = 0;
  size_t views_active = 0;
  /// Views retired by the online pruner so far (cumulative).
  size_t views_pruned = 0;
  /// Hoeffding half-width eps(m) after this many boundaries under the run's
  /// delta / utility_range; infinite when delta <= 0. 0 after the phase
  /// that consumed the last row, whose utilities are exact.
  double ci_half_width = 0.0;
  /// Surviving views' running utilities, when estimate collection was
  /// requested (or needed by the pruner / early-stop policy) and the
  /// boundary estimates were computable. After the phase that consumed the
  /// last row these are the final utilities Finish() returns.
  bool has_estimates = false;
  std::vector<ViewEstimate> estimates;
  /// This boundary triggered early stop (the run is now done).
  bool early_stopped = false;
  /// The cancel token cut this phase short (the run is now done).
  bool cancelled = false;
};

/// \brief A plan execution advanced one phase at a time — the one driver
/// behind both ExecutePlan() and the streaming RecommendationSession
/// (core/session.h), whatever the strategy.
///
/// The run owns the plan's table passes as db::SharedScanSessions: one fused
/// scan over the whole plan under kPhasedSharedScan, begun by Begin(); one
/// single-threaded scan per planned query under kPerQuery, each begun when
/// its turn comes. A scan that has consumed the last row is finalized and
/// its results handed to the run's ViewProcessor; a per-query scan's state
/// is released then, the fused scan's (and its worker threads) with the
/// run. The phase that consumes the last row scores the views, once: its
/// snapshot's estimates are the final utilities, and Finish() returns them
/// without re-materializing anything.
///
/// Usage:
///   SEEDB_ASSIGN_OR_RETURN(auto run, PhasedPlanExecution::Begin(...));
///   while (!run.done()) { auto snap = run.Step(true); ... }
///   auto results = run.Finish(&report);
///
/// Not thread-safe, with one exception: the ExecutorOptions::cancel token
/// may be flipped from another thread while Step() runs; the in-flight
/// phase then returns within one morsel granule (kPhasedSharedScan) or once
/// the queries in flight complete (kPerQuery).
class PhasedPlanExecution {
 public:
  static Result<PhasedPlanExecution> Begin(db::Engine* engine,
                                           const ExecutionPlan& plan,
                                           DistanceMetric metric,
                                           const ExecutorOptions& options);

  size_t total_phases() const { return total_phases_; }
  size_t phases_run() const { return phase_seconds_.size(); }
  /// True when every phase ran, early stop fired, the run was cancelled or
  /// its memory budget was exceeded; Step() must not be called once done.
  bool done() const;
  bool early_stopped() const { return early_stopped_; }
  bool cancelled() const { return cancelled_; }
  /// A phase pushed the aggregation-state footprint past
  /// ExecutorOptions::memory_budget_bytes; the run stopped there.
  bool budget_exceeded() const { return budget_exceeded_; }
  /// Rows of the table consumed so far, averaged over the run's passes
  /// (under kPerQuery: the table's rows times the fraction of queries run).
  size_t rows_consumed() const;
  size_t num_rows() const { return num_rows_; }

  /// Runs the next phase and its boundary bookkeeping: prune (when a pruner
  /// is engaged and phases remain), collect estimates (when requested or
  /// needed), evaluate the early-stop policy, and meter the memory budget.
  /// `collect_estimates` asks for the surviving views' running utilities in
  /// the snapshot even when no pruner needs them — the streaming session's
  /// provisional top-k.
  Result<PhaseSnapshot> Step(bool collect_estimates);

  /// Stops the run here: remaining phases are skipped and Finish()
  /// materializes results from the rows seen so far.
  void StopEarly() { early_stopped_ = true; }

  /// Re-opens a cancelled run instead of discarding it: the cut-short
  /// phase's missed work is done now (exactly — every row of that phase
  /// ends up covered once, and every query not yet run under kPerQuery
  /// runs), after which Step() continues from the next phase. The caller
  /// must reset the cancel token before calling; a token still reading true
  /// cancels the resume again (cancelled() stays true, and another Resume()
  /// may follow). Errors when the run was not cancelled or already finished.
  Status Resume();

  /// Merged aggregation-state footprint of the run's passes so far, in
  /// bytes — what the memory budget meters.
  size_t agg_state_bytes() const;

  /// Terminal: returns every surviving view scored with the run's metric.
  /// After a complete run these are the results the last phase scored;
  /// after early stop, cancellation or a budget breach the live scans are
  /// finalized here and the utilities are estimates over the rows consumed.
  /// `report` (optional) receives the full latency/pruning breakdown.
  Result<std::vector<ViewResult>> Finish(ExecutionReport* report = nullptr);

  /// Views retired so far, with their partial utility estimates.
  const std::vector<OnlinePrunedView>& online_pruned() const {
    return online_pruned_;
  }

 private:
  /// One pass over the table answering plan queries
  /// [first_query, first_query + num_queries).
  struct PlanScan {
    size_t first_query = 0;
    size_t num_queries = 0;
    /// Live from its begin until its results are consumed.
    std::optional<db::SharedScanSession> session;
    bool consumed = false;
    /// Rows the pass covered, kept once its session is released.
    size_t rows_consumed = 0;
    /// Wall time of begin, scan and finalize.
    double seconds = 0.0;
  };

  PhasedPlanExecution(db::Engine* engine, const ExecutionPlan* plan,
                      DistanceMetric metric, ExecutorOptions options);

  /// Result-cache warm start: looks up each plan view's utility prior under
  /// `table_version` and, when EVERY view has one (a partial prior set would
  /// give cold views tight intervals around 0 and mis-prune them), rebuilds
  /// the pruner with those estimates and the smallest prior weight found.
  /// Always remembers the cache so the final scoring can publish this run's
  /// utilities back. Called by Begin() when the engine cache is enabled.
  void SeedUtilityPriors(db::PartialAggCache* cache, uint64_t table_version);

  bool per_query() const {
    return options_.strategy == ExecutionStrategy::kPerQuery;
  }
  bool OverBudget(size_t bytes) const {
    return options_.memory_budget_bytes > 0 &&
           bytes > options_.memory_budget_bytes;
  }
  bool ViewActive(const ViewDescriptor& view) const;

  /// Begins `scan`'s engine pass over its planned queries.
  Status BeginScan(PlanScan* scan);
  /// Runs phase `phase` (0-based) on every scan that has not covered it yet
  /// — resuming a cut-short phase where it stopped — and, in the last
  /// phase, consumes each scan that covered the table. Under kPerQuery the
  /// queries run `parallelism` at a time, and cancellation and the memory
  /// budget are checked before each one starts.
  Status RunScans(size_t phase);
  /// Scans `scan`'s rows of `phase`, beginning it first if needed; when the
  /// pass covered the table uncancelled, finalizes it into `*results`.
  Status ScanOnce(PlanScan* scan, size_t phase,
                  std::optional<std::vector<std::vector<db::Table>>>* results);
  /// Hands a finalized scan's surviving results to the processor and adds
  /// its work to the run's totals. A per-query scan's state is released
  /// here; the fused scan moves to spent_fused_scan_.
  Status Consume(PlanScan* scan, std::vector<std::vector<db::Table>> results);
  /// Scores every consumed view into results_; publishes utility priors,
  /// weighted by `phases`, when the run consumed every row uncancelled.
  Status Score(size_t phases);
  /// The bookkeeping after a phase that did not consume the last row.
  Status BoundaryBookkeeping(size_t phase, bool collect_estimates,
                             PhaseSnapshot* snap);

  Result<std::vector<ViewEstimate>> EstimateSurvivors() const;
  bool EvaluateEarlyStop(const std::vector<ViewEstimate>& estimates,
                         double eps);

  db::Engine* engine_;
  const ExecutionPlan* plan_;
  DistanceMetric metric_;
  ExecutorOptions options_;
  std::vector<PlanScan> scans_;
  /// The consumed fused pass, released with the run (see Consume()).
  std::optional<db::SharedScanSession> spent_fused_scan_;
  size_t num_rows_ = 0;

  /// Dense view index across the plan plus the wiring from each view to the
  /// planned queries carrying one of its halves.
  std::vector<ViewDescriptor> views_;
  std::unordered_map<ViewDescriptor, size_t, ViewDescriptorHash> view_index_;
  std::vector<std::vector<size_t>> queries_of_view_;
  std::vector<size_t> live_slots_;

  /// Consumed scans' results, scored once into results_.
  ViewProcessor processor_;
  std::optional<std::vector<ViewResult>> results_;
  /// Work of the consumed scans, summed.
  db::SharedScanStats consumed_stats_;
  size_t queries_executed_ = 0;
  size_t table_scans_ = 0;

  OnlinePruningState pruner_;
  size_t total_phases_ = 1;
  std::vector<double> phase_seconds_;
  std::vector<OnlinePrunedView> online_pruned_;
  size_t queries_deactivated_ = 0;
  bool early_stopped_ = false;
  bool cancelled_ = false;
  bool budget_exceeded_ = false;
  bool finished_ = false;

  /// Boundaries this run has observed — drives the displayed Hoeffding
  /// half-width (the pruner keeps its own count, which only advances when
  /// pruning is engaged).
  size_t boundaries_observed_ = 0;
  /// Early-stop bookkeeping: the previous boundary's ordered top-k and how
  /// many consecutive boundaries produced it.
  std::vector<std::string> last_top_ids_;
  size_t stable_streak_ = 0;

  /// Utility-prior side channel of the engine's result cache; null while the
  /// cache is disabled or under kPerQuery. Full un-cancelled runs publish
  /// their final utilities here under prior_key_prefix_ + view id.
  db::PartialAggCache* prior_cache_ = nullptr;
  std::string prior_key_prefix_;
};

/// Resolves OnlinePruningOptions::utility_range <= 0 ("auto-calibrate"):
/// the largest MetricUtilityRange(metric, group_count) across `plan`'s
/// views, with each view's group count taken from catalog statistics of the
/// plan's table (dimension distinct count, +1 when the column holds nulls).
/// Exposed for tests and benches; PhasedPlanExecution::Begin applies it.
Result<double> AutoUtilityRange(db::Engine* engine, const ExecutionPlan& plan,
                                DistanceMetric metric);

/// Executes `plan` against `engine` and scores every view with `metric`: a
/// PhasedPlanExecution run to the end. On success `report` (optional)
/// carries the latency breakdown. Under kPhasedSharedScan with a pruner
/// configured, views retired mid-flight are absent from the result (that is
/// the point — their queries stop running); every other configuration
/// returns one ViewResult per plan view, except that a cancelled or
/// budget-stopped run returns only the views completed so far.
Result<std::vector<ViewResult>> ExecutePlan(db::Engine* engine,
                                            const ExecutionPlan& plan,
                                            DistanceMetric metric,
                                            const ExecutorOptions& options,
                                            ExecutionReport* report = nullptr);

}  // namespace seedb::core

#endif  // SEEDB_CORE_EXECUTOR_H_
