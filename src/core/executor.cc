#include "core/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "base/mutex.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace seedb::core {

const char* ExecutionStrategyToString(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kPerQuery:
      return "per-query";
    case ExecutionStrategy::kPhasedSharedScan:
      return "phased-shared-scan";
  }
  return "?";
}

namespace {

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (double s : v) total += s;
  return total / static_cast<double>(v.size());
}

}  // namespace

double ExecutionReport::MeanQuerySeconds() const {
  return MeanOf(query_seconds);
}

double ExecutionReport::MaxQuerySeconds() const {
  if (query_seconds.empty()) return 0.0;
  return *std::max_element(query_seconds.begin(), query_seconds.end());
}

double ExecutionReport::MeanPhaseSeconds() const {
  return MeanOf(phase_seconds);
}

bool RanksBefore(const ViewEstimate& a, const ViewEstimate& b) {
  if (a.utility != b.utility) return a.utility > b.utility;
  return a.view.Id() < b.view.Id();
}

namespace {

db::SharedScanOptions MakeScanOptions(const ExecutorOptions& options) {
  db::SharedScanOptions scan;
  scan.morsel_rows = options.morsel_rows;
  scan.trace = options.trace;
  if (options.strategy == ExecutionStrategy::kPerQuery) {
    // The paper's baseline: every planned query is its own single-threaded
    // pass, never answered from the result cache. Cancellation is checked
    // between passes, so a begun pass runs to the end.
    scan.num_threads = 1;
    scan.use_result_cache = false;
    return scan;
  }
  scan.num_threads = options.parallelism;
  scan.cancel = options.cancel;
  // The MAB pruner halves by per-phase estimate ORDER, and cache adoption
  // makes adopted views' estimates final from phase 1 — a warm MAB run
  // would halve different views than the cold run that seeded it. Bypass
  // the cache so warm and cold MAB runs stay bit-identical; the safe CI
  // pruner (bound-based, never discards a potential top-k view) adopts
  // freely.
  scan.use_result_cache =
      options.online_pruning.pruner != OnlinePruner::kMultiArmedBandit;
  return scan;
}

bool CancelRequested(const ExecutorOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

}  // namespace

PhasedPlanExecution::PhasedPlanExecution(db::Engine* engine,
                                         const ExecutionPlan* plan,
                                         DistanceMetric metric,
                                         ExecutorOptions options)
    : engine_(engine),
      plan_(plan),
      metric_(metric),
      options_(std::move(options)),
      live_slots_(plan->queries.size(), 0),
      processor_(metric),
      pruner_(0, options_.online_pruning) {
  // Dense view index across the plan, plus the wiring from each view to the
  // planned queries carrying one of its halves. A query is retired from the
  // scan once every view riding on it has been pruned.
  for (size_t q = 0; q < plan_->queries.size(); ++q) {
    for (const ViewSlot& slot : plan_->queries[q].slots) {
      auto [it, inserted] = view_index_.emplace(slot.view, views_.size());
      if (inserted) {
        views_.push_back(slot.view);
        queries_of_view_.emplace_back();
      }
      queries_of_view_[it->second].push_back(q);
      ++live_slots_[q];
    }
  }
  pruner_ = OnlinePruningState(views_.size(), options_.online_pruning);
  total_phases_ = std::max<size_t>(1, options_.online_pruning.num_phases);
  phase_seconds_.reserve(total_phases_);
  // The plan's table passes: one per planned query, or one over them all.
  const size_t per_scan = per_query() ? 1 : plan_->queries.size();
  for (size_t q = 0; q < plan_->queries.size(); q += per_scan) {
    PlanScan& scan = scans_.emplace_back();
    scan.first_query = q;
    scan.num_queries = per_scan;
  }
}

Result<double> AutoUtilityRange(db::Engine* engine, const ExecutionPlan& plan,
                                DistanceMetric metric) {
  if (plan.queries.empty()) return MetricUtilityRange(metric, 1);
  SEEDB_ASSIGN_OR_RETURN(
      const db::TableStats* stats,
      engine->catalog()->GetStats(plan.queries[0].query.table));
  double range = 0.0;
  for (const PlannedQuery& pq : plan.queries) {
    for (const ViewSlot& slot : pq.slots) {
      size_t groups = 1;
      if (Result<const db::ColumnStats*> col =
              stats->Find(slot.view.dimension);
          col.ok()) {
        groups = (*col)->distinct_count + ((*col)->null_count > 0 ? 1 : 0);
      }
      range = std::max(range, MetricUtilityRange(metric, groups));
    }
  }
  return range > 0.0 ? range : MetricUtilityRange(metric, 1);
}

Result<PhasedPlanExecution> PhasedPlanExecution::Begin(
    db::Engine* engine, const ExecutionPlan& plan, DistanceMetric metric,
    const ExecutorOptions& options) {
  ExecutorOptions resolved = options;
  if (resolved.strategy == ExecutionStrategy::kPerQuery) {
    // Per-query passes are not phased: one phase, nothing to prune or to
    // stop early on.
    resolved.online_pruning.num_phases = 1;
    resolved.online_pruning.pruner = OnlinePruner::kNone;
    resolved.online_pruning.early_stop_stable_phases = 0;
  }
  // utility_range <= 0 asks for auto-calibration from the metric and the
  // plan's per-view group counts (the EMD case the manual knob cannot
  // cover); every CI computation downstream sees the resolved range.
  if (resolved.online_pruning.utility_range <= 0.0) {
    SEEDB_ASSIGN_OR_RETURN(resolved.online_pruning.utility_range,
                           AutoUtilityRange(engine, plan, metric));
  }
  PhasedPlanExecution run(engine, &plan, metric, resolved);
  if (plan.queries.empty()) return run;
  const std::string& table = plan.queries[0].query.table;
  SEEDB_ASSIGN_OR_RETURN(const db::Table* data,
                         engine->catalog()->GetTable(table));
  run.num_rows_ = data->num_rows();
  // Per-query passes begin when their turn comes, so the run never holds
  // more than `parallelism` of them; the fused pass begins now.
  if (run.per_query()) return run;
  SEEDB_RETURN_IF_ERROR(run.BeginScan(&run.scans_[0]));
  // Same bit-identity gate as MakeScanOptions: prior-tightened intervals
  // would also shift the MAB's estimate-order halving.
  if (db::PartialAggCache* cache = engine->result_cache();
      cache != nullptr && resolved.online_pruning.pruner !=
                              OnlinePruner::kMultiArmedBandit) {
    run.SeedUtilityPriors(cache, engine->catalog()->TableVersion(table));
  }
  return run;
}

void PhasedPlanExecution::SeedUtilityPriors(db::PartialAggCache* cache,
                                            uint64_t table_version) {
  prior_cache_ = cache;
  prior_key_prefix_ = StringPrintf(
      "%s#v%llu|%s|u:", plan_->queries[0].query.table.c_str(),
      static_cast<unsigned long long>(table_version),
      DistanceMetricToString(metric_));
  if (views_.empty()) return;
  std::vector<double> priors(views_.size(), 0.0);
  uint64_t min_weight = std::numeric_limits<uint64_t>::max();
  for (size_t v = 0; v < views_.size(); ++v) {
    double utility = 0.0;
    uint64_t weight = 0;
    if (!cache->LookupUtilityPrior(prior_key_prefix_ + views_[v].Id(),
                                   &utility, &weight)) {
      return;  // a cold view: warm-starting the rest would mis-prune it
    }
    priors[v] = utility;
    min_weight = std::min(min_weight, weight);
  }
  options_.online_pruning.prior_estimates = std::move(priors);
  options_.online_pruning.prior_weight = static_cast<size_t>(min_weight);
  pruner_ = OnlinePruningState(views_.size(), options_.online_pruning);
}

bool PhasedPlanExecution::done() const {
  return finished_ || cancelled_ || early_stopped_ || budget_exceeded_ ||
         phases_run() >= total_phases_;
}

size_t PhasedPlanExecution::rows_consumed() const {
  if (scans_.empty()) return 0;
  size_t rows = 0;
  for (const PlanScan& scan : scans_) {
    rows += scan.session.has_value() ? scan.session->rows_consumed()
                                     : scan.rows_consumed;
  }
  return rows / scans_.size();
}

size_t PhasedPlanExecution::agg_state_bytes() const {
  size_t bytes = consumed_stats_.agg_state_bytes;
  for (const PlanScan& scan : scans_) {
    if (scan.session.has_value()) {
      bytes += scan.session->stats().agg_state_bytes;
    }
  }
  return bytes;
}

bool PhasedPlanExecution::ViewActive(const ViewDescriptor& view) const {
  auto it = view_index_.find(view);
  return it != view_index_.end() && pruner_.IsActive(it->second);
}

Status PhasedPlanExecution::BeginScan(PlanScan* scan) {
  std::vector<db::GroupingSetsQuery> queries;
  queries.reserve(scan->num_queries);
  for (size_t i = 0; i < scan->num_queries; ++i) {
    queries.push_back(plan_->queries[scan->first_query + i].query);
  }
  SEEDB_ASSIGN_OR_RETURN(
      db::SharedScanSession session,
      engine_->BeginShared(std::move(queries), MakeScanOptions(options_)));
  scan->session.emplace(std::move(session));
  return Status::OK();
}

Status PhasedPlanExecution::ScanOnce(
    PlanScan* scan, size_t phase,
    std::optional<std::vector<std::vector<db::Table>>>* results) {
  Stopwatch timer;
  if (!scan->session.has_value()) SEEDB_RETURN_IF_ERROR(BeginScan(scan));
  db::SharedScanSession& session = *scan->session;
  if (session.cancelled()) {
    SEEDB_RETURN_IF_ERROR(session.ResumeAfterCancel());
  } else {
    SEEDB_RETURN_IF_ERROR(
        session.RunPhase(num_rows_ * phase / total_phases_,
                         num_rows_ * (phase + 1) / total_phases_));
  }
  if (!session.cancelled() && phase + 1 == total_phases_) {
    SEEDB_ASSIGN_OR_RETURN(*results, session.Finalize());
  }
  scan->seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status PhasedPlanExecution::Consume(
    PlanScan* scan, std::vector<std::vector<db::Table>> results) {
  const db::SharedScanSession& session = *scan->session;
  for (size_t i = 0; i < scan->num_queries; ++i) {
    if (!session.query_active(i)) continue;
    SEEDB_RETURN_IF_ERROR(processor_.Consume(
        plan_->queries[scan->first_query + i], std::move(results[i]),
        [this](const ViewDescriptor& v) { return ViewActive(v); }));
  }
  // Exact per-run engine work, mirroring what Finalize() just folded into
  // the engine counters (one scan per batch, every query counted).
  const db::SharedScanStats stats = session.stats();
  consumed_stats_.rows_scanned += stats.rows_scanned;
  consumed_stats_.vectorized_morsels += stats.vectorized_morsels;
  consumed_stats_.simd_morsels += stats.simd_morsels;
  consumed_stats_.agg_state_bytes += stats.agg_state_bytes;
  consumed_stats_.cache_hits += stats.cache_hits;
  consumed_stats_.cache_misses += stats.cache_misses;
  queries_executed_ += scan->num_queries;
  ++table_scans_;
  scan->rows_consumed = session.rows_consumed();
  if (!per_query()) {
    // Tearing the fused pass down joins its worker threads, whose wake-up
    // waits on the scheduler: keep it until the run is destroyed, off the
    // phase that scores the views.
    spent_fused_scan_ = std::move(scan->session);
  }
  scan->session.reset();
  scan->consumed = true;
  return Status::OK();
}

Status PhasedPlanExecution::RunScans(size_t phase) {
  std::vector<PlanScan*> pending;
  for (PlanScan& scan : scans_) {
    if (!scan.consumed) pending.push_back(&scan);
  }
  base::Mutex mu;
  Status first_error = Status::OK();
  const auto run = [&](PlanScan* scan) {
    {
      base::MutexLock lock(&mu);
      if (!first_error.ok() || cancelled_ || budget_exceeded_) return;
      // No new pass starts once cancellation is requested or the finished
      // passes' footprint broke the budget. A begun pass observes the
      // cancel token itself.
      if (!scan->session.has_value()) {
        if (CancelRequested(options_)) {
          cancelled_ = true;
          return;
        }
        if (OverBudget(consumed_stats_.agg_state_bytes)) {
          budget_exceeded_ = true;
          return;
        }
      }
    }
    std::optional<std::vector<std::vector<db::Table>>> results;
    Status s = ScanOnce(scan, phase, &results);
    base::MutexLock lock(&mu);
    if (s.ok() && scan->session->cancelled()) cancelled_ = true;
    if (s.ok() && results.has_value()) s = Consume(scan, std::move(*results));
    if (!s.ok() && first_error.ok()) first_error = s;
  };
  if (pending.size() > 1 && options_.parallelism > 1) {
    // Per-query passes run `parallelism` at a time; consumption (cheap) is
    // serialized under the mutex.
    ThreadPool pool(std::min(options_.parallelism, pending.size()));
    pool.ParallelFor(0, pending.size(), [&](size_t i) { run(pending[i]); });
  } else {
    for (PlanScan* scan : pending) run(scan);
  }
  return first_error;
}

Status PhasedPlanExecution::Score(size_t phases) {
  // A run that stopped before consuming every row (cancelled, stopped
  // early, or over budget) can hold views with no data at all, or with one
  // half only (the other half's query never ran); drop those instead of
  // failing. Fully scanned runs keep the strict check.
  const bool partial = cancelled_ || rows_consumed() < num_rows_;
  SEEDB_ASSIGN_OR_RETURN(results_,
                         processor_.Finish(/*allow_partial=*/partial));
  processor_ = ViewProcessor(metric_);  // the results own their data now
  // Publish warm-start priors: only a full, un-cancelled scan's utilities
  // are exact, and their evidence weight is the phases that produced them.
  if (prior_cache_ != nullptr && !partial) {
    for (const ViewResult& vr : *results_) {
      prior_cache_->PutUtilityPrior(prior_key_prefix_ + vr.view.Id(),
                                    vr.utility, phases);
    }
  }
  return Status::OK();
}

Status PhasedPlanExecution::Resume() {
  if (finished_) {
    return Status::Internal("phased execution already finished");
  }
  if (!cancelled_) {
    return Status::InvalidArgument("phased execution is not cancelled");
  }
  // Completes the cut-short phase; the token may fire again mid-resume,
  // which leaves the run cancelled.
  cancelled_ = false;
  return RunScans(phases_run() - 1);
}

// Scores every surviving view on its running (un-finalized) aggregates.
// Early slices can leave a view with two empty halves (nothing matched
// yet), which has no defined utility — callers skip that boundary rather
// than act on undefined estimates; the next boundary sees more rows.
Result<std::vector<ViewEstimate>> PhasedPlanExecution::EstimateSurvivors()
    const {
  ViewProcessor estimator(metric_);
  for (const PlanScan& scan : scans_) {
    if (!scan.session.has_value()) continue;
    for (size_t i = 0; i < scan.num_queries; ++i) {
      if (!scan.session->query_active(i)) continue;
      SEEDB_ASSIGN_OR_RETURN(std::vector<db::Table> partial,
                             scan.session->PartialResults(i));
      SEEDB_RETURN_IF_ERROR(estimator.Consume(
          plan_->queries[scan.first_query + i], std::move(partial),
          [this](const ViewDescriptor& v) { return ViewActive(v); }));
    }
  }
  SEEDB_ASSIGN_OR_RETURN(std::vector<ViewResult> scored, estimator.Finish());
  std::vector<ViewEstimate> estimates;
  estimates.reserve(scored.size());
  for (const ViewResult& vr : scored) {
    estimates.push_back({vr.view, vr.utility});
  }
  return estimates;
}

// The top-k is "CI-stable" when the same ordered top-k appeared at
// `early_stop_stable_phases` consecutive boundaries and every adjacent pair
// in the ranking — including the boundary pair against the best excluded
// view — is separated by more than 2*eps, i.e. the intervals cannot overlap
// into a swap. Conservative by construction: infinite eps (delta <= 0)
// never stops, reproducing the exhaustive scan.
bool PhasedPlanExecution::EvaluateEarlyStop(
    const std::vector<ViewEstimate>& estimates, double eps) {
  const size_t stable = options_.online_pruning.early_stop_stable_phases;
  if (stable == 0 || estimates.empty()) return false;
  const size_t k = std::max<size_t>(1, options_.online_pruning.keep_k);

  std::vector<const ViewEstimate*> order;
  order.reserve(estimates.size());
  for (const ViewEstimate& e : estimates) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const ViewEstimate* a, const ViewEstimate* b) {
              return RanksBefore(*a, *b);
            });

  std::vector<std::string> top_ids;
  const size_t top_n = std::min(k, order.size());
  top_ids.reserve(top_n);
  for (size_t i = 0; i < top_n; ++i) top_ids.push_back(order[i]->view.Id());
  stable_streak_ = top_ids == last_top_ids_ ? stable_streak_ + 1 : 1;
  last_top_ids_ = std::move(top_ids);
  if (stable_streak_ < stable || !std::isfinite(eps)) return false;

  // Adjacent separation over the top-k plus the best excluded view.
  const size_t pairs = std::min(order.size() - 1, k);
  for (size_t i = 0; i < pairs; ++i) {
    if (order[i]->utility - eps <= order[i + 1]->utility + eps) return false;
  }
  return true;
}

// A boundary between phases: prune (when a pruner is engaged), collect
// estimates (when requested or needed), and evaluate the early-stop policy.
Status PhasedPlanExecution::BoundaryBookkeeping(size_t phase,
                                                bool collect_estimates,
                                                PhaseSnapshot* snap) {
  const OnlinePruningOptions& popts = options_.online_pruning;
  const bool boundary = phase + 1 < total_phases_;
  const bool want_prune =
      boundary && popts.pruner != OnlinePruner::kNone && popts.keep_k > 0 &&
      pruner_.num_active() > popts.keep_k && rows_consumed() > 0;
  const bool want_early_stop =
      boundary && popts.early_stop_stable_phases > 0;
  ++boundaries_observed_;
  snap->ci_half_width =
      OnlinePruningState::ConfidenceHalfWidth(popts, boundaries_observed_);

  if ((want_prune || want_early_stop || collect_estimates) &&
      rows_consumed() > 0) {
    Result<std::vector<ViewEstimate>> estimates = EstimateSurvivors();
    if (estimates.ok()) {
      if (want_prune) {
        std::vector<double> utilities(views_.size(), 0.0);
        for (const ViewEstimate& e : *estimates) {
          utilities[view_index_.at(e.view)] = e.utility;
        }
        for (size_t v : pruner_.Observe(utilities)) {
          online_pruned_.push_back({views_[v], utilities[v], snap->phase,
                                    rows_consumed()});
          for (size_t q : queries_of_view_[v]) {
            if (--live_slots_[q] > 0) continue;
            // Every scan answers the same number of consecutive queries.
            const size_t per_scan = scans_[0].num_queries;
            std::optional<db::SharedScanSession>& session =
                scans_[q / per_scan].session;
            const size_t i = q % per_scan;
            if (session.has_value() && session->query_active(i)) {
              SEEDB_RETURN_IF_ERROR(session->DeactivateQuery(i));
              ++queries_deactivated_;
            }
          }
        }
        // Drop the newly pruned views from the boundary estimates so the
        // snapshot (and the early-stop policy) see survivors only.
        std::erase_if(*estimates, [this](const ViewEstimate& e) {
          return !pruner_.IsActive(view_index_.at(e.view));
        });
      }
      if (want_early_stop &&
          EvaluateEarlyStop(*estimates, snap->ci_half_width)) {
        early_stopped_ = true;
        snap->early_stopped = true;
      }
      if (collect_estimates) {
        snap->has_estimates = true;
        snap->estimates = std::move(*estimates);
      }
    }
  }

  return Status::OK();
}

Result<PhaseSnapshot> PhasedPlanExecution::Step(bool collect_estimates) {
  if (done()) {
    return Status::Internal("phased execution already done");
  }
  Stopwatch phase_timer;
  const size_t p = phases_run();
  SEEDB_RETURN_IF_ERROR(RunScans(p));
  // The run's one memory meter (per-query runs also check it before each
  // pass starts, inside RunScans): a breach ends the run after this phase.
  if (OverBudget(agg_state_bytes())) budget_exceeded_ = true;

  PhaseSnapshot snap;
  snap.phase = p + 1;
  snap.total_phases = total_phases_;
  snap.views_active = pruner_.num_active();
  snap.views_pruned = pruner_.views_pruned();

  if (cancelled_) {
    snap.cancelled = true;
    snap.rows_consumed = rows_consumed();
    // The cut-short phase observed no boundary: report the width the
    // PREVIOUS boundaries earned (infinite before the first one) — never
    // the zero-default, which would read as perfect confidence on the
    // least-trustworthy estimates of the run.
    snap.ci_half_width = OnlinePruningState::ConfidenceHalfWidth(
        options_.online_pruning, boundaries_observed_);
    phase_seconds_.push_back(phase_timer.ElapsedSeconds());
    snap.phase_seconds = phase_seconds_.back();
    return snap;
  }

  if (std::all_of(scans_.begin(), scans_.end(),
                  [](const PlanScan& scan) { return scan.consumed; })) {
    // This phase consumed the last row: score the views once, here. The
    // utilities are exact, so their interval has zero width, and Finish()
    // returns these very results.
    SEEDB_RETURN_IF_ERROR(Score(p + 1));
    if (collect_estimates) {
      snap.has_estimates = true;
      snap.estimates.reserve(results_->size());
      for (const ViewResult& vr : *results_) {
        snap.estimates.push_back({vr.view, vr.utility});
      }
    }
  } else {
    BoundaryBookkeeping(p, collect_estimates, &snap);
  }

  snap.views_active = pruner_.num_active();
  snap.views_pruned = pruner_.views_pruned();
  snap.rows_consumed = rows_consumed();
  phase_seconds_.push_back(phase_timer.ElapsedSeconds());
  snap.phase_seconds = phase_seconds_.back();
  return snap;
}

Result<std::vector<ViewResult>> PhasedPlanExecution::Finish(
    ExecutionReport* report) {
  if (finished_) {
    return Status::Internal("phased execution already finished");
  }
  finished_ = true;
  Stopwatch finalize_timer;
  if (!results_.has_value()) {
    // The run stopped before consuming its last row (cancelled, stopped
    // early or over budget): finalize the live scans on the rows seen.
    for (PlanScan& scan : scans_) {
      if (!scan.session.has_value()) continue;
      SEEDB_ASSIGN_OR_RETURN(std::vector<std::vector<db::Table>> results,
                             scan.session->Finalize());
      SEEDB_RETURN_IF_ERROR(Consume(&scan, std::move(results)));
    }
    SEEDB_RETURN_IF_ERROR(Score(phases_run()));
  }
  if (report) {
    ExecutionReport r;
    r.total_seconds = finalize_timer.ElapsedSeconds();
    for (double s : phase_seconds_) r.total_seconds += s;
    if (per_query()) {
      for (const PlanScan& scan : scans_) {
        r.query_seconds.push_back(scan.seconds);
      }
    }
    r.phase_seconds = phase_seconds_;
    r.phases_executed = phases_run();
    r.views_pruned_online = pruner_.views_pruned();
    r.online_pruned = online_pruned_;
    r.queries_deactivated = queries_deactivated_;
    r.early_stopped = early_stopped_;
    r.cancelled = cancelled_;
    r.queries_executed = queries_executed_;
    r.table_scans = table_scans_;
    r.rows_scanned = consumed_stats_.rows_scanned;
    r.vectorized_morsels = consumed_stats_.vectorized_morsels;
    r.simd_morsels = consumed_stats_.simd_morsels;
    r.cache_hits = consumed_stats_.cache_hits;
    r.cache_misses = consumed_stats_.cache_misses;
    r.agg_state_bytes = consumed_stats_.agg_state_bytes;
    r.budget_exceeded = budget_exceeded_;
    *report = std::move(r);
  }
  return std::move(*results_);
}

Result<std::vector<ViewResult>> ExecutePlan(db::Engine* engine,
                                            const ExecutionPlan& plan,
                                            DistanceMetric metric,
                                            const ExecutorOptions& options,
                                            ExecutionReport* report) {
  Stopwatch total_timer;
  SEEDB_ASSIGN_OR_RETURN(
      PhasedPlanExecution run,
      PhasedPlanExecution::Begin(engine, plan, metric, options));
  while (!run.done()) {
    SEEDB_RETURN_IF_ERROR(run.Step(/*collect_estimates=*/false).status());
  }
  SEEDB_ASSIGN_OR_RETURN(std::vector<ViewResult> views, run.Finish(report));
  if (report) report->total_seconds = total_timer.ElapsedSeconds();
  return views;
}

}  // namespace seedb::core
