#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/query_generator.h"
#include "core/topk.h"
#include "db/sampler.h"
#include "db/sql/parser.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace seedb::core {
namespace {

Recommendation MakeRecommendation(size_t rank, ViewResult result,
                                  const std::string& table,
                                  const db::PredicatePtr& selection) {
  Recommendation rec;
  rec.rank = rank;
  rec.target_sql = TargetViewQuery(result.view, table, selection).ToSql();
  rec.comparison_sql = ComparisonViewQuery(result.view, table).ToSql();
  rec.combined_sql = CombinedViewQuery(result.view, table, selection).ToSql();
  rec.result = std::move(result);
  return rec;
}

/// The provisional top-k out of one boundary's estimates, in the shared
/// RanksBefore() order, bounds at +/- eps.
std::vector<ProvisionalView> ProvisionalTopK(
    std::vector<ViewEstimate> estimates, size_t k, double eps) {
  std::sort(estimates.begin(), estimates.end(), RanksBefore);
  if (k > 0 && estimates.size() > k) estimates.resize(k);
  std::vector<ProvisionalView> top;
  top.reserve(estimates.size());
  for (ViewEstimate& e : estimates) {
    ProvisionalView pv;
    pv.view = std::move(e.view);
    pv.utility = e.utility;
    pv.lower = e.utility - eps;
    pv.upper = e.utility + eps;
    top.push_back(std::move(pv));
  }
  return top;
}

}  // namespace

Result<SeeDBRequest> SeeDBRequest::FromSql(const std::string& input_query) {
  SEEDB_ASSIGN_OR_RETURN(db::sql::InputQuery q,
                         db::sql::ParseInputQuery(input_query));
  SeeDBRequest request(q.table);
  request.Where(q.selection);
  return request;
}

Result<RecommendationSession> SeeDB::Open(const SeeDBRequest& request) {
  static std::atomic<uint64_t> next_trace_id{1};
  RecommendationSession session;
  session.engine_ = engine_;
  session.table_ = request.table();
  session.selection_ = request.selection();
  session.options_ = request.options();
  session.trace_id_ =
      next_trace_id.fetch_add(1, std::memory_order_relaxed);
  const SeeDBOptions& options = session.options_;
  SEEDB_TRACE_SPAN_IF(open_span, "session.open", session.trace_id_,
                      obs::TraceRecorder::ShouldTrace(options.trace));

  // Metadata collection + query generation (enumerate, prune).
  Stopwatch plan_timer;
  SEEDB_ASSIGN_OR_RETURN(
      GeneratedViews generated,
      GenerateViews(engine_, session.table_, session.selection_,
                    options.view_space, options.pruning));
  session.static_pruning_ = std::move(generated.pruning);
  const PruningReport& pruning = session.static_pruning_;
  if (pruning.kept.empty()) {
    return Status::InvalidArgument("pruning removed every candidate view");
  }

  // Sampling strategy: kMaterialized builds (or reuses) an in-memory
  // reservoir sample and redirects every view query to it (§3.3).
  std::string exec_table = session.table_;
  if (options.sampling == SamplingStrategy::kMaterialized) {
    SEEDB_ASSIGN_OR_RETURN(const db::Table* data,
                           engine_->catalog()->GetTable(session.table_));
    if (data->num_rows() > options.sample_rows && options.sample_rows > 0) {
      std::string sample_name = StringPrintf(
          "__%s_sample_%zu_%llu", session.table_.c_str(), options.sample_rows,
          static_cast<unsigned long long>(options.sample_seed));
      if (!engine_->catalog()->HasTable(sample_name)) {
        SEEDB_ASSIGN_OR_RETURN(
            db::Table sample,
            db::MaterializeReservoirSample(*data, options.sample_rows,
                                           options.sample_seed));
        engine_->catalog()->PutTable(sample_name, std::move(sample));
      }
      exec_table = std::move(sample_name);
    }
  }

  // Optimization: build the combined-query execution plan. Group-count
  // estimates come from the table the plan will actually scan.
  SEEDB_ASSIGN_OR_RETURN(const db::TableStats* stats,
                         engine_->catalog()->GetStats(exec_table));
  SEEDB_ASSIGN_OR_RETURN(
      ExecutionPlan plan,
      BuildExecutionPlan(pruning.kept, exec_table, session.selection_, *stats,
                         options.optimizer));
  session.plan_ = std::make_unique<ExecutionPlan>(std::move(plan));
  SEEDB_ASSIGN_OR_RETURN(const db::Table* exec_data,
                         engine_->catalog()->GetTable(exec_table));
  session.total_rows_ = exec_data->num_rows();
  session.planning_seconds_ = plan_timer.ElapsedSeconds();

  if (options.strategy == ExecutionStrategy::kPhasedSharedScan &&
      !session.plan_->queries.empty()) {
    SEEDB_ASSIGN_OR_RETURN(
        PhasedPlanExecution run,
        PhasedPlanExecution::Begin(engine_, *session.plan_, options.metric,
                                   session.ExecOptions()));
    session.phased_ =
        std::make_unique<PhasedPlanExecution>(std::move(run));
  }
  return session;
}

ExecutorOptions RecommendationSession::ExecOptions() const {
  ExecutorOptions exec;
  exec.parallelism = options_.parallelism;
  exec.enable_simd = options_.enable_simd;
  exec.strategy = options_.strategy;
  exec.online_pruning = options_.online_pruning;
  if (exec.online_pruning.keep_k == 0) {
    // The online pruner protects the top-k views only. bottom_k cannot be
    // protected by construction — pruning discards exactly the low-utility
    // views — so a pruned run's low_utility_views rank survivors only
    // (ExecutionProfile::examined_view_count counts them).
    exec.online_pruning.keep_k = options_.k;
  }
  exec.cancel = cancel_.get();
  exec.trace = options_.trace;
  // The blocking strategies enforce the session budget inside ExecutePlan
  // (the phased session meters it itself at phase boundaries — CheckBudget —
  // so PhasedPlanExecution ignores this field).
  exec.memory_budget_bytes = options_.memory_budget_bytes;
  return exec;
}

size_t RecommendationSession::phases_run() const {
  if (phased_ != nullptr) return phased_->phases_run();
  return executed_ ? 1 : 0;
}

uint64_t RecommendationSession::memory_bytes() const {
  return phased_ != nullptr ? phased_->agg_state_bytes() : 0;
}

bool RecommendationSession::done() const {
  if (finished_ || budget_exceeded_) return true;
  if (phased_ != nullptr) return phased_->done() || cancelled();
  return executed_;
}

Result<std::optional<ProgressUpdate>> RecommendationSession::Next() {
  if (done()) return std::optional<ProgressUpdate>();
  return phased_ != nullptr ? NextPhased() : NextBlocking();
}

Status RecommendationSession::Resume() {
  if (finished_) {
    return Status::Internal("recommendation session already finished");
  }
  if (!cancelled()) {
    return Status::InvalidArgument("session is not cancelled");
  }
  if (phased_ == nullptr && executed_) {
    return Status::InvalidArgument(
        "blocking strategies execute in one shot and cannot resume a "
        "cancelled run; use the phased strategy for resumable sessions");
  }
  // Reset the token BEFORE re-opening the scan, or the resume pass would
  // observe it and cancel itself immediately.
  cancel_->store(false, std::memory_order_relaxed);
  if (phased_ != nullptr && phased_->cancelled()) {
    SEEDB_RETURN_IF_ERROR(phased_->Resume());
    if (phased_->cancelled()) return Status::OK();  // re-cancelled mid-resume
  }
  observed_cancel_ = false;
  return Status::OK();
}

Status RecommendationSession::CheckBudget() {
  if (options_.memory_budget_bytes == 0 || phased_ == nullptr) {
    return Status::OK();
  }
  const size_t footprint = phased_->agg_state_bytes();
  if (footprint <= options_.memory_budget_bytes) return Status::OK();
  budget_exceeded_ = true;
  return Status::OutOfRange(StringPrintf(
      "session memory budget exceeded: aggregation state is %zu bytes, "
      "budget %zu bytes (Finish() returns partial results over the rows "
      "scanned so far)",
      footprint, options_.memory_budget_bytes));
}

Result<std::optional<ProgressUpdate>> RecommendationSession::NextPhased() {
  SEEDB_TRACE_SPAN_IF(next_span, "session.next_phase", trace_id_,
                      obs::TraceRecorder::ShouldTrace(options_.trace));
  SEEDB_ASSIGN_OR_RETURN(PhaseSnapshot snap,
                         phased_->Step(/*collect_estimates=*/true));
  ProgressUpdate update;
  update.phase = snap.phase;
  update.total_phases = snap.total_phases;
  update.phase_seconds = snap.phase_seconds;
  update.rows_scanned = snap.rows_consumed;
  update.total_rows = phased_->num_rows();
  update.views_active = snap.views_active;
  update.views_pruned_online = snap.views_pruned;
  update.ci_half_width = snap.ci_half_width;
  update.memory_bytes = phased_->agg_state_bytes();
  update.early_stopped = snap.early_stopped;
  update.cancelled = snap.cancelled;
  if (snap.cancelled) observed_cancel_ = true;
  // The phase that blew the budget yields no update: the graceful error IS
  // the report, and done() is true from here on.
  SEEDB_RETURN_IF_ERROR(CheckBudget());
  if (snap.has_estimates) {
    update.top_views = ProvisionalTopK(std::move(snap.estimates), options_.k,
                                       snap.ci_half_width);
  }
  if (sink_) sink_(update);
  return std::optional<ProgressUpdate>(std::move(update));
}

// Non-phased strategies run in one shot: the first Next() executes the
// whole plan and yields a single update carrying the final ranking with
// degenerate (zero-width) bounds.
Result<std::optional<ProgressUpdate>> RecommendationSession::NextBlocking() {
  SEEDB_TRACE_SPAN_IF(next_span, "session.next_phase", trace_id_,
                      obs::TraceRecorder::ShouldTrace(options_.trace));
  Stopwatch exec_timer;
  SEEDB_ASSIGN_OR_RETURN(
      std::vector<ViewResult> results,
      ExecutePlan(engine_, *plan_, options_.metric, ExecOptions(), &report_));
  executed_ = true;
  blocking_results_ = std::move(results);
  if (report_.cancelled) observed_cancel_ = true;
  if (report_.budget_exceeded) {
    // Same contract as the phased path: the Next() that observed the breach
    // yields no update — the graceful error IS the report — and Finish()
    // assembles partial results from the work completed before it.
    budget_exceeded_ = true;
    return Status::OutOfRange(StringPrintf(
        "session memory budget exceeded: aggregation state is %zu bytes, "
        "budget %zu bytes (Finish() returns partial results over the work "
        "completed so far)",
        report_.agg_state_bytes, options_.memory_budget_bytes));
  }

  ProgressUpdate update;
  update.phase = 1;
  update.total_phases = 1;
  update.phase_seconds = exec_timer.ElapsedSeconds();
  // Fused runs report the scan's own row count (exact even under
  // cancellation); a per-query run made one full pass per query, so a
  // cancelled one estimates by the fraction of queries that completed.
  if (options_.strategy != ExecutionStrategy::kPerQuery &&
      report_.table_scans > 0) {
    update.rows_scanned = report_.rows_scanned;
  } else if (report_.cancelled && !plan_->queries.empty()) {
    update.rows_scanned = static_cast<uint64_t>(total_rows_) *
                          report_.queries_executed / plan_->queries.size();
  } else {
    update.rows_scanned = total_rows_;
  }
  update.total_rows = total_rows_;
  update.views_active = blocking_results_->size();
  update.cancelled = report_.cancelled;
  std::vector<ViewResult> ranked = *blocking_results_;
  for (ViewResult& vr : SelectTopK(std::move(ranked), options_.k)) {
    ProvisionalView pv;
    pv.utility = vr.utility;
    pv.lower = pv.upper = vr.utility;
    pv.view = std::move(vr.view);
    update.top_views.push_back(std::move(pv));
  }
  if (sink_) sink_(update);
  return std::optional<ProgressUpdate>(std::move(update));
}

Result<RecommendationSet> RecommendationSession::Finish() {
  if (finished_) {
    return Status::Internal("recommendation session already finished");
  }
  SEEDB_TRACE_SPAN_IF(finish_span, "session.finalize", trace_id_,
                      obs::TraceRecorder::ShouldTrace(options_.trace));

  // Complete any remaining work. A cancelled or budget-stopped session
  // skips straight to assembling partial results. Without a sink the drain
  // is silent (Step without estimates — the cheap path); with one, each
  // drained phase goes through NextPhased() so the sink sees every update.
  std::vector<ViewResult> results;
  if (phased_ != nullptr) {
    while (!done()) {
      if (sink_) {
        Result<std::optional<ProgressUpdate>> update = NextPhased();
        if (!update.ok()) {
          // A budget breach mid-drain stops the drain, not the Finish();
          // any other error is real.
          if (!budget_exceeded_) return update.status();
          break;
        }
      } else {
        SEEDB_RETURN_IF_ERROR(
            phased_->Step(/*collect_estimates=*/false).status());
        Status budget = CheckBudget();
        if (!budget.ok()) break;  // stop the drain; assemble partial results
      }
    }
    SEEDB_ASSIGN_OR_RETURN(results, phased_->Finish(&report_));
  } else {
    if (!executed_) {
      if (sink_) {
        // Route through NextBlocking() so the single update reaches the
        // sink even when the caller skips straight to Finish(). A budget
        // breach surfaces there as OutOfRange; Finish() still assembles the
        // partial results like the phased drain does.
        Status drive = NextBlocking().status();
        if (!drive.ok() && !budget_exceeded_) return drive;
        results = std::move(*blocking_results_);
      } else {
        SEEDB_ASSIGN_OR_RETURN(
            results,
            ExecutePlan(engine_, *plan_, options_.metric, ExecOptions(),
                        &report_));
        if (report_.cancelled) observed_cancel_ = true;
        if (report_.budget_exceeded) budget_exceeded_ = true;
      }
    } else {
      results = std::move(*blocking_results_);
    }
  }
  finished_ = true;

  RecommendationSet set;
  set.metric = options_.metric;
  set.pruned_views = static_pruning_.pruned;
  set.online_pruned_views = report_.online_pruned;
  set.profile.examined_view_count = results.size();

  // Ranking. bottom_k ranks the examined survivors only: views the online
  // pruner retired are in online_pruned_views, not here.
  if (options_.bottom_k > 0) {
    std::vector<ViewResult> copy = results;
    std::vector<ViewResult> worst =
        SelectBottomK(std::move(copy), options_.bottom_k);
    for (size_t i = 0; i < worst.size(); ++i) {
      set.low_utility_views.push_back(
          MakeRecommendation(i + 1, std::move(worst[i]), table_, selection_));
    }
  }
  std::vector<ViewResult> best = SelectTopK(std::move(results), options_.k);
  for (size_t i = 0; i < best.size(); ++i) {
    set.top_views.push_back(
        MakeRecommendation(i + 1, std::move(best[i]), table_, selection_));
  }

  set.profile.views_enumerated = static_pruning_.total_considered();
  set.profile.views_pruned = static_pruning_.pruned.size();
  set.profile.views_executed = static_pruning_.kept.size();
  set.profile.views_pruned_online = report_.views_pruned_online;
  set.profile.phases_executed = report_.phases_executed;
  set.profile.early_stopped = report_.early_stopped;
  // "Cancelled" means work was actually truncated — a Cancel() that lands
  // after the last phase (or after a blocking run returned) leaves a
  // complete, trustworthy result and is not flagged.
  set.profile.cancelled =
      report_.cancelled ||
      (phased_ != nullptr && cancelled() && !report_.early_stopped &&
       phased_->rows_consumed() < phased_->num_rows());
  set.profile.budget_exceeded = budget_exceeded_;
  // Exact per-run counts, summed by the executor from the run's own batches:
  // concurrent sessions on one engine do not bleed into each other's
  // profiles, whatever the strategy.
  set.profile.queries_issued = report_.queries_executed;
  set.profile.table_scans = report_.table_scans;
  set.profile.rows_scanned = report_.rows_scanned;
  set.profile.vectorized_morsels = report_.vectorized_morsels;
  set.profile.simd_morsels = report_.simd_morsels;
  set.profile.cache_hits = report_.cache_hits;
  set.profile.cache_misses = report_.cache_misses;
  set.profile.planning_seconds = planning_seconds_;
  set.profile.execution_seconds = report_.total_seconds;
  set.profile.total_seconds = total_timer_.ElapsedSeconds();
  return set;
}

Result<RecommendationSet> SeeDB::Run(const SeeDBRequest& request) {
  SEEDB_ASSIGN_OR_RETURN(RecommendationSession session, Open(request));
  return session.Finish();
}

}  // namespace seedb::core
