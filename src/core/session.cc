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
  session.planning_seconds_ = plan_timer.ElapsedSeconds();

  SEEDB_ASSIGN_OR_RETURN(
      PhasedPlanExecution run,
      PhasedPlanExecution::Begin(engine_, *session.plan_, options.metric,
                                 session.ExecOptions()));
  session.run_ = std::make_unique<PhasedPlanExecution>(std::move(run));
  return session;
}

ExecutorOptions RecommendationSession::ExecOptions() const {
  ExecutorOptions exec;
  exec.parallelism = options_.parallelism;
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
  exec.memory_budget_bytes = options_.memory_budget_bytes;
  return exec;
}

size_t RecommendationSession::phases_run() const {
  return run_->phases_run();
}

uint64_t RecommendationSession::memory_bytes() const {
  return run_->agg_state_bytes();
}

bool RecommendationSession::budget_exceeded() const {
  return run_->budget_exceeded();
}

bool RecommendationSession::done() const {
  return finished_ || run_->done() || cancelled();
}

Status RecommendationSession::Resume() {
  if (finished_) {
    return Status::Internal("recommendation session already finished");
  }
  if (!cancelled()) {
    return Status::InvalidArgument("session is not cancelled");
  }
  // Reset the token BEFORE re-opening the scan, or the resume pass would
  // observe it and cancel itself immediately.
  cancel_->store(false, std::memory_order_relaxed);
  if (run_->cancelled()) {
    SEEDB_RETURN_IF_ERROR(run_->Resume());
    if (run_->cancelled()) return Status::OK();  // re-cancelled mid-resume
  }
  observed_cancel_ = false;
  return Status::OK();
}

Result<std::optional<ProgressUpdate>> RecommendationSession::Next() {
  if (done()) return std::optional<ProgressUpdate>();
  SEEDB_TRACE_SPAN_IF(next_span, "session.next_phase", trace_id_,
                      obs::TraceRecorder::ShouldTrace(options_.trace));
  SEEDB_ASSIGN_OR_RETURN(PhaseSnapshot snap,
                         run_->Step(/*collect_estimates=*/true));
  if (snap.cancelled) observed_cancel_ = true;
  // The phase that blew the budget yields no update: the graceful error IS
  // the report, and done() is true from here on.
  if (run_->budget_exceeded()) {
    return Status::OutOfRange(StringPrintf(
        "session memory budget exceeded: aggregation state is %zu bytes, "
        "budget %zu bytes (Finish() returns partial results over the work "
        "completed so far)",
        run_->agg_state_bytes(), options_.memory_budget_bytes));
  }
  ProgressUpdate update;
  update.phase = snap.phase;
  update.total_phases = snap.total_phases;
  update.phase_seconds = snap.phase_seconds;
  update.rows_scanned = snap.rows_consumed;
  update.total_rows = run_->num_rows();
  update.views_active = snap.views_active;
  update.views_pruned_online = snap.views_pruned;
  update.ci_half_width = snap.ci_half_width;
  update.memory_bytes = run_->agg_state_bytes();
  update.early_stopped = snap.early_stopped;
  update.cancelled = snap.cancelled;
  if (snap.has_estimates) {
    update.top_views = ProvisionalTopK(std::move(snap.estimates), options_.k,
                                       snap.ci_half_width);
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
  // drained phase goes through Next() so the sink sees every update.
  while (!done()) {
    if (sink_) {
      Result<std::optional<ProgressUpdate>> update = Next();
      // A budget breach mid-drain stops the drain, not the Finish(); any
      // other error is real.
      if (!update.ok() && !budget_exceeded()) return update.status();
    } else {
      SEEDB_RETURN_IF_ERROR(run_->Step(/*collect_estimates=*/false).status());
    }
  }
  SEEDB_ASSIGN_OR_RETURN(std::vector<ViewResult> results,
                         run_->Finish(&report_));
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
  // after the last phase leaves a complete, trustworthy result and is not
  // flagged.
  set.profile.cancelled =
      report_.cancelled ||
      (cancelled() && !report_.early_stopped &&
       run_->rows_consumed() < run_->num_rows());
  set.profile.budget_exceeded = report_.budget_exceeded;
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
