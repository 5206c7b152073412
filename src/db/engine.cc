#include "db/engine.h"

#include "db/sql/parser.h"
#include "obs/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace seedb::db {

std::string EngineStatsSnapshot::ToString() const {
  std::string s = StringPrintf(
      "queries=%llu scans=%llu shared_batches=%llu vec_morsels=%llu "
      "simd_morsels=%llu rows_scanned=%llu groups=%llu peak_agg_state=%lluB "
      "exec=%.3fms",
      static_cast<unsigned long long>(queries_executed),
      static_cast<unsigned long long>(table_scans),
      static_cast<unsigned long long>(shared_scan_batches),
      static_cast<unsigned long long>(vectorized_morsels),
      static_cast<unsigned long long>(simd_morsels),
      static_cast<unsigned long long>(rows_scanned),
      static_cast<unsigned long long>(groups_created),
      static_cast<unsigned long long>(peak_agg_state_bytes),
      static_cast<double>(total_exec_micros) / 1000.0);
  if (result_cache_enabled) {
    s += StringPrintf(
        " cache_hits=%llu cache_misses=%llu cache_bytes=%lluB "
        "cache_evictions=%llu",
        static_cast<unsigned long long>(cache_hits),
        static_cast<unsigned long long>(cache_misses),
        static_cast<unsigned long long>(cache_bytes),
        static_cast<unsigned long long>(cache_evictions));
  }
  return s;
}

void Engine::RecordAccess(const std::string& table,
                          const std::vector<std::string>& group_cols,
                          const std::vector<AggregateSpec>& aggs,
                          const Predicate* where) {
  std::vector<std::string> cols = group_cols;
  for (const auto& a : aggs) {
    if (!a.input.empty()) cols.push_back(a.input);
    if (a.filter) a.filter->CollectColumns(&cols);
  }
  if (where) where->CollectColumns(&cols);
  tracker_.RecordQuery(table, cols);
}

namespace {

void UpdatePeak(std::atomic<uint64_t>* peak, uint64_t candidate) {
  uint64_t cur = peak->load(std::memory_order_relaxed);
  while (candidate > cur &&
         !peak->compare_exchange_weak(cur, candidate,
                                      std::memory_order_relaxed)) {
  }
}

// Per-query execution is the paper's baseline: each query is its own
// single-threaded pass over the table, never answered from the result cache.
SharedScanOptions PerQueryOptions() {
  SharedScanOptions options;
  options.num_threads = 1;
  options.use_result_cache = false;
  return options;
}

}  // namespace

Result<Table> Engine::Execute(const GroupByQuery& query) {
  GroupingSetsQuery q;
  q.table = query.table;
  q.where = query.where;
  q.grouping_sets = {query.group_by};
  q.aggregates = query.aggregates;
  q.sample_fraction = query.sample_fraction;
  q.sample_seed = query.sample_seed;
  SEEDB_ASSIGN_OR_RETURN(std::vector<Table> results, Execute(q));
  return std::move(results[0]);
}

Result<std::vector<Table>> Engine::Execute(const GroupingSetsQuery& query) {
  SEEDB_ASSIGN_OR_RETURN(std::vector<std::vector<Table>> results,
                         ExecuteShared({query}, PerQueryOptions()));
  return std::move(results[0]);
}

Status SharedScanSession::RunPhase(size_t row_begin, size_t row_end) {
  Stopwatch timer;
  Status s = state_.RunPhase(row_begin, row_end);
  exec_micros_ += static_cast<uint64_t>(timer.ElapsedMicros());
  return s;
}

Result<std::vector<std::vector<Table>>> SharedScanSession::Finalize() {
  if (finalized_) {
    return Status::Internal("shared-scan session already finalized");
  }
  Stopwatch timer;
  SEEDB_ASSIGN_OR_RETURN(std::vector<std::vector<Table>> results,
                         state_.FinalResults());
  exec_micros_ += static_cast<uint64_t>(timer.ElapsedMicros());
  finalized_ = true;
  engine_->RecordSharedBatch(state_.queries(), state_.stats(), exec_micros_);
  return results;
}

void Engine::RecordSharedBatch(const std::vector<GroupingSetsQuery>& queries,
                               const SharedScanStats& stats,
                               uint64_t exec_micros) {
  queries_executed_.fetch_add(queries.size(), std::memory_order_relaxed);
  // Every engine query runs as a batch, and a batch is ONE pass over the
  // base table, however many view queries (or phases) it spans — the
  // invariant the shared-scan tests pin down. This is the only place the
  // engine counters move.
  table_scans_.fetch_add(1, std::memory_order_relaxed);
  shared_scan_batches_.fetch_add(1, std::memory_order_relaxed);
  vectorized_morsels_.fetch_add(stats.vectorized_morsels,
                                std::memory_order_relaxed);
  simd_morsels_.fetch_add(stats.simd_morsels, std::memory_order_relaxed);
  rows_scanned_.fetch_add(stats.rows_scanned, std::memory_order_relaxed);
  groups_created_.fetch_add(stats.total_groups, std::memory_order_relaxed);
  UpdatePeak(&peak_agg_state_bytes_, stats.agg_state_bytes);
  total_exec_micros_.fetch_add(exec_micros, std::memory_order_relaxed);
  cache_hits_.fetch_add(stats.cache_hits, std::memory_order_relaxed);
  cache_misses_.fetch_add(stats.cache_misses, std::memory_order_relaxed);
  static obs::Counter* obs_hits =
      obs::Registry::Global().GetCounter("engine.cache.hits");
  static obs::Counter* obs_misses =
      obs::Registry::Global().GetCounter("engine.cache.misses");
  obs_hits->Add(stats.cache_hits);
  obs_misses->Add(stats.cache_misses);
  for (const auto& query : queries) {
    std::vector<std::string> group_cols;
    for (const auto& set : query.grouping_sets) {
      group_cols.insert(group_cols.end(), set.begin(), set.end());
    }
    RecordAccess(query.table, group_cols, query.aggregates, query.where.get());
  }
}

Result<SharedScanSession> Engine::BeginShared(
    std::vector<GroupingSetsQuery> queries, const SharedScanOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("shared scan needs at least one query");
  }
  for (const auto& q : queries) {
    if (q.table != queries.front().table) {
      return Status::InvalidArgument(
          "shared scan queries must target one table (got '" +
          queries.front().table + "' and '" + q.table + "')");
    }
  }
  SEEDB_ASSIGN_OR_RETURN(const Table* table,
                         catalog_->GetTable(queries.front().table));
  SharedScanOptions resolved = options;
  if (cache_ != nullptr && resolved.cache == nullptr &&
      resolved.use_result_cache) {
    resolved.cache = cache_.get();
    resolved.table_version = catalog_->TableVersion(queries.front().table);
  }
  SEEDB_ASSIGN_OR_RETURN(
      SharedScanState state,
      SharedScanState::Create(*table, std::move(queries), resolved));
  return SharedScanSession(this, std::move(state));
}

void Engine::EnableResultCache(size_t budget_bytes) {
  cache_ = std::make_unique<PartialAggCache>(budget_bytes);
}

Result<std::vector<std::vector<Table>>> Engine::ExecuteShared(
    const std::vector<GroupingSetsQuery>& queries,
    const SharedScanOptions& options, SharedScanStats* stats) {
  SEEDB_ASSIGN_OR_RETURN(SharedScanSession session,
                         BeginShared(queries, options));
  SEEDB_RETURN_IF_ERROR(session.RunPhase(0, session.num_rows()));
  SEEDB_ASSIGN_OR_RETURN(std::vector<std::vector<Table>> results,
                         session.Finalize());
  if (stats != nullptr) *stats = session.stats();
  return results;
}

Result<Table> Engine::ExecuteSql(const std::string& sql) {
  SEEDB_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::ParseSelect(sql));
  if (!stmt.grouping_sets.empty()) {
    SEEDB_ASSIGN_OR_RETURN(GroupingSetsQuery q,
                           sql::PlanGroupingSets(stmt));
    SEEDB_ASSIGN_OR_RETURN(std::vector<Table> results, Execute(q));
    return std::move(results[0]);
  }
  SEEDB_ASSIGN_OR_RETURN(GroupByQuery q, sql::PlanGroupBy(stmt));
  return Execute(q);
}

EngineStatsSnapshot Engine::stats() const {
  EngineStatsSnapshot s;
  s.queries_executed = queries_executed_.load(std::memory_order_relaxed);
  s.table_scans = table_scans_.load(std::memory_order_relaxed);
  s.shared_scan_batches = shared_scan_batches_.load(std::memory_order_relaxed);
  s.vectorized_morsels = vectorized_morsels_.load(std::memory_order_relaxed);
  s.simd_morsels = simd_morsels_.load(std::memory_order_relaxed);
  s.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
  s.groups_created = groups_created_.load(std::memory_order_relaxed);
  s.peak_agg_state_bytes =
      peak_agg_state_bytes_.load(std::memory_order_relaxed);
  s.total_exec_micros = total_exec_micros_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) {
    s.result_cache_enabled = true;
    const ScanCacheStats cs = cache_->stats();
    s.cache_bytes = cs.bytes;
    s.cache_evictions = cs.evictions;
  }
  return s;
}

void Engine::ResetStats() {
  queries_executed_.store(0, std::memory_order_relaxed);
  table_scans_.store(0, std::memory_order_relaxed);
  shared_scan_batches_.store(0, std::memory_order_relaxed);
  vectorized_morsels_.store(0, std::memory_order_relaxed);
  simd_morsels_.store(0, std::memory_order_relaxed);
  rows_scanned_.store(0, std::memory_order_relaxed);
  groups_created_.store(0, std::memory_order_relaxed);
  peak_agg_state_bytes_.store(0, std::memory_order_relaxed);
  total_exec_micros_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
  cache_misses_.store(0, std::memory_order_relaxed);
}

}  // namespace seedb::db
