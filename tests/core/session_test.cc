#include "core/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <thread>

#include "../test_util.h"
#include "data/synthetic.h"
#include "data/workload.h"

namespace seedb::core {
namespace {

// Shared environment: a synthetic dataset with a planted deviation, big
// enough for multi-phase runs to see several boundaries.
class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticSpec spec = data::SyntheticSpec::Simple(
        /*rows=*/8000, /*num_dims=*/4, /*num_measures=*/2,
        /*cardinality=*/6, /*seed=*/123);
    spec.deviation->strength = 6.0;
    auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
    catalog_ = new db::Catalog();
    ASSERT_TRUE(catalog_->AddTable("synth", std::move(dataset.table)).ok());
    engine_ = new db::Engine(catalog_);
    selection_ = dataset.selection;
    // Warm the stats cache so concurrent sessions do not race on first use.
    ASSERT_TRUE(catalog_->GetStats("synth").ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete catalog_;
    engine_ = nullptr;
    catalog_ = nullptr;
  }

  static SeeDBRequest PhasedRequest(size_t phases, size_t k = 3) {
    return SeeDBRequest("synth")
        .Where(selection_)
        .WithTopK(k)
        .WithPhases(phases);
  }

  static std::vector<std::string> TopIds(const RecommendationSet& set) {
    std::vector<std::string> ids;
    for (const auto& rec : set.top_views) ids.push_back(rec.view().Id());
    return ids;
  }

  static db::Catalog* catalog_;
  static db::Engine* engine_;
  static db::PredicatePtr selection_;
};

db::Catalog* SessionTest::catalog_ = nullptr;
db::Engine* SessionTest::engine_ = nullptr;
db::PredicatePtr SessionTest::selection_;

TEST_F(SessionTest, OneProgressUpdatePerPhase) {
  SeeDB seedb(engine_);
  auto session = seedb.Open(PhasedRequest(5));
  ASSERT_TRUE(session.ok()) << session.status();

  size_t updates = 0;
  uint64_t last_rows = 0;
  while (true) {
    auto update = session->Next();
    ASSERT_TRUE(update.ok()) << update.status();
    if (!update->has_value()) break;
    const ProgressUpdate& u = **update;
    ++updates;
    EXPECT_EQ(u.phase, updates);
    EXPECT_EQ(u.total_phases, 5u);
    EXPECT_GT(u.rows_scanned, last_rows);
    last_rows = u.rows_scanned;
    EXPECT_EQ(u.total_rows, 8000u);
    EXPECT_GT(u.views_active, 0u);
    // Every boundary carries a provisional top-k with CI bounds around the
    // running estimate.
    ASSERT_FALSE(u.top_views.empty());
    EXPECT_LE(u.top_views.size(), 3u);
    for (const ProvisionalView& pv : u.top_views) {
      EXPECT_LE(pv.lower, pv.utility);
      EXPECT_GE(pv.upper, pv.utility);
    }
    for (size_t i = 1; i < u.top_views.size(); ++i) {
      EXPECT_GE(u.top_views[i - 1].utility, u.top_views[i].utility);
    }
  }
  EXPECT_EQ(updates, 5u);
  EXPECT_EQ(last_rows, 8000u);

  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_EQ(set->profile.phases_executed, 5u);
  EXPECT_FALSE(set->profile.cancelled);
}

TEST_F(SessionTest, DrainedSessionMatchesBlockingRecommend) {
  SeeDB seedb(engine_);
  auto session = seedb.Open(PhasedRequest(4));
  ASSERT_TRUE(session.ok());
  while ((*session->Next())->phase < 4) {
  }
  auto streamed = session->Finish();
  ASSERT_TRUE(streamed.ok());

  SeeDBOptions options;
  options.k = 3;
  options.strategy = ExecutionStrategy::kPhasedSharedScan;
  options.online_pruning.num_phases = 4;
  auto blocking = seedb.Recommend("synth", selection_, options);
  ASSERT_TRUE(blocking.ok());

  ASSERT_EQ(streamed->top_views.size(), blocking->top_views.size());
  for (size_t i = 0; i < streamed->top_views.size(); ++i) {
    EXPECT_EQ(streamed->top_views[i].view(), blocking->top_views[i].view());
    EXPECT_NEAR(streamed->top_views[i].utility(),
                blocking->top_views[i].utility(), 1e-12);
  }
}

TEST_F(SessionTest, LastUpdateOfNonPhasedStrategiesCarriesFinalRanking) {
  const SeeDBRequest base = SeeDBRequest("synth").Where(selection_).WithTopK(2);
  for (const SeeDBRequest& request :
       {SeeDBRequest(base).WithStrategy(ExecutionStrategy::kPerQuery),
        SeeDBRequest(base).WithPhases(1)}) {
    SCOPED_TRACE(ExecutionStrategyToString(request.options().strategy));
    SeeDB seedb(engine_);
    auto session = seedb.Open(request);
    ASSERT_TRUE(session.ok());
    auto update = session->Next();
    ASSERT_TRUE(update.ok());
    ASSERT_TRUE(update->has_value());
    EXPECT_EQ((*update)->phase, 1u);
    ASSERT_EQ((*update)->top_views.size(), 2u);
    auto none = session->Next();
    ASSERT_TRUE(none.ok());
    EXPECT_FALSE(none->has_value());
    auto set = session->Finish();
    ASSERT_TRUE(set.ok());
    EXPECT_EQ((*update)->top_views[0].view, set->top_views[0].view());
    // The update's utilities are the final, exact ones.
    EXPECT_EQ((*update)->top_views[0].utility, set->top_views[0].utility());
    EXPECT_EQ((*update)->top_views[0].lower, (*update)->top_views[0].upper);
    EXPECT_EQ(set->profile.phases_executed, 1u);
  }
}

TEST_F(SessionTest, CancelBetweenPhasesYieldsPartialResults) {
  SeeDB seedb(engine_);
  auto session = seedb.Open(PhasedRequest(8));
  ASSERT_TRUE(session.ok());
  auto first = session->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());

  session->Cancel();
  EXPECT_TRUE(session->done());
  auto none = session->Next();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());

  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_TRUE(set->profile.cancelled);
  // Only the first of 8 phases ran; results estimate from that slice.
  EXPECT_EQ(set->profile.phases_executed, 1u);
  EXPECT_FALSE(set->top_views.empty());
  EXPECT_LT(set->profile.rows_scanned, 8000u);
}

TEST_F(SessionTest, CancelledSessionLeavesEngineReusable) {
  SeeDB seedb(engine_);
  auto session = seedb.Open(PhasedRequest(8));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Next().ok());
  session->Cancel();
  ASSERT_TRUE(session->Finish().ok());

  // The same engine serves a fresh full run afterwards.
  auto fresh = seedb.Run(PhasedRequest(4));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(fresh->top_views.empty());
  EXPECT_FALSE(fresh->profile.cancelled);
}

TEST_F(SessionTest, CancelBeforeFirstPhaseReturnsImmediately) {
  SeeDB seedb(engine_);
  auto session = seedb.Open(PhasedRequest(4));
  ASSERT_TRUE(session.ok());
  session->Cancel();
  auto none = session->Next();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_TRUE(set->profile.cancelled);
  EXPECT_TRUE(set->top_views.empty());  // nothing was scanned
}

TEST_F(SessionTest, CancelFromAnotherThreadMidRun) {
  SeeDB seedb(engine_);
  auto session = seedb.Open(PhasedRequest(16));
  ASSERT_TRUE(session.ok());

  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load()) std::this_thread::yield();
    session->Cancel();
  });
  size_t updates = 0;
  while (true) {
    started.store(true);
    auto update = session->Next();
    ASSERT_TRUE(update.ok());
    if (!update->has_value()) break;
    ++updates;
  }
  canceller.join();
  EXPECT_LE(updates, 16u);
  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  // The cancel may race past the last phase; "cancelled" is only flagged
  // when the scan was actually truncated.
  EXPECT_EQ(set->profile.cancelled, set->profile.phases_executed < 16u);
}

TEST_F(SessionTest, ConcurrentSessionsOnOneEngineAreSafe) {
  SeeDB seedb(engine_);
  auto serial = seedb.Run(PhasedRequest(4));
  ASSERT_TRUE(serial.ok());
  const std::vector<std::string> expected = TopIds(*serial);

  constexpr int kSessions = 4;
  std::vector<std::vector<std::string>> results(kSessions);
  std::vector<ExecutionProfile> profiles(kSessions);
  std::vector<Status> statuses(kSessions, Status::OK());
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto session = seedb.Open(PhasedRequest(4));
      if (!session.ok()) {
        statuses[i] = session.status();
        return;
      }
      while (true) {
        auto update = session->Next();
        if (!update.ok()) {
          statuses[i] = update.status();
          return;
        }
        if (!update->has_value()) break;
      }
      auto set = session->Finish();
      if (!set.ok()) {
        statuses[i] = set.status();
        return;
      }
      results[i] = TopIds(*set);
      profiles[i] = set->profile;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i];
    EXPECT_EQ(results[i], expected) << "session " << i;
    // Profiles attribute the session's OWN work, not the engine-wide total
    // the overlapping sessions racked up together.
    EXPECT_EQ(profiles[i].table_scans, 1u) << "session " << i;
    EXPECT_EQ(profiles[i].rows_scanned, 8000u) << "session " << i;
  }
}

// Per-query runs account exactly too: every planned query is its own
// one-query batch, and the profile sums those batches' statistics instead
// of diffing engine-wide counters that overlapping sessions also move.
TEST_F(SessionTest, ConcurrentPerQuerySessionsCountOnlyTheirOwnWork) {
  SeeDB seedb(engine_);
  // The baseline plan issues one query per view half, so every session runs
  // many single-query passes that interleave with the other sessions'.
  const SeeDBRequest request =
      SeeDBRequest("synth")
          .Where(selection_)
          .WithTopK(3)
          .WithStrategy(ExecutionStrategy::kPerQuery)
          .WithOptimizer(OptimizerOptions::Baseline());
  auto serial = seedb.Run(request);
  ASSERT_TRUE(serial.ok()) << serial.status();
  const ExecutionProfile& want = serial->profile;
  ASSERT_GT(want.queries_issued, 1u);
  EXPECT_EQ(want.table_scans, want.queries_issued);  // one pass per query
  EXPECT_EQ(want.rows_scanned, 8000u * want.queries_issued);
  EXPECT_GT(want.vectorized_morsels, 0u);
  EXPECT_EQ(want.cache_hits + want.cache_misses, 0u);

  constexpr int kSessions = 4;
  constexpr int kRunsPerSession = 3;
  std::vector<std::vector<ExecutionProfile>> profiles(kSessions);
  std::vector<Status> statuses(kSessions, Status::OK());
  std::atomic<int> ready{0};
  const db::EngineStatsSnapshot before = engine_->stats();
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      // Start together so the sessions' queries interleave on the engine.
      ready.fetch_add(1);
      while (ready.load() < kSessions) std::this_thread::yield();
      for (int run = 0; run < kRunsPerSession; ++run) {
        auto set = seedb.Run(request);
        if (!set.ok()) {
          statuses[i] = set.status();
          return;
        }
        profiles[i].push_back(set->profile);
      }
    });
  }
  for (auto& t : threads) t.join();
  const db::EngineStatsSnapshot after = engine_->stats();

  uint64_t total_queries = 0;
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i];
    ASSERT_EQ(profiles[i].size(), static_cast<size_t>(kRunsPerSession));
    for (const ExecutionProfile& got : profiles[i]) {
      EXPECT_EQ(got.queries_issued, want.queries_issued) << "session " << i;
      EXPECT_EQ(got.table_scans, want.table_scans) << "session " << i;
      EXPECT_EQ(got.rows_scanned, want.rows_scanned) << "session " << i;
      EXPECT_EQ(got.vectorized_morsels, want.vectorized_morsels)
          << "session " << i;
      EXPECT_EQ(got.simd_morsels, want.simd_morsels) << "session " << i;
      total_queries += got.queries_issued;
    }
  }
  // The engine-wide counters moved by exactly the sessions' summed work.
  EXPECT_EQ(after.queries_executed - before.queries_executed, total_queries);
  EXPECT_EQ(after.table_scans - before.table_scans, total_queries);
}

TEST_F(SessionTest, SharedScanStrategyIsCancellableToo) {
  SeeDB seedb(engine_);
  auto session = seedb.Open(
      SeeDBRequest("synth").Where(selection_).WithTopK(3).WithPhases(1));
  ASSERT_TRUE(session.ok());
  session->Cancel();
  // The one-shot fused scan observes the token before any morsel: the run
  // completes with partial (here: empty) results, not an error.
  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_TRUE(set->profile.cancelled);
  EXPECT_EQ(set->profile.rows_scanned, 0u);
}

TEST_F(SessionTest, OnlinePrunedViewsCarryPartialEstimates) {
  SeeDB seedb(engine_);
  OnlinePruningOptions pruning;
  pruning.num_phases = 4;
  pruning.pruner = OnlinePruner::kMultiArmedBandit;
  auto set = seedb.Run(SeeDBRequest("synth")
                           .Where(selection_)
                           .WithTopK(2)
                           .WithOnlinePruning(pruning));
  ASSERT_TRUE(set.ok()) << set.status();

  ASSERT_GT(set->online_pruned_views.size(), 0u);
  EXPECT_EQ(set->online_pruned_views.size(),
            set->profile.views_pruned_online);
  EXPECT_EQ(set->profile.examined_view_count,
            set->profile.views_executed - set->profile.views_pruned_online);

  std::set<std::string> survivors;
  for (const auto& rec : set->top_views) survivors.insert(rec.view().Id());
  for (const OnlinePrunedView& pv : set->online_pruned_views) {
    EXPECT_GE(pv.pruned_at_phase, 1u);
    EXPECT_LT(pv.pruned_at_phase, 4u);
    EXPECT_GT(pv.rows_seen, 0u);
    EXPECT_GE(pv.partial_utility, 0.0);
    EXPECT_FALSE(survivors.count(pv.view.Id()))
        << pv.view.Id() << " was pruned yet recommended";
  }
}

TEST_F(SessionTest, BottomKRanksOnlyExaminedSurvivors) {
  SeeDB seedb(engine_);
  OnlinePruningOptions pruning;
  pruning.num_phases = 4;
  pruning.pruner = OnlinePruner::kMultiArmedBandit;
  auto set = seedb.Run(SeeDBRequest("synth")
                           .Where(selection_)
                           .WithTopK(2)
                           .WithBottomK(3)
                           .WithOnlinePruning(pruning));
  ASSERT_TRUE(set.ok()) << set.status();
  ASSERT_GT(set->online_pruned_views.size(), 0u);
  ASSERT_FALSE(set->low_utility_views.empty());

  // Bottom-k never resurrects a pruned view: it ranks survivors only.
  std::set<std::string> pruned;
  for (const auto& pv : set->online_pruned_views) pruned.insert(pv.view.Id());
  for (const auto& rec : set->low_utility_views) {
    EXPECT_FALSE(pruned.count(rec.view().Id())) << rec.view().Id();
  }
  EXPECT_LE(set->low_utility_views.size(),
            set->profile.examined_view_count);
}

TEST_F(SessionTest, RequestFromSqlMatchesRecommendSql) {
  data::SyntheticSpec spec = data::SyntheticSpec::Simple(500, 3, 1, 4, 7);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  db::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", std::move(dataset.table)).ok());
  db::Engine engine(&catalog);
  SeeDB seedb(&engine);

  auto request = SeeDBRequest::FromSql("SELECT * FROM t WHERE dim0 = 'v0'");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->table(), "t");
  auto via_request = seedb.Run(request->WithTopK(2));
  ASSERT_TRUE(via_request.ok());

  SeeDBOptions options;
  options.k = 2;
  auto via_sql =
      seedb.RecommendSql("SELECT * FROM t WHERE dim0 = 'v0'", options);
  ASSERT_TRUE(via_sql.ok());
  ASSERT_EQ(via_request->top_views.size(), via_sql->top_views.size());
  for (size_t i = 0; i < via_sql->top_views.size(); ++i) {
    EXPECT_EQ(via_request->top_views[i].view(), via_sql->top_views[i].view());
  }

  EXPECT_FALSE(SeeDBRequest::FromSql("SELECT broken").ok());
}

// The acceptance shape, pinned on the E8 bench workload itself: one update
// per phase, each carrying a provisional top-k; the final set lists pruned
// views with partial estimates.
TEST(SessionE8WorkloadTest, ProgressPerPhaseWithProvisionalTopK) {
  data::WorkloadSpec spec;
  spec.rows = 20000;
  spec.num_dims = 5;
  spec.num_measures = 2;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  SeeDB seedb(workload.engine.get());

  OnlinePruningOptions pruning;
  pruning.num_phases = 6;
  pruning.pruner = OnlinePruner::kMultiArmedBandit;
  auto session = seedb.Open(SeeDBRequest(workload.table_name)
                                .Where(workload.selection)
                                .WithTopK(3)
                                .WithOnlinePruning(pruning));
  ASSERT_TRUE(session.ok()) << session.status();

  size_t updates = 0;
  while (true) {
    auto update = session->Next();
    ASSERT_TRUE(update.ok()) << update.status();
    if (!update->has_value()) break;
    ++updates;
    EXPECT_EQ((*update)->phase, updates);
    EXPECT_FALSE((*update)->top_views.empty());
  }
  EXPECT_EQ(updates, 6u);

  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_GT(set->online_pruned_views.size(), 0u);
  for (const auto& pv : set->online_pruned_views) {
    EXPECT_GT(pv.rows_seen, 0u);
  }

  // The blocking wrapper with identical options lands on the identical
  // ranking — Recommend() really is a thin wrapper over the session.
  SeeDBOptions options;
  options.k = 3;
  options.strategy = ExecutionStrategy::kPhasedSharedScan;
  options.online_pruning = pruning;
  auto blocking =
      seedb.Recommend(workload.table_name, workload.selection, options);
  ASSERT_TRUE(blocking.ok());
  ASSERT_EQ(blocking->top_views.size(), set->top_views.size());
  for (size_t i = 0; i < set->top_views.size(); ++i) {
    EXPECT_EQ(blocking->top_views[i].view(), set->top_views[i].view());
  }
  EXPECT_EQ(blocking->online_pruned_views.size(),
            set->online_pruned_views.size());
}

// --- Early stop (§3.3 endgame): CI-stable top-k ends the scan. ---

TEST(SessionEarlyStopTest, EarlyStopMatchesExhaustiveOnLaserwave) {
  db::Catalog catalog;
  ASSERT_TRUE(
      catalog.AddTable("sales", ::seedb::testing::MakeLaserwaveTable()).ok());
  db::Engine engine(&catalog);
  SeeDB seedb(&engine);
  auto laserwave = db::PredicatePtr(db::Eq("product", db::Value("Laserwave")));

  SeeDBRequest exhaustive("sales");
  exhaustive.Where(laserwave).WithTopK(1).WithPhases(9);
  auto truth = seedb.Run(exhaustive);
  ASSERT_TRUE(truth.ok()) << truth.status();
  ASSERT_FALSE(truth->profile.early_stopped);

  // Loose delta and a tight utility range shrink the Hoeffding interval
  // enough to separate the top view after a few boundaries.
  SeeDBRequest stopping("sales");
  stopping.Where(laserwave).WithTopK(1).WithPhases(9).WithEarlyStop(2);
  {
    SeeDBOptions opts = stopping.options();
    opts.online_pruning.delta = 0.5;
    opts.online_pruning.utility_range = 0.05;
    stopping.WithOptions(opts);
  }
  auto stopped = seedb.Run(stopping);
  ASSERT_TRUE(stopped.ok()) << stopped.status();
  EXPECT_TRUE(stopped->profile.early_stopped);
  EXPECT_LT(stopped->profile.phases_executed, 9u);

  // The early-stopped top-k names the same view the exhaustive scan does.
  ASSERT_FALSE(stopped->top_views.empty());
  EXPECT_EQ(stopped->top_views[0].view(), truth->top_views[0].view());
}

// --- Per-session memory budgets (SeeDBOptions::memory_budget_bytes). ---

TEST_F(SessionTest, MemoryBudgetExceededMidScanIsACleanError) {
  SeeDB seedb(engine_);
  // A budget no real aggregation state fits: the first phase trips it.
  auto session = seedb.Open(PhasedRequest(4).WithMemoryBudget(64));
  ASSERT_TRUE(session.ok()) << session.status();
  auto update = session->Next();
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(session->budget_exceeded());
  EXPECT_TRUE(session->done());
  // Further Next()s are a clean no-more-work, not another error.
  auto drained = session->Next();
  ASSERT_TRUE(drained.ok());
  EXPECT_FALSE(drained->has_value());

  // Finish() assembles partial results over the one phase that ran.
  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_TRUE(set->profile.budget_exceeded);
  EXPECT_EQ(set->profile.phases_executed, 1u);
  EXPECT_LT(set->profile.rows_scanned, 8000u);
  EXPECT_FALSE(set->top_views.empty());

  // The engine is unharmed: a budget-free run still works.
  auto fresh = seedb.Run(PhasedRequest(4));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->profile.budget_exceeded);
}

TEST_F(SessionTest, GenerousMemoryBudgetNeverTriggers) {
  SeeDB seedb(engine_);
  auto set = seedb.Run(PhasedRequest(4).WithMemoryBudget(1ull << 30));
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_FALSE(set->profile.budget_exceeded);
  EXPECT_EQ(set->profile.phases_executed, 4u);
}

TEST_F(SessionTest, BudgetStopsTheSilentFinishDrainToo) {
  SeeDB seedb(engine_);
  // Finish() without any Next(): the drain itself must respect the budget
  // instead of scanning to the end.
  auto session = seedb.Open(PhasedRequest(8).WithMemoryBudget(64));
  ASSERT_TRUE(session.ok());
  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_TRUE(set->profile.budget_exceeded);
  EXPECT_EQ(set->profile.phases_executed, 1u);
  EXPECT_TRUE(session->budget_exceeded());
}

// Budget enforcement is strategy-complete: the blocking strategies return
// the same graceful OutOfRange from Next() as the phased path, and Finish()
// assembles partial results with profile.budget_exceeded set.
TEST_F(SessionTest, BlockingStrategiesEnforceTheBudgetToo) {
  SeeDB seedb(engine_);
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kPerQuery, ExecutionStrategy::kPhasedSharedScan}) {
    SeeDBRequest request =
        SeeDBRequest("synth").Where(selection_).WithTopK(3).WithMemoryBudget(
            64);
    {
      SeeDBOptions opts = request.options();
      opts.strategy = strategy;
      opts.online_pruning.num_phases = 1;
      request.WithOptions(opts);
    }
    auto session = seedb.Open(request);
    ASSERT_TRUE(session.ok()) << session.status();
    auto update = session->Next();
    ASSERT_FALSE(update.ok())
        << ExecutionStrategyToString(strategy) << " ignored the budget";
    EXPECT_EQ(update.status().code(), StatusCode::kOutOfRange);
    EXPECT_TRUE(session->budget_exceeded());
    EXPECT_TRUE(session->done());
    auto set = session->Finish();
    ASSERT_TRUE(set.ok()) << set.status();
    EXPECT_TRUE(set->profile.budget_exceeded);

    // A generous budget under the same strategy is untouched.
    SeeDBRequest fine =
        SeeDBRequest("synth").Where(selection_).WithTopK(3).WithMemoryBudget(
            1ull << 30);
    {
      SeeDBOptions opts = fine.options();
      opts.strategy = strategy;
      opts.online_pruning.num_phases = 1;
      fine.WithOptions(opts);
    }
    auto ok = seedb.Run(fine);
    ASSERT_TRUE(ok.ok()) << ok.status();
    EXPECT_FALSE(ok->profile.budget_exceeded);
    EXPECT_FALSE(ok->top_views.empty());
  }
}

TEST_F(SessionTest, FusedProfileReportsVectorizedMorsels) {
  SeeDB seedb(engine_);
  SeeDBRequest request = SeeDBRequest("synth").Where(selection_).WithTopK(3);
  {
    SeeDBOptions opts = request.options();
    opts.strategy = ExecutionStrategy::kPhasedSharedScan;
    opts.online_pruning.num_phases = 1;
    request.WithOptions(opts);
  }
  auto set = seedb.Run(request);
  ASSERT_TRUE(set.ok()) << set.status();
  // Synthetic dimensions are small categorical dictionaries: the fused scan
  // must take the vectorized inner loop for every morsel.
  EXPECT_GT(set->profile.vectorized_morsels, 0u);

  // Per-query runs go through the same scan, one batch per query, and their
  // profile sums those batches' morsels.
  auto per_query = seedb.Run(SeeDBRequest("synth").Where(selection_));
  ASSERT_TRUE(per_query.ok());
  EXPECT_GT(per_query->profile.vectorized_morsels, 0u);
}

TEST_F(SessionTest, ProgressUpdatesCarryTheMemoryFootprint) {
  SeeDB seedb(engine_);
  for (const SeeDBRequest& request :
       {PhasedRequest(3), SeeDBRequest("synth").Where(selection_).WithTopK(3)
                              .WithStrategy(ExecutionStrategy::kPerQuery)}) {
    SCOPED_TRACE(ExecutionStrategyToString(request.options().strategy));
    auto session = seedb.Open(request);
    ASSERT_TRUE(session.ok());
    auto update = session->Next();
    ASSERT_TRUE(update.ok());
    ASSERT_TRUE(update->has_value());
    EXPECT_GT((*update)->memory_bytes, 0u);
    EXPECT_EQ((*update)->memory_bytes, session->memory_bytes());
    ASSERT_TRUE(session->Finish().ok());
  }
}

// The phase that consumes the last row scores the views once: its update
// carries the final utilities with zero-width bounds, and Finish() returns
// those results without finalizing any scan again.
TEST_F(SessionTest, LastPhaseScoresTheViewsOnce) {
  SeeDB seedb(engine_);
  for (const SeeDBRequest& request :
       {PhasedRequest(4), SeeDBRequest("synth").Where(selection_).WithTopK(3)
                              .WithStrategy(ExecutionStrategy::kPerQuery)}) {
    SCOPED_TRACE(ExecutionStrategyToString(request.options().strategy));
    auto session = seedb.Open(request);
    ASSERT_TRUE(session.ok());
    std::optional<ProgressUpdate> last;
    while (true) {
      auto update = session->Next();
      ASSERT_TRUE(update.ok()) << update.status();
      if (!update->has_value()) break;
      last = **update;
    }
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->ci_half_width, 0.0);

    const db::EngineStatsSnapshot before = engine_->stats();
    auto set = session->Finish();
    ASSERT_TRUE(set.ok()) << set.status();
    const db::EngineStatsSnapshot after = engine_->stats();
    EXPECT_EQ(after.table_scans, before.table_scans);
    EXPECT_EQ(after.queries_executed, before.queries_executed);

    ASSERT_EQ(last->top_views.size(), set->top_views.size());
    for (size_t i = 0; i < set->top_views.size(); ++i) {
      EXPECT_EQ(last->top_views[i].view, set->top_views[i].view());
      EXPECT_EQ(last->top_views[i].utility, set->top_views[i].utility());
      EXPECT_EQ(last->top_views[i].lower, last->top_views[i].utility);
      EXPECT_EQ(last->top_views[i].upper, last->top_views[i].utility);
    }
  }
}

// --- ProgressSink: push-style updates. ---

TEST_F(SessionTest, ProgressSinkSeesEveryPhaseIncludingFinishDrain) {
  SeeDB seedb(engine_);
  auto session = seedb.Open(PhasedRequest(5));
  ASSERT_TRUE(session.ok());
  std::vector<ProgressUpdate> pushed;
  session->SetProgressSink(
      [&pushed](const ProgressUpdate& u) { pushed.push_back(u); });

  // Two polled phases, then Finish() drains the remaining three — the sink
  // must see all five, in order, with the drained phases' provisional
  // rankings included (a sink-less Finish drain skips estimate collection).
  ASSERT_TRUE(session->Next().ok());
  ASSERT_TRUE(session->Next().ok());
  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  ASSERT_EQ(pushed.size(), 5u);
  for (size_t i = 0; i < pushed.size(); ++i) {
    EXPECT_EQ(pushed[i].phase, i + 1);
    EXPECT_FALSE(pushed[i].top_views.empty()) << "phase " << i + 1;
  }
  EXPECT_EQ(set->profile.phases_executed, 5u);
}

TEST_F(SessionTest, ProgressSinkFiresOnceForBlockingStrategies) {
  SeeDB seedb(engine_);
  auto session = seedb.Open(
      SeeDBRequest("synth").Where(selection_).WithTopK(2).WithPhases(1));
  ASSERT_TRUE(session.ok());
  size_t pushes = 0;
  ProvisionalView first_top;
  session->SetProgressSink([&](const ProgressUpdate& u) {
    ++pushes;
    if (!u.top_views.empty()) first_top = u.top_views[0];
  });
  auto set = session->Finish();  // no Next() at all
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(pushes, 1u);
  ASSERT_FALSE(set->top_views.empty());
  EXPECT_EQ(first_top.view, set->top_views[0].view());
}

// --- Resume-after-cancel: the session keeps its merged aggregates. ---

class SessionResumeTest : public ::testing::Test {
 protected:
  SessionResumeTest() : engine_(&catalog_) {
    Status added =
        catalog_.AddTable("sales", ::seedb::testing::MakeLaserwaveTable());
    EXPECT_TRUE(added.ok());
    laserwave_ = db::PredicatePtr(db::Eq("product", db::Value("Laserwave")));
  }

  SeeDBRequest Request(size_t phases) {
    return SeeDBRequest("sales").Where(laserwave_).WithTopK(2).WithPhases(
        phases);
  }

  db::Catalog catalog_;
  db::Engine engine_;
  db::PredicatePtr laserwave_;
};

TEST_F(SessionResumeTest, CancelThenResumeEqualsUninterruptedRun) {
  // The phased run is cancelled between phases 1 and 6. A per-query run is
  // one phase, so its cancel lands after the work and the resume re-arms a
  // run with nothing left to scan.
  for (const SeeDBRequest& request :
       {Request(6), SeeDBRequest("sales").Where(laserwave_).WithTopK(2)
                        .WithStrategy(ExecutionStrategy::kPerQuery)}) {
    SCOPED_TRACE(ExecutionStrategyToString(request.options().strategy));
    const size_t phases =
        request.options().strategy == ExecutionStrategy::kPerQuery ? 1 : 6;
    SeeDB seedb(&engine_);
    auto truth = seedb.Run(request);
    ASSERT_TRUE(truth.ok()) << truth.status();

    auto session = seedb.Open(request);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->Next().ok());
    session->Cancel();
    EXPECT_TRUE(session->done());
    {
      auto drained = session->Next();
      ASSERT_TRUE(drained.ok());
      EXPECT_FALSE(drained->has_value());
    }

    ASSERT_TRUE(session->Resume().ok());
    EXPECT_FALSE(session->cancelled());
    EXPECT_EQ(session->done(), phases == 1);
    size_t more = 0;
    while (true) {
      auto update = session->Next();
      ASSERT_TRUE(update.ok());
      if (!update->has_value()) break;
      ++more;
    }
    EXPECT_EQ(more, phases - 1);  // phases 2..6 after the resume

    auto set = session->Finish();
    ASSERT_TRUE(set.ok()) << set.status();
    EXPECT_FALSE(set->profile.cancelled);
    EXPECT_EQ(set->profile.phases_executed, phases);
    EXPECT_EQ(set->profile.rows_scanned, truth->profile.rows_scanned);
    ASSERT_EQ(set->top_views.size(), truth->top_views.size());
    for (size_t i = 0; i < set->top_views.size(); ++i) {
      EXPECT_EQ(set->top_views[i].view(), truth->top_views[i].view());
      // Bit-identical: the resumed scan covered exactly the same rows in the
      // same single-worker order as the uninterrupted one.
      EXPECT_EQ(set->top_views[i].utility(), truth->top_views[i].utility());
    }
  }
}

TEST_F(SessionResumeTest, CancelBeforeFirstPhaseThenResumeRunsInFull) {
  SeeDB seedb(&engine_);
  auto truth = seedb.Run(Request(4));
  ASSERT_TRUE(truth.ok());

  auto session = seedb.Open(Request(4));
  ASSERT_TRUE(session.ok());
  session->Cancel();
  ASSERT_TRUE(session->Resume().ok());
  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_FALSE(set->profile.cancelled);
  EXPECT_EQ(set->profile.phases_executed, 4u);
  ASSERT_FALSE(set->top_views.empty());
  EXPECT_EQ(set->top_views[0].view(), truth->top_views[0].view());
  EXPECT_EQ(set->top_views[0].utility(), truth->top_views[0].utility());
}

TEST_F(SessionResumeTest, ResumeDemandsACancelledUnfinishedSession) {
  SeeDB seedb(&engine_);
  auto session = seedb.Open(Request(4));
  ASSERT_TRUE(session.ok());
  // Not cancelled: refused.
  EXPECT_FALSE(session->Resume().ok());
  session->Cancel();
  ASSERT_TRUE(session->Finish().ok());
  // Finished: refused (even though it was cancelled).
  EXPECT_FALSE(session->Resume().ok());

  // A cancel that landed before the first Next() of a one-phase run just
  // re-arms it.
  auto unstarted = seedb.Open(
      SeeDBRequest("sales").Where(laserwave_).WithTopK(1).WithPhases(1));
  ASSERT_TRUE(unstarted.ok());
  unstarted->Cancel();
  ASSERT_TRUE(unstarted->Resume().ok());
  auto set = unstarted->Finish();
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(set->profile.cancelled);
  EXPECT_FALSE(set->top_views.empty());
}

TEST_F(SessionTest, MidScanCancelFromAnotherThreadThenResumeMatchesSerial) {
  SeeDB seedb(engine_);
  auto truth = seedb.Run(PhasedRequest(8));
  ASSERT_TRUE(truth.ok());
  const std::vector<std::string> expected = TopIds(*truth);

  auto session = seedb.Open(PhasedRequest(8));
  ASSERT_TRUE(session.ok());
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load()) std::this_thread::yield();
    session->Cancel();
  });
  while (true) {
    started.store(true);
    auto update = session->Next();
    ASSERT_TRUE(update.ok());
    if (!update->has_value()) break;
  }
  canceller.join();

  // Wherever the cancel landed — mid-phase, between phases, or after the
  // last one — resuming (when still possible) and draining must land on
  // the serial run's ranking, with every row covered exactly once.
  if (session->cancelled()) {
    ASSERT_TRUE(session->Resume().ok());
    while (true) {
      auto update = session->Next();
      ASSERT_TRUE(update.ok());
      if (!update->has_value()) break;
    }
  }
  auto set = session->Finish();
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_FALSE(set->profile.cancelled);
  EXPECT_EQ(set->profile.rows_scanned, 8000u);
  EXPECT_EQ(set->profile.phases_executed, 8u);
  EXPECT_EQ(TopIds(*set), expected);
  for (size_t i = 0; i < set->top_views.size(); ++i) {
    EXPECT_NEAR(set->top_views[i].utility(), truth->top_views[i].utility(),
                1e-9);
  }
}

TEST(SessionEarlyStopTest, DeltaZeroNeverStopsEarly) {
  db::Catalog catalog;
  ASSERT_TRUE(
      catalog.AddTable("sales", ::seedb::testing::MakeLaserwaveTable()).ok());
  db::Engine engine(&catalog);
  SeeDB seedb(&engine);

  SeeDBRequest request("sales");
  request.Where(db::PredicatePtr(db::Eq("product", db::Value("Laserwave"))))
      .WithTopK(1)
      .WithPhases(6)
      .WithEarlyStop(1);
  SeeDBOptions opts = request.options();
  opts.online_pruning.delta = 0.0;  // infinite intervals: provably never
  request.WithOptions(opts);
  auto set = seedb.Run(request);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(set->profile.early_stopped);
  EXPECT_EQ(set->profile.phases_executed, 6u);
}

}  // namespace
}  // namespace seedb::core
