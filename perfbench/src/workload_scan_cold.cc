// scan-cold: one closed-loop caller drives in-process sessions through
// SeeDB::Open / Next / Finish, every session with its own conjunctive
// selection under the table's planted deviation, so the phased shared scan,
// the vec/SIMD kernels and the phase-boundary pruning (which retires most
// views) do nearly all the work and the result cache only ever misses and
// inserts. See BENCH.md.

#include <thread>

#include "checks.h"
#include "data/synthetic.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "server/json.h"
#include "server/protocol.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using seedb::Result;
namespace core = seedb::core;
namespace data = seedb::data;
namespace db = seedb::db;

namespace {

/// From-scratch set-ups before and after the measured window (TimeSetups).
constexpr size_t kSetupsBefore = 3;
constexpr size_t kSetupsAfter = 2;
const TableShape kShape{"scan", 300000, 8, 3, 16, 3};
constexpr size_t kPhases = 10;
/// The planted deviation shows in two views (SUM and AVG of m0 by dim1);
/// the rest of the top-k would be noise-level views the CI pruner cannot
/// tell apart.
constexpr size_t kTopK = 2;
/// Hoeffding range of the CI pruner. The default, auto-calibrated from the
/// EMD of 16 groups (15), keeps every interval wider than the utilities
/// themselves (0.14 at the top) for all 10 phases, so nothing would ever
/// retire; 0.1 is the accuracy-vs-latency dial the pruning bench also
/// turns.
constexpr double kUtilityRange = 0.1;
constexpr double kMinSelectivity = 0.02;
constexpr double kMaxSelectivity = 0.30;
/// Small enough that the cache fills within a few hundred sessions and
/// then evicts, so its size, and peak_rss_mb, stop growing with the
/// session count.
constexpr size_t kCacheBudgetBytes = 16u << 20;
/// Sessions rerun unpruned after the window to check answers.
constexpr size_t kCheckEvery = 16;
/// Traced runs replay the layers of every this-many-th traced session.
constexpr size_t kReplayEvery = 8;
constexpr uint64_t kWarmupStream = 1;
constexpr uint64_t kQueryStream = 2;

size_t Parallelism() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

Result<data::SyntheticDataset> GenerateTable(uint64_t seed) {
  return data::GenerateSynthetic(ShapeSpec(kShape, seed));
}

/// The session's request as an `open` line: the same decoding the server
/// applies gives the in-process request and its replays one definition.
std::string OpenLine(uint64_t id, const std::string& sql) {
  seedb::server::OpenSpec spec;
  spec.sql = sql;
  spec.k = kTopK;
  spec.phases = kPhases;
  spec.pruner = "ci";
  spec.utility_range = kUtilityRange;
  spec.parallelism = Parallelism();
  return seedb::server::OpenRequestToJson("s" + std::to_string(id), spec).Dump();
}

Result<core::SeeDBRequest> SessionRequest(const std::string& sql) {
  SEEDB_ASSIGN_OR_RETURN(seedb::server::JsonValue open,
                         seedb::server::ParseJson(OpenLine(0, sql)));
  return seedb::server::OpenRequestFromJson(open);
}

/// The unpruned reference: every view ranked, same phases, no pruner.
core::SeeDBOptions ReferenceOptions(core::SeeDBOptions o) {
  o.k = 1u << 20;
  o.online_pruning.pruner = core::OnlinePruner::kNone;
  return o;
}

struct Measured {
  std::string sql;
  double first_frame_ms = 0.0;
  double final_ms = 0.0;
  std::vector<double> next_ms;
  double open_ms = 0.0;
  double finish_ms = 0.0;
  bool traced = false;
  std::vector<RankedView> top;
  core::ExecutionProfile profile;
};

/// Runs one session; spans (when `spans` is enabled) under a `session`
/// root.
Result<Measured> RunSession(core::SeeDB* seedb, const std::string& sql,
                            SpanLog* spans, uint64_t id) {
  Measured m;
  m.sql = sql;
  m.traced = spans->enabled();
  SEEDB_ASSIGN_OR_RETURN(core::SeeDBRequest request, SessionRequest(sql));
  ScopedSpan root(spans, "session", id, -1);
  const int64_t t0 = NowNs();
  Result<core::RecommendationSession> session = [&] {
    ScopedSpan s(spans, "open", id, root.index());
    return seedb->Open(request);
  }();
  m.open_ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!session.ok()) return session.status();
  for (;;) {
    const int64_t b = NowNs();
    Result<std::optional<core::ProgressUpdate>> update = [&] {
      ScopedSpan s(spans, "next", id, root.index());
      return session->Next();
    }();
    const int64_t e = NowNs();
    if (!update.ok()) return update.status();
    if (!update->has_value()) break;
    m.next_ms.push_back(static_cast<double>(e - b) / 1e6);
    if (m.first_frame_ms == 0.0) m.first_frame_ms = static_cast<double>(e - t0) / 1e6;
  }
  const int64_t f0 = NowNs();
  Result<core::RecommendationSet> set = [&] {
    ScopedSpan s(spans, "finish", id, root.index());
    return session->Finish();
  }();
  const int64_t f1 = NowNs();
  if (!set.ok()) return set.status();
  m.finish_ms = static_cast<double>(f1 - f0) / 1e6;
  m.final_ms = static_cast<double>(f1 - t0) / 1e6;
  m.top = TopK(*set);
  m.profile = set->profile;
  return m;
}

/// Builds the served state from scratch; returns the timed seconds.
double Setup(uint64_t seed, Served* out, RunResult* r, bool keep_layers) {
  Result<data::SyntheticDataset> dataset = GenerateTable(seed);
  if (!dataset.ok()) {
    r->Fail("table generation: " + dataset.status().ToString());
    return 0.0;
  }
  const int64_t t0 = NowNs();
  const double load_ms = TimeMs([&] {
    auto st = out->catalog.AddTable(kShape.name, std::move(dataset->table));
    if (!st.ok()) r->Fail("AddTable: " + st.ToString());
  });
  const double stats_ms = TimeMs([&] {
    auto st = out->catalog.GetStats(kShape.name);
    if (!st.ok()) r->Fail("GetStats: " + st.status().ToString());
  });
  out->engine = std::make_unique<db::Engine>(&out->catalog);
  out->engine->EnableResultCache(kCacheBudgetBytes);
  core::SeeDB seedb(out->engine.get());
  Rng rng = StreamRng(seed, kWarmupStream);
  SpanLog no_spans;
  const double warm_ms = TimeMs([&] {
    auto m = RunSession(&seedb,
                        DrawConjunctiveQuery(&rng, kShape, kMinSelectivity,
                                             kMaxSelectivity),
                        &no_spans, 0);
    if (!m.ok()) r->Fail("warm-up session: " + m.status().ToString());
  });
  const double total = static_cast<double>(NowNs() - t0) / 1e9;
  if (keep_layers) {
    r->Set("data.load_ms", load_ms);
    r->Set("db.catalog.stats_ms", stats_ms);
    r->Set("core.session.warmup_ms", warm_ms);
  }
  return total;
}

}  // namespace

RunResult RunScanCold(const RunOptions& opt) {
  RunResult r;
  r.workload = "scan-cold";
  r.traced = opt.trace;
  r.Note("table " + kShape.name + ": " + std::to_string(kShape.rows) + " rows x " +
         std::to_string(kShape.dims) + " dims (dim0 " +
         std::to_string(kShape.selector_cardinality) + " values, the others " +
         std::to_string(kShape.cardinality) + ") x " + std::to_string(kShape.measures) +
         " measures");
  r.Note("closed loop, 1 caller, in-process; parallelism " +
         std::to_string(Parallelism()) + ", " + std::to_string(kPhases) +
         " phases, CI pruner, no early stop, result cache on");

  // Set-up: built kSetupsBefore times from scratch; the last one serves.
  std::unique_ptr<Served> served;
  std::vector<double> setup_seconds;
  TimeSetups(kSetupsBefore, [&](bool last) {
    served = std::make_unique<Served>();
    return Setup(opt.seed, served.get(), &r, last);
  }, &setup_seconds);
  if (r.failed > 0) {
    r.correct = false;
    return r;
  }
  db::Engine* engine = served->engine.get();
  core::SeeDB seedb(engine);

  // Measured window: sessions back to back until the deadline.
  Rng rng = StreamRng(opt.seed, kQueryStream);
  std::vector<Measured> done;
  SpanLog spans(opt.trace);
  const db::EngineStatsSnapshot before = engine->stats();
  seedb::obs::Registry::Global().Reset();
  seedb::obs::Counter* morsels =
      seedb::obs::Registry::Global().GetCounter("engine.scan.morsels");
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  while (NowNs() < deadline) {
    const uint64_t id = done.size() + 1;
    // Traced runs trace every other session; the untraced ones in between
    // measure what tracing costs.
    SpanLog session_spans(opt.trace && id % 2 == 0);
    const std::string sql =
        DrawConjunctiveQuery(&rng, kShape, kMinSelectivity, kMaxSelectivity);
    ++r.attempted;
    Result<Measured> m = RunSession(&seedb, sql, &session_spans, id);
    if (!m.ok()) {
      r.Fail("session " + std::to_string(id) + ": " + m.status().ToString());
      continue;
    }
    spans.Append(std::move(session_spans));
    done.push_back(std::move(*m));
  }
  const double window_s = static_cast<double>(NowNs() - start) / 1e9;
  const db::EngineStatsSnapshot after = engine->stats();
  const uint64_t window_morsels = morsels->Value();

  std::vector<double> first, final_ms;
  for (const Measured& m : done) {
    first.push_back(m.first_frame_ms);
    final_ms.push_back(m.final_ms);
  }
  r.SetPercentiles("first_frame_ms", first);
  r.SetPercentiles("final_topk_ms", final_ms);
  SetScanShare(final_ms, &r);
  r.Set("sessions_per_s", static_cast<double>(done.size()) / window_s,
        std::to_string(done.size()) + " sessions in " + std::to_string(window_s) +
            " s, closed loop");

  // Answers: every kCheckEvery-th session rerun unpruned on an engine
  // without the cache; each returned view's utility must equal the
  // reference's.
  db::Engine reference_engine(&served->catalog);
  core::SeeDB reference(&reference_engine);
  double recall_sum = 0.0;
  size_t checked = 0;
  for (size_t i = 0; i < done.size(); i += kCheckEvery) {
    Result<core::SeeDBRequest> request = SessionRequest(done[i].sql);
    if (!request.ok()) continue;
    request->WithOptions(ReferenceOptions(request->options()));
    Result<core::RecommendationSet> ref = reference.Run(*request);
    if (!ref.ok()) {
      r.Fail("reference run: " + ref.status().ToString());
      continue;
    }
    const std::string diff = CheckUtilitiesMatch(done[i].top, *ref);
    if (!diff.empty()) {
      r.correct = false;
      r.Fail("session " + std::to_string(i + 1) + ": " + diff);
    }
    recall_sum += TopKRecall(done[i].top, TopK(*ref), kTopK);
    ++checked;
  }
  r.Note("answers checked on " + std::to_string(checked) +
         " sessions against an unpruned, uncached rerun");

  // Layer counters of the window (engine stats and run profiles).
  const double n = std::max<double>(1.0, static_cast<double>(done.size()));
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  double pruned = 0.0, executed = 0.0, queries = 0.0, scans = 0.0;
  for (const Measured& m : done) {
    pruned += static_cast<double>(m.profile.views_pruned_online);
    executed += static_cast<double>(m.profile.views_executed);
    queries += static_cast<double>(m.profile.queries_issued);
    scans += static_cast<double>(m.profile.table_scans);
  }
  r.Set("core.online_pruning.pruned_frac", executed > 0 ? pruned / executed : 0.0);
  r.Set("core.online_pruning.topk_recall", checked > 0 ? recall_sum / checked : 0.0,
        std::to_string(checked) + " sessions");
  r.Set("db.scan_cache.hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  r.Set("db.scan_cache.bytes", static_cast<double>(after.cache_bytes));
  r.Set("db.scan_cache.evictions",
        static_cast<double>(after.cache_evictions - before.cache_evictions));
  r.Set("db.engine.queries_per_session", queries / n);
  r.Set("db.engine.table_scans_per_session", scans / n);
  r.Set("db.engine.shared_scan_batches_per_session",
        static_cast<double>(after.shared_scan_batches - before.shared_scan_batches) / n);
  if (window_morsels > 0) {
    r.Set("db.vec.vectorized_morsel_frac",
          static_cast<double>(after.vectorized_morsels - before.vectorized_morsels) /
              static_cast<double>(window_morsels));
    r.Set("db.vec.simd_morsel_frac",
          static_cast<double>(after.simd_morsels - before.simd_morsels) /
              static_cast<double>(window_morsels));
  }

  if (opt.trace) {
    // Layer replays of a sample of the traced sessions, on an engine
    // without the cache (the served one now holds their answers), then the
    // session timings of every traced session.
    db::Engine replay_engine(&served->catalog);
    std::vector<InProcessReplay> replays;
    std::vector<double> traced_final, untraced_final, open, first_next, next, finish;
    size_t traced_seen = 0;
    for (size_t i = 0; i < done.size(); ++i) {
      const Measured& m = done[i];
      (m.traced ? traced_final : untraced_final).push_back(m.final_ms);
      if (!m.traced) continue;
      open.push_back(m.open_ms);
      finish.push_back(m.finish_ms);
      if (!m.next_ms.empty()) first_next.push_back(m.next_ms.front());
      next.insert(next.end(), m.next_ms.begin(), m.next_ms.end());
      if (traced_seen++ % kReplayEvery != 0) continue;
      Result<InProcessReplay> x =
          ReplayInProcess(&replay_engine, OpenLine(i + 1, m.sql), &spans, i + 1);
      if (x.ok()) replays.push_back(std::move(*x));
    }
    SetReplayMetrics(replays, &r);
    r.Set("core.session.open_ms", Mean(open), "traced sessions");
    r.Set("core.session.first_next_ms", Mean(first_next), "traced sessions");
    r.Set("core.session.next_ms", Mean(next), "traced sessions");
    r.Set("core.session.finish_ms", Mean(finish), "traced sessions");
    const double traced_p50 = Percentile(traced_final, 0.5);
    const double untraced_p50 = Percentile(untraced_final, 0.5);
    r.Set("trace.overhead_frac",
          untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0,
          "p50 final latency, traced vs untraced sessions of this run");
  }
  r.Set("peak_rss_mb", PeakRssMb());
  // The later set-ups hold a second table while the served one still
  // lives, so they come after the peak memory is read.
  TimeSetups(kSetupsAfter, [&](bool) {
    Served spare;
    return Setup(opt.seed, &spare, &r, false);
  }, &setup_seconds);
  SetSetupSeconds(setup_seconds, kSetupsBefore, &r);
  r.self_times = spans.SelfTimes("session");
  if (opt.trace && !spans.WriteChromeTrace(opt.out_dir + "/scan-cold.trace.json")) {
    r.Fail("cannot write the trace file");
  }
  return r;
}

uint64_t ScanColdInputDigest(uint64_t seed) {
  Digest d;
  Result<data::SyntheticDataset> dataset = GenerateTable(seed);
  if (!dataset.ok()) return 0;
  d.Add(dataset->table);
  Rng warm = StreamRng(seed, kWarmupStream);
  d.Add(DrawConjunctiveQuery(&warm, kShape, kMinSelectivity, kMaxSelectivity));
  Rng rng = StreamRng(seed, kQueryStream);
  for (int i = 0; i < 256; ++i) {
    d.Add(DrawConjunctiveQuery(&rng, kShape, kMinSelectivity, kMaxSelectivity));
  }
  return d.value();
}

}  // namespace perfbench
