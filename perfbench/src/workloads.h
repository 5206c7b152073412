// The workloads of the benchmark (BENCH.md says why each exists) and
// the in-process replays their traced runs use to time single layers.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/session.h"
#include "db/engine.h"
#include "report.h"
#include "server/server.h"
#include "spans.h"
#include "wire_loop.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the measured window(s).
  double seconds = 10.0;
  bool trace = false;
  /// Where the run writes its socket and trace file (inside the checkout).
  std::string out_dir = ".";
};

RunResult RunScanCold(const RunOptions& options);
RunResult RunDemoSql(const RunOptions& options);

/// Digest of the inputs a workload generates for `seed` (tables, the first
/// queries): the same seed must give the same digest.
uint64_t InputDigest(const std::string& workload, uint64_t seed);
uint64_t ScanColdInputDigest(uint64_t seed);
uint64_t DemoSqlInputDigest(uint64_t seed);

// --- shared helpers ---------------------------------------------------------

/// Calls `setup(last)` `repeats` times and appends the seconds each
/// returns to `seconds`. Each call builds the served state from scratch and
/// returns its own timed seconds (input generation stays outside the timed
/// part); `last` is true on the final call. A run times some set-ups before
/// its measured window (the last of them serves it) and some after it, and
/// reports their median as setup_s (SetSetupSeconds): set-ups timed in one
/// burst see only the host's speed of that moment, while the window's own
/// figures span the whole run.
void TimeSetups(size_t repeats, const std::function<double(bool last)>& setup,
                std::vector<double>* seconds);

/// Sets setup_s to the median of `seconds`.
void SetSetupSeconds(const std::vector<double>& seconds, size_t before,
                     RunResult* r);

/// Planning layers timed by calling them one by one, as SeeDB::Open does.
struct PlanReplay {
  double parse_us = 0.0;
  double generate_ms = 0.0;
  double plan_ms = 0.0;
  size_t views = 0;
  size_t queries = 0;
};

/// Times SeeDBRequest::FromSql, GenerateViews and catalog stats +
/// BuildExecutionPlan for `sql` under `options` (spans under `parent`), and
/// hands back the request and plan.
seedb::Result<PlanReplay> ReplayPlanning(seedb::db::Engine* engine,
                                         const std::string& sql,
                                         const seedb::core::SeeDBOptions& options,
                                         SpanLog* spans, uint64_t session,
                                         int parent,
                                         seedb::core::ExecutionPlan* plan);

/// Shared-scan layer timed alone: the plan's queries through
/// Engine::BeginShared and one RunPhase per phase over the phase ranges the
/// phased executor uses, retiring each query before the phase after the
/// one at which the session's pruner retired all of its views.
struct ScanReplay {
  double begin_ms = 0.0;
  std::vector<double> phase_ms;
  uint64_t rows_scanned = 0;
};
seedb::Result<ScanReplay> ReplaySharedScan(
    seedb::db::Engine* engine, const seedb::core::ExecutionPlan& plan,
    size_t phases, size_t threads,
    const std::vector<seedb::core::OnlinePrunedView>& pruned, SpanLog* spans,
    uint64_t session, int parent);

/// Catalog, engine and (wire workloads) server. Members are destroyed in
/// reverse order, so the server stops before the engine goes.
struct Served {
  seedb::db::Catalog catalog;
  std::unique_ptr<seedb::db::Engine> engine;
  std::unique_ptr<seedb::server::RecommendationServer> server;
};

/// Starts `served`'s server on `socket` with `workers` workers; returns the
/// milliseconds it took. Failures count against `r`.
double StartServer(Served* served, const std::string& socket, size_t workers,
                   RunResult* r);

/// Runs the `open` lines closed-loop over `connections` fresh connections
/// to `socket` (set-up work); a failed session counts against `r`.
void RunClosed(const std::string& socket, const std::vector<WireSession>& sessions,
               size_t connections, RunResult* r);

/// Client-side spans of a finished wire session under a `session` root:
/// open (sent to ack), first_frame_wait (ack to first push frame), push_gap
/// (between push frames), finish (finish sent to result).
void AddWireSpans(const WireSession& s, SpanLog* spans);

/// Client-side wire metrics of the finished sessions: open ack, push gap
/// and finish round trip means, bytes received per session and the
/// client's JSON parse cost per frame.
void SetWireClientMetrics(const std::vector<const WireSession*>& done,
                          const WireLoop& loop, RunResult* r);

/// One request (an `open` line) replayed in-process on `engine`: its
/// planning layers timed one by one, the session itself with every update
/// and the result encoded as the server encodes its frames and parsed back,
/// then the plan through the shared scan alone (ReplaySharedScan).
struct InProcessReplay {
  PlanReplay plan;
  double open_ms = 0.0;
  std::vector<double> next_ms;
  double finish_ms = 0.0;
  /// Frames encoded (progress updates and the result), their encode and
  /// parse-back time, and their bytes with newlines.
  size_t frames = 0;
  double encode_us_total = 0.0;
  double parse_us_total = 0.0;
  uint64_t bytes = 0;
  std::vector<RankedView> top;
  ScanReplay scan;
};
seedb::Result<InProcessReplay> ReplayInProcess(seedb::db::Engine* engine,
                                               const std::string& open_line,
                                               SpanLog* spans, uint64_t session);

/// Planning, session, encoding and shared-scan layer metrics: means over
/// `replays`.
void SetReplayMetrics(const std::vector<InProcessReplay>& replays, RunResult* r);

/// Wall time the engine spent in shared-scan phases since the metrics
/// registry was last reset (the `engine.phase.latency_us` histogram sum).
double EnginePhaseMs();

/// Sets db.shared_scan.wall_share: EnginePhaseMs() over the summed wall
/// time `session_ms` of the window's sessions.
void SetScanShare(const std::vector<double>& session_ms, RunResult* r);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& v);

/// Wall time of `fn` in milliseconds.
double TimeMs(const std::function<void()>& fn);

/// Server histogram means (us; their p95s are power-of-two bucket bounds,
/// too coarse to compare) and the busy-shed counter, from the
/// `{"op":"metrics"}` frame of the server at `unix_path`; 0 when absent.
struct ServerMetrics {
  double outbox_flush_us_mean = 0.0;
  double tick_lag_us_mean = 0.0;
  double busy_sheds = 0.0;
};
seedb::Result<ServerMetrics> FetchServerMetrics(const std::string& unix_path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
