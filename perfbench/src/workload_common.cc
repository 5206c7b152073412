// Helpers shared by the workloads: set-up timing, the layer replays of the
// traced runs, wire-session accounting and the server metrics read-out.

#include <algorithm>

#include "core/query_generator.h"
#include "obs/metrics.h"
#include "server/json.h"
#include "server/client.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using seedb::Result;
using seedb::Status;
namespace core = seedb::core;
namespace db = seedb::db;

double TimeMs(const std::function<void()>& fn) {
  const int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) / 1e6;
}

uint64_t InputDigest(const std::string& workload, uint64_t seed) {
  if (workload == "scan-cold") return ScanColdInputDigest(seed);
  if (workload == "demo-sql") return DemoSqlInputDigest(seed);
  return 0;
}

double EnginePhaseMs() {
  return static_cast<double>(seedb::obs::Registry::Global()
                                 .GetHistogram("engine.phase.latency_us")
                                 ->Snapshot()
                                 .sum_us) /
         1e3;
}

void SetScanShare(const std::vector<double>& session_ms, RunResult* r) {
  double wall = 0.0;
  for (double ms : session_ms) wall += ms;
  r->Set("db.shared_scan.wall_share", wall > 0 ? EnginePhaseMs() / wall : 0.0,
         "engine RunPhase time over the window's summed session wall time");
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void TimeSetups(size_t repeats, const std::function<double(bool last)>& setup,
                std::vector<double>* seconds) {
  for (size_t i = 0; i < repeats; ++i) {
    seconds->push_back(setup(i + 1 == repeats));
  }
}

void SetSetupSeconds(const std::vector<double>& seconds, size_t before,
                     RunResult* r) {
  r->Set("setup_s", Percentile(seconds, 0.5),
         "median of " + std::to_string(seconds.size()) + " set-ups, " +
             std::to_string(before) + " before the window and " +
             std::to_string(seconds.size() - before) + " after it");
}

double StartServer(Served* served, const std::string& socket, size_t workers,
                   RunResult* r) {
  return TimeMs([&] {
    seedb::server::ServerOptions options;
    options.unix_path = socket;
    options.worker_threads = workers;
    served->server = std::make_unique<seedb::server::RecommendationServer>(
        served->engine.get(), options);
    Status st = served->server->Start();
    if (!st.ok()) r->Fail("server start: " + st.ToString());
  });
}

void RunClosed(const std::string& socket, const std::vector<WireSession>& sessions,
               size_t connections, RunResult* r) {
  Result<std::unique_ptr<WireLoop>> loop = WireLoop::Connect(socket, connections);
  if (!loop.ok()) {
    r->Fail("connect: " + loop.status().ToString());
    return;
  }
  size_t next = 0;
  std::deque<WireSession> out;
  const int64_t give_up = NowNs() + 120'000'000'000;
  (*loop)->RunClosedLoop(
      [&]() -> std::optional<WireSession> {
        if (next == sessions.size()) return std::nullopt;
        return sessions[next++];
      },
      give_up, give_up, &out);
  for (const WireSession& s : out) {
    if (s.failed) r->Fail("set-up session " + s.id + ": " + s.error);
  }
}

Result<PlanReplay> ReplayPlanning(db::Engine* engine, const std::string& sql,
                                  const core::SeeDBOptions& options,
                                  SpanLog* spans, uint64_t session, int parent,
                                  core::ExecutionPlan* plan) {
  PlanReplay out;
  int64_t t0 = NowNs();
  Result<core::SeeDBRequest> request = core::SeeDBRequest::FromSql(sql);
  int64_t t1 = NowNs();
  if (!request.ok()) return request.status();
  spans->Add("db.sql.parse", session, parent, t0, t1);
  out.parse_us = static_cast<double>(t1 - t0) / 1e3;

  t0 = NowNs();
  Result<core::GeneratedViews> generated =
      core::GenerateViews(engine, request->table(), request->selection(),
                          options.view_space, options.pruning);
  t1 = NowNs();
  if (!generated.ok()) return generated.status();
  spans->Add("core.query_generator.generate", session, parent, t0, t1);
  out.generate_ms = static_cast<double>(t1 - t0) / 1e6;

  t0 = NowNs();
  Result<const db::TableStats*> stats =
      engine->catalog()->GetStats(request->table());
  if (!stats.ok()) return stats.status();
  Result<core::ExecutionPlan> built =
      core::BuildExecutionPlan(generated->pruning.kept, request->table(),
                               request->selection(), **stats, options.optimizer);
  t1 = NowNs();
  if (!built.ok()) return built.status();
  spans->Add("core.optimizer.plan", session, parent, t0, t1);
  out.plan_ms = static_cast<double>(t1 - t0) / 1e6;
  out.views = built->num_views;
  out.queries = built->num_queries();
  *plan = std::move(*built);
  return out;
}

Result<ScanReplay> ReplaySharedScan(
    db::Engine* engine, const core::ExecutionPlan& plan, size_t phases,
    size_t threads, const std::vector<core::OnlinePrunedView>& pruned,
    SpanLog* spans, uint64_t session, int parent) {
  // Phase after which each view was retired (views never retired: never).
  std::unordered_map<core::ViewDescriptor, size_t, core::ViewDescriptorHash>
      retired_after;
  for (const core::OnlinePrunedView& p : pruned) {
    retired_after[p.view] = p.pruned_at_phase;
  }
  std::vector<db::GroupingSetsQuery> queries;
  // A query retires once every view riding on it has.
  std::vector<size_t> query_retired_after;
  for (const core::PlannedQuery& q : plan.queries) {
    queries.push_back(q.query);
    size_t last = 0;
    for (const core::ViewSlot& slot : q.slots) {
      auto it = retired_after.find(slot.view);
      last = std::max(last, it == retired_after.end() ? phases + 1 : it->second);
    }
    query_retired_after.push_back(last);
  }
  db::SharedScanOptions scan_options;
  scan_options.num_threads = threads;
  const int64_t t0 = NowNs();
  Result<db::SharedScanSession> scan =
      engine->BeginShared(std::move(queries), scan_options);
  if (!scan.ok()) return scan.status();
  const int64_t t1 = NowNs();
  spans->Add("db.shared_scan.begin", session, parent, t0, t1);
  ScanReplay out;
  out.begin_ms = static_cast<double>(t1 - t0) / 1e6;
  const size_t n = scan->num_rows();
  for (size_t p = 0; p < phases; ++p) {
    for (size_t q = 0; q < query_retired_after.size(); ++q) {
      if (query_retired_after[q] <= p && scan->query_active(q)) {
        SEEDB_RETURN_IF_ERROR(scan->DeactivateQuery(q));
      }
    }
    const int64_t b = NowNs();
    SEEDB_RETURN_IF_ERROR(scan->RunPhase(n * p / phases, n * (p + 1) / phases));
    const int64_t e = NowNs();
    spans->Add("db.shared_scan.run_phase", session, parent, b, e);
    out.phase_ms.push_back(static_cast<double>(e - b) / 1e6);
  }
  out.rows_scanned = scan->stats().rows_scanned;
  const int64_t f0 = NowNs();
  SEEDB_RETURN_IF_ERROR(scan->Finalize().status());
  spans->Add("db.shared_scan.finalize", session, parent, f0, NowNs());
  return out;
}

Result<ServerMetrics> FetchServerMetrics(const std::string& unix_path) {
  SEEDB_ASSIGN_OR_RETURN(seedb::server::Client client,
                         seedb::server::Client::ConnectUnix(unix_path));
  SEEDB_ASSIGN_OR_RETURN(seedb::server::JsonValue frame, client.Metrics());
  ServerMetrics out;
  if (const auto* h = frame.Find("histograms"); h != nullptr) {
    if (const auto* flush = h->Find("server.outbox.flush_us"); flush != nullptr) {
      out.outbox_flush_us_mean = flush->GetDouble("mean_us");
    }
    if (const auto* lag = h->Find("server.loop.tick_lag_us"); lag != nullptr) {
      out.tick_lag_us_mean = lag->GetDouble("mean_us");
    }
  }
  if (const auto* c = frame.Find("counters"); c != nullptr) {
    out.busy_sheds = c->GetDouble("server.admission.busy_sheds");
  }
  return out;
}

void AddWireSpans(const WireSession& s, SpanLog* spans) {
  if (!spans->enabled() || s.failed) return;
  const uint64_t id = s.index + 1;
  const int root = spans->Add("session", id, -1, s.sent_ns, s.result_ns);
  spans->Add("open", id, root, s.sent_ns, s.ack_ns);
  if (!s.frame_ns.empty()) {
    spans->Add("first_frame_wait", id, root, s.ack_ns, s.frame_ns.front());
  }
  for (size_t i = 1; i < s.frame_ns.size(); ++i) {
    spans->Add("push_gap", id, root, s.frame_ns[i - 1], s.frame_ns[i]);
  }
  spans->Add("finish", id, root, s.finish_sent_ns, s.result_ns);
}

void SetWireClientMetrics(const std::vector<const WireSession*>& done,
                          const WireLoop& loop, RunResult* r) {
  double ack = 0.0, gap = 0.0, finish = 0.0, bytes = 0.0;
  size_t gaps = 0;
  for (const WireSession* s : done) {
    ack += static_cast<double>(s->ack_ns - s->sent_ns) / 1e6;
    finish += static_cast<double>(s->result_ns - s->finish_sent_ns) / 1e6;
    bytes += static_cast<double>(s->bytes);
    for (size_t i = 1; i < s->frame_ns.size(); ++i, ++gaps) {
      gap += static_cast<double>(s->frame_ns[i] - s->frame_ns[i - 1]) / 1e6;
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(done.size()));
  r->Set("server.client.open_ack_ms", ack / n);
  r->Set("server.client.push_gap_ms", gaps > 0 ? gap / static_cast<double>(gaps) : 0.0);
  r->Set("server.client.finish_rtt_ms", finish / n);
  r->Set("server.client.bytes_per_session", bytes / n);
  if (loop.frames_parsed() > 0) {
    r->Set("server.client.parse_us",
           loop.parse_us_total() / static_cast<double>(loop.frames_parsed()),
           "per received frame");
  }
}

Result<InProcessReplay> ReplayInProcess(db::Engine* engine,
                                        const std::string& open_line,
                                        SpanLog* spans, uint64_t session) {
  namespace server = seedb::server;
  SEEDB_ASSIGN_OR_RETURN(server::JsonValue open, server::ParseJson(open_line));
  SEEDB_ASSIGN_OR_RETURN(core::SeeDBRequest request,
                         server::OpenRequestFromJson(open));
  const std::string id = open.GetString("id");
  const core::SeeDBOptions& options = request.options();
  InProcessReplay out;
  const int root = spans->Begin("replay", session, -1);
  // Every return below ends the root span first.
  auto fail = [&](const Status& st) {
    spans->End(root);
    return st;
  };
  core::ExecutionPlan plan;
  Result<PlanReplay> planned = ReplayPlanning(
      engine, open.GetString("sql"), options, spans, session, root, &plan);
  if (!planned.ok()) return fail(planned.status());
  out.plan = *planned;

  // The session, with every update and the result encoded as the server
  // encodes its frames and parsed back as a client parses them.
  auto frame = [&](const server::JsonValue& json) {
    int64_t t0 = NowNs();
    const std::string line = json.Dump();
    int64_t t1 = NowNs();
    spans->Add("server.protocol.encode", session, root, t0, t1);
    out.encode_us_total += static_cast<double>(t1 - t0) / 1e3;
    out.bytes += line.size() + 1;
    t0 = NowNs();
    const bool parsed = server::ParseJson(line).ok();
    t1 = NowNs();
    spans->Add("server.json.parse", session, root, t0, t1);
    out.parse_us_total += static_cast<double>(t1 - t0) / 1e3;
    ++out.frames;
    return parsed;
  };
  core::SeeDB seedb(engine);
  int64_t t0 = NowNs();
  Result<core::RecommendationSession> s = seedb.Open(request);
  out.open_ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!s.ok()) return fail(s.status());
  for (;;) {
    t0 = NowNs();
    Result<std::optional<core::ProgressUpdate>> update = s->Next();
    if (!update.ok()) return fail(update.status());
    if (!update->has_value()) break;
    out.next_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!frame(server::ProgressToJson(id, **update))) {
      return fail(Status::Internal("a progress frame does not parse back"));
    }
  }
  t0 = NowNs();
  Result<core::RecommendationSet> set = s->Finish();
  out.finish_ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!set.ok()) return fail(set.status());
  if (!frame(server::ResultToJson(id, *set))) {
    return fail(Status::Internal("the result frame does not parse back"));
  }
  out.top = TopK(*set);

  // The shared scan alone, over the same plan and phase ranges (one phase
  // for the blocking strategies). A per-query session runs no shared scan:
  // for it this times what a one-phase shared scan of its plan would cost,
  // a path the session itself did not take.
  const size_t phases =
      options.strategy == core::ExecutionStrategy::kPhasedSharedScan
          ? options.online_pruning.num_phases
          : 1;
  Result<ScanReplay> scan =
      ReplaySharedScan(engine, plan, phases, options.parallelism,
                       set->online_pruned_views, spans, session, root);
  if (!scan.ok()) return fail(scan.status());
  out.scan = std::move(*scan);
  spans->End(root);
  return out;
}

void SetReplayMetrics(const std::vector<InProcessReplay>& replays, RunResult* r) {
  std::vector<double> parse, generate, plan, views, queries, open, first_next,
      next, finish, begin, run_phase, boundary;
  double encode_us = 0.0, json_us = 0.0, frames = 0.0, bytes = 0.0, rows = 0.0,
         scan_ms = 0.0;
  for (const InProcessReplay& x : replays) {
    parse.push_back(x.plan.parse_us);
    generate.push_back(x.plan.generate_ms);
    plan.push_back(x.plan.plan_ms);
    views.push_back(static_cast<double>(x.plan.views));
    queries.push_back(static_cast<double>(x.plan.queries));
    open.push_back(x.open_ms);
    if (!x.next_ms.empty()) first_next.push_back(x.next_ms.front());
    next.insert(next.end(), x.next_ms.begin(), x.next_ms.end());
    finish.push_back(x.finish_ms);
    encode_us += x.encode_us_total;
    json_us += x.parse_us_total;
    frames += static_cast<double>(x.frames);
    bytes += static_cast<double>(x.bytes);
    begin.push_back(x.scan.begin_ms);
    for (size_t p = 0; p < x.scan.phase_ms.size(); ++p) {
      run_phase.push_back(x.scan.phase_ms[p]);
      scan_ms += x.scan.phase_ms[p];
      if (p < x.next_ms.size()) boundary.push_back(x.next_ms[p] - x.scan.phase_ms[p]);
    }
    rows += static_cast<double>(x.scan.rows_scanned);
  }
  const std::string detail =
      "replayed in-process, " + std::to_string(replays.size()) + " sessions";
  r->Set("db.sql.parse_us", Mean(parse), detail);
  r->Set("core.query_generator.generate_ms", Mean(generate), detail);
  r->Set("core.optimizer.plan_ms", Mean(plan), detail);
  r->Set("core.plan.views", Mean(views), detail);
  r->Set("core.plan.queries", Mean(queries), detail);
  r->Set("core.session.open_ms", Mean(open), detail);
  r->Set("core.session.first_next_ms", Mean(first_next), detail);
  r->Set("core.session.next_ms", Mean(next), detail);
  r->Set("core.session.finish_ms", Mean(finish), detail);
  const double n = std::max(1.0, frames);
  r->Set("server.protocol.encode_us", encode_us / n, "per frame, " + detail);
  r->Set("server.json.parse_us", json_us / n, "per frame, " + detail);
  r->Set("server.bytes_per_session",
         replays.empty() ? 0.0 : bytes / static_cast<double>(replays.size()), detail);
  r->Set("db.shared_scan.begin_ms", Mean(begin),
         "Engine::BeginShared (selection masks, cache lookup), " + detail);
  r->Set("db.shared_scan.run_phase_ms", Mean(run_phase),
         "per RunPhase, " + std::to_string(run_phase.size()) + " phases " + detail);
  r->Set("db.shared_scan.rows_per_s", scan_ms > 0 ? rows / (scan_ms / 1e3) : 0.0,
         "rows scanned over RunPhase time");
  r->Set("core.executor.boundary_ms", Mean(boundary),
         "derived: next_ms - run_phase_ms of the same phase");
}

}  // namespace perfbench
