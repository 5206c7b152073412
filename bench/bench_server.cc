// E13 — the serving layer: sessions/sec and the gap between pushed progress
// frames of the recommendation server (src/server) under rising client
// concurrency, plus the connection sweep: 64/256/1k concurrent push
// sessions on one epoll loop, with p50/p99 frame-DELIVERY latency (client
// receive time minus the server's ts_us send stamp — both on the same
// steady clock, server in-process).
//
// SeeDB was built as middleware that clients query interactively (§5); the
// question for the serving loop is what the wire + registry add on top of
// the engine: how many full hello/open -> pushed frames -> finish sessions
// per second one server sustains, how far apart the server sends one
// session's consecutive progress frames (p50/p99 of the gap between their
// ts_us stamps) while N clients hammer the same Engine, and
// whether push-frame delivery stays flat as connections scale past what
// thread-per-connection could hold. Emits BENCH_server.json so CI tracks the
// trajectory (advisory diff in tools/perf_gate.py).

#include <benchmark/benchmark.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/workload.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"

namespace {

using namespace seedb;  // NOLINT

double PercentileMs(std::vector<double>* seconds, double p) {
  if (seconds->empty()) return 0.0;
  std::sort(seconds->begin(), seconds->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(seconds->size()));
  idx = std::min(idx, seconds->size() - 1);
  return (*seconds)[idx] * 1e3;
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One connection of the sweep: a raw fd so a single poll() thread can
/// multiplex a thousand of them (mirroring how the server itself works).
struct SweepConn {
  int fd = -1;
  std::string rbuf;
  bool done = false;
};

/// E13b — the connection sweep. N unix-socket connections, each holding ONE
/// server-driven push session; a single poll() loop consumes every frame
/// and samples delivery latency = NowUs() - frame.ts_us.
void RunConnectionSweep(bench::JsonWriter* json) {
  std::printf("\n-- connection sweep: push sessions on one epoll loop --\n");
  data::WorkloadSpec spec;
  spec.rows = 4000;
  spec.num_dims = 3;
  spec.num_measures = 1;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  const std::string socket_path =
      "/tmp/seedb_bench_sweep_" + std::to_string(::getpid()) + ".sock";
  server::ServerOptions options;
  options.unix_path = socket_path;
  server::RecommendationServer srv(workload.engine.get(), options);
  if (!srv.Start().ok()) {
    std::printf("cannot start sweep server\n");
    return;
  }

  constexpr size_t kPhases = 2;
  std::printf("table: %zu rows; 1 session x %zu phases per connection\n\n",
              workload.rows, kPhases);
  std::printf("%10s %10s %10s %14s %13s %13s\n", "sessions", "frames",
              "wall(ms)", "sessions/sec", "frame p50(ms)", "frame p99(ms)");

  json->Key("sweep").BeginArray();
  for (size_t n : {64, 256, 1000}) {
    std::vector<SweepConn> conns(n);
    std::vector<double> frame_seconds;
    frame_seconds.reserve(n * (kPhases + 1));
    size_t failures = 0;
    size_t negative_frames = 0;
    Stopwatch wall;
    for (size_t i = 0; i < n; ++i) {
      int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
        if (fd >= 0) ::close(fd);
        ++failures;
        continue;
      }
      // Handshake + open in one write; the server strand preserves order.
      const std::string requests =
          "{\"op\":\"hello\",\"version\":2,\"capabilities\":[\"push\"]}\n"
          "{\"op\":\"open\",\"id\":\"sweep-" + std::to_string(i) +
          "\",\"table\":\"" + workload.table_name +
          "\",\"k\":3,\"phases\":" + std::to_string(kPhases) +
          ",\"strategy\":\"phased-shared-scan\"}\n";
      if (::send(fd, requests.data(), requests.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(requests.size())) {
        ::close(fd);
        ++failures;
        continue;
      }
      conns[i].fd = fd;
    }

    size_t open_conns = 0;
    for (const SweepConn& conn : conns) {
      if (conn.fd >= 0) ++open_conns;
    }
    const int64_t deadline_us = NowUs() + 300 * 1000 * 1000;  // 300s cap
    std::vector<pollfd> pfds;
    while (open_conns > 0 && NowUs() < deadline_us) {
      pfds.clear();
      for (const SweepConn& conn : conns) {
        if (conn.fd >= 0 && !conn.done) {
          pfds.push_back(pollfd{conn.fd, POLLIN, 0});
        }
      }
      if (pfds.empty()) break;
      if (::poll(pfds.data(), pfds.size(), 1000) <= 0) continue;
      for (const pollfd& pfd : pfds) {
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        SweepConn* conn = nullptr;
        for (SweepConn& candidate : conns) {
          if (candidate.fd == pfd.fd) {
            conn = &candidate;
            break;
          }
        }
        if (conn == nullptr) continue;
        char chunk[16384];
        ssize_t got = ::read(conn->fd, chunk, sizeof(chunk));
        if (got <= 0) {  // peer closed or error: drop the connection
          ::close(conn->fd);
          conn->fd = -1;
          conn->done = true;
          --open_conns;
          ++failures;
          continue;
        }
        const int64_t recv_us = NowUs();
        conn->rbuf.append(chunk, static_cast<size_t>(got));
        size_t start = 0;
        for (size_t end = conn->rbuf.find('\n'); end != std::string::npos;
             end = conn->rbuf.find('\n', start)) {
          auto frame = server::ParseJson(
              conn->rbuf.substr(start, end - start));
          start = end + 1;
          if (!frame.ok()) {
            ++failures;
            continue;
          }
          const std::string type = frame->GetString("type");
          if (frame->GetBool("push")) {
            const int64_t sent_us = frame->GetInt("ts_us");
            // ts_us and recv_us share one steady-clock base (server is
            // in-process), so a negative delta is a measurement artifact —
            // a frame stamped after this read() batch was captured. Skip
            // the sample rather than poisoning the percentiles.
            if (sent_us > 0 && recv_us < sent_us) {
              ++negative_frames;
            } else if (sent_us > 0) {
              frame_seconds.push_back(
                  static_cast<double>(recv_us - sent_us) / 1e6);
            }
            if (type == "drained") {
              const std::string finish =
                  "{\"op\":\"finish\",\"id\":\"" +
                  frame->GetString("id") + "\"}\n";
              if (::send(conn->fd, finish.data(), finish.size(),
                         MSG_NOSIGNAL) !=
                  static_cast<ssize_t>(finish.size())) {
                ++failures;
              }
            }
          } else if (type == "result" || !frame->GetBool("ok")) {
            if (!frame->GetBool("ok")) ++failures;
            ::close(conn->fd);
            conn->fd = -1;
            conn->done = true;
            --open_conns;
            break;  // rbuf dies with the connection
          }
        }
        if (conn->fd >= 0) conn->rbuf.erase(0, start);
      }
    }
    for (SweepConn& conn : conns) {
      if (conn.fd >= 0) {
        ::close(conn.fd);
        ++failures;
      }
    }
    const double wall_ms = wall.ElapsedSeconds() * 1e3;
    if (failures > 0) {
      std::printf("%10zu  FAILED (%zu errors)\n", n, failures);
      continue;
    }
    const double sessions_per_sec =
        static_cast<double>(n) / (wall_ms / 1e3);
    const size_t frames = frame_seconds.size();
    const double p50 = PercentileMs(&frame_seconds, 0.50);
    const double p99 = PercentileMs(&frame_seconds, 0.99);
    std::printf("%10zu %10zu %10.1f %14.1f %13.3f %13.3f\n", n, frames,
                wall_ms, sessions_per_sec, p50, p99);
    if (negative_frames > 0) {
      std::printf("warning: %zu negative-latency frame samples skipped\n",
                  negative_frames);
    }
    json->BeginObject()
        .Key("transport").Value("unix")
        .Key("sessions").Value(n)
        .Key("phases").Value(kPhases)
        .Key("frames").Value(frames)
        .Key("negative_frames").Value(negative_frames)
        .Key("wall_ms").Value(wall_ms)
        .Key("sessions_per_sec").Value(sessions_per_sec)
        .Key("frame_p50_ms").Value(p50)
        .Key("frame_p99_ms").Value(p99)
        .EndObject();
  }
  json->EndArray();

  // Server-side view of the same sweep: the obs registry's request-latency
  // histograms, measured where the work happened (no socket hop). perf_gate
  // diffs these advisorily against the baseline artifact.
  {
    auto metrics_client = server::Client::ConnectUnix(socket_path);
    if (metrics_client.ok()) {
      auto metrics = metrics_client->Metrics();
      if (metrics.ok()) {
        json->Key("server_metrics").BeginObject();
        const server::JsonValue* hists = metrics->Find("histograms");
        if (hists != nullptr) {
          for (const auto& [name, hist] : hists->members()) {
            json->Key(name).BeginObject()
                .Key("count").Value(hist.GetInt("count"))
                .Key("p50_us").Value(hist.GetInt("p50_us"))
                .Key("p95_us").Value(hist.GetInt("p95_us"))
                .Key("p99_us").Value(hist.GetInt("p99_us"))
                .EndObject();
          }
        }
        json->EndObject();
      }
    }
  }
  srv.Stop();
  std::printf("\nExpected shape: delivery latency is the outbox + socket "
              "hop, so p50 stays near-flat with connection count; p99 "
              "tracks event-loop batching under load, not session count — "
              "the epoll loop holds 1k subscribed sessions without "
              "thread-per-connection cost.\n");
}

/// E13c — the result-cache scenario: a zipfian near-duplicate request mix
/// (interactive analysts keep re-asking the popular questions) against two
/// otherwise identical servers, one with the partial-aggregate cache off
/// and one with it on. Reports sessions/sec for both, the speedup, the
/// warm server's cache counters, and whether every session's final ranking
/// was bit-identical across the two servers (it must be — the cache adopts
/// merged state, it never recomputes).
void RunResultCacheScenario(bench::JsonWriter* json) {
  std::printf("\n-- result cache: zipfian near-duplicate requests --\n");
  // Big enough that a cold session is scan-dominated (the protocol's fixed
  // per-session round-trips would otherwise cap the visible speedup), with
  // few enough phases that per-frame overhead stays small.
  constexpr size_t kSessions = 40;
  constexpr size_t kPoolSize = 8;
  constexpr size_t kPhases = 2;

  // Deterministic zipf-ish draw over the query pool: weight 1/(rank+1).
  std::vector<size_t> draws;
  draws.reserve(kSessions);
  {
    std::minstd_rand rng(42);
    std::vector<double> weights(kPoolSize);
    for (size_t r = 0; r < kPoolSize; ++r) {
      weights[r] = 1.0 / static_cast<double>(r + 1);
    }
    std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());
    for (size_t s = 0; s < kSessions; ++s) draws.push_back(zipf(rng));
  }
  std::vector<bool> seen(kPoolSize, false);
  size_t repeats = 0;
  for (size_t d : draws) {
    if (seen[d]) ++repeats;
    seen[d] = true;
  }
  const double overlap =
      static_cast<double>(repeats) / static_cast<double>(kSessions);

  // One run against a freshly built server; identical WorkloadSpec seeds
  // mean both servers answer over byte-identical tables.
  struct ScenarioResult {
    double wall_ms = 0.0;
    std::vector<std::string> signatures;  // per-session final-ranking pin
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    bool failed = false;
  };
  auto run_against = [&](bool cache_on) {
    ScenarioResult out;
    data::WorkloadSpec spec;
    spec.rows = 960000;
    spec.num_dims = 4;
    spec.num_measures = 2;
    auto workload = data::BuildWorkload(spec).ValueOrDie();
    if (cache_on) {
      workload.engine->EnableResultCache(64ull * 1024 * 1024);
    }
    const std::string socket_path = "/tmp/seedb_bench_cache_" +
                                    std::to_string(::getpid()) +
                                    (cache_on ? "_warm" : "_cold") + ".sock";
    server::ServerOptions options;
    options.unix_path = socket_path;
    server::RecommendationServer srv(workload.engine.get(), options);
    if (!srv.Start().ok()) {
      out.failed = true;
      return out;
    }
    auto client = server::Client::ConnectUnix(socket_path);
    if (!client.ok() || !client->Hello().ok()) {
      out.failed = true;
      srv.Stop();
      return out;
    }
    // Parallelism 1: deterministic merges, so the bit-identity comparison
    // below is exact double equality, not tolerance.
    Stopwatch wall;
    for (size_t s = 0; s < kSessions && !out.failed; ++s) {
      server::OpenSpec open_spec;
      open_spec.sql = "SELECT * FROM " + workload.table_name +
                      " WHERE dim0 = 'dim0_v" + std::to_string(draws[s]) +
                      "'";
      open_spec.k = 3;
      open_spec.phases = kPhases;
      open_spec.strategy = "phased-shared-scan";
      open_spec.parallelism = 1;
      const std::string id = "zipf-" + std::to_string(s);
      if (!client->Open(id, open_spec).ok()) {
        out.failed = true;
        break;
      }
      while (true) {
        auto progress = client->Next(id);
        if (!progress.ok()) {
          out.failed = true;
          break;
        }
        if (!progress->has_value()) break;
      }
      auto result = client->Finish(id);
      if (!result.ok()) {
        out.failed = true;
        break;
      }
      std::string signature;
      for (const server::RemoteRecommendation& rec : result->top) {
        char line[256];
        std::snprintf(line, sizeof(line), "%zu:%s:%.17g;", rec.rank,
                      rec.view_id.c_str(), rec.utility);
        signature += line;
      }
      out.signatures.push_back(std::move(signature));
    }
    out.wall_ms = wall.ElapsedSeconds() * 1e3;
    if (auto status = client->GetStatus(); status.ok()) {
      out.cache_hits = status->cache_hits;
      out.cache_misses = status->cache_misses;
    }
    srv.Stop();
    return out;
  };

  ScenarioResult cold = run_against(/*cache_on=*/false);
  ScenarioResult warm = run_against(/*cache_on=*/true);
  if (cold.failed || warm.failed) {
    std::printf("result-cache scenario FAILED\n");
    return;
  }
  const bool bit_identical = cold.signatures == warm.signatures;
  const double cold_sps =
      static_cast<double>(kSessions) / (cold.wall_ms / 1e3);
  const double warm_sps =
      static_cast<double>(kSessions) / (warm.wall_ms / 1e3);
  const double speedup = cold.wall_ms > 0.0 ? cold.wall_ms / warm.wall_ms
                                            : 0.0;
  std::printf("%zu sessions, pool %zu, overlap %.0f%%: cold %.1f "
              "sessions/sec, warm %.1f sessions/sec (%.1fx); warm cache "
              "%llu hits / %llu misses; results %s\n",
              kSessions, kPoolSize, overlap * 100.0, cold_sps, warm_sps,
              speedup, static_cast<unsigned long long>(warm.cache_hits),
              static_cast<unsigned long long>(warm.cache_misses),
              bit_identical ? "bit-identical" : "DIVERGED");

  json->Key("result_cache").BeginObject()
      .Key("sessions").Value(kSessions)
      .Key("pool").Value(kPoolSize)
      .Key("phases").Value(kPhases)
      .Key("overlap").Value(overlap)
      .Key("cold_wall_ms").Value(cold.wall_ms)
      .Key("warm_wall_ms").Value(warm.wall_ms)
      .Key("cold_sessions_per_sec").Value(cold_sps)
      .Key("warm_sessions_per_sec").Value(warm_sps)
      .Key("speedup").Value(speedup)
      .Key("cache_hits").Value(warm.cache_hits)
      .Key("cache_misses").Value(warm.cache_misses)
      .Key("bit_identical").Value(bit_identical)
      .EndObject();
}

void RunExperiment() {
  bench::Banner(
      "E13 (serving layer)",
      "wire-protocol session throughput and push frame gap vs client count",
      "the middleware deployment (§5): one engine serves many interactive "
      "clients; the serving loop should add protocol overhead, not "
      "serialization — throughput grows with clients until cores saturate");

  data::WorkloadSpec spec;
  spec.rows = 30000;
  spec.num_dims = 5;
  spec.num_measures = 2;
  auto workload = data::BuildWorkload(spec).ValueOrDie();

  const std::string socket_path =
      "/tmp/seedb_bench_server_" + std::to_string(::getpid()) + ".sock";
  server::ServerOptions options;
  options.unix_path = socket_path;
  server::RecommendationServer srv(workload.engine.get(), options);
  auto started = srv.Start();
  if (!started.ok()) {
    std::printf("cannot start server: %s\n", started.ToString().c_str());
    return;
  }

  constexpr size_t kPhases = 4;
  constexpr size_t kSessionsPerClient = 6;
  // The analyst query all sessions run (the workload's planted deviation).
  server::OpenSpec open_spec;
  open_spec.table = workload.table_name;
  open_spec.k = 3;
  open_spec.phases = kPhases;
  open_spec.strategy = "phased-shared-scan";

  std::printf("table: %zu rows; %zu sessions x %zu phases per config\n\n",
              workload.rows, kSessionsPerClient, kPhases);
  std::printf("%10s %8s %10s %14s %12s %12s\n", "clients", "sessions",
              "total(ms)", "sessions/sec", "gap p50(ms)", "gap p99(ms)");

  bench::JsonWriter json;
  json.BeginObject()
      .Key("bench").Value("server")
      .Key("rows").Value(workload.rows)
      .Key("sessions_per_client").Value(kSessionsPerClient)
      .Key("runs").BeginArray();

  for (size_t clients : {1, 2, 4, 8}) {
    // Per client: the gap between the server's send stamps of consecutive
    // progress frames of one session. Stamps, not client receive times:
    // the server pushes ahead of the reader, so most frames are already
    // queued client-side when Next() asks for them.
    std::vector<std::vector<double>> gap_seconds(clients);
    std::atomic<size_t> failures{0};
    Stopwatch wall;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto client = server::Client::ConnectUnix(socket_path);
        if (!client.ok() || !client->Hello().ok()) {
          failures.fetch_add(1);
          return;
        }
        for (size_t s = 0; s < kSessionsPerClient; ++s) {
          const std::string id =
              "bench-" + std::to_string(c) + "-" + std::to_string(s);
          if (!client->Open(id, open_spec).ok()) {
            failures.fetch_add(1);
            return;
          }
          int64_t previous_sent_us = 0;
          while (true) {
            auto progress = client->Next(id);
            if (!progress.ok()) {
              failures.fetch_add(1);
              return;
            }
            if (!progress->has_value()) break;
            const int64_t sent_us = (*progress)->sent_us;
            if (previous_sent_us > 0) {
              gap_seconds[c].push_back(
                  static_cast<double>(sent_us - previous_sent_us) * 1e-6);
            }
            previous_sent_us = sent_us;
          }
          if (!client->Finish(id).ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double total_ms = wall.ElapsedSeconds() * 1e3;
    if (failures.load() > 0) {
      std::printf("%10zu  FAILED (%zu errors)\n", clients, failures.load());
      continue;
    }
    std::vector<double> all_gaps;
    for (auto& per_client : gap_seconds) {
      all_gaps.insert(all_gaps.end(), per_client.begin(), per_client.end());
    }
    const size_t sessions = clients * kSessionsPerClient;
    const double sessions_per_sec =
        static_cast<double>(sessions) / (total_ms / 1e3);
    const double p50 = PercentileMs(&all_gaps, 0.50);
    const double p99 = PercentileMs(&all_gaps, 0.99);
    std::printf("%10zu %8zu %10.1f %14.1f %12.3f %12.3f\n", clients, sessions,
                total_ms, sessions_per_sec, p50, p99);
    json.BeginObject()
        .Key("transport").Value("unix")
        .Key("clients").Value(clients)
        .Key("phases").Value(kPhases)
        .Key("sessions").Value(sessions)
        .Key("total_ms").Value(total_ms)
        .Key("sessions_per_sec").Value(sessions_per_sec)
        .Key("frame_gap_p50_ms").Value(p50)
        .Key("frame_gap_p99_ms").Value(p99)
        .EndObject();
  }
  json.EndArray();
  srv.Stop();

  std::printf("\nExpected shape: p50 frame gap ~= one phase of the fused "
              "scan plus the worker-pool hop to the next; sessions/sec "
              "grows with clients while the engine has idle cores, then "
              "flattens — the "
              "registry itself never serializes distinct sessions.\n");

  RunConnectionSweep(&json);
  RunResultCacheScenario(&json);
  json.EndObject();
  json.WriteFile("BENCH_server.json");
  bench::Footer();
}

// Micro: one full session round-trip over the wire (open + drain + finish),
// single client — the protocol + registry overhead in isolation.
void BM_ServerSessionRoundTrip(benchmark::State& state) {
  data::WorkloadSpec spec;
  spec.rows = 10000;
  spec.num_dims = 3;
  spec.num_measures = 1;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  const std::string socket_path =
      "/tmp/seedb_bench_rt_" + std::to_string(::getpid()) + ".sock";
  server::ServerOptions options;
  options.unix_path = socket_path;
  server::RecommendationServer srv(workload.engine.get(), options);
  if (!srv.Start().ok()) {
    state.SkipWithError("cannot start server");
    return;
  }
  auto client = server::Client::ConnectUnix(socket_path);
  if (!client.ok() || !client->Hello().ok()) {
    state.SkipWithError("cannot connect");
    return;
  }
  server::OpenSpec open_spec;
  open_spec.table = workload.table_name;
  open_spec.k = 2;
  open_spec.phases = 2;
  open_spec.strategy = "phased-shared-scan";
  size_t n = 0;
  for (auto _ : state) {
    const std::string id = "rt-" + std::to_string(n++);
    bool ok = client->Open(id, open_spec).ok();
    while (ok) {
      auto progress = client->Next(id);
      if (!progress.ok() || !progress->has_value()) break;
    }
    auto result = client->Finish(id);
    benchmark::DoNotOptimize(result);
  }
  srv.Stop();
}
BENCHMARK(BM_ServerSessionRoundTrip)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  RunExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
