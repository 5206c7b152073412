// Serving walkthrough: the recommendation server and its client library.
//
// With no arguments, spins up an in-process RecommendationServer on a
// private unix socket over the store-orders demo table, then drives it the
// way an interactive frontend would: negotiate push with `hello`, open a
// server-driven session, watch per-phase progress frames arrive as
// unsolicited pushes (no request per phase), cancel mid-scan,
// RESUME the cancelled session (its merged aggregates survive — the final
// top-k equals an uninterrupted run's), and fetch the final recommendations.
//
// With a unix-socket path argument it skips the in-process server and
// drives an external `seedb_server` instead — CI's smoke test runs exactly
// that, and asserts on the "push sessions completed" line this binary
// prints:
//
//   seedb_server --unix /tmp/seedb.sock --demo &
//   example_server_client /tmp/seedb.sock

#include <cstdio>
#include <string>
#include <unistd.h>

#include "data/store_orders.h"
#include "db/engine.h"
#include "server/client.h"
#include "server/server.h"

using namespace seedb;  // NOLINT

namespace {

int Fail(const Status& status, const char* what) {
  std::printf("FAILED (%s): %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== SeeDB serving walkthrough ===\n\n");

  // -- Either connect to an external server, or host one right here. ------
  std::string socket_path;
  std::unique_ptr<db::Catalog> catalog;
  std::unique_ptr<db::Engine> engine;
  std::unique_ptr<server::RecommendationServer> local_server;
  if (argc > 1) {
    socket_path = argv[1];
    std::printf("connecting to external server at %s\n\n",
                socket_path.c_str());
  } else {
    socket_path =
        "/tmp/seedb_example_" + std::to_string(::getpid()) + ".sock";
    catalog = std::make_unique<db::Catalog>();
    auto orders = data::MakeStoreOrders({});
    if (!orders.ok()) return Fail(orders.status(), "demo data");
    catalog->PutTable(orders->table_name, std::move(orders->table));
    engine = std::make_unique<db::Engine>(catalog.get());
    server::ServerOptions options;
    options.unix_path = socket_path;
    local_server = std::make_unique<server::RecommendationServer>(
        engine.get(), options);
    Status started = local_server->Start();
    if (!started.ok()) return Fail(started, "server start");
    std::printf("in-process server listening on %s\n\n", socket_path.c_str());
  }

  auto client = server::Client::ConnectUnix(socket_path);
  if (!client.ok()) return Fail(client.status(), "connect");

  // -- Handshake. ----------------------------------------------------------
  // `hello` negotiates the version and the push capability; without push
  // the server would never drive a session opened on this connection.
  Status hello = client->Hello();
  if (!hello.ok()) return Fail(hello, "hello");
  std::printf("negotiated protocol v%d (%s)\n\n",
              client->handshake().version,
              client->push_enabled() ? "server push" : "no push");

  size_t push_sessions_completed = 0;

  // -- A server-driven streaming session. ---------------------------------
  // open = plan + the server starts driving; every phase's progress arrives
  // as an unsolicited push frame. Await() pumps the stream to `drained`,
  // hands each frame to the OnProgress callback, then finishes the session.
  // The only request round-trips on the wire are open and finish.
  server::OpenSpec spec;
  spec.sql = "SELECT * FROM orders WHERE category = 'Furniture'";
  spec.k = 3;
  spec.phases = 6;
  spec.pruner = "mab";  // retire half the views at every boundary
  auto session = client->OpenSession("walkthrough", spec);
  if (!session.ok()) return Fail(session.status(), "open");
  std::printf("opened session \"walkthrough\": %s (k=%zu, %zu phases, "
              "MAB pruning)\n",
              spec.sql.c_str(), spec.k, spec.phases);

  session->OnProgress([](const server::RemoteProgress& p) {
    std::printf("  phase %zu/%zu (pushed): rows %llu/%llu, %zu views "
                "active, %zu pruned, agg state %llu bytes",
                p.phase, p.total_phases,
                static_cast<unsigned long long>(p.rows_scanned),
                static_cast<unsigned long long>(p.total_rows),
                p.views_active, p.views_pruned,
                static_cast<unsigned long long>(p.memory_bytes));
    if (!p.top.empty()) {
      std::printf("  | top: %s ~%.4f", p.top[0].id.c_str(),
                  p.top[0].utility);
    }
    std::printf("\n");
  });
  auto result = session->Await();
  if (!result.ok()) return Fail(result.status(), "await");
  ++push_sessions_completed;

  std::printf("\nfinal ranking (metric %s):\n", result->metric.c_str());
  for (const server::RemoteRecommendation& rec : result->top) {
    std::printf("  %zu. %-36s utility %.6f\n", rec.rank, rec.view_id.c_str(),
                rec.utility);
  }
  std::printf("  (%zu views pruned mid-scan, %zu table scan(s), "
              "%llu rows)\n",
              result->profile.views_pruned_online,
              result->profile.table_scans,
              static_cast<unsigned long long>(result->profile.rows_scanned));

  // -- Cancel, then resume: the session keeps its aggregates. -------------
  // A cancelled session is not discarded: `resume` re-opens it, the server
  // resumes driving, and the final ranking is the one an uninterrupted run
  // produces. This block pulls the stream frame by frame with
  // Client::Next(id), which pops an already-pushed frame (or waits for the
  // next one) — no request goes over the wire.
  server::OpenSpec second = spec;
  second.pruner.clear();  // exhaustive, so the resumed ranking is exact
  auto resumable = client->OpenSession("resumable", second);
  if (!resumable.ok()) return Fail(resumable.status(), "open resumable");
  auto first_phase = client->Next(resumable->id());
  if (!first_phase.ok()) return Fail(first_phase.status(), "first frame");
  Status cancelled = resumable->Cancel();
  if (!cancelled.ok()) return Fail(cancelled, "cancel");
  size_t drained_after = 0;
  while (true) {
    auto progress = client->Next(resumable->id());
    if (!progress.ok()) return Fail(progress.status(), "next after cancel");
    if (!progress->has_value()) break;
    ++drained_after;
  }
  std::printf("\ncancelled session \"resumable\" after phase 1: stream "
              "drained (%zu in-flight frame(s) delivered first)\n",
              drained_after);

  Status resumed = resumable->Resume();
  if (!resumed.ok()) return Fail(resumed, "resume");
  size_t resumed_phases = 0;
  while (true) {
    auto progress = client->Next(resumable->id());
    if (!progress.ok()) return Fail(progress.status(), "next after resume");
    if (!progress->has_value()) break;
    ++resumed_phases;
  }
  auto resumed_result = resumable->Finish();
  if (!resumed_result.ok()) return Fail(resumed_result.status(), "finish");
  ++push_sessions_completed;
  std::printf("resumed and ran %zu more phases; top view: %s (cancelled "
              "flag: %s)\n",
              resumed_phases,
              resumed_result->top.empty()
                  ? "<none>"
                  : resumed_result->top[0].view_id.c_str(),
              resumed_result->profile.cancelled ? "true" : "false");

  // -- Server-wide status. -------------------------------------------------
  auto status = client->GetStatus();
  if (!status.ok()) return Fail(status.status(), "status");
  std::printf("\nserver status: %zu open sessions, %llu requests handled\n",
              status->sessions,
              static_cast<unsigned long long>(status->requests));

  if (local_server != nullptr) local_server->Stop();
  // CI greps this exact line: the smoke test is only meaningful if at least
  // one session actually streamed over server push.
  std::printf("\npush sessions completed: %zu\n",
              client->push_enabled() ? push_sessions_completed : size_t{0});
  std::printf("=== walkthrough complete ===\n");
  return 0;
}
