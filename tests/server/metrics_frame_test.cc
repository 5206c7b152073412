// The `metrics` wire request: golden frame shape (counters/gauges objects,
// per-histogram quantile fields and parallel bucket arrays) and the
// acceptance property of the observability layer — after one push session
// runs through the server, the engine.phase.latency_us histogram in the
// `metrics` response is non-zero, the per-request-type server histograms
// counted its requests, and the outbox histogram saw its frames leave. The
// obs registry is process-global and other tests run sessions too, so
// assertions are >=, never ==.

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

#include "../test_util.h"
#include "db/engine.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"

namespace seedb::server {
namespace {

TEST(MetricsFrameTest, EncoderPinsTheFrameShape) {
  obs::Registry registry;
  registry.GetCounter("test.events")->Add(3);
  registry.GetGauge("test.depth")->Set(-2);
  obs::Histogram* hist = registry.GetHistogram("test.lat_us");
  for (int i = 0; i < 10; ++i) hist->Observe(100);

  JsonValue frame = MetricsToJson(registry.TakeSnapshot());
  EXPECT_TRUE(frame.GetBool("ok"));
  EXPECT_EQ(frame.GetString("type"), "metrics");
  const JsonValue* counters = frame.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetInt("test.events"), 3);
  const JsonValue* gauges = frame.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->GetInt("test.depth"), -2);

  const JsonValue* hists = frame.Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* lat = hists->Find("test.lat_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->GetInt("count"), 10);
  EXPECT_EQ(lat->GetInt("sum_us"), 1000);
  EXPECT_EQ(lat->GetDouble("mean_us"), 100.0);
  // 100us lands in the (64, 128] bucket; quantiles report its upper bound.
  EXPECT_EQ(lat->GetInt("p50_us"), 128);
  EXPECT_EQ(lat->GetInt("p95_us"), 128);
  EXPECT_EQ(lat->GetInt("p99_us"), 128);
  // Parallel bucket arrays cover every bucket and agree on length.
  const JsonValue* bounds = lat->Find("bucket_le_us");
  const JsonValue* counts = lat->Find("bucket_counts");
  ASSERT_NE(bounds, nullptr);
  ASSERT_NE(counts, nullptr);
  ASSERT_EQ(bounds->size(), obs::kHistogramBuckets);
  ASSERT_EQ(counts->size(), obs::kHistogramBuckets);
  EXPECT_EQ(bounds->at(0).AsInt(), 1);
  int64_t total = 0;
  for (size_t i = 0; i < counts->size(); ++i) total += counts->at(i).AsInt();
  EXPECT_EQ(total, 10);

  // The request side is one line with just the op.
  EXPECT_EQ(MetricsRequestToJson().Dump(), "{\"op\":\"metrics\"}");
}

TEST(MetricsFrameTest, ServerAnswersMetricsAfterASession) {
  db::Catalog catalog;
  ASSERT_TRUE(
      catalog.AddTable("sales", ::seedb::testing::MakeLaserwaveTable()).ok());
  db::Engine engine(&catalog);
  ServerOptions options;
  options.unix_path =
      "/tmp/seedb_metrics_test_" + std::to_string(::getpid()) + ".sock";
  RecommendationServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  OpenSpec spec;
  spec.sql = "SELECT * FROM sales WHERE product = 'Laserwave'";
  spec.k = 2;
  spec.phases = 3;
  auto session = client->OpenSession("m1", spec);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(session->Await().ok());
  ASSERT_EQ(server.stats().push_frames_sent, 4u);  // 3 progress + drained

  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const JsonValue* hists = metrics->Find("histograms");
  ASSERT_NE(hists, nullptr);

  // Acceptance: the engine-phase latency histogram saw this session's
  // phases, and the request-type histograms saw its open/finish.
  const JsonValue* phase = hists->Find("engine.phase.latency_us");
  ASSERT_NE(phase, nullptr);
  EXPECT_GE(phase->GetInt("count"), 3);
  EXPECT_GT(phase->GetInt("p99_us"), 0);
  const JsonValue* open_us = hists->Find("server.request.open_us");
  ASSERT_NE(open_us, nullptr);
  EXPECT_GE(open_us->GetInt("count"), 1);
  const JsonValue* finish_us = hists->Find("server.request.finish_us");
  ASSERT_NE(finish_us, nullptr);
  EXPECT_GE(finish_us->GetInt("count"), 1);
  // The push path: every frame left through the outbox. A flush is recorded
  // each time the outbox empties, and frames queued before the loop gets to
  // them share one flush, so the count is pinned from below by what cannot
  // share: the hello reply, the opened reply (with any frames right behind
  // it), and the finish reply — the drained frame was read before finish
  // was sent.
  const JsonValue* flush_us = hists->Find("server.outbox.flush_us");
  ASSERT_NE(flush_us, nullptr);
  EXPECT_GE(flush_us->GetInt("count"), 3);

  // Engine-side counters flowed through the registry too.
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->GetInt("engine.scan.rows"), 0);
  EXPECT_GT(counters->GetInt("engine.scan.morsels"), 0);

  server.Stop();
}

}  // namespace
}  // namespace seedb::server
