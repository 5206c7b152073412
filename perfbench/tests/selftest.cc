// Self-tests of the benchmark harness: the percentile rule, answer
// checking, result accounting, input determinism and the span writer. Run with `ctest --test-dir .bench_build` or directly.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

void TestPercentileRule() {
  // p95 needs 200 samples for 10 to lie beyond it.
  CHECK(MinSamplesFor(0.95) == 200);
  CHECK(SamplesBeyond(200, 0.95) == 10);
  CHECK(SamplesBeyond(199, 0.95) == 9);
  CHECK(MinSamplesFor(0.5) == 20);
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(Percentile(v, 0.5) == 50);
  CHECK(Percentile(v, 0.95) == 95);
  CHECK(Percentile({}, 0.95) == 0);
  CHECK(!Summarize(std::vector<double>(199, 1.0)).p95_supported);
  CHECK(Summarize(std::vector<double>(200, 1.0)).p95_supported);
}

void TestCorruptedTopKFails() {
  // A real top-k from a small in-process run ...
  auto dataset = seedb::data::GenerateSynthetic(
                     seedb::data::SyntheticSpec::Simple(5000, 4, 2, 6, 3))
                     .ValueOrDie();
  seedb::db::Catalog catalog;
  CHECK(catalog.AddTable("t", std::move(dataset.table)).ok());
  seedb::db::Engine engine(&catalog);
  seedb::core::SeeDB seedb(&engine);
  auto request = seedb::core::SeeDBRequest::FromSql("SELECT * FROM t WHERE m0 > 110");
  CHECK(request.ok());
  seedb::core::SeeDBOptions all;
  all.k = 1000;
  request->WithOptions(all);
  auto reference = seedb.Run(*request);
  CHECK(reference.ok());
  std::vector<RankedView> top = TopK(*reference);
  top.resize(5);
  CHECK(CheckUtilitiesMatch(top, *reference).empty());
  CHECK(CheckSameTopK(top, top).empty());
  CHECK(TopKRecall(top, TopK(*reference), 5) == 1.0);

  // ... corrupted three ways, is caught every time ...
  std::vector<RankedView> nudged = top;
  nudged[2].utility *= 1.0 + 1e-6;
  CHECK(!CheckUtilitiesMatch(nudged, *reference).empty());
  CHECK(!CheckSameTopK(top, nudged).empty());
  std::vector<RankedView> swapped = top;
  std::swap(swapped[0], swapped[1]);
  CHECK(!CheckSameTopK(top, swapped).empty());
  std::vector<RankedView> foreign = top;
  foreign[4].id = "SUM(nope) BY nothing";
  CHECK(!CheckUtilitiesMatch(foreign, *reference).empty());
  CHECK(TopKRecall(foreign, TopK(*reference), 5) == 0.8);
  CHECK(!CheckTrendFound(top, "no_such_dim", "m0").empty());
  CHECK(CheckTrendFound(top, top[0].dimension, top[0].measure).empty());

  // ... and counts as a failed session in the result line.
  RunResult r;
  r.attempted = 3;
  for (const char* name : {"setup_s", "first_frame_ms_p50", "first_frame_ms_p95",
                           "final_topk_ms_p50", "final_topk_ms_p95",
                           "sessions_per_s", "peak_rss_mb"}) {
    r.Set(name, 1.5);
  }
  const std::string diff = CheckSameTopK(top, nudged);
  if (!diff.empty()) {
    r.correct = false;
    r.Fail(diff);
  }
  bool complete = false;
  const std::string json = ResultJson(r, &complete);
  CHECK(complete);
  CHECK(r.failed == 1);
  CHECK(json.find("\"correct\": false") != std::string::npos);
  CHECK(json.find("\"failed\": 1") != std::string::npos);
  // A run missing an end-to-end metric prints no result.
  r.metrics.erase("sessions_per_s");
  ResultJson(r, &complete);
  CHECK(!complete);
}

void TestSameSeedSameInputs() {
  for (const char* w : {"scan-cold", "demo-sql"}) {
    const uint64_t a = InputDigest(w, 7);
    CHECK(a != 0);
    CHECK(a == InputDigest(w, 7));
  }
  // The demo datasets are fixed; the seed moves the synthetic tables and
  // every workload's query stream.
  CHECK(InputDigest("scan-cold", 7) != InputDigest("scan-cold", 8));
  CHECK(InputDigest("demo-sql", 7) != InputDigest("demo-sql", 8));
}

void TestSpans() {
  SpanLog log(true);
  // Two overlapping sessions with nested children.
  const int a = log.Add("session", 1, -1, 1000, 9000);
  log.Add("open", 1, a, 1000, 3000);
  log.Add("next", 1, a, 3000, 8000);
  const int b = log.Add("session", 2, -1, 2000, 6000);
  log.Add("open", 2, b, 2500, 5000);
  const SelfTimeTable t = log.SelfTimes("session");
  CHECK(t.roots == 2);
  CHECK(std::fabs(t.root_wall_ms - 0.012) < 1e-12);
  CHECK(std::fabs(t.leftover_ms - (0.001 + 0.0015)) < 1e-12);
  CHECK(t.layers.size() == 2);
  const std::string path = "selftest.trace.json";
  CHECK(log.WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  // The overlapping session goes to its own lane, so B/E nest per tid.
  CHECK(text.str().find("\"tid\":2") != std::string::npos);
  std::remove(path.c_str());
  SpanLog off(false);
  CHECK(off.Add("x", 1, -1, 0, 1) == -1);
  CHECK(off.spans().empty());
}

}  // namespace

int main() {
  TestPercentileRule();
  TestCorruptedTopKFails();
  TestSameSeedSameInputs();
  TestSpans();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
