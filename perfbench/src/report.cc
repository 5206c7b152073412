#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"first_frame_ms_p50", "ms"},
      {"first_frame_ms_p95", "ms"},
      {"final_topk_ms_p50", "ms"},
      {"final_topk_ms_p95", "ms"},
      {"sessions_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      // data / db set-up -> setup_s
      {"data.load_ms", "ms"},
      {"db.catalog.stats_ms", "ms"},
      {"core.session.warmup_ms", "ms"},
      // db/sql and core planning -> first_frame_ms_*
      {"db.sql.parse_us", "us"},
      {"core.query_generator.generate_ms", "ms"},
      {"core.optimizer.plan_ms", "ms"},
      {"core.session.open_ms", "ms"},
      {"core.plan.views", "count"},
      {"core.plan.queries", "count"},
      // db/shared_scan, db/vec -> final_topk_ms_* on scan-cold
      {"db.shared_scan.begin_ms", "ms"},
      {"db.shared_scan.run_phase_ms", "ms"},
      {"db.shared_scan.rows_per_s", "1/s"},
      {"db.shared_scan.wall_share", "frac"},
      {"db.vec.vectorized_morsel_frac", "frac"},
      {"db.vec.simd_morsel_frac", "frac"},
      // core/executor, core/online_pruning -> final_topk_ms_*
      {"core.session.first_next_ms", "ms"},
      {"core.session.next_ms", "ms"},
      {"core.session.finish_ms", "ms"},
      {"core.online_pruning.pruned_frac", "frac"},
      {"core.online_pruning.topk_recall", "frac"},
      // db/scan_cache -> final_topk_ms_*, peak_rss_mb (scan-cold: inserts)
      {"db.scan_cache.hit_frac", "frac"},
      {"db.scan_cache.bytes", "bytes"},
      {"db.scan_cache.evictions", "count"},
      // per-query path -> final_topk_ms_*, sessions_per_s on demo-sql
      {"db.engine.queries_per_session", "count"},
      {"db.engine.table_scans_per_session", "count"},
      {"db.engine.shared_scan_batches_per_session", "count"},
      // server -> final_topk_ms_*, sessions_per_s on demo-sql
      {"server.protocol.encode_us", "us"},
      {"server.json.parse_us", "us"},
      {"server.bytes_per_session", "bytes"},
      {"server.admission.busy_sheds", "count"},
      // traced-run accounting: self time per layer as a share of session
      // wall time, the leftover, and what tracing itself cost
      {"trace.session_wall_ms", "ms"},
      {"trace.self_frac.open", "frac"},
      {"trace.self_frac.next", "frac"},
      {"trace.self_frac.finish", "frac"},
      {"trace.self_frac.first_frame_wait", "frac"},
      {"trace.self_frac.push_gap", "frac"},
      {"trace.leftover_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return defs;
}

const std::vector<MetricDef>& ReportOnlyMetrics() {
  static const std::vector<MetricDef> defs = {
      {"server.start_ms", "ms"},
      {"server.client.open_ack_ms", "ms"},
      {"server.client.push_gap_ms", "ms"},
      {"server.client.finish_rtt_ms", "ms"},
      {"server.client.parse_us", "us"},
      {"server.client.bytes_per_session", "bytes"},
      {"server.outbox.flush_us_mean", "us"},
      {"server.loop.tick_lag_us_mean", "us"},
      {"core.executor.boundary_ms", "ms"},
  };
  return defs;
}

void RunResult::Set(const std::string& name, double value, std::string detail) {
  metrics[name] = MetricValue{value, std::move(detail)};
}

void RunResult::SetPercentiles(const std::string& prefix,
                               const std::vector<double>& samples) {
  const Summary s = Summarize(samples);
  char detail[160];
  std::snprintf(detail, sizeof(detail), "p50 of n=%zu", s.n);
  Set(prefix + "_p50", s.p50, detail);
  std::snprintf(detail, sizeof(detail), "p95 of n=%zu, %zu beyond%s", s.n,
                SamplesBeyond(s.n, 0.95),
                s.p95_supported ? "" : " (fewer than 10 beyond: unsupported)");
  Set(prefix + "_p95", s.p95, detail);
}

void RunResult::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

bool PrintReport(const RunResult& r) {
  std::printf("== %s (%s run) ==\n", r.workload.c_str(),
              r.traced ? "traced" : "untraced");
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  const double failed_frac =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("sessions attempted %llu, failed %llu (failed_frac %.6f); "
              "answers %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), failed_frac,
              r.correct ? "correct" : "WRONG");
  for (const std::string& f : r.failures) std::printf("  failure: %s\n", f.c_str());

  auto print_table = [&](const char* title, const std::vector<MetricDef>& defs) {
    std::printf("-- %s --\n", title);
    for (const MetricDef& d : defs) {
      auto it = r.metrics.find(d.name);
      if (it == r.metrics.end()) {
        std::printf("  %-42s (not measured on this workload: 0)\n", d.name);
        continue;
      }
      std::printf("  %-42s %16.6f %-6s %s\n", d.name, it->second.value, d.unit,
                  it->second.detail.c_str());
    }
  };
  print_table("end to end", EndToEndMetrics());
  if (r.traced) {
    print_table("per layer", PerLayerMetrics());
    print_table("per layer, this workload only (not in the JSON result)",
                ReportOnlyMetrics());
    std::printf("-- self time by layer (traced sessions: %zu, wall %.3f ms) --\n",
                r.self_times.roots, r.self_times.root_wall_ms);
    for (const LayerTime& l : r.self_times.layers) {
      std::printf("  %-42s %12.3f ms  %6.2f%%  (%zu spans)\n", l.name.c_str(),
                  l.self_ms,
                  r.self_times.root_wall_ms > 0
                      ? 100.0 * l.self_ms / r.self_times.root_wall_ms
                      : 0.0,
                  l.spans);
    }
    std::printf("  %-42s %12.3f ms  %6.2f%%\n", "leftover (session self)",
                r.self_times.leftover_ms,
                r.self_times.root_wall_ms > 0
                    ? 100.0 * r.self_times.leftover_ms / r.self_times.root_wall_ms
                    : 0.0);
  }

  bool complete = true;
  const std::string json = ResultJson(r, &complete);
  if (complete) std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return complete;
}

std::string ResultJson(const RunResult& r, bool* complete) {
  *complete = true;
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : r.traced ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = r.metrics.find(d.name);
    double value = it == r.metrics.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) value = 0.0;
    // End-to-end metrics are never 0; a per-layer metric is 0 on a workload
    // that does not exercise its layer.
    if (!r.traced && !(value > 0.0)) {
      std::printf("no result: end-to-end metric %s is missing or not positive\n",
                  d.name);
      *complete = false;
      continue;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" + d.name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  return json + "}}";
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
