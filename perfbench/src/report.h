// What one benchmark run reports: every end-to-end and per-layer metric by
// name with its unit, the sessions attempted and failed, and whether every
// checked answer was correct. The metric names and units here are the ones
// BENCHMARK.json lists; later changes are judged on them, so renaming one
// is a change to the benchmark.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics of the untraced run (--trace 0), reported by every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Metrics of the traced run (--trace 1); a layer a workload does not
/// exercise reports 0. Every time among them is measured on every workload.
const std::vector<MetricDef>& PerLayerMetrics();
/// Traced-run metrics that only some workloads can measure (the wire
/// client's view, the server's own histograms):
/// printed, but not part of the JSON result.
const std::vector<MetricDef>& ReportOnlyMetrics();

struct MetricValue {
  double value = 0.0;
  /// Sample count, percentile and similar context for the printed report.
  std::string detail;
};

/// \brief Outcome of one workload run.
struct RunResult {
  std::string workload;
  bool traced = false;
  /// Sessions attempted in the measured windows, and those that failed:
  /// errored, were refused with `busy`, or gave a wrong answer.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False once any checked answer was wrong.
  bool correct = true;
  std::vector<std::string> failures;
  std::map<std::string, MetricValue> metrics;
  /// Self time per layer of the traced sessions (traced runs only).
  SelfTimeTable self_times;
  std::vector<std::string> lines;

  void Set(const std::string& name, double value, std::string detail = "");
  /// p50 / p95 of `samples` under `prefix` + "_p50" / "_p95", with the
  /// sample counts in the detail.
  void SetPercentiles(const std::string& prefix,
                      const std::vector<double>& samples);
  /// Records a wrong answer or an error: the session counts as failed.
  void Fail(const std::string& why);
  /// Adds a line to the printed report.
  void Note(std::string line) { lines.push_back(std::move(line)); }
};

/// Prints the human-readable report and, as the last line, the JSON result
/// the benchmark contract defines. Returns false when an end-to-end metric
/// the run should have produced is missing or not a positive finite number.
bool PrintReport(const RunResult& result);

/// The JSON result line. `complete` is false when an end-to-end metric is
/// missing or not a positive finite number (the line is then not a result).
std::string ResultJson(const RunResult& result, bool* complete);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
