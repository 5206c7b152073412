// perfbench: runs one workload of the repository benchmark and prints its
// report; the last line is the JSON result (see BENCH.md).
//
//   perfbench --workload scan-cold|demo-sql --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench --digest WORKLOAD --seed N   prints the input digest

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload scan-cold|demo-sql "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       perfbench --digest WORKLOAD --seed N\n");
  return 2;
}

/// Folds the traced sessions' self times into the per-layer metrics.
void AddSelfTimes(perfbench::RunResult* r) {
  const perfbench::SelfTimeTable& t = r->self_times;
  if (t.roots == 0 || t.root_wall_ms <= 0) return;
  r->Set("trace.session_wall_ms", t.root_wall_ms / static_cast<double>(t.roots),
         "mean over " + std::to_string(t.roots) + " traced sessions");
  for (const perfbench::LayerTime& l : t.layers) {
    r->Set("trace.self_frac." + l.name, l.self_ms / t.root_wall_ms,
           std::to_string(l.spans) + " spans");
  }
  r->Set("trace.leftover_frac", t.leftover_ms / t.root_wall_ms,
         "session wall time outside every layer span");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string digest_of;
  perfbench::RunOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--digest") {
      digest_of = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt.seconds > 0;
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      have_trace = opt.trace || std::strcmp(value, "0") == 0;
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();
  if (!digest_of.empty()) {
    if (!have_seed) return Usage();
    std::printf("%016llx\n", static_cast<unsigned long long>(
                                 perfbench::InputDigest(digest_of, opt.seed)));
    return 0;
  }
  if (!have_seed || !have_seconds || !have_trace) return Usage();
  ::mkdir(opt.out_dir.c_str(), 0755);

  perfbench::RunResult result;
  if (workload == "scan-cold") {
    result = perfbench::RunScanCold(opt);
  } else if (workload == "demo-sql") {
    result = perfbench::RunDemoSql(opt);
  } else {
    return Usage();
  }
  if (opt.trace) AddSelfTimes(&result);
  if (!perfbench::PrintReport(result)) return 1;
  return 0;
}
