// Spans the benchmark records around its own calls into each layer of the
// program, for the traced run. Spans stay in memory; at the end they are
// written as Chrome trace-event JSON (loads in Perfetto) and folded into
// per-layer self times.
//
// Every span has a name, a start, an end, a parent (or none, for a session's
// root) and the id of the session it belongs to. Spans of one session nest
// and do not overlap; sessions on different connections may overlap in
// time, so the writer lays each root span out on its own lane (trace `tid`)
// among lanes that are free at its start.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the process's first call.
int64_t NowNs();

struct Span {
  std::string name;
  uint64_t session = 0;
  /// Index of the parent span in the same log; -1 for a root.
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of one span name, summed over every span with that name.
struct LayerTime {
  std::string name;
  double self_ms = 0.0;
  size_t spans = 0;
};

/// Per-layer self times over all root spans named `root_name`; the root's
/// own self time is the leftover (root wall minus its child spans).
struct SelfTimeTable {
  std::vector<LayerTime> layers;  // by name, root excluded
  double root_wall_ms = 0.0;
  double leftover_ms = 0.0;
  size_t roots = 0;
};

/// \brief An append-only span log owned by one thread. Disabled logs
/// record nothing and cost one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its index (-1 when disabled).
  int Add(std::string name, uint64_t session, int parent, int64_t start_ns,
          int64_t end_ns);
  /// Opens a span ending at End(); returns its index (-1 when disabled).
  int Begin(std::string name, uint64_t session, int parent);
  void End(int index);

  /// Moves every span of `other` into this log (indices re-based).
  void Append(SpanLog&& other);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span name under roots named `root_name`.
  SelfTimeTable SelfTimes(const std::string& root_name) const;

  /// Writes the log as a Chrome trace-event array of B/E events, nested per
  /// lane with monotonic timestamps. Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t session, int parent)
      : log_(log), index_(log->Begin(std::move(name), session, parent)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
