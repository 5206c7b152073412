#include "spans.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

/// Children of every span, each list sorted by start time.
std::vector<std::vector<int>> ChildLists(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(static_cast<int>(i));
  }
  for (auto& list : children) {
    std::sort(list.begin(), list.end(), [&](int a, int b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
  }
  return children;
}

int RootOf(const std::vector<Span>& spans, int i) {
  while (spans[i].parent >= 0) i = spans[i].parent;
  return i;
}

struct Interval {
  int64_t begin;
  int64_t end;
};

/// One interval per child, clipped into the parent and made disjoint, in
/// order (a child starting after the parent ends becomes empty).
std::vector<Interval> ClippedChildren(const std::vector<Span>& spans,
                                      const std::vector<int>& kids,
                                      Interval parent) {
  std::vector<Interval> out;
  int64_t cursor = parent.begin;
  for (int k : kids) {
    const int64_t b = std::min(std::max(spans[k].start_ns, cursor), parent.end);
    const int64_t e = std::min(std::max(spans[k].end_ns, b), parent.end);
    out.push_back({b, e});
    cursor = e;
  }
  return out;
}

void EmitEvent(std::FILE* f, bool* first, const std::string& name, char ph,
               int64_t ts_ns, int tid, uint64_t session) {
  std::fprintf(f, "%s\n{\"name\":\"", *first ? "" : ",");
  *first = false;
  for (char c : name) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fprintf(f,
               "\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
               "\"args\":{\"session\":%llu}}",
               ph, static_cast<double>(ts_ns) / 1000.0,
               static_cast<int>(getpid()), tid,
               static_cast<unsigned long long>(session));
}

void EmitTree(std::FILE* f, bool* first, const std::vector<Span>& spans,
              const std::vector<std::vector<int>>& children, int i,
              Interval at, int64_t origin, int tid) {
  EmitEvent(f, first, spans[i].name, 'B', at.begin - origin, tid,
            spans[i].session);
  const std::vector<Interval> kids = ClippedChildren(spans, children[i], at);
  for (size_t k = 0; k < kids.size(); ++k) {
    EmitTree(f, first, spans, children, children[i][k], kids[k], origin, tid);
  }
  EmitEvent(f, first, spans[i].name, 'E', at.end - origin, tid,
            spans[i].session);
}

}  // namespace

int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

int SpanLog::Add(std::string name, uint64_t session, int parent,
                 int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), session, parent, start_ns,
                    std::max(start_ns, end_ns)});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::Begin(std::string name, uint64_t session, int parent) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Add(std::move(name), session, parent, now, now);
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
}

void SpanLog::Append(SpanLog&& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span& s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
  other.spans_.clear();
}

SelfTimeTable SpanLog::SelfTimes(const std::string& root_name) const {
  const auto children = ChildLists(spans_);
  std::map<std::string, LayerTime> by_name;
  SelfTimeTable table;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (spans_[RootOf(spans_, static_cast<int>(i))].name != root_name) continue;
    int64_t covered = 0;
    for (const Interval& c :
         ClippedChildren(spans_, children[i], {s.start_ns, s.end_ns})) {
      covered += c.end - c.begin;
    }
    const double self_ms = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    if (s.parent < 0) {
      table.roots += 1;
      table.root_wall_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      table.leftover_ms += self_ms;
      continue;
    }
    LayerTime& layer = by_name[s.name];
    layer.name = s.name;
    layer.self_ms += self_ms;
    layer.spans += 1;
  }
  for (auto& [name, layer] : by_name) table.layers.push_back(layer);
  return table;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto children = ChildLists(spans_);
  std::vector<int> roots;
  int64_t origin = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) roots.push_back(static_cast<int>(i));
  }
  std::sort(roots.begin(), roots.end(), [&](int a, int b) {
    return spans_[a].start_ns < spans_[b].start_ns;
  });
  if (!roots.empty()) origin = spans_[roots.front()].start_ns;
  // Greedy lane assignment: each root takes the lowest lane already free at
  // its start, so a lane's roots never overlap.
  std::vector<int64_t> lane_end;
  std::vector<std::vector<int>> lanes;
  for (int r : roots) {
    size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > spans_[r].start_ns) ++lane;
    if (lane == lane_end.size()) {
      lane_end.push_back(0);
      lanes.emplace_back();
    }
    lane_end[lane] = spans_[r].end_ns;
    lanes[lane].push_back(r);
  }
  bool first = true;
  std::fputc('[', f);
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    for (int r : lanes[lane]) {
      EmitTree(f, &first, spans_, children, r,
               {spans_[r].start_ns, spans_[r].end_ns}, origin,
               static_cast<int>(lane) + 1);
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
