#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <utility>

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint32_t> g_next_tid{0};

// One mutex guards the span list and the set of jobs in flight. Spans
// sit at layer boundaries (a few dozen per job), so the lock is cold.
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;
std::map<std::int32_t, std::int32_t> g_active_roots;  // job id -> root span

struct ThreadState {
  std::uint32_t tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  std::int32_t job = -1;
  bool client = false;             // runs jobs; never borrows another's
  std::vector<std::int32_t> open;  // this thread's open span indices
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

// Opens a span under g_mutex and returns its index.
std::int32_t open_span(const char* name, ThreadState& ts) {
  SpanRecord rec;
  rec.name = name;
  rec.tid = ts.tid;
  if (!ts.open.empty()) {
    rec.parent = ts.open.back();
    rec.job = g_spans[static_cast<std::size_t>(rec.parent)].job;
  } else if (ts.job >= 0) {
    rec.job = ts.job;
  } else if (!ts.client && g_active_roots.size() == 1) {
    rec.job = g_active_roots.begin()->first;
    rec.parent = g_active_roots.begin()->second;
  }
  rec.start_ns = now_ns();
  const auto index = static_cast<std::int32_t>(g_spans.size());
  g_spans.push_back(rec);
  ts.open.push_back(index);
  return index;
}

void close_span(std::int32_t index, ThreadState& ts) {
  const std::int64_t end = now_ns();
  g_spans[static_cast<std::size_t>(index)].end_ns = end;
  ts.open.pop_back();
}

std::string layer_of(const char* name) {
  const std::string s = name;
  return s.substr(0, s.find('.'));
}

// Length of the union of [start, end) intervals clipped to [lo, hi).
double union_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv, std::int64_t lo,
                std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  std::int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_hi) {
      cur_hi = std::max(cur_hi, e);
      continue;
    }
    if (open) covered += static_cast<double>(cur_hi - cur_lo);
    cur_lo = s;
    cur_hi = e;
    open = true;
  }
  if (open) covered += static_cast<double>(cur_hi - cur_lo);
  return covered;
}

}  // namespace

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!tracing()) return;
  ThreadState& ts = thread_state();
  const std::lock_guard<std::mutex> lock(g_mutex);
  index_ = open_span(name, ts);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  ThreadState& ts = thread_state();
  const std::lock_guard<std::mutex> lock(g_mutex);
  close_span(index_, ts);
}

JobScope::JobScope(std::int32_t id) : id_(id) {
  ThreadState& ts = thread_state();
  ts.job = id;
  ts.client = true;
  if (!tracing()) return;
  const std::lock_guard<std::mutex> lock(g_mutex);
  root_ = open_span("job", ts);
  g_spans[static_cast<std::size_t>(root_)].job = id;
  g_active_roots[id] = root_;
}

JobScope::~JobScope() {
  ThreadState& ts = thread_state();
  ts.job = -1;
  if (root_ < 0) return;
  const std::lock_guard<std::mutex> lock(g_mutex);
  close_span(root_, ts);
  g_active_roots.erase(id_);
}

std::vector<SpanRecord> recorded_spans() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

TraceSummary summarize(const std::vector<SpanRecord>& spans,
                       const std::vector<std::int32_t>& jobs) {
  const std::set<std::int32_t> wanted(jobs.begin(), jobs.end());
  const auto selected = [&](const SpanRecord& s) {
    return s.job >= 0 && (wanted.empty() || wanted.count(s.job) != 0);
  };
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && selected(s)) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, LayerRow> by_layer;
  TraceSummary out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (!selected(s)) continue;
    const bool root = s.parent < 0;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double self = dur - union_ns(children[i], s.start_ns, s.end_ns);
    LayerRow& row = by_layer[root ? "(untraced)" : layer_of(s.name)];
    row.calls += 1;
    row.self_s += self * 1e-9;
    if (root) {
      out.job_wall_s += dur * 1e-9;
      out.untraced_s += self * 1e-9;
    }
    ++out.spans;
  }
  for (auto& [layer, row] : by_layer) {
    row.layer = layer;
    out.self_total_s += row.self_s;
    out.rows.push_back(row);
  }
  std::sort(out.rows.begin(), out.rows.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.self_s > b.self_s; });
  return out;
}

std::string format_summary(const TraceSummary& summary, const std::string& title) {
  std::string out = "# " + title + "\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-12s %8s %12s %9s %9s\n", "layer", "calls", "self_s",
                "share", "of_wall");
  out += line;
  for (const LayerRow& row : summary.rows) {
    const double share =
        summary.self_total_s > 0 ? 100.0 * row.self_s / summary.self_total_s : 0.0;
    const double of_wall = summary.job_wall_s > 0 ? 100.0 * row.self_s / summary.job_wall_s : 0.0;
    std::snprintf(line, sizeof line, "%-12s %8llu %12.4f %8.2f%% %8.2f%%\n", row.layer.c_str(),
                  static_cast<unsigned long long>(row.calls), row.self_s, share, of_wall);
    out += line;
  }
  const double coverage =
      summary.job_wall_s > 0 ? 1.0 - summary.untraced_s / summary.job_wall_s : 0.0;
  std::snprintf(line, sizeof line,
                "job wall %.4f s, untraced %.4f s, coverage %.2f%%, %llu spans\n",
                summary.job_wall_s, summary.untraced_s, 100.0 * coverage,
                static_cast<unsigned long long>(summary.spans));
  out += line;
  return out;
}

bool write_spans_json(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - epoch) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.job);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
