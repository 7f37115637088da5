#pragma once
// In-memory span recorder for the traced benchmark run.
//
// The benchmark records one span around each call into a public HiDaP
// function (see layer_wraps.cpp) and one root span per job. Spans are
// kept in memory and only analysed or written out after the measured
// window. When tracing is off a span site costs one relaxed load.
//
// Parent links follow the calling thread's open spans. A span opened on
// a thread with nothing open (a pool worker running part of a job) is
// attached to the root span of the job in flight, when exactly one job
// is in flight; otherwise it is left unattributed (job == -1).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< "layer.call"; static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list; -1 for roots
  std::int32_t job = -1;     ///< job id; -1 when not attributable
  std::uint32_t tid = 0;
};

bool tracing();
void set_tracing(bool on);

/// Steady-clock nanoseconds.
std::int64_t now_ns();

/// Times construction to destruction as one span. Inert when tracing is
/// off at construction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_ = -1;
};

/// Marks the calling thread as running job `id` and, when tracing, opens
/// the job's root span (named "job").
class JobScope {
 public:
  explicit JobScope(std::int32_t id);
  ~JobScope();
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  std::int32_t id_;
  std::int32_t root_ = -1;
};

/// Every span recorded so far (the recorder keeps them).
std::vector<SpanRecord> recorded_spans();

/// Per-layer self-time table over the spans of the given jobs.
struct LayerRow {
  std::string layer;  ///< name up to the first '.', or "(untraced)"
  std::uint64_t calls = 0;
  double self_s = 0.0;
};

struct TraceSummary {
  std::vector<LayerRow> rows;  ///< largest self time first
  double job_wall_s = 0.0;     ///< summed wall of the selected jobs
  double untraced_s = 0.0;     ///< job wall covered by no span
  double self_total_s = 0.0;   ///< sum of rows (thread-seconds)
  std::uint64_t spans = 0;
};

/// `jobs` selects job ids; empty selects every job id >= 0. A layer's
/// self time is its spans' durations minus the union of their children's
/// intervals; the root span's self time is the "(untraced)" row.
TraceSummary summarize(const std::vector<SpanRecord>& spans,
                       const std::vector<std::int32_t>& jobs = {});

/// Plain-text table of a summary. "share" is a layer's part of all self
/// time (thread-seconds, sums to 100%); "of_wall" is its self time over
/// the jobs' wall time, which sums past 100% where layers run in parallel.
std::string format_summary(const TraceSummary& summary, const std::string& title);

/// Writes the spans as Chrome trace_event JSON; returns false on I/O failure.
bool write_spans_json(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace perfbench
