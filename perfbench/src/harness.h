// Shared pieces of the benchmark binary: run options, latency samples,
// in-memory spans, counter deltas and the result a workload hands back
// to main() for printing.

#ifndef XIA_PERFBENCH_HARNESS_H_
#define XIA_PERFBENCH_HARNESS_H_

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory inside the checkout (data dirs, span files).
  std::string work_dir;
};

/// Monotonic nanoseconds since the first call (span and op timestamps).
int64_t NowNs();

/// Median of a few set-up timings.
double Median(std::vector<double> values);

/// Moves the calling thread round-robin over the CPUs the process may run
/// on, and gives it back all of them when destroyed. On a shared host the
/// vCPUs differ in speed at the same moment (a fixed loop pinned to each
/// of four took 1.25-1.72 s side by side), so a single-threaded workload
/// left on one CPU measures which CPU it landed on; rotating makes each
/// run average over all of them.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pins the calling thread to the next CPU (a no-op with only one).
  void Next();
  size_t cpus() const { return cpus_.size(); }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Latency sample summary. Failed ops enter as +inf, so they count as
/// missing every percentile they reach.
struct LatencySummary {
  size_t samples = 0;
  double p50_us = 0;
  double p99_us = 0;
  /// Samples ranked strictly above the p99 sample.
  size_t beyond_p99 = 0;
};
LatencySummary Summarize(std::vector<double> latencies_us);

/// One span kept in memory until exit. `parent` is an index into the
/// same SpanLog (-1 for a root); spans of one op share `op`.
struct Span {
  uint32_t name;  // index into SpanLog::names
  int32_t parent;
  int64_t op;
  int64_t start_ns;
  int64_t end_ns;
};

/// Append-only span store for one thread; merged at exit.
class SpanLog {
 public:
  /// Interns a span name.
  uint32_t Name(const std::string& name);
  /// Records a finished span and returns its index.
  int32_t Add(uint32_t name, int32_t parent, int64_t op, int64_t start_ns,
              int64_t end_ns);
  /// Sets the end of a span added open (end == start) so children can
  /// name it as their parent while it runs.
  void End(int32_t span, int64_t end_ns) { spans_[span].end_ns = end_ns; }
  /// Appends `other`'s spans, remapping names and parents.
  void Merge(const SpanLog& other);
  /// Mean duration in microseconds of spans named `name` (0 if none).
  double MeanUs(const std::string& name) const;
  /// Writes "span,parent,op,name,start_ns,end_ns" CSV.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  std::vector<Span> spans_;
};

/// Snapshot of the program's own obs counters, for deltas.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  /// Counter value (histograms: observation count) minus `base`'s.
  double Delta(const CounterSnapshot& base, const std::string& name) const;
  /// Histogram sum minus `base`'s (seconds for latency histograms).
  double SumDelta(const CounterSnapshot& base, const std::string& name) const;

 private:
  xia::obs::MetricsSnapshot snap_;
};

/// One reported metric. Units come from BENCHMARK.json, which run.py
/// reads to order, complete and label what the binary prints.
struct Metric {
  std::string name;
  double value;
};

/// What a workload run hands back to main().
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Run description printed on the meta line (JSON values, pre-rendered).
  std::map<std::string, std::string> meta;
  /// Human-readable reasons for correct == false.
  std::vector<std::string> errors;

  void Fail(const std::string& why);
  void Add(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
};

/// JSON string literal.
std::string Quote(const std::string& s);
/// "[a, b, c]" and "{a, b, c}" from rendered JSON items.
std::string JsonArray(const std::vector<std::string>& items);
/// "[1.5, 2, 3]" from numbers.
std::string JsonNumbers(const std::vector<double>& values);
std::string JsonObject(const std::vector<std::string>& items);
/// Shortest round-trip rendering of a double ("null" for non-finite).
std::string Num(double v);

/// Seconds of [0, window_s) that fall in the traced slices: traced runs
/// trace slices 0, 2, 4, ... of `slice_s` and leave the others untraced.
double TracedSeconds(double window_s, double slice_s);
/// Whether an op started `offset_ns` into the window is in a traced slice.
inline bool InTracedSlice(int64_t offset_ns, double slice_s) {
  return (offset_ns / static_cast<int64_t>(slice_s * 1e9)) % 2 == 0;
}

/// Set-up repetitions per run (median reported as setup_s).
inline constexpr int kSetupRepeats = 5;

RunResult RunAdvise(const RunOptions& options);
RunResult RunServeMixed(const RunOptions& options);

}  // namespace perfbench

#endif  // XIA_PERFBENCH_HARNESS_H_
