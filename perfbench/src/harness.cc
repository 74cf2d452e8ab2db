#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

int64_t NowNs() {
  static const auto kOrigin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() > 1) sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

LatencySummary Summarize(std::vector<double> latencies_us) {
  LatencySummary s;
  s.samples = latencies_us.size();
  if (s.samples == 0) return s;
  std::sort(latencies_us.begin(), latencies_us.end());
  // Nearest-rank percentiles: the smallest sample with at least q of the
  // samples at or below it.
  const auto rank = [&](double q) {
    const size_t r = static_cast<size_t>(std::ceil(q * s.samples));
    return std::max<size_t>(r, 1) - 1;
  };
  s.p50_us = latencies_us[rank(0.50)];
  const size_t r99 = rank(0.99);
  s.p99_us = latencies_us[r99];
  s.beyond_p99 = s.samples - 1 - r99;
  return s;
}

double TracedSeconds(double window_s, double slice_s) {
  double traced = 0;
  for (int k = 0; k * slice_s < window_s; k += 2) {
    traced += std::min(slice_s, window_s - k * slice_s);
  }
  return traced;
}

uint32_t SpanLog::Name(const std::string& name) {
  const auto [it, inserted] =
      name_ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

int32_t SpanLog::Add(uint32_t name, int32_t parent, int64_t op,
                     int64_t start_ns, int64_t end_ns) {
  spans_.push_back({name, parent, op, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Merge(const SpanLog& other) {
  const int32_t offset = static_cast<int32_t>(spans_.size());
  std::vector<uint32_t> remap;
  remap.reserve(other.names_.size());
  for (const std::string& n : other.names_) remap.push_back(Name(n));
  spans_.reserve(spans_.size() + other.spans_.size());
  for (Span s : other.spans_) {
    s.name = remap[s.name];
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
}

double SpanLog::MeanUs(const std::string& name) const {
  const auto it = name_ids_.find(name);
  if (it == name_ids_.end()) return 0;
  double sum_us = 0;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (s.name != it->second) continue;
    sum_us += (s.end_ns - s.start_ns) / 1e3;
    ++n;
  }
  return n == 0 ? 0 : sum_us / static_cast<double>(n);
}

bool SpanLog::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span,parent,op,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%lld,%s,%lld,%lld\n", i, s.parent,
                 static_cast<long long>(s.op), names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot s;
  s.snap_ = xia::obs::MetricsRegistry::Global().Snapshot();
  return s;
}

namespace {

double CountOf(const xia::obs::MetricValue* m) {
  if (m == nullptr) return 0;
  switch (m->kind) {
    case xia::obs::MetricValue::Kind::kCounter:
      return static_cast<double>(m->counter);
    case xia::obs::MetricValue::Kind::kGauge:
      return m->gauge;
    case xia::obs::MetricValue::Kind::kHistogram:
      return static_cast<double>(m->count);
  }
  return 0;
}

}  // namespace

double CounterSnapshot::Delta(const CounterSnapshot& base,
                              const std::string& name) const {
  return CountOf(snap_.Find(name)) - CountOf(base.snap_.Find(name));
}

double CounterSnapshot::SumDelta(const CounterSnapshot& base,
                                 const std::string& name) const {
  const auto sum = [&](const xia::obs::MetricsSnapshot& s) {
    const xia::obs::MetricValue* m = s.Find(name);
    return m == nullptr ? 0.0 : m->sum;
  };
  return sum(snap_) - sum(base.snap_);
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string Join(const std::vector<std::string>& items, char open,
                 char close) {
  std::string out(1, open);
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + close;
}

}  // namespace

std::string JsonArray(const std::vector<std::string>& items) {
  return Join(items, '[', ']');
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) items.push_back(Num(v));
  return JsonArray(items);
}

std::string JsonObject(const std::vector<std::string>& items) {
  return Join(items, '{', '}');
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
