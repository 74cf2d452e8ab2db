// Workload `advise`: in-process IndexAdvisor::Recommend, serial, one
// caller, closed loop. One op is one advise run over a workload taken
// round-robin from a pool of pre-generated ones (Fig. 3's quantity).

#include <limits>
#include <memory>

#include "advisor/advisor.h"
#include "harness.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "tpox/synthetic.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using xia::Result;

// Generated workloads differ in advise cost by up to 2.5x, so a run's
// p99 is set by the slowest few it meets. With a pool this large each
// workload runs about eight times in a 45 s window, and the p99 is a
// quantile over many workloads instead of the cost of the slowest one:
// with 64 the p99 spread 0.25 (IQR / median) over 10 seeds.
constexpr size_t kPoolSize = 512;
constexpr size_t kSyntheticQueries = 40;
constexpr size_t kUpdatesPerKind = 2;  // 5 kinds -> 10 updates
constexpr double kBudgetShareOfAllIndex = 0.5;
const xia::tpox::TpoxScale kScale{800, 1200, 300, 0};

struct AdviseSetup {
  xia::storage::DocumentStore store;
  xia::storage::StatisticsCatalog statistics;
  std::unique_ptr<xia::advisor::IndexAdvisor> advisor;
  std::vector<xia::engine::Workload> pool;
  std::vector<double> budgets;
  double ingest_s = 0;
};

Result<std::unique_ptr<AdviseSetup>> BuildSetup(uint64_t seed) {
  auto s = std::make_unique<AdviseSetup>();
  xia::tpox::TpoxScale scale = kScale;
  scale.seed = seed;
  const int64_t t0 = NowNs();
  XIA_RETURN_IF_ERROR(
      xia::tpox::BuildTpoxDatabase(scale, &s->store, &s->statistics));
  s->ingest_s = (NowNs() - t0) / 1e9;
  s->advisor = std::make_unique<xia::advisor::IndexAdvisor>(&s->store,
                                                            &s->statistics);
  for (size_t i = 0; i < kPoolSize; ++i) {
    xia::Random rng(seed * 1000003ULL + i);
    XIA_ASSIGN_OR_RETURN(xia::engine::Workload w, xia::tpox::TpoxQueries());
    XIA_ASSIGN_OR_RETURN(
        xia::engine::Workload synthetic,
        xia::tpox::GenerateSyntheticWorkload(
            s->statistics,
            {xia::tpox::kSecurityCollection, xia::tpox::kOrderCollection,
             xia::tpox::kCustAccCollection},
            kSyntheticQueries, &rng));
    XIA_ASSIGN_OR_RETURN(
        xia::engine::Workload updates,
        xia::tpox::TpoxTransactionMix(kUpdatesPerKind, scale.security_docs,
                                      scale.order_docs, scale.custacc_docs,
                                      &rng));
    for (auto& st : synthetic) w.push_back(std::move(st));
    for (auto& st : updates) w.push_back(std::move(st));
    // Half the All-Index size, so the top-down search has to replace
    // DAG nodes instead of keeping every candidate.
    XIA_ASSIGN_OR_RETURN(const xia::advisor::Recommendation all,
                         s->advisor->AllIndexConfiguration(w));
    s->budgets.push_back(kBudgetShareOfAllIndex * all.total_size_bytes);
    s->pool.push_back(std::move(w));
  }
  return s;
}

std::string Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return xia::StringPrintf("%016llx", static_cast<unsigned long long>(h));
}

/// FNV-1a over the recommendation's identity: indexes, benefit and
/// optimizer calls. Equal digests = identical advisor output.
std::string Digest(const xia::advisor::Recommendation& rec) {
  std::string text;
  for (const auto& ri : rec.indexes) {
    text += ri.collection + " " + ri.pattern.path.ToString() + " " +
            std::to_string(static_cast<int>(ri.pattern.type)) +
            (ri.pattern.structural ? " s" : "") +
            (ri.is_general ? " g" : "") + ";";
  }
  text += xia::StringPrintf("|%.17g|%llu", rec.benefit,
                            static_cast<unsigned long long>(
                                rec.optimizer_calls));
  return Fnv1a(text);
}

}  // namespace

RunResult RunAdvise(const RunOptions& o) {
  RunResult r;
  // One serial caller: spread its set-ups and its window over every CPU
  // (see CpuRotation), so a run does not measure one CPU's speed.
  CpuRotation rotation;
  std::vector<double> setup_s;
  std::unique_ptr<AdviseSetup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();
    rotation.Next();
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<AdviseSetup>> built = BuildSetup(o.seed);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!built.ok()) {
      r.Fail("setup: " + built.status().ToString());
      return r;
    }
    setup = std::move(built).value();
  }

  xia::advisor::AdvisorOptions base_options;
  base_options.threads = 1;
  const auto advise = [&](size_t w) {
    xia::advisor::AdvisorOptions opt = base_options;
    opt.disk_budget_bytes = setup->budgets[w];
    return setup->advisor->Recommend(setup->pool[w], opt);
  };

  // Warm-up: one pass over the pool. It fixes each workload's reference
  // digest and gives the exact per-op counts (a full pool cycle, so they
  // do not depend on where the timed window starts or ends).
  std::vector<std::string> digests;
  double calls_total = 0, candidates_total = 0;
  for (size_t w = 0; w < kPoolSize; ++w) {
    Result<xia::advisor::Recommendation> rec = advise(w);
    if (!rec.ok()) {
      r.Fail("warm-up advise: " + rec.status().ToString());
      return r;
    }
    if (rec->partial) r.Fail("warm-up advise returned a partial result");
    digests.push_back(Digest(*rec));
    calls_total += static_cast<double>(rec->optimizer_calls);
    candidates_total += static_cast<double>(rec->total_candidates);
  }

  // Timed window. Traced runs alternate 1 s traced and untraced slices,
  // so the tracing overhead is measured under the same host drift. The
  // caller moves to the next CPU between ops, every kRotateOps ops (about
  // 0.15 s): each run visits every CPU many times, and moves stay rare.
  constexpr double kSliceS = 1.0;
  constexpr uint64_t kRotateOps = 16;
  SpanLog spans;
  const uint32_t kOpSpan = spans.Name("advise.recommend");
  std::vector<double> latencies_us;
  double window_calls = 0, window_us = 0;
  double traced_ok = 0, untraced_ok = 0;
  std::map<std::string, double> phase_us;
  const CounterSnapshot before = CounterSnapshot::Take();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(o.seconds * 1e9);
  for (uint64_t op = 0;; ++op) {
    const size_t w = op % kPoolSize;
    if (op % kRotateOps == 0) rotation.Next();
    const int64_t t0 = NowNs();
    if (t0 >= end) break;
    const bool traced = o.trace && InTracedSlice(t0 - start, kSliceS);
    Result<xia::advisor::Recommendation> rec = advise(w);
    const int64_t t1 = NowNs();
    if (t1 > end) break;  // straddles the window end: not counted
    ++r.attempted;
    const double us = (t1 - t0) / 1e3;
    if (!rec.ok()) {
      ++r.failed;
      latencies_us.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    latencies_us.push_back(us);
    if (Digest(*rec) != digests[w]) {
      r.Fail(xia::StringPrintf("advise digest of pool workload %zu changed",
                               w));
    }
    window_calls += static_cast<double>(rec->optimizer_calls);
    window_us += us;
    (traced ? traced_ok : untraced_ok) += 1;
    if (!traced) continue;
    // The advisor's own phase trace tiles the run, so its depth-0 spans
    // are laid end to end under the op's root span.
    const int32_t root =
        spans.Add(kOpSpan, -1, static_cast<int64_t>(op), t0, t1);
    int64_t cursor = t0;
    for (const auto& phase : rec->trace.spans) {
      if (phase.depth != 0) continue;
      const int64_t len = static_cast<int64_t>(phase.seconds * 1e9);
      spans.Add(spans.Name("advisor." + phase.name), root,
                static_cast<int64_t>(op), cursor, cursor + len);
      cursor += len;
      phase_us[phase.name] += phase.seconds * 1e6;
    }
  }
  const CounterSnapshot after = CounterSnapshot::Take();

  const double ok_ops = static_cast<double>(r.attempted - r.failed);
  const LatencySummary lat = Summarize(latencies_us);
  if (lat.beyond_p99 < 10) {
    r.Fail("fewer than 10 latency samples beyond p99");
  }
  if (!o.trace) {
    r.Add("setup_s", Median(setup_s));
    r.Add("ops_per_s", ok_ops / o.seconds);
    r.Add("latency_p50_us", lat.p50_us);
    r.Add("latency_p99_us", lat.p99_us);
    // No writes here: the metric falls back to the median of all ops.
    r.Add("update_latency_p50_us", lat.p50_us);
  } else {
    const auto phase_ms = [&](const char* name) {
      return traced_ok > 0 ? phase_us[name] / traced_ok / 1e3 : 0;
    };
    r.Add("advisor.enumerate_ms", phase_ms("enumerate"));
    r.Add("advisor.generalize_ms", phase_ms("generalize"));
    r.Add("advisor.initialize_ms", phase_ms("initialize"));
    r.Add("advisor.search_ms", phase_ms("search"));
    // Candidate building on its own, once per pool workload.
    const uint32_t kBuild = spans.Name("advisor.build_candidates");
    for (size_t w = 0; w < kPoolSize; ++w) {
      const int64_t t0 = NowNs();
      const auto set = setup->advisor->BuildCandidates(setup->pool[w], true);
      spans.Add(kBuild, -1, -1 - static_cast<int64_t>(w), t0, NowNs());
      if (!set.ok()) r.Fail("BuildCandidates: " + set.status().ToString());
    }
    r.Add("advisor.build_candidates_ms",
          spans.MeanUs("advisor.build_candidates") / 1e3);
    r.Add("advisor.candidates_per_op", candidates_total / kPoolSize);
    const double hits =
        after.Delta(before, "xia.advisor.benefit.cache_hits");
    const double misses =
        after.Delta(before, "xia.advisor.benefit.cache_misses");
    r.Add("advisor.benefit_cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0);
    r.Add("optimizer.whatif_calls_per_op", calls_total / kPoolSize);
    r.Add("optimizer.whatif_call_us",
          window_calls > 0 ? window_us / window_calls : 0);
    r.Add("storage.ingest_s", setup->ingest_s);
    const double traced_s = TracedSeconds(o.seconds, kSliceS);
    r.Add("trace.ops_per_s", traced_ok / traced_s);
    r.Add("trace.untraced_ops_per_s", untraced_ok / (o.seconds - traced_s));
    r.meta["exact_counts"] = xia::StringPrintf(
        "{\"optimizer.whatif_calls_per_op\": %s, "
        "\"advisor.candidates_per_op\": %s}",
        Num(calls_total / kPoolSize).c_str(),
        Num(candidates_total / kPoolSize).c_str());
    const std::string path = xia::StringPrintf(
        "%s/spans-advise-seed%llu.csv", o.work_dir.c_str(),
        static_cast<unsigned long long>(o.seed));
    if (!spans.WriteCsv(path)) r.Fail("cannot write " + path);
    r.meta["spans_file"] = Quote(path);
  }

  // One digest over every pool workload's digest, in pool order: equal
  // on parent and change means identical advisor output everywhere.
  std::string all_digests;
  for (const std::string& d : digests) all_digests += d;
  r.meta["advise_digest"] = Quote(Fnv1a(all_digests));
  r.meta["db_scale"] = Quote(xia::StringPrintf(
      "%zu/%zu/%zu", kScale.security_docs, kScale.order_docs,
      kScale.custacc_docs));
  r.meta["pool_size"] = std::to_string(kPoolSize);
  r.meta["connections"] = "1";
  r.meta["cpus_rotated"] = std::to_string(rotation.cpus());
  r.meta["fsync"] = Quote("none");
  r.meta["setup_s_each"] = JsonNumbers(setup_s);
  r.meta["latency_samples"] = std::to_string(lat.samples);
  r.meta["latency_beyond_p99"] = std::to_string(lat.beyond_p99);
  r.meta["update_latency_source"] = Quote("all ops (no writes)");
  return r;
}

}  // namespace perfbench
