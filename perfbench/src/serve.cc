// Workload `serve_mixed`: an in-process, durable net::Server over
// loopback, driven closed-loop by two client connections from one
// process: the 11 TPoX queries and point updates beside them, over the
// indexes the advisor recommends for that mix.
//
// Two connections, not one: with one loopback connection the read p99
// swung 157-262 us between runs, with two it stayed within 67-105 us.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "advisor/advisor.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "twin.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/capture.h"

namespace perfbench {
namespace {

using xia::Result;
using xia::Status;

constexpr size_t kConnections = 2;
/// Warm-up runs at least this long and until the server's workload
/// capture is full: from then on every publish is a counted drop, so the
/// timed window sees the server's steady state instead of a filling
/// buffer (nothing drains the capture unless an advise request runs).
constexpr double kMinWarmupS = 1.0;
constexpr double kMaxWarmupS = 60.0;
constexpr uint64_t kWarmupOps =
    xia::workload::WorkloadCapture::kDefaultCapacity + 4096;
constexpr double kTraceSliceS = 0.5;

constexpr const char* kName = "serve_mixed";
const xia::tpox::TpoxScale kScale{800, 1200, 300, 0};
/// Ops replayed on each twin stack in traced runs.
constexpr size_t kTwinOps = 10000;

/// A live server plus everything its op stream needs.
struct ServeSetup {
  std::unique_ptr<xia::net::Server> server;
  std::vector<TwinIndex> indexes;
  std::vector<Op> ops;
  std::string data_dir;
  /// Result count of each TPoX query from a scan.
  std::vector<int64_t> reference;
  double ingest_s = 0;
  double index_build_s = 0;
};

xia::tpox::TpoxScale Scaled(uint64_t seed) {
  xia::tpox::TpoxScale s = kScale;
  s.seed = seed;
  return s;
}

/// 90% the 11 TPoX queries verbatim, 10% point updates of a security's
/// LastTrade or an order's Px. Query counts are checked against a
/// reference except for the one query (Q5, LastTrade > 190) whose answer
/// the LastTrade updates can change.
Result<std::vector<Op>> MixedOps(const xia::tpox::TpoxScale& scale,
                                 uint64_t seed,
                                 const std::vector<int64_t>& reference) {
  constexpr size_t kStreamOps = 20000;
  constexpr size_t kQ5 = 4;
  XIA_ASSIGN_OR_RETURN(const xia::engine::Workload queries,
                       xia::tpox::TpoxQueries());
  xia::Random rng(seed * 7919ULL + 2);
  std::vector<Op> ops;
  ops.reserve(kStreamOps);
  for (size_t i = 0; i < kStreamOps; ++i) {
    Op op;
    if (rng.Bernoulli(0.1)) {
      op.update = true;
      op.expect_count = 1;
      if (rng.Bernoulli(0.5)) {
        op.text = xia::StringPrintf(
            "update SDOC set /Security/Price/LastTrade = %.2f "
            "where /Security[Symbol = \"%s\"]",
            rng.UniformDouble(5.0, 200.0),
            xia::tpox::TpoxDomains::Symbol(rng.Uniform(scale.security_docs))
                .c_str());
      } else {
        op.text = xia::StringPrintf(
            "update ODOC set /FIXML/Order/Px = %.2f "
            "where /FIXML/Order[@ID = \"%s\"]",
            rng.UniformDouble(5.0, 200.0),
            xia::tpox::TpoxDomains::OrderId(rng.Uniform(scale.order_docs))
                .c_str());
      }
    } else {
      const size_t q = rng.Uniform(queries.size());
      op.text = queries[q].text;
      op.expect_count = q == kQ5 ? -1 : reference[q];
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

Status CreateIndexes(xia::net::Client* client,
                     const std::vector<TwinIndex>& indexes,
                     double* build_s) {
  for (const TwinIndex& ix : indexes) {
    xia::net::CreateIndexRequest req;
    req.name = ix.name;
    req.collection = ix.collection;
    req.pattern = ix.pattern.path.ToString();
    req.value_type = static_cast<uint8_t>(ix.pattern.type);
    req.structural = ix.pattern.structural;
    XIA_ASSIGN_OR_RETURN(const xia::net::CreateIndexReply reply,
                         client->CreateIndex(req));
    *build_s += reply.build_seconds;
  }
  return Status::OK();
}

/// What serve_mixed derives from a copy of its database built in-process
/// from the same seed: each TPoX query's result count from a collection
/// scan (the reference its replies are checked against), and the
/// advisor's recommendation for the 11 queries plus an update mix (Fig.
/// 5's setting).
struct MixedPlan {
  std::vector<int64_t> reference;
  std::vector<TwinIndex> indexes;
};

Result<MixedPlan> PlanMixed(const xia::tpox::TpoxScale& scale, uint64_t seed) {
  xia::storage::DocumentStore store;
  xia::storage::StatisticsCatalog statistics;
  XIA_RETURN_IF_ERROR(xia::tpox::BuildTpoxDatabase(scale, &store, &statistics));
  MixedPlan plan;
  XIA_ASSIGN_OR_RETURN(xia::engine::Workload workload,
                       xia::tpox::TpoxQueries());
  {
    xia::storage::Catalog catalog(&store, &statistics);
    xia::engine::Executor executor(&store, &catalog);
    const xia::optimizer::Optimizer optimizer(&store, &catalog, &statistics);
    for (const auto& q : workload) {
      XIA_ASSIGN_OR_RETURN(const xia::optimizer::Plan scan,
                           optimizer.OptimizeWithoutIndexes(q));
      XIA_ASSIGN_OR_RETURN(const xia::engine::ExecResult res,
                           executor.Execute(q, scan));
      plan.reference.push_back(static_cast<int64_t>(res.result_count));
    }
  }
  xia::Random rng(seed * 7919ULL + 3);
  XIA_ASSIGN_OR_RETURN(
      xia::engine::Workload updates,
      xia::tpox::TpoxTransactionMix(2, scale.security_docs, scale.order_docs,
                                    scale.custacc_docs, &rng));
  for (auto& st : updates) workload.push_back(std::move(st));
  xia::advisor::IndexAdvisor advisor(&store, &statistics);
  xia::advisor::AdvisorOptions options;
  options.threads = 1;
  // A budget of the All-Index size. With an unconstrained budget the
  // advisor picks general //* indexes, whose maintenance holds the
  // exclusive lock for ~400 us per update; the run's figures then spread
  // 0.20-0.28 (IQR / median) over seeds, beyond any bound the benchmark
  // may set. With this budget it picks specific indexes and they spread
  // 0.04-0.07.
  XIA_ASSIGN_OR_RETURN(const xia::advisor::Recommendation all,
                       advisor.AllIndexConfiguration(workload));
  options.disk_budget_bytes = all.total_size_bytes;
  XIA_ASSIGN_OR_RETURN(const xia::advisor::Recommendation rec,
                       advisor.Recommend(workload, options));
  for (const auto& ri : rec.indexes) {
    plan.indexes.push_back({xia::StringPrintf("rec%zu", plan.indexes.size()),
                            ri.collection, ri.pattern});
  }
  return plan;
}

Result<std::unique_ptr<ServeSetup>> BuildSetup(const RunOptions& o, int n) {
  auto s = std::make_unique<ServeSetup>();
  const xia::tpox::TpoxScale scale = Scaled(o.seed);
  xia::net::ServerOptions options;
  options.demo = "tpox";
  options.demo_tpox_scale = scale;
  s->data_dir =
      xia::StringPrintf("%s/%s-data-%d", o.work_dir.c_str(), kName, n);
  std::filesystem::remove_all(s->data_dir);
  options.data_dir = s->data_dir;
  options.fsync_policy = "interval";
  s->server = std::make_unique<xia::net::Server>(options);
  const int64_t t0 = NowNs();
  XIA_RETURN_IF_ERROR(s->server->Start());
  s->ingest_s = (NowNs() - t0) / 1e9;

  XIA_ASSIGN_OR_RETURN(MixedPlan plan, PlanMixed(scale, o.seed));
  s->indexes = std::move(plan.indexes);
  s->reference = std::move(plan.reference);
  xia::net::Client client;
  XIA_RETURN_IF_ERROR(client.Connect(s->server->host(), s->server->port()));
  XIA_RETURN_IF_ERROR(CreateIndexes(&client, s->indexes, &s->index_build_s));
  XIA_ASSIGN_OR_RETURN(s->ops, MixedOps(scale, o.seed, s->reference));
  return s;
}

/// One op as the client saw it.
struct Sample {
  int64_t start_ns;
  int64_t end_ns;
  bool ok;
  bool update;
};

/// Per-connection state; merged after the join.
struct Connection {
  xia::net::Client client;
  std::vector<Sample> samples;
  SpanLog spans;
  std::vector<std::string> errors;
  uint64_t check_failures = 0;
};

std::string CheckReply(const Op& op, const xia::net::ExecReply& reply) {
  if (op.expect_count >= 0 &&
      reply.result_count != static_cast<uint64_t>(op.expect_count)) {
    return xia::StringPrintf(
        "%s: %llu results, expected %lld", op.text.c_str(),
        static_cast<unsigned long long>(reply.result_count),
        static_cast<long long>(op.expect_count));
  }
  return std::string();
}

}  // namespace

RunResult RunServeMixed(const RunOptions& o) {
  RunResult r;
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> setup;
  std::vector<std::string> data_dirs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (setup) (void)setup->server->Stop();
    setup.reset();
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<ServeSetup>> built = BuildSetup(o, i);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!built.ok()) {
      r.Fail("setup: " + built.status().ToString());
      return r;
    }
    setup = std::move(built).value();
    data_dirs.push_back(setup->data_dir);
  }
  const std::vector<Op>& ops = setup->ops;

  // Closed loop: each connection sends its next op only after the reply
  // to the previous one. Connection c walks ops c, c+2, c+4, ...
  std::vector<std::unique_ptr<Connection>> conns;
  for (size_t c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Connection>();
    if (Status st = conn->client.Connect(setup->server->host(),
                                         setup->server->port());
        !st.ok()) {
      r.Fail("connect: " + st.ToString());
      (void)setup->server->Stop();
      return r;
    }
    conn->samples.reserve(static_cast<size_t>(o.seconds * 60000) + 200000);
    conns.push_back(std::move(conn));
  }
  std::atomic<uint64_t> done{0};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> window_start{std::numeric_limits<int64_t>::max()};
  const auto worker = [&](size_t c) {
    Connection& conn = *conns[c];
    const uint32_t kRoundtrip = conn.spans.Name("net.roundtrip");
    for (uint64_t i = c; !stop.load(std::memory_order_relaxed);
         i += kConnections) {
      const Op& op = ops[i % ops.size()];
      const int64_t t0 = NowNs();
      const Result<xia::net::ExecReply> reply =
          op.update ? conn.client.Mutate({op.text})
                    : conn.client.Query({op.text});
      const int64_t t1 = NowNs();
      conn.samples.push_back({t0, t1, reply.ok(), op.update});
      if (!reply.ok()) {
        if (conn.errors.size() < 5) {
          conn.errors.push_back(op.text + ": " + reply.status().ToString());
        }
      } else if (std::string bad = CheckReply(op, *reply); !bad.empty()) {
        ++conn.check_failures;
        if (conn.errors.size() < 5) conn.errors.push_back(bad);
      }
      const int64_t ws = window_start.load(std::memory_order_relaxed);
      if (o.trace && t0 >= ws && InTracedSlice(t0 - ws, kTraceSliceS)) {
        conn.spans.Add(kRoundtrip, -1, static_cast<int64_t>(i), t0, t1);
      }
      done.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) threads.emplace_back(worker, c);

  const int64_t warm_start = NowNs();
  const auto warm_s = [&] { return (NowNs() - warm_start) / 1e9; };
  while ((done.load() < kWarmupOps || warm_s() < kMinWarmupS) &&
         warm_s() < kMaxWarmupS) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const uint64_t warmup_ops = done.load();
  const CounterSnapshot before = CounterSnapshot::Take();
  const int64_t ws = NowNs();
  window_start.store(ws);
  const int64_t we = ws + static_cast<int64_t>(o.seconds * 1e9);
  std::this_thread::sleep_until(
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(we - NowNs()));
  const CounterSnapshot after = CounterSnapshot::Take();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  // Ops that started and ended inside the window count; warm-up ops and
  // the ones straddling an edge are discarded.
  std::vector<double> all_us, update_us;
  // Per-second slices of the window: a run reports the median slice's
  // throughput and p99, so a stall of the shared host that spans a few
  // seconds moves the run's figures by one slice's rank, not its size.
  const size_t slices = static_cast<size_t>(std::ceil(o.seconds));
  std::vector<std::vector<double>> slice_us(slices);
  std::vector<double> slice_ok(slices);
  double traced_ok = 0, untraced_ok = 0;
  uint64_t check_failures = 0;
  SpanLog spans;
  for (const auto& conn : conns) {
    for (const Sample& s : conn->samples) {
      if (s.start_ns < ws || s.end_ns > we) continue;
      ++r.attempted;
      const double us = s.ok ? (s.end_ns - s.start_ns) / 1e3
                             : std::numeric_limits<double>::infinity();
      if (!s.ok) ++r.failed;
      all_us.push_back(us);
      if (s.update) update_us.push_back(us);
      const size_t slice = std::min(
          slices - 1, static_cast<size_t>((s.end_ns - ws) / 1000000000));
      slice_us[slice].push_back(us);
      if (s.ok) {
        slice_ok[slice] += 1;
        (InTracedSlice(s.start_ns - ws, kTraceSliceS) ? traced_ok
                                                      : untraced_ok) += 1;
      }
    }
    check_failures += conn->check_failures;
    for (const std::string& e : conn->errors) r.Fail(e);
    spans.Merge(conn->spans);
  }
  if (check_failures > 0) {
    r.Fail(xia::StringPrintf("%llu replies failed the output check",
                             static_cast<unsigned long long>(check_failures)));
  }
  const LatencySummary lat = Summarize(all_us);
  if (update_us.empty()) r.Fail("no update completed in the window");
  const LatencySummary upd = Summarize(update_us);
  std::vector<double> slice_p99;
  size_t min_beyond = std::numeric_limits<size_t>::max();
  for (std::vector<double>& us : slice_us) {
    const LatencySummary sl = Summarize(std::move(us));
    slice_p99.push_back(sl.p99_us);
    min_beyond = std::min(min_beyond, sl.beyond_p99);
  }
  if (min_beyond < 10) r.Fail("a slice has fewer than 10 samples beyond p99");

  const double ok_ops = static_cast<double>(r.attempted - r.failed);
  if (!o.trace) {
    r.Add("setup_s", Median(setup_s));
    r.Add("ops_per_s", Median(slice_ok));
    r.Add("latency_p50_us", lat.p50_us);
    r.Add("latency_p99_us", Median(slice_p99));
    r.Add("update_latency_p50_us", upd.p50_us);
  } else {
    // Live-server layers: client spans and the server's own counters.
    const double requests = after.Delta(before, "xia.net.requests.query") +
                            after.Delta(before, "xia.net.requests.mutation");
    const double server_s =
        after.SumDelta(before, "xia.net.latency.query") +
        after.SumDelta(before, "xia.net.latency.mutation");
    const double server_us = requests > 0 ? server_s / requests * 1e6 : 0;
    const double roundtrip_us = spans.MeanUs("net.roundtrip");
    r.Add("net.roundtrip_us", roundtrip_us);
    r.Add("net.server_us", server_us);
    r.Add("net.frontdoor_us", roundtrip_us - server_us);
    const double bytes = after.Delta(before, "xia.net.bytes_read") +
                         after.Delta(before, "xia.net.bytes_written");
    r.Add("net.bytes_per_op", requests > 0 ? bytes / requests : 0);
    const double published =
        after.Delta(before, "xia.workload.capture.published");
    const double dropped = after.Delta(before, "xia.workload.capture.dropped");
    r.Add("workload.capture_per_op",
          requests > 0 ? (published + dropped) / requests : 0);
    r.Add("workload.capture_dropped_share",
          published + dropped > 0 ? dropped / (published + dropped) : 0);
    r.Add("net.failed_share",
          r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0);
    r.Add("net.admission_rejects",
          after.Delta(before, "xia.net.admission_rejects"));
    // The WAL counts bytes when a batch is written out, not per commit,
    // so bytes per update is a window average rather than an exact count.
    const double commits = after.Delta(before, "xia.wal.commits");
    r.Add("wal.bytes_per_update",
          commits > 0 ? after.Delta(before, "xia.wal.bytes_appended") / commits
                      : 0);
    const double fsyncs = after.Delta(before, "xia.wal.fsyncs");
    r.Add("wal.commits_per_fsync", fsyncs > 0 ? commits / fsyncs : 0);
    r.Add("storage.ingest_s", setup->ingest_s);
    r.Add("storage.index_build_s", setup->index_build_s);
    const double traced_s = TracedSeconds(o.seconds, kTraceSliceS);
    r.Add("trace.ops_per_s", traced_ok / traced_s);
    r.Add("trace.untraced_ops_per_s", untraced_ok / (o.seconds - traced_s));
    const double mutations = after.Delta(before, "xia.net.requests.mutation");
    const double mutation_server_us =
        mutations > 0
            ? after.SumDelta(before, "xia.net.latency.mutation") / mutations *
                  1e6
            : 0;

    // Twin-stack layers: the same op stream, replayed serially on two
    // fresh stacks built from the seed. The first gives the stage times;
    // the exact counts of both must agree.
    TwinReport twin[2];
    for (int k = 0; k < 2; ++k) {
      const std::string dir =
          xia::StringPrintf("%s/%s-twin-%d", o.work_dir.c_str(), kName, k);
      Result<TwinReport> rep =
          ReplayOnTwin(Scaled(o.seed), setup->indexes, ops, kTwinOps, dir,
                       k == 0 ? &spans : nullptr);
      if (!rep.ok()) {
        r.Fail("twin replay: " + rep.status().ToString());
        break;
      }
      twin[k] = std::move(rep).value();
      data_dirs.push_back(dir);
    }
    for (const auto& [name, value] : twin[0].exact) {
      if (twin[1].exact[name] != value) {
        r.Fail(xia::StringPrintf(
            "%s differs between two twin replays of one seed: %.17g vs %.17g",
            name.c_str(), value, twin[1].exact[name]));
      }
    }
    for (const std::string& e : twin[0].errors) r.Fail("twin: " + e);
    for (const auto& [name, value] : twin[0].exact) {
      r.Add(name, value);
    }
    for (const auto& [name, value] : twin[0].timed) {
      r.Add(name, value);
    }
    r.Add("net.server_residual_us",
          mutations > 0 ? mutation_server_us - twin[0].update_engine_us : 0);
    std::vector<std::string> exact;
    for (const auto& [name, value] : twin[0].exact) {
      exact.push_back(Quote(name) + ": " + Num(value));
    }
    r.meta["exact_counts"] = JsonObject(exact);
    const std::string path = xia::StringPrintf(
        "%s/spans-%s-seed%llu.csv", o.work_dir.c_str(), kName,
        static_cast<unsigned long long>(o.seed));
    if (!spans.WriteCsv(path)) r.Fail("cannot write " + path);
    r.meta["spans_file"] = Quote(path);
  }

  std::vector<std::string> index_list, reference_list;
  for (const TwinIndex& ix : setup->indexes) {
    index_list.push_back(
        Quote(ix.collection + " " + ix.pattern.path.ToString()));
  }
  for (const int64_t n : setup->reference) {
    reference_list.push_back(std::to_string(n));
  }
  r.meta["indexes"] = JsonArray(index_list);
  r.meta["query_reference_counts"] = JsonArray(reference_list);
  r.meta["op_stream_length"] = std::to_string(ops.size());
  if (Status st = setup->server->Stop(); !st.ok()) {
    r.Fail("server stop: " + st.ToString());
  }
  setup.reset();
  for (const std::string& dir : data_dirs) std::filesystem::remove_all(dir);

  r.meta["db_scale"] = Quote(xia::StringPrintf(
      "%zu/%zu/%zu", kScale.security_docs, kScale.order_docs,
      kScale.custacc_docs));
  r.meta["connections"] = std::to_string(kConnections);
  r.meta["fsync"] = Quote("interval");
  r.meta["warmup_ops"] = std::to_string(warmup_ops);
  r.meta["slice_ops"] = JsonNumbers(slice_ok);
  r.meta["slice_p99_us"] = JsonNumbers(slice_p99);
  r.meta["slice_min_beyond_p99"] = std::to_string(min_beyond);
  r.meta["window_ops_per_s"] = Num(ok_ops / o.seconds);
  r.meta["window_p99_us"] = Num(lat.p99_us);
  r.meta["setup_s_each"] = JsonNumbers(setup_s);
  r.meta["latency_samples"] = std::to_string(lat.samples);
  r.meta["latency_beyond_p99"] = std::to_string(lat.beyond_p99);
  r.meta["update_latency_samples"] = std::to_string(upd.samples);
  r.meta["update_latency_beyond_p99"] = std::to_string(upd.beyond_p99);
  return r;
}

}  // namespace perfbench
