#include "twin.h"

#include <filesystem>
#include <memory>

#include "engine/executor.h"
#include "engine/query_parser.h"
#include "net/wire.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/string_util.h"
#include "wal/manager.h"

namespace perfbench {
namespace {

using xia::Result;
using xia::Status;

/// Forwards to the WAL and records a span around each commit, as a child
/// of the execute span that triggered it.
class TimedCommitLog : public xia::engine::CommitLog {
 public:
  TimedCommitLog(xia::engine::CommitLog* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {
    if (spans_ != nullptr) name_ = spans_->Name("wal.commit");
  }

  Status OnCommit(const xia::engine::Statement& statement) override {
    const int64_t t0 = NowNs();
    Status st = inner_->OnCommit(statement);
    const int64_t t1 = NowNs();
    last_ns_ = t1 - t0;
    if (spans_ != nullptr) spans_->Add(name_, parent_, op_, t0, t1);
    return st;
  }

  /// The span and op the next commit belongs to; resets the last time.
  void SetContext(int32_t parent, int64_t op) {
    parent_ = parent;
    op_ = op;
    last_ns_ = 0;
  }
  int64_t last_ns() const { return last_ns_; }

 private:
  xia::engine::CommitLog* inner_;
  SpanLog* spans_;
  uint32_t name_ = 0;
  int32_t parent_ = -1;
  int64_t op_ = 0;
  int64_t last_ns_ = 0;
};

/// Runs `fn(span)` and returns its nanoseconds. With `spans`, records it
/// as a span named `name` under `parent`; `fn` gets the span's index so
/// work inside it can hang child spans off it.
template <typename Fn>
int64_t Timed(SpanLog* spans, const char* name, int32_t parent, int64_t op,
              Fn&& fn) {
  const int64_t t0 = NowNs();
  const int32_t span =
      spans != nullptr ? spans->Add(spans->Name(name), parent, op, t0, t0)
                       : -1;
  fn(span);
  const int64_t t1 = NowNs();
  if (spans != nullptr) spans->End(span, t1);
  return t1 - t0;
}

/// Sends `payload` through the wire codec both ways: frame encode, frame
/// decode (CRC check included), payload decode.
template <typename Decode>
Status RoundTrip(xia::net::MsgType type, uint64_t id,
                 const std::string& payload, Decode decode) {
  const std::string bytes = xia::net::EncodeFrame(type, id, payload);
  xia::net::FrameReader reader;
  reader.Feed(bytes);
  xia::net::Frame frame;
  std::string error;
  if (reader.Poll(&frame, &error) != xia::net::FrameReader::Next::kFrame) {
    return Status::Internal("frame did not round-trip: " + error);
  }
  return decode(frame.payload).status();
}

}  // namespace

Result<TwinReport> ReplayOnTwin(const xia::tpox::TpoxScale& scale,
                                const std::vector<TwinIndex>& indexes,
                                const std::vector<Op>& ops, size_t count,
                                const std::string& wal_dir, SpanLog* spans) {
  xia::storage::DocumentStore store;
  xia::storage::StatisticsCatalog statistics;
  xia::storage::Catalog catalog(&store, &statistics);
  std::unique_ptr<xia::wal::WalManager> wal;
  // Same order as the server: open the (fresh) data dir, load the
  // database, log it into a checkpoint, then build the indexes.
  if (!wal_dir.empty()) {
    std::filesystem::remove_all(wal_dir);
    xia::wal::WalManagerOptions wal_options;
    wal_options.writer.policy = xia::wal::FsyncPolicy::kInterval;
    wal = std::make_unique<xia::wal::WalManager>(wal_dir, wal_options);
    XIA_RETURN_IF_ERROR(wal->Open(&store, &catalog, &statistics).status());
  }
  XIA_RETURN_IF_ERROR(
      xia::tpox::BuildTpoxDatabase(scale, &store, &statistics));
  if (wal) {
    for (const std::string& coll : store.CollectionNames()) {
      XIA_RETURN_IF_ERROR(wal->LogStatsRefresh(coll));
    }
    XIA_RETURN_IF_ERROR(wal->Checkpoint(store, catalog));
  }
  for (const TwinIndex& ix : indexes) {
    XIA_RETURN_IF_ERROR(
        catalog.CreateIndex(ix.name, ix.collection, ix.pattern).status());
    if (wal) {
      XIA_RETURN_IF_ERROR(
          wal->LogCreateIndex(ix.name, ix.collection, ix.pattern));
    }
  }
  xia::engine::Executor executor(&store, &catalog);
  std::unique_ptr<TimedCommitLog> commit_log;
  if (wal) {
    commit_log = std::make_unique<TimedCommitLog>(wal.get(), spans);
    executor.set_commit_log(commit_log.get());
  }

  TwinReport rep;
  int64_t codec_ns = 0, parse_ns = 0, optimize_ns = 0, query_exec_ns = 0,
          update_exec_ns = 0, commit_ns = 0, update_engine_ns = 0;
  double queries = 0, updates = 0, results = 0, docs_examined = 0,
         entries = 0;
  const uint32_t kOp = spans != nullptr ? spans->Name("twin.op") : 0;
  const CounterSnapshot before = CounterSnapshot::Take();
  for (size_t i = 0; i < count; ++i) {
    const Op& op = ops[i % ops.size()];
    // Twin op ids are negative, apart from the live run's.
    const int64_t id = -1 - static_cast<int64_t>(i);
    const int64_t op_start = NowNs();
    const int32_t root =
        spans != nullptr ? spans->Add(kOp, -1, id, op_start, op_start) : -1;
    Status st;
    xia::engine::Statement stmt;
    xia::optimizer::Plan plan;
    xia::engine::ExecResult result;
    codec_ns += Timed(spans, "net.codec", root, id, [&](int32_t) {
      st = op.update ? RoundTrip(xia::net::MsgType::kMutation, i,
                                 xia::net::EncodeMutationRequest({op.text}),
                                 xia::net::DecodeMutationRequest)
                     : RoundTrip(xia::net::MsgType::kQuery, i,
                                 xia::net::EncodeQueryRequest({op.text}),
                                 xia::net::DecodeQueryRequest);
    });
    XIA_RETURN_IF_ERROR(st);
    const int64_t parse = Timed(spans, "engine.parse", root, id, [&](int32_t) {
      Result<xia::engine::Statement> parsed =
          xia::engine::ParseStatement(op.text);
      st = parsed.status();
      if (parsed.ok()) stmt = std::move(parsed).value();
    });
    XIA_RETURN_IF_ERROR(st);
    const int64_t optimize =
        Timed(spans, "optimizer.optimize", root, id, [&](int32_t) {
          // A fresh optimizer per statement, as the server builds one.
          const xia::optimizer::Optimizer optimizer(&store, &catalog,
                                                    &statistics);
          Result<xia::optimizer::Plan> planned = optimizer.Optimize(stmt);
          st = planned.status();
          if (planned.ok()) plan = std::move(planned).value();
        });
    XIA_RETURN_IF_ERROR(st);
    const char* exec_name =
        op.update ? "engine.execute_update" : "engine.execute_query";
    const int64_t execute = Timed(spans, exec_name, root, id, [&](int32_t s) {
      if (commit_log) commit_log->SetContext(s, id);
      Result<xia::engine::ExecResult> executed =
          executor.Execute(stmt, plan);
      st = executed.status();
      if (executed.ok()) result = std::move(executed).value();
    });
    XIA_RETURN_IF_ERROR(st);
    codec_ns += Timed(spans, "net.codec", root, id, [&](int32_t) {
      xia::net::ExecReply reply;
      reply.result_count = result.result_count;
      reply.docs_examined = result.docs_examined;
      reply.index_entries_scanned = result.index_entries_scanned;
      reply.wall_seconds = result.wall_seconds;
      st = RoundTrip(xia::net::MsgType::kReply, i,
                     xia::net::EncodeExecReply(reply),
                     xia::net::DecodeExecReply);
    });
    XIA_RETURN_IF_ERROR(st);
    if (spans != nullptr) spans->End(root, NowNs());

    parse_ns += parse;
    optimize_ns += optimize;
    if (op.update) {
      const int64_t commit = commit_log ? commit_log->last_ns() : 0;
      ++updates;
      commit_ns += commit;
      update_exec_ns += execute - commit;
      update_engine_ns += parse + optimize + execute;
    } else {
      ++queries;
      query_exec_ns += execute;
      results += static_cast<double>(result.result_count);
      docs_examined += static_cast<double>(result.docs_examined);
      entries += static_cast<double>(result.index_entries_scanned);
    }
    if (op.expect_count >= 0 &&
        result.result_count != static_cast<uint64_t>(op.expect_count) &&
        rep.errors.size() < 5) {
      rep.errors.push_back(xia::StringPrintf(
          "%s: %llu results, expected %lld", op.text.c_str(),
          static_cast<unsigned long long>(result.result_count),
          static_cast<long long>(op.expect_count)));
    }
  }
  const CounterSnapshot after = CounterSnapshot::Take();

  const double n = static_cast<double>(count);
  const auto per = [](double x, double d) { return d > 0 ? x / d : 0; };
  auto& exact = rep.exact;
  exact["storage.index_probes_per_op"] =
      after.Delta(before, "xia.storage.index.probes") / n;
  exact["storage.btree_node_reads_per_op"] =
      after.Delta(before, "xia.storage.btree.node_reads") / n;
  exact["storage.doc_fetches_per_op"] =
      after.Delta(before, "xia.storage.store.doc_fetches") / n;
  exact["storage.docs_examined_per_result"] = per(docs_examined, results);
  exact["storage.index_entries_per_result"] = per(entries, results);
  exact["storage.btree_splits_per_update"] =
      per(after.Delta(before, "xia.storage.btree.leaf_splits") +
              after.Delta(before, "xia.storage.btree.internal_splits"),
          updates);
  const auto timed = [&](const char* name, int64_t ns, double d) {
    rep.timed[name] = per(ns / 1e3, d);
  };
  timed("net.codec_us", codec_ns, n);
  timed("engine.parse_us", parse_ns, n);
  timed("optimizer.optimize_us", optimize_ns, n);
  timed("engine.execute_query_us", query_exec_ns, queries);
  timed("engine.execute_update_us", update_exec_ns, updates);
  timed("wal.commit_us", commit_ns, updates);
  rep.update_engine_us = per(update_engine_ns / 1e3, updates);
  return rep;
}

}  // namespace perfbench
