// The twin stack of a traced serve run: the same storage, catalog,
// optimizer, executor and WAL a server composes, built in-process from
// the same seed, so the op stream can be replayed serially with a span
// around each module's public entry point.

#ifndef XIA_PERFBENCH_TWIN_H_
#define XIA_PERFBENCH_TWIN_H_

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "tpox/tpox_data.h"
#include "util/status.h"
#include "xpath/path.h"

namespace perfbench {

/// One index a workload builds.
struct TwinIndex {
  std::string name;
  std::string collection;
  xia::xpath::IndexPattern pattern;
};

/// One statement of an op stream and the reply it must get (-1 =
/// unchecked).
struct Op {
  std::string text;
  bool update = false;
  int64_t expect_count = -1;
};

struct TwinReport {
  /// Per-op counts from the program's counters; repeat exactly for a seed.
  std::map<std::string, double> exact;
  /// Mean stage times in microseconds.
  std::map<std::string, double> timed;
  /// Mean parse + optimize + execute (commit included) per update.
  double update_engine_us = 0;
  std::vector<std::string> errors;
};

/// Builds a twin stack (with a WAL in `wal_dir` unless empty, fsync
/// interval) and replays the first `count` ops of `ops`, wrapping. With
/// `spans`, records one root span per op and a child per stage.
xia::Result<TwinReport> ReplayOnTwin(const xia::tpox::TpoxScale& scale,
                                     const std::vector<TwinIndex>& indexes,
                                     const std::vector<Op>& ops, size_t count,
                                     const std::string& wal_dir,
                                     SpanLog* spans);

}  // namespace perfbench

#endif  // XIA_PERFBENCH_TWIN_H_
