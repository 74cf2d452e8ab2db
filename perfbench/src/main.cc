// xia_perfbench: sets one workload up from a seed, drives it closed
// loop for a fixed window, checks its outputs and prints one JSON result
// line (end-to-end metrics, or per-layer metrics with --trace 1).
//
//   xia_perfbench --workload advise|serve_mixed --seed N --seconds S
//                 --trace 0|1 --work-dir DIR [--git-sha X]
//
// The result line names each metric the workload measured with its raw
// value; perfbench/run.py builds this binary from the checkout, runs it,
// and orders, completes and labels those metrics against BENCHMARK.json.
// See perfbench/NOTES.md for what each workload measures and why.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xia_perfbench --workload advise|serve_mixed --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--git-sha SHA]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  RunOptions o;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (o.work_dir.empty() || !(o.seconds > 0) || o.seconds > 3600) {
    return Usage();
  }
  std::filesystem::create_directories(o.work_dir);

  RunResult r;
  if (o.workload == "advise") {
    r = RunAdvise(o);
  } else if (o.workload == "serve_mixed") {
    r = RunServeMixed(o);
  } else {
    return Usage();
  }
  if (r.attempted == 0) {
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "check failed: %s\n", e.c_str());
    }
    std::fprintf(stderr, "no op completed; no result\n");
    return 1;
  }

  std::vector<std::string> metrics;
  for (const Metric& m : r.metrics) {
    metrics.push_back(Quote(m.name) + ": " + Num(m.value));
  }

  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }

  r.meta["workload"] = Quote(o.workload);
  r.meta["seed"] = std::to_string(o.seed);
  r.meta["seconds"] = Num(o.seconds);
  r.meta["trace"] = o.trace ? "true" : "false";
  r.meta["git_sha"] = Quote(git_sha);
  r.meta["build_type"] = Quote(PERFBENCH_BUILD_TYPE);
  r.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  std::vector<std::string> meta;
  for (const auto& [key, value] : r.meta) {
    meta.push_back(Quote(key) + ": " + value);
  }
  std::printf("perfbench-meta %s\n", JsonObject(meta).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), JsonObject(metrics).c_str());
  return 0;
}
