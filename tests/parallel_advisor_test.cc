// Parallel advising equivalence: the whole point of DESIGN §12 is that a
// pooled run is indistinguishable from a serial one — same indexes, same
// benefit, same optimizer-call count — so these tests assert exact
// equality (not tolerance) across thread counts, for every search
// algorithm. Also stresses the sharded BenefitCache's in-flight dedup
// directly (run under TSAN by the xia_tsan_build ctest).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/benefit.h"
#include "advisor/candidates.h"
#include "engine/query_parser.h"
#include "storage/catalog.h"
#include "storage/statistics.h"
#include "tpox/tpox_data.h"
#include "util/thread_pool.h"

namespace xia::advisor {
namespace {

engine::Statement Parse(const std::string& text) {
  auto stmt = engine::ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status();
  return std::move(*stmt);
}

class ParallelAdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpox::TpoxScale scale;
    scale.security_docs = 40;
    scale.order_docs = 40;
    scale.custacc_docs = 20;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());
    advisor_ = std::make_unique<IndexAdvisor>(&store_, &stats_);

    workload_.push_back(Parse(
        "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000007\" "
        "return $s"));
    workload_.push_back(Parse(
        "for $s in c('SDOC')/Security[Yield > 4.5] "
        "where $s/SecInfo/*/Sector = \"Energy\" return $s/Name"));
    workload_.push_back(Parse(
        "for $o in c('ODOC')/FIXML/Order where $o/@ID = \"100005\" "
        "return $o"));
    workload_.push_back(Parse(
        "for $o in c('ODOC')/FIXML/Order where $o/Instrmt/Sym = "
        "\"SYM000002\" return $o/@ID"));
    workload_.push_back(Parse(
        "for $c in c('CADOC')/Customer where $c/Id = 1003 "
        "return $c/Name"));
  }

  // Exact comparison: parallel advising promises bit-identical output.
  static void ExpectSameRecommendation(const Recommendation& a,
                                       const Recommendation& b) {
    ASSERT_EQ(a.indexes.size(), b.indexes.size());
    for (size_t i = 0; i < a.indexes.size(); ++i) {
      EXPECT_EQ(a.indexes[i].collection, b.indexes[i].collection);
      EXPECT_EQ(a.indexes[i].pattern.ToString(),
                b.indexes[i].pattern.ToString());
      EXPECT_EQ(a.indexes[i].is_general, b.indexes[i].is_general);
      EXPECT_EQ(a.indexes[i].size_bytes, b.indexes[i].size_bytes);
    }
    EXPECT_EQ(a.total_size_bytes, b.total_size_bytes);
    EXPECT_EQ(a.base_cost, b.base_cost);
    EXPECT_EQ(a.benefit, b.benefit);
    EXPECT_EQ(a.est_speedup, b.est_speedup);
    EXPECT_EQ(a.basic_candidates, b.basic_candidates);
    EXPECT_EQ(a.total_candidates, b.total_candidates);
    EXPECT_EQ(a.general_count, b.general_count);
    EXPECT_EQ(a.specific_count, b.specific_count);
    EXPECT_EQ(a.optimizer_calls, b.optimizer_calls);
    EXPECT_EQ(a.partial, b.partial);
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
  std::unique_ptr<IndexAdvisor> advisor_;
  engine::Workload workload_;
};

TEST_F(ParallelAdvisorTest, EveryAlgorithmIdenticalAcrossThreadCounts) {
  const std::vector<SearchAlgorithm> algorithms = {
      SearchAlgorithm::kGreedy,
      SearchAlgorithm::kGreedyWithHeuristics,
      SearchAlgorithm::kTopDownLite,
      SearchAlgorithm::kTopDownFull,
      SearchAlgorithm::kDynamicProgramming,
  };
  for (SearchAlgorithm algo : algorithms) {
    SCOPED_TRACE(SearchAlgorithmName(algo));
    AdvisorOptions options;
    options.algorithm = algo;
    options.disk_budget_bytes = 512 * 1024;
    options.threads = 1;
    auto serial = advisor_->Recommend(workload_, options);
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_FALSE(serial->partial);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      SCOPED_TRACE(threads);
      options.threads = threads;
      auto parallel = advisor_->Recommend(workload_, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      ExpectSameRecommendation(*serial, *parallel);
    }
  }
}

TEST_F(ParallelAdvisorTest, ExhaustiveIdenticalAcrossThreadCounts) {
  // Exhaustive enumerates 2^n subsets, refused beyond 16 candidates; a
  // two-statement workload without generalization stays under the limit.
  engine::Workload small;
  small.push_back(workload_[0]);
  small.push_back(workload_[2]);
  AdvisorOptions options;
  options.algorithm = SearchAlgorithm::kExhaustive;
  options.generalize = false;
  options.disk_budget_bytes = 512 * 1024;
  options.threads = 1;
  auto serial = advisor_->Recommend(small, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_LE(serial->basic_candidates, 16u);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE(threads);
    options.threads = threads;
    auto parallel = advisor_->Recommend(small, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameRecommendation(*serial, *parallel);
  }
}

TEST_F(ParallelAdvisorTest, SharedPoolMatchesRunLocalPool) {
  AdvisorOptions options;
  options.disk_budget_bytes = 512 * 1024;
  options.threads = 4;
  auto run_local = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(run_local.ok()) << run_local.status();

  util::ThreadPool pool(4);
  options.pool = &pool;
  auto shared = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(shared.ok()) << shared.status();
  ExpectSameRecommendation(*run_local, *shared);
  // The pool survives a run and serves the next one.
  auto again = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(again.ok()) << again.status();
  ExpectSameRecommendation(*run_local, *again);
}

TEST_F(ParallelAdvisorTest, ParallelTraceAnnotatesThreads) {
  AdvisorOptions options;
  options.disk_budget_bytes = 512 * 1024;
  options.threads = 2;
  auto rec = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(rec.ok()) << rec.status();
  const obs::SpanRecord* search = rec->trace.Find("search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->threads, 2);
  EXPECT_NE(rec->trace.ToJson().find("\"threads\":2"), std::string::npos);

  options.threads = 1;
  auto serial = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->trace.ToJson().find("\"threads\""), std::string::npos);
}

// Canonicalization: permuted or duplicated candidate ids must hit the
// same cache entries — no spurious misses, no extra optimizer calls.
TEST_F(ParallelAdvisorTest, ConfigurationIdsAreCanonicalized) {
  auto set = advisor_->BuildCandidates(workload_, /*generalize=*/true);
  ASSERT_TRUE(set.ok()) << set.status();
  ASSERT_GE(set->basic_count, 3u);

  storage::Catalog whatif(&store_, &stats_);
  BenefitEvaluator evaluator(&workload_, &*set, &whatif, &stats_, &store_,
                             BenefitEvaluator::Options{});
  ASSERT_TRUE(evaluator.Initialize().ok());

  const std::vector<int> config = {0, 1, 2};
  auto sorted = evaluator.ConfigurationBenefit(config);
  ASSERT_TRUE(sorted.ok()) << sorted.status();

  const size_t misses_after_first = evaluator.cache_misses();
  const uint64_t calls_after_first = evaluator.optimizer_calls();

  std::vector<int> shuffled = {2, 0, 1, 2, 0};  // permuted + duplicated
  std::mt19937 rng(7);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    auto benefit = evaluator.ConfigurationBenefit(shuffled);
    ASSERT_TRUE(benefit.ok()) << benefit.status();
    EXPECT_EQ(*benefit, *sorted);
  }
  EXPECT_EQ(evaluator.cache_misses(), misses_after_first);
  EXPECT_EQ(evaluator.optimizer_calls(), calls_after_first);
}

// The statistics memo under contention: eight threads fill the memo of a
// fresh CollectionStatistics at once, racing on the same patterns, and
// every answer equals the serial one (run under TSAN in xia_tsan_build).
TEST_F(ParallelAdvisorTest, StatisticsMemoFillsRaceFree) {
  auto set = advisor_->BuildCandidates(workload_, /*generalize=*/true);
  ASSERT_TRUE(set.ok()) << set.status();
  auto coll = store_.GetCollection("SDOC");
  ASSERT_TRUE(coll.ok());
  std::vector<xpath::IndexPattern> patterns;
  for (const Candidate& c : set->candidates) {
    if (c.collection != "SDOC") continue;
    for (const xpath::IndexPattern& p :
         {xpath::IndexPattern{c.pattern.path, xpath::ValueType::kString},
          xpath::IndexPattern{c.pattern.path, xpath::ValueType::kNumeric},
          xpath::IndexPattern{c.pattern.path, xpath::ValueType::kString,
                              /*structural=*/true}}) {
      patterns.push_back(p);
    }
  }
  ASSERT_GE(patterns.size(), 6u);
  const storage::CostConstants& cc = storage::DefaultCostConstants();

  storage::CollectionStatistics serial;
  serial.Collect(**coll);
  std::vector<storage::IndexStats> want_stats;
  std::vector<double> want_cardinality;
  for (const xpath::IndexPattern& p : patterns) {
    want_stats.push_back(serial.DeriveIndexStats(p, cc));
    want_cardinality.push_back(serial.EstimatePathCardinality(p.path));
  }

  storage::CollectionStatistics shared;
  shared.Collect(**coll);
  constexpr int kThreads = 8;
  std::vector<std::vector<storage::IndexStats>> got_stats(kThreads);
  std::vector<std::vector<double>> got_cardinality(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half the threads walk the patterns backwards, so fills collide
      // from both ends as well as head-on.
      const bool reverse = t % 2 == 1;
      got_stats[t].resize(patterns.size());
      got_cardinality[t].resize(patterns.size());
      for (size_t k = 0; k < patterns.size(); ++k) {
        const size_t i = reverse ? patterns.size() - 1 - k : k;
        got_cardinality[t][i] =
            shared.EstimatePathCardinality(patterns[i].path);
        got_stats[t][i] = shared.DeriveIndexStats(patterns[i], cc);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      EXPECT_TRUE(got_stats[t][i] == want_stats[i])
          << "thread " << t << " " << patterns[i].ToString();
      EXPECT_EQ(got_cardinality[t][i], want_cardinality[i])
          << "thread " << t << " " << patterns[i].ToString();
    }
  }
}

// The sharded cache's in-flight dedup under contention: every key is
// computed exactly once no matter how many threads race for it, and
// hits + misses == total GetOrCompute calls.
TEST(BenefitCacheTest, ConcurrentGetOrComputeDedupesExactly) {
  BenefitCache cache;
  constexpr int kKeys = 32;
  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::vector<std::atomic<int>> computed(kKeys);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &computed, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      for (int i = 0; i < kIterations; ++i) {
        const int k = static_cast<int>(rng() % kKeys);
        auto value = cache.GetOrCompute({k, k + 1}, [&computed, k]() {
          computed[k].fetch_add(1);
          return Result<double>(k * 1.5);
        });
        ASSERT_TRUE(value.ok());
        ASSERT_EQ(*value, k * 1.5);
      }
    });
  }
  for (auto& t : threads) t.join();

  int total_computed = 0;
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_LE(computed[k].load(), 1) << "key " << k << " computed twice";
    total_computed += computed[k].load();
  }
  EXPECT_EQ(cache.misses(), static_cast<size_t>(total_computed));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<size_t>(kThreads * kIterations));
}

TEST(BenefitCacheTest, FailedComputationIsNotCached) {
  BenefitCache cache;
  const std::vector<int> key = {1, 2, 3};
  int attempts = 0;
  auto failing = cache.GetOrCompute(key, [&attempts]() -> Result<double> {
    ++attempts;
    return Status::Internal("transient");
  });
  EXPECT_FALSE(failing.ok());
  // The failure was not cached: the next call recomputes and succeeds.
  auto retry = cache.GetOrCompute(key, [&attempts]() -> Result<double> {
    ++attempts;
    return Result<double>(42.0);
  });
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 42.0);
  EXPECT_EQ(attempts, 2);
  // And from then on it is a plain hit.
  auto hit = cache.GetOrCompute(key, [&attempts]() -> Result<double> {
    ++attempts;
    return Result<double>(0.0);
  });
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, 42.0);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

}  // namespace
}  // namespace xia::advisor
