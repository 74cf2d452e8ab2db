#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "advisor/advisor.h"
#include "engine/normalizer.h"
#include "optimizer/plan.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/index.h"
#include "storage/statistics.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "xml/parser.h"
#include "xpath/containment.h"
#include "xpath/parser.h"

namespace xia::storage {
namespace {

xml::Document Doc(const std::string& text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(*doc);
}

xpath::IndexPattern Pattern(const char* text,
                            xpath::ValueType type = xpath::ValueType::kString) {
  auto p = xpath::ParsePattern(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return {*p, type};
}

// A small fixture with a few Security-like documents.
class StorageFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto coll = store_.CreateCollection("SDOC");
    ASSERT_TRUE(coll.ok());
    coll_ = *coll;
    AddSecurity("IBM", "4.8", "Energy");
    AddSecurity("MSFT", "2.1", "Tech");
    AddSecurity("XOM", "6.5", "Energy");
    AddSecurity("NOVAL", "", "Tech");  // missing yield value
    stats_.RunStats(*coll_);
  }

  void AddSecurity(const std::string& symbol, const std::string& yield,
                   const std::string& sector) {
    std::string yield_el =
        yield.empty() ? "<Yield/>" : "<Yield>" + yield + "</Yield>";
    doc_ids_.push_back(coll_->Add(Doc(
        "<Security><Symbol>" + symbol + "</Symbol>" + yield_el +
        "<SecInfo><StockInformation><Sector>" + sector +
        "</Sector></StockInformation></SecInfo></Security>")));
  }

  DocumentStore store_;
  Collection* coll_ = nullptr;
  StatisticsCatalog stats_;
  std::vector<xml::DocId> doc_ids_;
};

TEST_F(StorageFixture, CollectionBasics) {
  EXPECT_EQ(coll_->live_count(), 4u);
  EXPECT_GT(coll_->total_bytes(), 0u);
  EXPECT_GT(coll_->total_nodes(), 0u);
  EXPECT_TRUE(coll_->IsLive(doc_ids_[0]));
  EXPECT_FALSE(coll_->IsLive(99));
  EXPECT_FALSE(coll_->IsLive(-1));
}

TEST_F(StorageFixture, RemoveKeepsIdsStable) {
  const size_t bytes_before = coll_->total_bytes();
  ASSERT_TRUE(coll_->Remove(doc_ids_[1]).ok());
  EXPECT_EQ(coll_->live_count(), 3u);
  EXPECT_LT(coll_->total_bytes(), bytes_before);
  EXPECT_FALSE(coll_->IsLive(doc_ids_[1]));
  EXPECT_TRUE(coll_->IsLive(doc_ids_[2]));
  EXPECT_FALSE(coll_->Remove(doc_ids_[1]).ok());  // double remove
  // New documents do not reuse the removed slot.
  const xml::DocId fresh = coll_->Add(Doc("<Security/>"));
  EXPECT_NE(fresh, doc_ids_[1]);
}

TEST_F(StorageFixture, ForEachSkipsDead) {
  ASSERT_TRUE(coll_->Remove(doc_ids_[0]).ok());
  size_t seen = 0;
  coll_->ForEach([&](xml::DocId id, const xml::Document&) {
    EXPECT_NE(id, doc_ids_[0]);
    ++seen;
  });
  EXPECT_EQ(seen, 3u);
}

TEST(DocumentStoreTest, CollectionLifecycle) {
  DocumentStore store;
  EXPECT_TRUE(store.CreateCollection("A").ok());
  EXPECT_FALSE(store.CreateCollection("A").ok());
  EXPECT_TRUE(store.GetCollection("A").ok());
  EXPECT_FALSE(store.GetCollection("B").ok());
  ASSERT_TRUE(store.CreateCollection("B").ok());
  EXPECT_EQ(store.CollectionNames(),
            (std::vector<std::string>{"A", "B"}));
}

TEST_F(StorageFixture, PathStatisticsContents) {
  auto cs = stats_.Get("SDOC");
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ((*cs)->document_count(), 4u);

  const auto& paths = (*cs)->paths();
  ASSERT_TRUE(paths.count("/Security/Symbol"));
  const PathStats& symbol = paths.at("/Security/Symbol");
  EXPECT_EQ(symbol.count, 4u);
  EXPECT_EQ(symbol.valued_count, 4u);
  EXPECT_EQ(symbol.distinct_values, 4u);
  EXPECT_EQ(symbol.numeric_count, 0u);
  EXPECT_EQ(symbol.min_string, "IBM");
  EXPECT_EQ(symbol.max_string, "XOM");

  const PathStats& yield = paths.at("/Security/Yield");
  EXPECT_EQ(yield.count, 4u);
  EXPECT_EQ(yield.valued_count, 3u);  // one empty
  EXPECT_EQ(yield.numeric_count, 3u);
  EXPECT_DOUBLE_EQ(yield.min_numeric, 2.1);
  EXPECT_DOUBLE_EQ(yield.max_numeric, 6.5);

  const PathStats& sector =
      paths.at("/Security/SecInfo/StockInformation/Sector");
  EXPECT_EQ(sector.count, 4u);
  EXPECT_EQ(sector.distinct_values, 2u);  // Energy, Tech
}

TEST_F(StorageFixture, DistinctCountExtrapolatesWhenSaturated) {
  // With a tiny distinct cap, RUNSTATS stops tracking exact distincts and
  // extrapolates from the valued count (sampling-style approximation).
  CollectionStatistics stats;
  CollectionStatistics::CollectOptions options;
  options.distinct_cap = 2;
  stats.Collect(*coll_, options);
  const PathStats& symbol = stats.paths().at("/Security/Symbol");
  EXPECT_GE(symbol.distinct_values, 2u);   // at least what it saw
  EXPECT_LE(symbol.distinct_values, symbol.valued_count);
}

TEST_F(StorageFixture, DeriveIndexStatsRespectsPatternAndType) {
  auto cs = stats_.Get("SDOC");
  ASSERT_TRUE(cs.ok());
  const CostConstants& cc = DefaultCostConstants();

  const IndexStats symbol =
      (*cs)->DeriveIndexStats(Pattern("/Security/Symbol"), cc);
  EXPECT_EQ(symbol.entry_count, 4u);
  EXPECT_EQ(symbol.distinct_keys, 4u);
  EXPECT_GT(symbol.size_bytes, 0u);

  const IndexStats yield = (*cs)->DeriveIndexStats(
      Pattern("/Security/Yield", xpath::ValueType::kNumeric), cc);
  EXPECT_EQ(yield.entry_count, 3u);  // empty value rejected
  EXPECT_DOUBLE_EQ(yield.min_numeric, 2.1);
  EXPECT_DOUBLE_EQ(yield.max_numeric, 6.5);

  // Wildcard pattern folds both matching concrete paths.
  const IndexStats sector =
      (*cs)->DeriveIndexStats(Pattern("/Security/SecInfo/*/Sector"), cc);
  EXPECT_EQ(sector.entry_count, 4u);

  // Universal pattern counts every valued node.
  const IndexStats universal = (*cs)->DeriveIndexStats(Pattern("//*"), cc);
  EXPECT_GT(universal.entry_count, sector.entry_count);
}

TEST_F(StorageFixture, DerivedStatsMatchActualIndex) {
  // The virtual-index statistics derivation must agree with a really built
  // index on entry counts (the quantity driving costs).
  for (const char* pattern_text :
       {"/Security/Symbol", "/Security/SecInfo/*/Sector", "//*"}) {
    const xpath::IndexPattern pattern = Pattern(pattern_text);
    PathValueIndex index("t", "SDOC", pattern);
    index.Build(*coll_);
    auto cs = stats_.Get("SDOC");
    ASSERT_TRUE(cs.ok());
    const IndexStats derived =
        (*cs)->DeriveIndexStats(pattern, DefaultCostConstants());
    EXPECT_EQ(derived.entry_count, index.entry_count()) << pattern_text;
  }
}

TEST_F(StorageFixture, EstimatePathCardinality) {
  auto cs = stats_.Get("SDOC");
  ASSERT_TRUE(cs.ok());
  EXPECT_DOUBLE_EQ((*cs)->EstimatePathCardinality(*xpath::ParsePattern(
                       "/Security/Symbol")),
                   4.0);
  EXPECT_DOUBLE_EQ(
      (*cs)->EstimatePathCardinality(*xpath::ParsePattern("/Security")), 4.0);
  EXPECT_DOUBLE_EQ(
      (*cs)->EstimatePathCardinality(*xpath::ParsePattern("/Nothing")), 0.0);
}

TEST_F(StorageFixture, IndexLookupEquality) {
  PathValueIndex index("sym", "SDOC", Pattern("/Security/Symbol"));
  index.Build(*coll_);
  EXPECT_EQ(index.entry_count(), 4u);
  auto hits = index.Lookup(xpath::CompareOp::kEq,
                           xpath::Literal::String("IBM"));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->rids.size(), 1u);
  EXPECT_EQ(hits->rids[0].doc, doc_ids_[0]);
  EXPECT_GE(hits->leaf_pages_touched, 1u);
}

TEST_F(StorageFixture, IndexLookupNumericRanges) {
  PathValueIndex index(
      "yield", "SDOC",
      Pattern("/Security/Yield", xpath::ValueType::kNumeric));
  index.Build(*coll_);
  EXPECT_EQ(index.entry_count(), 3u);  // NOVAL skipped

  auto gt = index.Lookup(xpath::CompareOp::kGt, xpath::Literal::Number(4.5));
  ASSERT_TRUE(gt.ok());
  EXPECT_EQ(gt->rids.size(), 2u);  // 4.8, 6.5

  auto ge = index.Lookup(xpath::CompareOp::kGe, xpath::Literal::Number(4.8));
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge->rids.size(), 2u);

  auto lt = index.Lookup(xpath::CompareOp::kLt, xpath::Literal::Number(4.8));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->rids.size(), 1u);  // 2.1

  auto le = index.Lookup(xpath::CompareOp::kLe, xpath::Literal::Number(4.8));
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(le->rids.size(), 2u);

  auto eq = index.Lookup(xpath::CompareOp::kEq, xpath::Literal::Number(6.5));
  ASSERT_TRUE(eq.ok());
  ASSERT_EQ(eq->rids.size(), 1u);
  EXPECT_EQ(eq->rids[0].doc, doc_ids_[2]);
}

TEST_F(StorageFixture, IndexRejectsUnsupportedLookups) {
  PathValueIndex index("sym", "SDOC", Pattern("/Security/Symbol"));
  index.Build(*coll_);
  EXPECT_FALSE(
      index.Lookup(xpath::CompareOp::kNe, xpath::Literal::String("x")).ok());
  EXPECT_FALSE(
      index.Lookup(xpath::CompareOp::kEq, xpath::Literal::Number(1)).ok());
}

TEST_F(StorageFixture, IndexMaintenance) {
  PathValueIndex index("sym", "SDOC", Pattern("/Security/Symbol"));
  index.Build(*coll_);
  EXPECT_EQ(index.entry_count(), 4u);

  xml::Document doc = Doc("<Security><Symbol>NEW</Symbol></Security>");
  const xml::DocId id = coll_->Add(Doc("<Security><Symbol>NEW</Symbol></Security>"));
  index.OnInsert(id, coll_->Get(id));
  EXPECT_EQ(index.entry_count(), 5u);
  auto hits =
      index.Lookup(xpath::CompareOp::kEq, xpath::Literal::String("NEW"));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->rids.size(), 1u);

  index.OnRemove(id, coll_->Get(id));
  EXPECT_EQ(index.entry_count(), 4u);
}

TEST_F(StorageFixture, UniversalIndexIndexesEverything) {
  PathValueIndex index("all", "SDOC", Pattern("//*"));
  index.Build(*coll_);
  // Every node with a non-empty value: 3 symbols + 3 yields + 4 sectors
  // + NOVAL symbol = 4 symbols, 3 yields, 4 sectors = 11.
  EXPECT_EQ(index.entry_count(), 11u);
}

TEST_F(StorageFixture, CatalogRealAndVirtual) {
  Catalog catalog(&store_, &stats_);
  auto real = catalog.CreateIndex("r1", "SDOC", Pattern("/Security/Symbol"));
  ASSERT_TRUE(real.ok()) << real.status();
  EXPECT_FALSE((*real)->is_virtual);
  EXPECT_EQ((*real)->stats.entry_count, 4u);

  auto virt = catalog.CreateVirtualIndex(
      "v1", "SDOC", Pattern("/Security/Yield", xpath::ValueType::kNumeric));
  ASSERT_TRUE(virt.ok()) << virt.status();
  EXPECT_TRUE((*virt)->is_virtual);
  EXPECT_EQ((*virt)->stats.entry_count, 3u);
  EXPECT_EQ((*virt)->physical, nullptr);

  EXPECT_FALSE(catalog.CreateIndex("r1", "SDOC", Pattern("//*")).ok());
  EXPECT_EQ(catalog.IndexesFor("SDOC").size(), 2u);
  EXPECT_TRUE(catalog.IndexesFor("OTHER").empty());

  EXPECT_TRUE(catalog.GetPhysical("r1").ok());
  EXPECT_FALSE(catalog.GetPhysical("v1").ok());

  catalog.DropAllVirtualIndexes();
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_TRUE(catalog.Get("r1").ok());
  EXPECT_FALSE(catalog.Get("v1").ok());
  EXPECT_TRUE(catalog.DropIndex("r1").ok());
  EXPECT_FALSE(catalog.DropIndex("r1").ok());
}

TEST_F(StorageFixture, CatalogNotifyMaintainsRealIndexes) {
  Catalog catalog(&store_, &stats_);
  ASSERT_TRUE(catalog.CreateIndex("r1", "SDOC",
                                  Pattern("/Security/Symbol")).ok());
  const xml::DocId id =
      coll_->Add(Doc("<Security><Symbol>ZZZ</Symbol></Security>"));
  catalog.NotifyInsert("SDOC", id, coll_->Get(id));
  auto physical = catalog.GetPhysical("r1");
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ((*physical)->entry_count(), 5u);
  catalog.NotifyRemove("SDOC", id, coll_->Get(id));
  EXPECT_EQ((*physical)->entry_count(), 4u);
}

TEST_F(StorageFixture, VirtualIndexRequiresStatistics) {
  StatisticsCatalog empty_stats;
  Catalog catalog(&store_, &empty_stats);
  EXPECT_FALSE(
      catalog.CreateVirtualIndex("v", "SDOC", Pattern("//*")).ok());
}

// ---- Bulk build fast paths ----

// A bigger mixed collection: varied values (duplicates, empties,
// non-numeric yields) plus deleted documents, so the bulk paths face
// tombstones and rejected keys, not just the happy path.
class BulkBuildFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    coll_ = *store_.CreateCollection("SDOC");
    for (int i = 0; i < 200; ++i) {
      const std::string sym = "S" + std::to_string(i % 37);
      const std::string yield = (i % 11 == 0)   ? ""
                                : (i % 13 == 0) ? "n/a"
                                                : std::to_string(i % 29) + ".5";
      AddSecurity(sym, yield, i % 2 ? "Energy" : "Tech");
    }
    // Tombstones in the middle of the id space.
    for (int i = 40; i < 60; i += 3) {
      ASSERT_TRUE(coll_->Remove(doc_ids_[static_cast<size_t>(i)]).ok());
    }
  }

  void AddSecurity(const std::string& symbol, const std::string& yield,
                   const std::string& sector) {
    std::string yield_el =
        yield.empty() ? "<Yield/>" : "<Yield>" + yield + "</Yield>";
    doc_ids_.push_back(coll_->Add(Doc(
        "<Security><Symbol>" + symbol + "</Symbol>" + yield_el +
        "<SecInfo><StockInformation><Sector>" + sector +
        "</Sector></StockInformation></SecInfo></Security>")));
  }

  std::vector<xpath::IndexPattern> Patterns() const {
    return {Pattern("/Security/Symbol"),
            Pattern("/Security/Yield", xpath::ValueType::kNumeric),
            Pattern("/Security/SecInfo/*/Sector")};
  }

  DocumentStore store_;
  Collection* coll_ = nullptr;
  std::vector<xml::DocId> doc_ids_;
};

TEST_F(BulkBuildFixture, BuildBulkManyMatchesPerIndexBuild) {
  const auto patterns = Patterns();
  std::vector<std::unique_ptr<PathValueIndex>> reference;
  std::vector<std::unique_ptr<PathValueIndex>> many;
  std::vector<PathValueIndex*> many_ptrs;
  for (size_t p = 0; p < patterns.size(); ++p) {
    reference.push_back(
        std::make_unique<PathValueIndex>("r", "SDOC", patterns[p]));
    reference.back()->Build(*coll_);
    many.push_back(std::make_unique<PathValueIndex>("m", "SDOC", patterns[p]));
    many_ptrs.push_back(many.back().get());
  }
  PathValueIndex::BuildBulkMany(*coll_, many_ptrs);
  const CostConstants cc = DefaultCostConstants();
  for (size_t p = 0; p < patterns.size(); ++p) {
    EXPECT_GT(many[p]->entry_count(), 0u) << p;
    EXPECT_EQ(many[p]->ContentDigest(), reference[p]->ContentDigest()) << p;
    // The derived statistics must match too — BulkLoadKeys rebuilds them
    // from the key run rather than maintaining them per insert.
    const IndexStats a = many[p]->ActualStats(cc);
    const IndexStats b = reference[p]->ActualStats(cc);
    EXPECT_EQ(a.entry_count, b.entry_count) << p;
    EXPECT_EQ(a.distinct_keys, b.distinct_keys) << p;
    EXPECT_DOUBLE_EQ(a.avg_key_length, b.avg_key_length) << p;
  }
}

TEST_F(BulkBuildFixture, BuildBulkManyPooledMatchesSerial) {
  const auto patterns = Patterns();
  std::vector<std::unique_ptr<PathValueIndex>> serial;
  std::vector<std::unique_ptr<PathValueIndex>> pooled;
  std::vector<PathValueIndex*> serial_ptrs;
  std::vector<PathValueIndex*> pooled_ptrs;
  for (size_t p = 0; p < patterns.size(); ++p) {
    serial.push_back(std::make_unique<PathValueIndex>("s", "SDOC", patterns[p]));
    serial_ptrs.push_back(serial.back().get());
    pooled.push_back(std::make_unique<PathValueIndex>("p", "SDOC", patterns[p]));
    pooled_ptrs.push_back(pooled.back().get());
  }
  PathValueIndex::BuildBulkMany(*coll_, serial_ptrs, /*pool=*/nullptr);
  util::ThreadPool pool(4);
  PathValueIndex::BuildBulkMany(*coll_, pooled_ptrs, &pool);
  for (size_t p = 0; p < patterns.size(); ++p) {
    EXPECT_EQ(pooled[p]->ContentDigest(), serial[p]->ContentDigest()) << p;
  }
}

TEST_F(BulkBuildFixture, BuildBulkManyNoIndexesIsANoop) {
  PathValueIndex::BuildBulkMany(*coll_, {});  // must not touch the store
  EXPECT_EQ(coll_->live_count(), 193u);
}

TEST_F(BulkBuildFixture, BulkIngestorMatchesIncrementalMaintenance) {
  const auto patterns = Patterns();

  // Reference: a second collection populated with Add + OnInsert per
  // document, the incremental maintenance path.
  DocumentStore ref_store;
  Collection* ref_coll = *ref_store.CreateCollection("SDOC");
  std::vector<std::unique_ptr<PathValueIndex>> incr;
  for (const auto& pattern : patterns) {
    incr.push_back(std::make_unique<PathValueIndex>("i", "SDOC", pattern));
  }

  DocumentStore fast_store;
  Collection* fast_coll = *fast_store.CreateCollection("SDOC");
  std::vector<std::unique_ptr<PathValueIndex>> bulk;
  std::vector<PathValueIndex*> bulk_ptrs;
  for (const auto& pattern : patterns) {
    bulk.push_back(std::make_unique<PathValueIndex>("b", "SDOC", pattern));
    bulk_ptrs.push_back(bulk.back().get());
  }
  BulkIngestor ingestor(fast_coll, bulk_ptrs);

  coll_->ForEach([&](xml::DocId, const xml::Document& doc) {
    xml::Document copy_a = doc;
    const xml::DocId ref_id = ref_coll->Add(std::move(copy_a));
    for (auto& index : incr) index->OnInsert(ref_id, ref_coll->Get(ref_id));
    xml::Document copy_b = doc;
    const xml::DocId fast_id = ingestor.Add(std::move(copy_b));
    EXPECT_EQ(fast_id, ref_id);
  });
  ingestor.Finish();

  for (size_t p = 0; p < patterns.size(); ++p) {
    EXPECT_GT(bulk[p]->entry_count(), 0u) << p;
    EXPECT_EQ(bulk[p]->ContentDigest(), incr[p]->ContentDigest()) << p;
  }
  EXPECT_EQ(fast_coll->live_count(), coll_->live_count());
  EXPECT_EQ(fast_coll->total_bytes(), coll_->total_bytes());

  // The ingested indexes serve lookups like incrementally built ones.
  auto hits = bulk[0]->Lookup(xpath::CompareOp::kEq,
                              xpath::Literal::String("S5"));
  ASSERT_TRUE(hits.ok());
  EXPECT_GT(hits->rids.size(), 0u);
}

TEST_F(BulkBuildFixture, BulkIngestorEmptyCollection) {
  DocumentStore store;
  Collection* coll = *store.CreateCollection("SDOC");
  auto index =
      std::make_unique<PathValueIndex>("e", "SDOC", Pattern("//*"));
  BulkIngestor ingestor(coll, {index.get()});
  ingestor.Finish();
  EXPECT_EQ(index->entry_count(), 0u);
  EXPECT_EQ(coll->live_count(), 0u);
}

// ---------------------------------------------------------------------------
// The statistics memo: memoized answers must equal a scan of every recorded
// path, and Collect must drop them.

// The virtual-index derivation as a full scan: every recorded path is
// tested with MatchesLabelPath, then folded in paths() order.
IndexStats BruteForceDeriveIndexStats(const CollectionStatistics& data,
                                      const xpath::IndexPattern& pattern,
                                      const CostConstants& cc) {
  IndexStats out;
  double key_length_weighted = 0.0;
  bool any = false;
  std::map<std::string, uint64_t> distinct_by_last_label;
  std::vector<std::pair<double, double>> histogram_pool;
  size_t histogram_buckets = 0;
  for (const auto& [path_string, stats] : data.paths()) {
    if (!xpath::MatchesLabelPath(pattern.path, stats.labels)) continue;
    const std::string last_label =
        stats.labels.empty() ? std::string() : stats.labels.back();
    uint64_t entries = 0;
    if (pattern.structural) {
      entries = stats.count;
      distinct_by_last_label[last_label] += stats.count;
    } else if (pattern.type == xpath::ValueType::kNumeric) {
      entries = stats.numeric_count;
      uint64_t& group = distinct_by_last_label[last_label];
      group = std::max(group, stats.distinct_numeric);
      key_length_weighted += 8.0 * static_cast<double>(entries);
      if (!stats.numeric_quantiles.empty() && entries > 0) {
        const double weight =
            static_cast<double>(entries) /
            static_cast<double>(stats.numeric_quantiles.size());
        for (double q : stats.numeric_quantiles) {
          histogram_pool.emplace_back(q, weight);
        }
        histogram_buckets = std::max(histogram_buckets,
                                     stats.numeric_quantiles.size() - 1);
      }
      if (entries > 0) {
        if (!any || stats.min_numeric < out.min_numeric) {
          out.min_numeric = stats.min_numeric;
        }
        if (!any || stats.max_numeric > out.max_numeric) {
          out.max_numeric = stats.max_numeric;
        }
      }
    } else {
      entries = stats.valued_count;
      uint64_t& group = distinct_by_last_label[last_label];
      group = std::max(group, stats.distinct_values);
      key_length_weighted +=
          stats.avg_value_length * static_cast<double>(entries);
      if (entries > 0) {
        if (!any || stats.min_string < out.min_string) {
          out.min_string = stats.min_string;
        }
        if (!any || stats.max_string > out.max_string) {
          out.max_string = stats.max_string;
        }
      }
    }
    if (entries > 0) any = true;
    out.entry_count += entries;
  }
  for (const auto& [label, distinct] : distinct_by_last_label) {
    out.distinct_keys += distinct;
  }
  if (!histogram_pool.empty()) {
    out.numeric_quantiles =
        WeightedQuantiles(std::move(histogram_pool), histogram_buckets);
  }
  out.avg_key_length =
      out.entry_count == 0
          ? 8.0
          : key_length_weighted / static_cast<double>(out.entry_count);
  const double entry_bytes =
      out.avg_key_length + static_cast<double>(cc.index_entry_overhead);
  out.size_bytes = static_cast<uint64_t>(
      std::ceil(entry_bytes * static_cast<double>(out.entry_count)));
  out.leaf_pages = std::max<uint64_t>(
      1, out.size_bytes / cc.page_size +
             (out.size_bytes % cc.page_size != 0 ? 1 : 0));
  out.levels = 1;
  uint64_t pages = out.leaf_pages;
  while (pages > 1) {
    pages = (pages + cc.assumed_fanout - 1) / cc.assumed_fanout;
    ++out.levels;
  }
  return out;
}

double BruteForceCardinality(const CollectionStatistics& data,
                             const xpath::Path& a,
                             const xpath::Path* b = nullptr) {
  double total = 0.0;
  for (const auto& [path_string, stats] : data.paths()) {
    if (xpath::MatchesLabelPath(a, stats.labels) &&
        (b == nullptr || xpath::MatchesLabelPath(*b, stats.labels))) {
      total += static_cast<double>(stats.count);
    }
  }
  return total;
}

// Every field, the quantiles and strings included, compared exactly.
void ExpectSameIndexStats(const IndexStats& got, const IndexStats& want,
                          const std::string& what) {
  EXPECT_EQ(got.entry_count, want.entry_count) << what;
  EXPECT_EQ(got.distinct_keys, want.distinct_keys) << what;
  EXPECT_EQ(got.size_bytes, want.size_bytes) << what;
  EXPECT_EQ(got.leaf_pages, want.leaf_pages) << what;
  EXPECT_EQ(got.levels, want.levels) << what;
  EXPECT_EQ(got.avg_key_length, want.avg_key_length) << what;
  EXPECT_EQ(got.min_numeric, want.min_numeric) << what;
  EXPECT_EQ(got.max_numeric, want.max_numeric) << what;
  EXPECT_EQ(got.min_string, want.min_string) << what;
  EXPECT_EQ(got.max_string, want.max_string) << what;
  EXPECT_EQ(got.numeric_quantiles, want.numeric_quantiles) << what;
  EXPECT_TRUE(got == want) << what;
}

class StatisticsMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpox::TpoxScale scale;
    scale.security_docs = 60;
    scale.order_docs = 60;
    scale.custacc_docs = 30;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &catalog_).ok());

    // Every predicate pattern (and spine) of every TPoX query, in each of
    // the three index kinds.
    auto queries = tpox::TpoxQueries();
    ASSERT_TRUE(queries.ok()) << queries.status();
    for (const engine::Statement& statement : *queries) {
      auto normalized = engine::Normalize(statement);
      ASSERT_TRUE(normalized.ok()) << normalized.status();
      AddPattern(normalized->collection, normalized->path.Spine());
      for (const optimizer::IndexablePredicate& pred :
           optimizer::ExtractIndexablePredicates(*normalized)) {
        AddPattern(normalized->collection, pred.pattern);
      }
    }
    // Every candidate, basic and generalized, of the TPoX candidate set.
    advisor::IndexAdvisor advisor(&store_, &catalog_);
    auto set = advisor.BuildCandidates(*queries, /*generalize=*/true);
    ASSERT_TRUE(set.ok()) << set.status();
    ASSERT_GT(set->size(), set->basic_count);
    for (const advisor::Candidate& c : set->candidates) {
      AddPattern(c.collection, c.pattern.path);
    }
  }

  void AddPattern(const std::string& collection, const xpath::Path& path) {
    auto& list = patterns_[collection];
    if (std::find(list.begin(), list.end(), path) == list.end()) {
      list.push_back(path);
    }
  }

  // Checks every pattern of `collection` against the brute-force scan,
  // twice (a fresh memo, then a warm one) and under two sets of cost
  // constants, since only the memo's fold is shared across constants.
  void ExpectParity(const std::string& collection,
                    const CollectionStatistics& data) {
    CostConstants small_pages = DefaultCostConstants();
    small_pages.page_size = 512;
    small_pages.assumed_fanout = 4;
    const auto& list = patterns_.at(collection);
    for (int round = 0; round < 2; ++round) {
      for (const xpath::Path& path : list) {
        const std::string what = collection + " " + path.ToString();
        EXPECT_EQ(data.EstimatePathCardinality(path),
                  BruteForceCardinality(data, path))
            << what;
        for (const xpath::IndexPattern& pattern :
             {xpath::IndexPattern{path, xpath::ValueType::kString},
              xpath::IndexPattern{path, xpath::ValueType::kNumeric},
              xpath::IndexPattern{path, xpath::ValueType::kString, true}}) {
          for (const CostConstants* cc :
               {&DefaultCostConstants(),
                static_cast<const CostConstants*>(&small_pages)}) {
            ExpectSameIndexStats(data.DeriveIndexStats(pattern, *cc),
                                 BruteForceDeriveIndexStats(data, pattern, *cc),
                                 what + " " + pattern.ToString());
          }
        }
        for (const xpath::Path& other : list) {
          EXPECT_EQ(data.EstimateCommonPathCardinality(path, other),
                    BruteForceCardinality(data, path, &other))
              << what << " & " << other.ToString();
        }
      }
    }
  }

  DocumentStore store_;
  StatisticsCatalog catalog_;
  std::map<std::string, std::vector<xpath::Path>> patterns_;
};

TEST_F(StatisticsMemoTest, MemoizedAnswersEqualFullScan) {
  ASSERT_EQ(patterns_.size(), 3u);
  for (const auto& [collection, list] : patterns_) {
    ASSERT_FALSE(list.empty());
    auto data = catalog_.Get(collection);
    ASSERT_TRUE(data.ok());
    ExpectParity(collection, **data);
  }
}

TEST_F(StatisticsMemoTest, PatternsBeyondTheCapStillAnswerExactly) {
  auto coll = store_.GetCollection(tpox::kSecurityCollection);
  ASSERT_TRUE(coll.ok());
  CollectionStatistics data;
  data.Collect(**coll);
  // Fill the memo with patterns that match nothing, then check the real
  // ones, which now overflow it.
  for (size_t i = 0; i < CollectionStatistics::kMemoCapacity; ++i) {
    EXPECT_EQ(data.EstimatePathCardinality(*xpath::ParsePattern(
                  "/Security/Absent" + std::to_string(i))),
              0.0);
  }
  ExpectParity(tpox::kSecurityCollection, data);
}

TEST_F(StatisticsMemoTest, CollectDropsTheMemo) {
  auto coll = store_.GetCollection(tpox::kSecurityCollection);
  ASSERT_TRUE(coll.ok());
  CollectionStatistics data;
  data.Collect(**coll);
  const xpath::IndexPattern fresh_label = Pattern("/Security/Extra/Note");
  const xpath::IndexPattern all_text = Pattern("//*");
  const CostConstants& cc = DefaultCostConstants();
  // Warm the memo.
  const double before_all = data.EstimatePathCardinality(all_text.path);
  const IndexStats before_stats = data.DeriveIndexStats(all_text, cc);
  EXPECT_EQ(data.EstimatePathCardinality(fresh_label.path), 0.0);
  EXPECT_EQ(data.DeriveIndexStats(fresh_label, cc).entry_count, 0u);
  ExpectParity(tpox::kSecurityCollection, data);

  // A document with a label path the collection has not seen.
  (*coll)->Add(Doc(
      "<Security><Symbol>NEWSYM</Symbol><Extra><Note>zzz</Note></Extra>"
      "</Security>"));
  data.Collect(**coll);

  EXPECT_EQ(data.EstimatePathCardinality(fresh_label.path), 1.0);
  EXPECT_EQ(data.DeriveIndexStats(fresh_label, cc).entry_count, 1u);
  EXPECT_EQ(data.DeriveIndexStats(fresh_label, cc).max_string, "zzz");
  EXPECT_GT(data.EstimatePathCardinality(all_text.path), before_all);
  const IndexStats after_stats = data.DeriveIndexStats(all_text, cc);
  EXPECT_GT(after_stats.entry_count, before_stats.entry_count);
  EXPECT_FALSE(after_stats == before_stats);
  EXPECT_EQ(data.EstimateCommonPathCardinality(fresh_label.path,
                                               all_text.path),
            1.0);
  ExpectSameIndexStats(after_stats,
                       BruteForceDeriveIndexStats(data, all_text, cc),
                       "//* after re-Collect");
  ExpectParity(tpox::kSecurityCollection, data);
}

TEST_F(StatisticsMemoTest, CopiesAnswerFromTheirOwnPaths) {
  auto coll = store_.GetCollection(tpox::kSecurityCollection);
  ASSERT_TRUE(coll.ok());
  CollectionStatistics data;
  data.Collect(**coll);
  const xpath::Path all = *xpath::ParsePattern("//*");
  const double warm = data.EstimatePathCardinality(all);
  CollectionStatistics copy = data;
  // Re-collecting the original frees the paths its memo pointed into; the
  // copy must not answer from them.
  (*coll)->Add(Doc("<Security><Symbol>COPYSYM</Symbol></Security>"));
  data.Collect(**coll);
  EXPECT_EQ(copy.EstimatePathCardinality(all), warm);
  EXPECT_EQ(copy.EstimatePathCardinality(all),
            BruteForceCardinality(copy, all));
  EXPECT_GT(data.EstimatePathCardinality(all), warm);
}

}  // namespace
}  // namespace xia::storage
