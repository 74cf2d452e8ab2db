#include "storage/statistics.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <unordered_set>

#include "util/random.h"
#include "util/string_util.h"
#include "xpath/containment.h"

namespace xia::storage {

std::string PathStats::PathString() const {
  std::string out;
  for (const auto& l : labels) {
    out += '/';
    out += l;
  }
  return out;
}

namespace {

// Mutable accumulation state per path during collection.
struct PathAccum {
  PathStats stats;
  std::unordered_set<std::string> distinct;
  std::unordered_set<std::string> distinct_numeric;
  double value_length_sum = 0.0;
  bool distinct_saturated = false;
  bool distinct_numeric_saturated = false;
  // Reservoir sample of numeric values for the histogram.
  std::vector<double> numeric_sample;
  uint64_t numeric_seen = 0;
};

}  // namespace

std::vector<double> WeightedQuantiles(
    std::vector<std::pair<double, double>> weighted_values, size_t buckets) {
  if (buckets == 0 || weighted_values.empty()) return {};
  std::sort(weighted_values.begin(), weighted_values.end());
  double total = 0;
  for (const auto& [v, w] : weighted_values) total += w;
  if (total <= 0) return {};

  std::vector<double> out;
  out.reserve(buckets + 1);
  out.push_back(weighted_values.front().first);
  double cum = 0;
  size_t i = 0;
  for (size_t b = 1; b < buckets; ++b) {
    const double target = total * static_cast<double>(b) /
                          static_cast<double>(buckets);
    while (i < weighted_values.size() &&
           cum + weighted_values[i].second < target) {
      cum += weighted_values[i].second;
      ++i;
    }
    out.push_back(weighted_values[std::min(i, weighted_values.size() - 1)]
                      .first);
  }
  out.push_back(weighted_values.back().first);
  return out;
}

double HistogramCdf(const std::vector<double>& quantiles, double v) {
  if (quantiles.size() < 2) return 0.5;
  const size_t buckets = quantiles.size() - 1;
  if (v <= quantiles.front()) return 0.0;
  if (v >= quantiles.back()) return 1.0;
  for (size_t b = 0; b < buckets; ++b) {
    const double lo = quantiles[b];
    const double hi = quantiles[b + 1];
    if (v < hi || (v == hi && hi == lo)) {
      const double within = hi > lo ? (v - lo) / (hi - lo) : 1.0;
      return (static_cast<double>(b) + within) /
             static_cast<double>(buckets);
    }
  }
  return 1.0;
}

void CollectionStatistics::Collect(const Collection& collection,
                                   const CollectOptions& options) {
  const size_t distinct_cap = options.distinct_cap;
  Random sampler(options.seed);
  {
    std::unique_lock lock(memo_.mu);
    memo_.entries.clear();
  }
  paths_.clear();
  document_count_ = collection.live_count();
  node_count_ = collection.total_nodes();
  data_pages_ = collection.pages(DefaultCostConstants());

  std::map<std::string, PathAccum> accum;

  collection.ForEach([&](xml::DocId, const xml::Document& doc) {
    // Compute each node's path string incrementally from its parent's
    // (nodes are stored parent-before-child).
    std::vector<std::string> node_paths(doc.size());
    for (size_t i = 0; i < doc.size(); ++i) {
      const xml::Node& n = doc.node(static_cast<xml::NodeIndex>(i));
      const std::string& parent_path =
          n.parent == xml::kInvalidNode ? std::string()
                                        : node_paths[static_cast<size_t>(
                                              n.parent)];
      node_paths[i] = parent_path + "/" + n.label;

      PathAccum& pa = accum[node_paths[i]];
      if (pa.stats.count == 0) {
        pa.stats.labels = doc.LabelPath(static_cast<xml::NodeIndex>(i));
      }
      ++pa.stats.count;
      if (!n.value.empty()) {
        ++pa.stats.valued_count;
        pa.value_length_sum += static_cast<double>(n.value.size());
        if (!pa.distinct_saturated) {
          pa.distinct.insert(n.value);
          if (pa.distinct.size() >= distinct_cap) {
            pa.distinct_saturated = true;
          }
        }
        if (pa.stats.valued_count == 1) {
          pa.stats.min_string = n.value;
          pa.stats.max_string = n.value;
        } else {
          if (n.value < pa.stats.min_string) pa.stats.min_string = n.value;
          if (n.value > pa.stats.max_string) pa.stats.max_string = n.value;
        }
        double num = 0.0;
        if (ParseDouble(n.value, &num)) {
          if (pa.stats.numeric_count == 0) {
            pa.stats.min_numeric = num;
            pa.stats.max_numeric = num;
          } else {
            pa.stats.min_numeric = std::min(pa.stats.min_numeric, num);
            pa.stats.max_numeric = std::max(pa.stats.max_numeric, num);
          }
          ++pa.stats.numeric_count;
          if (!pa.distinct_numeric_saturated) {
            pa.distinct_numeric.insert(n.value);
            if (pa.distinct_numeric.size() >= distinct_cap) {
              pa.distinct_numeric_saturated = true;
            }
          }
          // Reservoir sampling for the histogram.
          if (options.histogram_buckets > 0) {
            ++pa.numeric_seen;
            if (pa.numeric_sample.size() < options.sample_cap) {
              pa.numeric_sample.push_back(num);
            } else {
              const uint64_t slot = sampler.Uniform(pa.numeric_seen);
              if (slot < options.sample_cap) {
                pa.numeric_sample[slot] = num;
              }
            }
          }
        }
      }
    }
  });

  for (auto& [path, pa] : accum) {
    PathStats s = std::move(pa.stats);
    // Saturated distinct sets are extrapolated proportionally to the number
    // of valued nodes — crude, like sampled RUNSTATS.
    if (pa.distinct_saturated) {
      s.distinct_values = std::max<uint64_t>(
          pa.distinct.size(),
          static_cast<uint64_t>(static_cast<double>(s.valued_count) * 0.9));
    } else {
      s.distinct_values = pa.distinct.size();
    }
    if (pa.distinct_numeric_saturated) {
      s.distinct_numeric = std::max<uint64_t>(
          pa.distinct_numeric.size(),
          static_cast<uint64_t>(static_cast<double>(s.numeric_count) * 0.9));
    } else {
      s.distinct_numeric = pa.distinct_numeric.size();
    }
    s.avg_value_length =
        s.valued_count == 0
            ? 0.0
            : pa.value_length_sum / static_cast<double>(s.valued_count);
    if (options.histogram_buckets > 0 && !pa.numeric_sample.empty()) {
      std::vector<std::pair<double, double>> weighted;
      weighted.reserve(pa.numeric_sample.size());
      for (double v : pa.numeric_sample) weighted.emplace_back(v, 1.0);
      s.numeric_quantiles =
          WeightedQuantiles(std::move(weighted), options.histogram_buckets);
    }
    paths_.emplace(path, std::move(s));
  }
}

size_t CollectionStatistics::PathHash::operator()(
    const xpath::Path& p) const {
  size_t h = p.size();
  for (const xpath::Step& step : p.steps()) {
    const size_t x = std::hash<std::string>{}(step.name_test) * 2 +
                     static_cast<size_t>(step.axis);
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

CollectionStatistics::MatchList CollectionStatistics::ScanMatches(
    const xpath::Path& pattern) const {
  MatchList out;
  uint32_t ordinal = 0;
  for (const auto& [path_string, stats] : paths_) {
    if (xpath::MatchesLabelPath(pattern, stats.labels)) {
      out.push_back({ordinal, &stats});
    }
    ++ordinal;
  }
  return out;
}

CollectionStatistics::MemoEntry& CollectionStatistics::Lookup(
    const xpath::Path& pattern, MemoEntry* overflow) const {
  {
    std::shared_lock lock(memo_.mu);
    auto it = memo_.entries.find(pattern);
    if (it != memo_.entries.end()) return it->second;
  }
  // Scan outside the lock: paths_ changes only in Collect, which never
  // runs beside these const calls, and two threads racing on one pattern
  // compute the same list.
  MatchList matches = ScanMatches(pattern);
  std::unique_lock lock(memo_.mu);
  auto it = memo_.entries.find(pattern);
  if (it == memo_.entries.end()) {
    if (memo_.entries.size() >= kMemoCapacity) {
      overflow->matches = std::move(matches);
      return *overflow;
    }
    it = memo_.entries.emplace(pattern, MemoEntry{std::move(matches), {}})
             .first;
  }
  return it->second;
}

namespace {

// The part of DeriveIndexStats that does not depend on the cost constants:
// sums `matches` (in paths() order) into entry and distinct-key counts, key
// length, value ranges and the merged histogram.
template <typename Matches>
IndexStats FoldMatches(const Matches& matches,
                       const xpath::IndexPattern& pattern) {
  IndexStats out;
  out.entry_count = 0;
  out.distinct_keys = 0;
  double key_length_weighted = 0.0;
  bool any = false;
  // Distinct-key estimation: concrete paths ending in the same label
  // usually draw from one value domain (e.g. Sector under each of the
  // SecInfo/*Information variants), so within such a group the union of
  // distincts is approximated by the group's maximum rather than the sum.
  std::map<std::string, uint64_t> distinct_by_last_label;
  // Pool of per-path histogram boundaries, weighted by how many values
  // each boundary represents, for the merged index histogram.
  std::vector<std::pair<double, double>> histogram_pool;
  size_t histogram_buckets = 0;

  for (const auto& match : matches) {
    const PathStats& stats = *match.stats;
    const std::string& last_label =
        stats.labels.empty() ? std::string() : stats.labels.back();
    uint64_t entries = 0;
    if (pattern.structural) {
      // Every reachable node is an entry; the key is the RID alone.
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
  return out;
}

// Size, leaf pages and levels of a folded index under `cc`.
void ApplyCostConstants(const CostConstants& cc, IndexStats* out) {
  const double entry_bytes =
      out->avg_key_length + static_cast<double>(cc.index_entry_overhead);
  out->size_bytes = static_cast<uint64_t>(
      std::ceil(entry_bytes * static_cast<double>(out->entry_count)));
  out->leaf_pages = std::max<uint64_t>(
      1, out->size_bytes / cc.page_size +
             (out->size_bytes % cc.page_size != 0 ? 1 : 0));
  // Height: levels above the leaves shrink by the assumed fanout.
  out->levels = 1;
  uint64_t pages = out->leaf_pages;
  while (pages > 1) {
    pages = (pages + cc.assumed_fanout - 1) / cc.assumed_fanout;
    ++out->levels;
  }
}

}  // namespace

IndexStats CollectionStatistics::DeriveIndexStats(
    const xpath::IndexPattern& pattern, const CostConstants& cc) const {
  // Structural patterns ignore the value type, like IndexPattern::==.
  const size_t kind =
      pattern.structural ? 2
                         : (pattern.type == xpath::ValueType::kNumeric ? 1 : 0);
  IndexStats out;
  bool folded = false;
  {
    std::shared_lock lock(memo_.mu);
    auto it = memo_.entries.find(pattern.path);
    if (it != memo_.entries.end() && it->second.folds[kind]) {
      out = *it->second.folds[kind];
      folded = true;
    }
  }
  if (!folded) {
    MemoEntry overflow;
    MemoEntry& entry = Lookup(pattern.path, &overflow);
    out = FoldMatches(entry.matches, pattern);
    if (&entry != &overflow) {
      std::unique_lock lock(memo_.mu);
      if (!entry.folds[kind]) entry.folds[kind] = out;
    }
  }
  ApplyCostConstants(cc, &out);
  return out;
}

double CollectionStatistics::EstimatePathCardinality(
    const xpath::Path& pattern) const {
  MemoEntry overflow;
  double total = 0.0;
  for (const PathMatch& m : Lookup(pattern, &overflow).matches) {
    total += static_cast<double>(m.stats->count);
  }
  return total;
}

double CollectionStatistics::EstimateCommonPathCardinality(
    const xpath::Path& a, const xpath::Path& b) const {
  MemoEntry overflow_a;
  MemoEntry overflow_b;
  const MatchList& in_a = Lookup(a, &overflow_a).matches;
  const MatchList& in_b = Lookup(b, &overflow_b).matches;
  // Both lists are in paths() order: merge on the ordinal.
  double total = 0.0;
  size_t j = 0;
  for (const PathMatch& m : in_a) {
    while (j < in_b.size() && in_b[j].ordinal < m.ordinal) ++j;
    if (j == in_b.size()) break;
    if (in_b[j].ordinal == m.ordinal) {
      total += static_cast<double>(m.stats->count);
    }
  }
  return total;
}

void StatisticsCatalog::RunStats(const Collection& collection) {
  stats_[collection.name()].Collect(collection);
}

void StatisticsCatalog::RunStats(
    const Collection& collection,
    const CollectionStatistics::CollectOptions& options) {
  stats_[collection.name()].Collect(collection, options);
}

Result<const CollectionStatistics*> StatisticsCatalog::Get(
    const std::string& collection) const {
  auto it = stats_.find(collection);
  if (it == stats_.end()) {
    return Status::NotFound("no statistics for collection " + collection +
                            "; run RunStats first");
  }
  return &it->second;
}

}  // namespace xia::storage
