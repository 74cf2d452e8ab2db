#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fault/fault.h"
#include "optimizer/selectivity.h"
#include "xpath/containment.h"

namespace xia::optimizer {

namespace {

// Crude node-count estimate for an unparsed document text: tags come in
// pairs, so '<' count halves.
double EstimateNodesFromText(const std::string& text) {
  double open = 0;
  for (char c : text) {
    if (c == '<') open += 1;
  }
  return std::max(1.0, open / 2.0);
}

}  // namespace

double Optimizer::EstimateResultDocs(
    const engine::NormalizedQuery& query,
    const storage::CollectionStatistics& data) const {
  const double ndocs = static_cast<double>(data.document_count());
  if (ndocs == 0) return 0;
  // Structural selectivity: fraction of documents containing the spine.
  const double spine_nodes = data.EstimatePathCardinality(query.path.Spine());
  double docs = std::min(ndocs, spine_nodes);
  // Each comparison predicate scales the qualifying-document estimate.
  for (const IndexablePredicate& pred : ExtractIndexablePredicates(query)) {
    const double sel = PredicateSelectivity(pred, data,
                                            cost_model_.constants());
    const double pattern_nodes =
        data.EstimatePathCardinality(pred.pattern);
    const double qualifying_nodes = pattern_nodes * sel;
    const double doc_sel = std::min(1.0, qualifying_nodes / ndocs);
    docs *= doc_sel;
  }
  return std::max(0.0, docs);
}

Result<Plan> Optimizer::PlanNormalizedQuery(
    const engine::NormalizedQuery& query, bool allow_indexes) const {
  auto data_result = statistics_->Get(query.collection);
  if (!data_result.ok()) return data_result.status();
  const storage::CollectionStatistics& data = **data_result;
  const double ndocs = static_cast<double>(data.document_count());

  Plan scan;
  scan.kind = Plan::Kind::kCollectionScan;
  scan.est_cost = cost_model_.CollectionScanCost(data, query);
  scan.est_result_docs = EstimateResultDocs(query, data);
  if (!allow_indexes) return scan;

  // Find the cheapest matching index per indexable predicate.
  std::vector<PlanLeg> legs;
  for (const IndexablePredicate& pred : ExtractIndexablePredicates(query)) {
    // Entries that truly satisfy the predicate, estimated against the
    // predicate pattern's own value distribution. Any covering index holds
    // at least these entries in the scanned value range, which keeps wide
    // indexes (whose huge distinct-key counts would otherwise dilute
    // equality selectivity) from looking cheaper than exact-match ones.
    const storage::IndexStats pattern_stats = data.DeriveIndexStats(
        pred.AsIndexPattern(), cost_model_.constants());
    const double pattern_entries =
        pred.existence
            ? static_cast<double>(pattern_stats.entry_count)
            : ValueSelectivity(pattern_stats, pred.op, pred.literal) *
                  static_cast<double>(pattern_stats.entry_count);

    const PlanLeg* best = nullptr;
    PlanLeg candidate;
    for (const storage::IndexDef* index :
         catalog_->IndexesFor(query.collection)) {
      if (index->is_virtual && !options_.use_virtual_indexes) continue;
      if (!index->is_virtual && !options_.use_real_indexes) continue;
      // Existence tests need a structural index; value comparisons need a
      // value index of the literal's type.
      if (index->pattern.structural != pred.existence) continue;
      if (!pred.existence && index->pattern.type != pred.type) continue;
      if (!xpath::Covers(index->pattern.path, pred.pattern)) continue;
      if (index->stats.entry_count == 0) continue;

      PlanLeg leg;
      leg.index_name = index->name;
      leg.index_pattern = index->pattern;
      leg.index_is_virtual = index->is_virtual;
      leg.predicate = pred;
      // Structural indexes have no value key: an existence probe scans the
      // whole index and filters RIDs by the residual, so it pays the full
      // entry count. Value probes seek into the covered range.
      const double sel =
          pred.existence
              ? 1.0
              : ValueSelectivity(index->stats, pred.op, pred.literal);
      leg.est_entries = std::max(
          {1.0, sel * static_cast<double>(index->stats.entry_count),
           pattern_entries});
      leg.est_docs = std::min(ndocs, leg.est_entries);
      leg.est_access_cost = cost_model_.IndexAccessCost(
          index->stats.levels, leg.est_entries, index->stats.avg_key_length);
      if (best == nullptr ||
          leg.est_access_cost +
                  cost_model_.FetchAndResidualCost(leg.est_docs, data, query) <
              candidate.est_access_cost +
                  cost_model_.FetchAndResidualCost(candidate.est_docs, data,
                                                   query)) {
        candidate = leg;
        best = &candidate;
      }
    }
    if (best != nullptr) legs.push_back(candidate);
  }

  Plan best_plan = scan;
  // The scan alternative plus one single-index plan per leg.
  XIA_OBS_COUNT("xia.optimizer.plans_considered", 1 + legs.size());

  // Single-index plans.
  for (const PlanLeg& leg : legs) {
    Plan p;
    p.kind = Plan::Kind::kIndexScan;
    p.legs = {leg};
    p.est_cost = leg.est_access_cost +
                 cost_model_.FetchAndResidualCost(leg.est_docs, data, query);
    p.est_result_docs = scan.est_result_docs;
    p.uses_virtual_index = leg.index_is_virtual;
    if (p.est_cost < best_plan.est_cost) best_plan = p;
  }

  // Index-ANDing: add legs most-selective first while the estimate keeps
  // improving. An unselective leg costs its access and intersection work
  // but barely shrinks the fetched document set, so the full-leg AND is
  // often not the best AND.
  if (options_.enable_index_anding && legs.size() >= 2) {
    std::vector<PlanLeg> ordered = legs;
    std::sort(ordered.begin(), ordered.end(),
              [](const PlanLeg& a, const PlanLeg& b) {
                return a.est_docs < b.est_docs;
              });
    Plan and_plan;
    and_plan.kind = Plan::Kind::kIndexAnd;
    double access = 0;
    double entries = 0;
    double doc_fraction = 1.0;
    double best_and_cost = std::numeric_limits<double>::infinity();
    std::vector<PlanLeg> best_and_legs;
    bool best_and_virtual = false;
    bool uses_virtual = false;
    for (const PlanLeg& leg : ordered) {
      access += leg.est_access_cost;
      entries += leg.est_entries;
      doc_fraction *= ndocs == 0 ? 0.0 : std::min(1.0, leg.est_docs / ndocs);
      uses_virtual = uses_virtual || leg.index_is_virtual;
      and_plan.legs.push_back(leg);
      if (and_plan.legs.size() < 2) continue;
      XIA_OBS_COUNT("xia.optimizer.plans_considered", 1);
      const double and_docs = ndocs * doc_fraction;
      const double cost =
          access + cost_model_.RidIntersectionCost(entries) +
          cost_model_.FetchAndResidualCost(and_docs, data, query);
      if (cost < best_and_cost) {
        best_and_cost = cost;
        best_and_legs = and_plan.legs;
        best_and_virtual = uses_virtual;
      }
    }
    if (!best_and_legs.empty() && best_and_cost < best_plan.est_cost) {
      Plan p;
      p.kind = Plan::Kind::kIndexAnd;
      p.legs = std::move(best_and_legs);
      p.est_cost = best_and_cost;
      p.est_result_docs = scan.est_result_docs;
      p.uses_virtual_index = best_and_virtual;
      best_plan = p;
    }
  }

  return best_plan;
}

Result<Plan> Optimizer::PlanInsert(const engine::Statement& statement) const {
  const engine::InsertSpec& ins = statement.insert_spec();
  Plan p;
  p.kind = Plan::Kind::kInsert;
  p.est_cost = cost_model_.DocumentInsertCost(
      static_cast<double>(ins.document_text.size()),
      EstimateNodesFromText(ins.document_text));
  p.est_result_docs = 1;
  return p;
}

Result<Plan> Optimizer::PlanDelete(const engine::Statement& statement,
                                   bool allow_indexes) const {
  auto normalized = engine::NormalizeDeleteMatch(statement);
  if (!normalized.ok()) return normalized.status();
  auto find_plan = PlanNormalizedQuery(*normalized, allow_indexes);
  if (!find_plan.ok()) return find_plan.status();

  auto data_result = statistics_->Get(normalized->collection);
  if (!data_result.ok()) return data_result.status();
  const storage::CollectionStatistics& data = **data_result;
  const double docs = find_plan->est_result_docs;
  const double avg_doc_bytes =
      data.document_count() == 0
          ? 0.0
          : static_cast<double>(data.data_pages()) *
                static_cast<double>(cost_model_.constants().page_size) /
                static_cast<double>(data.document_count());

  Plan p = *find_plan;
  p.kind = Plan::Kind::kDelete;
  p.est_cost += cost_model_.DocumentRemoveCost(docs, avg_doc_bytes);
  p.est_result_docs = docs;
  return p;
}

Result<Plan> Optimizer::PlanUpdate(const engine::Statement& statement,
                                   bool allow_indexes) const {
  auto normalized = engine::NormalizeUpdateMatch(statement);
  if (!normalized.ok()) return normalized.status();
  auto find_plan = PlanNormalizedQuery(*normalized, allow_indexes);
  if (!find_plan.ok()) return find_plan.status();

  auto data_result = statistics_->Get(normalized->collection);
  if (!data_result.ok()) return data_result.status();
  const storage::CollectionStatistics& data = **data_result;
  const double docs = find_plan->est_result_docs;
  // Modified nodes per touched document.
  const double target_nodes_per_doc =
      data.document_count() == 0
          ? 0.0
          : data.EstimatePathCardinality(statement.update_spec().target) /
                static_cast<double>(data.document_count());

  Plan p = *find_plan;
  p.kind = Plan::Kind::kUpdate;
  p.est_cost += docs * std::max(1.0, target_nodes_per_doc) *
                cost_model_.constants().index_write_cost;
  p.est_result_docs = docs;
  return p;
}

Result<Plan> Optimizer::OptimizeImpl(const engine::Statement& statement,
                                     bool allow_indexes) const {
  XIA_FAULT_INJECT(fault::points::kOptimizerPlan);
  XIA_RETURN_IF_ERROR(fault::CheckInterrupt(options_.deadline));
  optimize_calls_.Add(1);
  XIA_OBS_COUNT("xia.optimizer.optimize_calls", 1);
  if (statement.is_insert()) return PlanInsert(statement);
  if (statement.is_delete()) return PlanDelete(statement, allow_indexes);
  if (statement.is_update()) return PlanUpdate(statement, allow_indexes);
  auto normalized = engine::Normalize(statement);
  if (!normalized.ok()) return normalized.status();
  return PlanNormalizedQuery(*normalized, allow_indexes);
}

Result<Plan> Optimizer::Optimize(const engine::Statement& statement) const {
  return OptimizeImpl(statement, /*allow_indexes=*/true);
}

Result<Plan> Optimizer::OptimizeWithoutIndexes(
    const engine::Statement& statement) const {
  return OptimizeImpl(statement, /*allow_indexes=*/false);
}

Result<std::vector<xpath::IndexPattern>> Optimizer::EnumerateIndexes(
    const engine::Statement& statement) const {
  XIA_FAULT_INJECT(fault::points::kOptimizerPlan);
  XIA_RETURN_IF_ERROR(fault::CheckInterrupt(options_.deadline));
  optimize_calls_.Add(1);
  XIA_OBS_COUNT("xia.optimizer.optimize_calls", 1);
  XIA_OBS_COUNT("xia.optimizer.enumerate_calls", 1);
  if (statement.is_insert()) return std::vector<xpath::IndexPattern>{};

  Result<engine::NormalizedQuery> normalized =
      statement.is_delete()
          ? engine::NormalizeDeleteMatch(statement)
          : (statement.is_update() ? engine::NormalizeUpdateMatch(statement)
                                   : engine::Normalize(statement));
  if (!normalized.ok()) return normalized.status();

  // Plant the //* virtual universal index (one per value type) and run the
  // index-matching step against it. Everything indexable matches the
  // universal pattern; what comes out is the set of rewritten,
  // predicate-aware patterns of the statement (§IV).
  xpath::Path universal;
  universal.Append(xpath::Axis::kDescendant, "*");
  const xpath::IndexPattern universal_string{universal,
                                             xpath::ValueType::kString};
  const xpath::IndexPattern universal_numeric{universal,
                                              xpath::ValueType::kNumeric};
  const xpath::IndexPattern universal_structural{
      universal, xpath::ValueType::kString, /*structural=*/true};

  std::vector<xpath::IndexPattern> out;
  for (const IndexablePredicate& pred :
       ExtractIndexablePredicates(*normalized)) {
    const xpath::IndexPattern& matched_against =
        pred.existence
            ? universal_structural
            : (pred.type == xpath::ValueType::kNumeric ? universal_numeric
                                                       : universal_string);
    if (!xpath::Covers(matched_against.path, pred.pattern)) continue;
    xpath::IndexPattern candidate = pred.AsIndexPattern();
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(std::move(candidate));
    }
  }
  return out;
}

double Optimizer::MaintenanceCost(
    const engine::Statement& statement,
    const xpath::IndexPattern& index_pattern,
    const storage::IndexStats& index_stats) const {
  if (statement.is_query()) return 0.0;
  auto data_result = statistics_->Get(statement.collection());
  if (!data_result.ok()) return 0.0;
  const storage::CollectionStatistics& data = **data_result;

  if (statement.is_update()) {
    // A value update touches the index only if the index can contain the
    // updated nodes: some data path is matched by both the index pattern
    // and the update target.
    const double affected_nodes = data.EstimateCommonPathCardinality(
        index_pattern.path, statement.update_spec().target);
    if (affected_nodes == 0) return 0.0;
    auto normalized = engine::NormalizeUpdateMatch(statement);
    const double docs_touched =
        normalized.ok() ? EstimateResultDocs(*normalized, data) : 1.0;
    const double nodes_per_doc =
        data.document_count() == 0
            ? 0.0
            : affected_nodes / static_cast<double>(data.document_count());
    // Old key out, new key in: two entry operations per modified node.
    const double per_entry =
        static_cast<double>(index_stats.levels) *
            cost_model_.constants().random_page_cost *
            cost_model_.constants().maintenance_traverse_factor * 0.1 +
        cost_model_.constants().index_write_cost *
            (index_stats.avg_key_length +
             static_cast<double>(
                 cost_model_.constants().index_entry_overhead)) /
            static_cast<double>(cost_model_.constants().page_size) * 8.0;
    return 2.0 * docs_touched * nodes_per_doc * per_entry;
  }

  double docs_touched = 1.0;  // insert: one document
  if (statement.is_delete()) {
    auto normalized = engine::NormalizeDeleteMatch(statement);
    if (normalized.ok()) {
      docs_touched = EstimateResultDocs(*normalized, data);
    }
  }
  return cost_model_.MaintenanceCost(
      index_stats, static_cast<double>(data.document_count()), docs_touched);
}

}  // namespace xia::optimizer
