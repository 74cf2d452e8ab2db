#include "xpath/containment.h"

#include <algorithm>
#include <string_view>

#include "obs/metrics.h"

namespace xia::xpath {

namespace {

// NFA view of a pattern P with steps s1..sn. State i (0..n) means "matched
// the first i steps"; state n accepts. On symbol c:
//   * i -> i+1 if s_{i+1}.MatchesLabel(c)
//   * i -> i   if s_{i+1}.axis == descendant  (the gap absorbs c)
// A DFA state is the set of NFA states; we represent it as a sorted vector
// packed into a uint64_t bitmask (patterns are short; 63 steps is ample).
using StateSet = uint64_t;

constexpr size_t kMaxSteps = 63;

// Advances every NFA state in `states` on symbol `label` (or on a fresh
// symbol not appearing in P when `fresh` is true).
StateSet StepOn(const Path& p, StateSet states, std::string_view label,
                bool fresh) {
  StateSet next = 0;
  const auto& steps = p.steps();
  for (size_t i = 0; i <= steps.size(); ++i) {
    if (!(states & (1ULL << i))) continue;
    if (i < steps.size()) {
      const Step& s = steps[i];
      const bool label_ok = fresh ? s.is_wildcard() : s.MatchesLabel(label);
      if (label_ok) next |= 1ULL << (i + 1);
      if (s.axis == Axis::kDescendant) next |= 1ULL << i;
    }
    // State n (all steps matched) has no outgoing transitions: a longer
    // path selects a *descendant* of the matched node, not the node itself.
  }
  return next;
}

// Collects the distinct concrete labels P mentions; transitions on any other
// symbol behave identically, so one fresh representative suffices.
std::vector<std::string_view> PatternAlphabet(const Path& p) {
  std::vector<std::string_view> labels;
  for (const auto& s : p.steps()) {
    if (!s.is_wildcard()) labels.push_back(s.name_test);
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

// A family of DFA states. Families stay small (a handful of members), so a
// flat vector with linear membership tests beats a node-based set; the
// Covers answer does not depend on member order.
using Family = std::vector<StateSet>;

void AddState(Family* family, StateSet s) {
  if (std::find(family->begin(), family->end(), s) == family->end()) {
    family->push_back(s);
  }
}

// Expands `family` with everything reachable through one arbitrary symbol,
// repeated to a fixpoint. Models a descendant gap in the query: any number
// (>= 0) of arbitrary intermediate labels. Members appended during the
// sweep are themselves expanded when the sweep reaches them.
void CloseUnderArbitrarySymbols(const Path& p,
                                const std::vector<std::string_view>& alphabet,
                                Family* family) {
  for (size_t k = 0; k < family->size(); ++k) {
    const StateSet s = (*family)[k];
    for (const auto& label : alphabet) {
      AddState(family, StepOn(p, s, label, /*fresh=*/false));
    }
    AddState(family, StepOn(p, s, "", /*fresh=*/true));
  }
}

}  // namespace

bool MatchesLabelPath(const Path& p, const std::vector<std::string>& labels) {
  if (p.size() > kMaxSteps) return false;
  StateSet states = 1;  // NFA state 0
  for (const auto& label : labels) {
    states = StepOn(p, states, label, /*fresh=*/false);
    if (states == 0) return false;
  }
  return (states & (1ULL << p.size())) != 0;
}

bool Covers(const Path& index, const Path& query) {
  XIA_OBS_COUNT("xia.xpath.containment.checks", 1);
  if (index.size() > kMaxSteps || query.size() > kMaxSteps) return false;
  const std::vector<std::string_view> alphabet = PatternAlphabet(index);
  const StateSet accept_bit = 1ULL << index.size();

  // Family of DFA states reachable via some prefix generated by the steps of
  // `query` consumed so far. Containment holds iff every family member at
  // the end is accepting.
  Family family = {StateSet{1}};
  Family next_family;

  for (const auto& qs : query.steps()) {
    if (qs.axis == Axis::kDescendant) {
      // The gap can emit any number of arbitrary labels first.
      CloseUnderArbitrarySymbols(index, alphabet, &family);
    }
    next_family.clear();
    for (StateSet s : family) {
      if (qs.is_wildcard()) {
        // The query step emits any single label: branch over the alphabet
        // plus a fresh symbol.
        for (const auto& label : alphabet) {
          AddState(&next_family, StepOn(index, s, label, /*fresh=*/false));
        }
        AddState(&next_family, StepOn(index, s, "", /*fresh=*/true));
      } else {
        AddState(&next_family,
                 StepOn(index, s, qs.name_test, /*fresh=*/false));
      }
    }
    family.swap(next_family);
  }

  for (StateSet s : family) {
    if (!(s & accept_bit)) return false;
  }
  return true;
}

}  // namespace xia::xpath
