#include "graph/isomorphism.h"

#include <algorithm>
#include <map>
#include <span>

#include "graph/csr.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace graphsig::graph {
namespace {

// Matcher buffers, one set per thread, reused by every match run on it:
// after the first few calls `assign` stays within capacity, so a match
// allocates nothing. A run never starts another run on the same thread,
// so one set suffices.
struct MatcherScratch {
  std::vector<VertexId> order;
  std::vector<VertexId> pattern_to_target;
  std::vector<uint8_t> target_used;
  std::vector<uint8_t> placed;
  std::vector<int32_t> label_count;
};

MatcherScratch& ThreadScratch() {
  thread_local MatcherScratch scratch;
  return scratch;
}

// The connected visit order of `pattern` (DESIGN.md §8): seeded at the
// rarest vertex, then always the frontier vertex (adjacent to placed
// ones) with most placed neighbors, ties by rarity, then by index.
// Disconnected patterns continue with a fresh rare seed per component.
// `rarity(v)` ranks pattern vertex v's label, lower = rarer.
template <typename Rarity>
void ConnectedVisitOrder(const CsrGraph& pattern, Rarity&& rarity,
                         std::vector<uint8_t>* placed,
                         std::vector<VertexId>* order) {
  const int n = pattern.num_vertices();
  placed->assign(n, 0);
  order->clear();
  while (static_cast<int>(order->size()) < n) {
    VertexId best = -1;
    int best_attached = -1;
    int64_t best_rarity = INT64_MAX;
    for (VertexId v = 0; v < n; ++v) {
      if ((*placed)[v]) continue;
      int attached = 0;
      for (const AdjEntry& e : pattern.neighbors(v)) {
        if ((*placed)[e.to]) ++attached;
      }
      if (!order->empty() && attached == 0) continue;
      const int64_t r = rarity(v);
      if (attached > best_attached ||
          (attached == best_attached && r < best_rarity)) {
        best = v;
        best_attached = attached;
        best_rarity = r;
      }
    }
    if (best < 0) {
      // All remaining vertices are in untouched components; seed one.
      for (VertexId v = 0; v < n; ++v) {
        if ((*placed)[v]) continue;
        const int64_t r = rarity(v);
        if (best < 0 || r < best_rarity) {
          best = v;
          best_rarity = r;
        }
      }
    }
    (*placed)[best] = 1;
    order->push_back(best);
  }
}

// Shared backtracking state for one (pattern, target) match run over
// borrowed CSRs, so the inner feasibility / candidate loops walk
// contiguous half-edge arrays (DESIGN.md §14). Callers that match one
// graph many times build its CSR once and pass it in; callers that match
// one pattern many times pass its visit order too, else the order is
// derived per run with rarity counted in the target.
class Matcher {
 public:
  Matcher(const CsrGraph& pattern, const CsrGraph& target, uint64_t limit,
          std::span<const VertexId> order = {})
      : pattern_(pattern),
        target_(target),
        limit_(limit),
        scratch_(ThreadScratch()),
        order_(order),
        pattern_to_target_(scratch_.pattern_to_target),
        target_used_(scratch_.target_used) {
    pattern_to_target_.assign(pattern.num_vertices(), -1);
    target_used_.assign(target.num_vertices(), 0);
    if (order_.empty()) BuildOrder();
    GS_CHECK_EQ(order_.size(), static_cast<size_t>(pattern.num_vertices()));
  }

  // Runs the search. Returns the number of embeddings found (up to the
  // limit). If `capture` is non-null, the first embedding is stored there.
  // If `collect` is non-null, every embedding found is appended to it.
  uint64_t Run(std::vector<VertexId>* capture,
               std::vector<std::vector<VertexId>>* collect = nullptr) {
    capture_ = capture;
    collect_ = collect;
    found_ = 0;
    if (pattern_.num_vertices() == 0) {
      // Empty pattern: one trivial embedding.
      if (capture_ != nullptr) capture_->clear();
      if (collect_ != nullptr) collect_->emplace_back();
      return 1;
    }
    Extend(0);
    // Deterministic work counter (DESIGN.md §12): the candidate pairs
    // examined depend only on the two graphs and the visit order, so the
    // tally is byte-identical for any thread count. Flushed once per run.
    static obs::Counter* const feasibility_checks =
        obs::MetricsRegistry::Global().GetCounter(
            "graph/vf2_feasibility_checks");
    feasibility_checks->Add(feasibility_checks_);
    return found_;
  }

 private:
  // The visit order with rarity counted in the target: target vertices
  // sharing each pattern vertex's label. Patterns are small, so a direct
  // count beats building a label histogram per run.
  void BuildOrder() {
    const int n = pattern_.num_vertices();
    std::vector<int32_t>& label_count = scratch_.label_count;
    label_count.assign(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      const Label label = pattern_.vertex_label(v);
      for (Label l : target_.vertex_labels()) label_count[v] += l == label;
    }
    ConnectedVisitOrder(
        pattern_, [&](VertexId v) { return label_count[v]; },
        &scratch_.placed, &scratch_.order);
    order_ = scratch_.order;
  }

  // Can pattern vertex `pv` map to target vertex `tv` given current map?
  bool Feasible(VertexId pv, VertexId tv) {
    ++feasibility_checks_;
    if (target_used_[tv]) return false;
    if (pattern_.vertex_label(pv) != target_.vertex_label(tv)) return false;
    if (target_.degree(tv) < pattern_.degree(pv)) return false;
    for (const AdjEntry& e : pattern_.neighbors(pv)) {
      VertexId mapped = pattern_to_target_[e.to];
      if (mapped < 0) continue;
      if (target_.EdgeLabelBetween(tv, mapped) != e.label) return false;
    }
    return true;
  }

  void Extend(size_t depth) {
    if (found_ >= limit_) return;
    if (depth == order_.size()) {
      ++found_;
      if (capture_ != nullptr && found_ == 1) {
        *capture_ = pattern_to_target_;
      }
      if (collect_ != nullptr) collect_->push_back(pattern_to_target_);
      return;
    }
    const VertexId pv = order_[depth];

    // Candidate set: neighbors of an already-mapped pattern neighbor, or
    // (for component seeds) all target vertices.
    VertexId anchor_target = -1;
    for (const AdjEntry& e : pattern_.neighbors(pv)) {
      if (pattern_to_target_[e.to] >= 0) {
        anchor_target = pattern_to_target_[e.to];
        break;
      }
    }
    if (anchor_target >= 0) {
      for (const AdjEntry& e : target_.neighbors(anchor_target)) {
        TryMap(pv, e.to, depth);
        if (found_ >= limit_) return;
      }
    } else {
      for (VertexId tv = 0; tv < target_.num_vertices(); ++tv) {
        TryMap(pv, tv, depth);
        if (found_ >= limit_) return;
      }
    }
  }

  void TryMap(VertexId pv, VertexId tv, size_t depth) {
    if (!Feasible(pv, tv)) return;
    pattern_to_target_[pv] = tv;
    target_used_[tv] = 1;
    Extend(depth + 1);
    pattern_to_target_[pv] = -1;
    target_used_[tv] = 0;
  }

  const CsrGraph& pattern_;
  const CsrGraph& target_;
  const uint64_t limit_;
  MatcherScratch& scratch_;
  std::span<const VertexId> order_;
  std::vector<VertexId>& pattern_to_target_;
  std::vector<uint8_t>& target_used_;
  std::vector<VertexId>* capture_ = nullptr;
  std::vector<std::vector<VertexId>>* collect_ = nullptr;
  uint64_t found_ = 0;
  // Local tally, flushed once in Run().
  uint64_t feasibility_checks_ = 0;
};

}  // namespace

std::vector<VertexId> PatternVisitOrder(
    const CsrGraph& pattern, const std::map<Label, int64_t>& label_counts) {
  std::vector<int64_t> count(static_cast<size_t>(pattern.num_vertices()));
  for (VertexId v = 0; v < pattern.num_vertices(); ++v) {
    auto it = label_counts.find(pattern.vertex_label(v));
    count[v] = it == label_counts.end() ? 0 : it->second;
  }
  std::vector<uint8_t> placed;
  std::vector<VertexId> order;
  ConnectedVisitOrder(
      pattern, [&](VertexId v) { return count[v]; }, &placed, &order);
  return order;
}

bool IsSubgraphIsomorphic(const CsrGraph& pattern,
                          std::span<const VertexId> order,
                          const CsrGraph& target) {
  if (pattern.num_vertices() > target.num_vertices()) return false;
  if (pattern.num_edges() > target.num_edges()) return false;
  Matcher matcher(pattern, target, /*limit=*/1, order);
  return matcher.Run(nullptr) > 0;
}

bool IsSubgraphIsomorphic(const CsrGraph& pattern, const CsrGraph& target) {
  if (pattern.num_vertices() > target.num_vertices()) return false;
  if (pattern.num_edges() > target.num_edges()) return false;
  Matcher matcher(pattern, target, /*limit=*/1);
  return matcher.Run(nullptr) > 0;
}

bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target) {
  if (pattern.num_vertices() > target.num_vertices()) return false;
  if (pattern.num_edges() > target.num_edges()) return false;
  return IsSubgraphIsomorphic(CsrGraph(pattern), CsrGraph(target));
}

std::optional<std::vector<VertexId>> FindEmbedding(const Graph& pattern,
                                                   const Graph& target) {
  if (pattern.num_vertices() > target.num_vertices()) return std::nullopt;
  if (pattern.num_edges() > target.num_edges()) return std::nullopt;
  std::vector<VertexId> embedding;
  const CsrGraph pattern_csr(pattern);
  const CsrGraph target_csr(target);
  Matcher matcher(pattern_csr, target_csr, /*limit=*/1);
  if (matcher.Run(&embedding) == 0) return std::nullopt;
  return embedding;
}

uint64_t CountEmbeddings(const Graph& pattern, const Graph& target,
                         uint64_t limit) {
  if (pattern.num_vertices() > target.num_vertices()) return 0;
  if (pattern.num_edges() > target.num_edges()) return 0;
  const CsrGraph pattern_csr(pattern);
  const CsrGraph target_csr(target);
  Matcher matcher(pattern_csr, target_csr, limit);
  return matcher.Run(nullptr);
}

std::vector<std::vector<VertexId>> FindAllEmbeddings(const Graph& pattern,
                                                     const Graph& target,
                                                     uint64_t limit) {
  std::vector<std::vector<VertexId>> out;
  if (pattern.num_vertices() > target.num_vertices()) return out;
  if (pattern.num_edges() > target.num_edges()) return out;
  const CsrGraph pattern_csr(pattern);
  const CsrGraph target_csr(target);
  Matcher matcher(pattern_csr, target_csr, limit);
  matcher.Run(nullptr, &out);
  return out;
}

bool AreIsomorphic(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  if (a.num_edges() != b.num_edges()) return false;
  return IsSubgraphIsomorphic(a, b);
}

}  // namespace graphsig::graph
