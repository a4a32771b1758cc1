#include "graph/signature.h"

#include <algorithm>

namespace graphsig::graph {

ContainmentSignature BuildContainmentSignature(const Graph& g) {
  ContainmentSignature sig;
  sig.num_vertices = g.num_vertices();
  sig.num_edges = g.num_edges();
  sig.label_degrees.reserve(static_cast<size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    sig.label_degrees.emplace_back(g.vertex_label(v), g.degree(v));
  }
  std::sort(sig.label_degrees.begin(), sig.label_degrees.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second > b.second;
            });
  std::vector<EdgeTypeKey> types;
  types.reserve(g.edges().size());
  for (const EdgeRecord& e : g.edges()) {
    Label a = g.vertex_label(e.u);
    Label b = g.vertex_label(e.v);
    if (a > b) std::swap(a, b);
    types.emplace_back(a, b, e.label);
  }
  std::sort(types.begin(), types.end());
  for (const EdgeTypeKey& type : types) {
    if (sig.edge_type_counts.empty() ||
        sig.edge_type_counts.back().first != type) {
      sig.edge_type_counts.emplace_back(type, 0);
    }
    ++sig.edge_type_counts.back().second;
  }
  return sig;
}

bool SignatureDominated(const ContainmentSignature& pattern,
                        const ContainmentSignature& target) {
  if (pattern.num_vertices > target.num_vertices) return false;
  if (pattern.num_edges > target.num_edges) return false;
  // Both lists ascend by type: one merge walk finds each pattern type.
  auto t = target.edge_type_counts.begin();
  const auto t_end = target.edge_type_counts.end();
  for (const auto& [type, count] : pattern.edge_type_counts) {
    while (t != t_end && t->first < type) ++t;
    if (t == t_end || t->first != type || t->second < count) return false;
  }
  // Same walk over the per-label degree runs. Both runs are sorted
  // descending, so a greedy matching exists iff the k-th largest pattern
  // degree of a label fits under the k-th largest target degree of it.
  const auto& target_degrees = target.label_degrees;
  size_t j = 0;
  for (size_t i = 0; i < pattern.label_degrees.size(); ++i, ++j) {
    const auto [label, degree] = pattern.label_degrees[i];
    if (i == 0 || pattern.label_degrees[i - 1].first != label) {
      while (j < target_degrees.size() && target_degrees[j].first < label) {
        ++j;
      }
    }
    if (j == target_degrees.size() || target_degrees[j].first != label ||
        target_degrees[j].second < degree) {
      return false;
    }
  }
  return true;
}

}  // namespace graphsig::graph
