#include "fsm/maximal.h"

#include <algorithm>
#include <optional>

#include "graph/csr.h"
#include "graph/isomorphism.h"
#include "graph/signature.h"

namespace graphsig::fsm {

std::vector<Pattern> FilterMaximal(std::vector<Pattern> patterns) {
  // Sort largest-first so containment checks only need to look at the
  // prefix of strictly larger patterns.
  std::sort(patterns.begin(), patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.graph.num_edges() != b.graph.num_edges()) {
                return a.graph.num_edges() > b.graph.num_edges();
              }
              return a.graph.num_vertices() > b.graph.num_vertices();
            });
  // A pattern takes part in many containment checks: profile each once,
  // and flatten it to CSR the first time a pair passes the signature
  // test (a necessary condition for containment, DESIGN.md §8), so most
  // pairs never reach VF2.
  std::vector<graph::ContainmentSignature> signatures;
  signatures.reserve(patterns.size());
  for (const Pattern& p : patterns) {
    signatures.push_back(graph::BuildContainmentSignature(p.graph));
  }
  std::vector<std::optional<graph::CsrGraph>> csrs(patterns.size());
  auto csr = [&](size_t i) -> const graph::CsrGraph& {
    if (!csrs[i].has_value()) csrs[i].emplace(patterns[i].graph);
    return *csrs[i];
  };
  std::vector<size_t> kept;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const graph::Graph& p = patterns[i].graph;
    bool contained = false;
    for (size_t k : kept) {
      const graph::Graph& q = patterns[k].graph;
      const bool strictly_larger =
          q.num_edges() > p.num_edges() ||
          (q.num_edges() == p.num_edges() &&
           q.num_vertices() > p.num_vertices());
      if (!strictly_larger) continue;
      if (!graph::SignatureDominated(signatures[i], signatures[k])) continue;
      if (graph::IsSubgraphIsomorphic(csr(i), csr(k))) {
        contained = true;
        break;
      }
    }
    if (!contained) kept.push_back(i);
  }
  std::vector<Pattern> maximal;
  maximal.reserve(kept.size());
  for (size_t k : kept) maximal.push_back(std::move(patterns[k]));
  return maximal;
}

std::vector<Pattern> FilterClosed(std::vector<Pattern> patterns) {
  std::sort(patterns.begin(), patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.graph.num_edges() != b.graph.num_edges()) {
                return a.graph.num_edges() > b.graph.num_edges();
              }
              return a.graph.num_vertices() > b.graph.num_vertices();
            });
  std::vector<Pattern> closed;
  for (const Pattern& p : patterns) {
    bool absorbed = false;
    for (const Pattern& q : closed) {
      const bool strictly_larger =
          q.graph.num_edges() > p.graph.num_edges() ||
          (q.graph.num_edges() == p.graph.num_edges() &&
           q.graph.num_vertices() > p.graph.num_vertices());
      if (!strictly_larger || q.support != p.support) continue;
      if (graph::IsSubgraphIsomorphic(p.graph, q.graph)) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) closed.push_back(p);
  }
  return closed;
}

MineResult MineClosedGSpan(const graph::GraphDatabase& db,
                           const MinerConfig& config) {
  MineResult result = MineFrequentGSpan(db, config);
  result.patterns = FilterClosed(std::move(result.patterns));
  return result;
}

}  // namespace graphsig::fsm
