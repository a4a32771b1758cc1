#include "fsm/maximal.h"

#include <algorithm>

#include "graph/csr.h"
#include "graph/isomorphism.h"

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
  // A pattern takes part in many containment checks: flatten each to CSR
  // once.
  std::vector<graph::CsrGraph> csrs;
  csrs.reserve(patterns.size());
  for (const Pattern& p : patterns) csrs.emplace_back(p.graph);
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
      if (graph::IsSubgraphIsomorphic(csrs[i], csrs[k])) {
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

MineResult MineMaximalGSpan(CsrDatabase db, const MinerConfig& config) {
  MineResult result = MineFrequentGSpan(db, config);
  result.patterns = FilterMaximal(std::move(result.patterns));
  return result;
}

MineResult MineMaximalGSpan(const graph::GraphDatabase& db,
                            const MinerConfig& config) {
  MineResult result = MineFrequentGSpan(db, config);
  result.patterns = FilterMaximal(std::move(result.patterns));
  return result;
}

MineResult MineClosedGSpan(const graph::GraphDatabase& db,
                           const MinerConfig& config) {
  MineResult result = MineFrequentGSpan(db, config);
  result.patterns = FilterClosed(std::move(result.patterns));
  return result;
}

}  // namespace graphsig::fsm
