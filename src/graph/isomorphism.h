#ifndef GRAPHSIG_GRAPH_ISOMORPHISM_H_
#define GRAPHSIG_GRAPH_ISOMORPHISM_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace graphsig::graph {

// Subgraph isomorphism (monomorphism) for labeled undirected graphs:
// an injective vertex map where every pattern edge maps to a target edge
// with matching vertex and edge labels. This is the FSM notion of
// containment — the target may have extra edges among mapped vertices.
//
// The matcher is VF2-flavored backtracking: pattern vertices are visited
// in a connected order starting from the rarest-labeled vertex, with
// label/degree feasibility pruning. Molecule-scale graphs (tens of
// vertices) resolve in microseconds. The order changes how much work a
// match takes, never its result.

class CsrGraph;

// True iff `pattern` occurs in `target`. An empty pattern always matches.
// The Graph overload flattens both graphs to CSR per call; the CsrGraph
// overload borrows CSRs, for callers that match one graph many times
// (db-frequency, the maximality filter).
bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target);
bool IsSubgraphIsomorphic(const CsrGraph& pattern, const CsrGraph& target);

// The visit order of `pattern`, for matching it against many targets
// without deriving an order per call: the same connected rule, with label
// rarity read from `label_counts` (e.g. a database's
// VertexLabelCounts(); absent labels count 0, rarest of all) instead of
// counted in each target.
std::vector<VertexId> PatternVisitOrder(
    const CsrGraph& pattern, const std::map<Label, int64_t>& label_counts);
// IsSubgraphIsomorphic with a visit order from PatternVisitOrder.
bool IsSubgraphIsomorphic(const CsrGraph& pattern,
                          std::span<const VertexId> order,
                          const CsrGraph& target);

// One embedding if it exists: element k is the target vertex that pattern
// vertex k maps to.
std::optional<std::vector<VertexId>> FindEmbedding(const Graph& pattern,
                                                   const Graph& target);

// Number of distinct embeddings (vertex maps), counted up to `limit`.
uint64_t CountEmbeddings(const Graph& pattern, const Graph& target,
                         uint64_t limit = UINT64_MAX);

// Up to `limit` distinct embeddings; each element maps pattern vertex k
// to a target vertex. Used by the apriori miner's candidate generation.
std::vector<std::vector<VertexId>> FindAllEmbeddings(
    const Graph& pattern, const Graph& target, uint64_t limit = UINT64_MAX);

// Exact isomorphism: equal vertex/edge counts plus a monomorphism.
bool AreIsomorphic(const Graph& a, const Graph& b);

}  // namespace graphsig::graph

#endif  // GRAPHSIG_GRAPH_ISOMORPHISM_H_
