#ifndef GRAPHSIG_GRAPH_SIGNATURE_H_
#define GRAPHSIG_GRAPH_SIGNATURE_H_

// Monotone containment signature (DESIGN.md §8): a summary of one graph
// whose domination is a necessary condition for subgraph isomorphism.
// A monomorphism maps each pattern vertex to a same-labeled target
// vertex of >= degree and each pattern edge to a distinct target edge of
// the same type, so every field of a contained pattern is dominated by
// the corresponding field of its container. A failed domination test
// therefore proves non-containment without running VF2.
//
// One signature type serves both sides: serving builds one per catalog
// pattern at load and one per query, and db-frequency builds one per
// database graph and one per pattern per mine.

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace graphsig::graph {

// An edge type: endpoint labels normalized a <= b, plus the edge label.
using EdgeTypeKey = std::tuple<Label, Label, Label>;

struct ContainmentSignature {
  int32_t num_vertices = 0;
  int32_t num_edges = 0;
  // One (label, degree) entry per vertex, ascending by label and, within
  // a label, descending by degree.
  std::vector<std::pair<Label, int32_t>> label_degrees;
  // (edge type, count) per distinct edge type, ascending by type.
  std::vector<std::pair<EdgeTypeKey, int32_t>> edge_type_counts;
};

ContainmentSignature BuildContainmentSignature(const Graph& g);

// True unless `pattern` provably does not occur in `target`: vertex and
// edge counts, per-type edge counts, and per-label degree sequences
// (k-th largest against k-th largest) are all dominated.
bool SignatureDominated(const ContainmentSignature& pattern,
                        const ContainmentSignature& target);

}  // namespace graphsig::graph

#endif  // GRAPHSIG_GRAPH_SIGNATURE_H_
