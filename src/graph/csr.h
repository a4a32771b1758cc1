#ifndef GRAPHSIG_GRAPH_CSR_H_
#define GRAPHSIG_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace graphsig::graph {

// Immutable compressed-sparse-row adjacency view of one Graph
// (DESIGN.md §14). All half-edges live in one flat array indexed by a
// per-vertex offset table, so the hot traversal loops (VF2 feasibility,
// gSpan rightmost extension, RWR power iteration) walk contiguous memory
// instead of chasing one heap vector per vertex.
//
// The per-vertex neighbor ORDER is copied from the source adjacency
// lists verbatim. That is a correctness requirement, not an
// optimization: RWR accumulates floating point in neighbor order and
// gSpan enumerates extensions in neighbor order, and both must stay
// byte-identical to the adjacency-list implementation.
//
// Construction cost is tallied in the deterministic work counter
// graph/csr_builds.
class CsrGraph {
 public:
  // The empty graph; counts no build. Lets callers pre-size a vector of
  // slots and fill it in parallel.
  CsrGraph() : offsets_(1, 0) {}
  explicit CsrGraph(const Graph& g);

  int32_t num_vertices() const {
    return static_cast<int32_t>(labels_.size());
  }
  int32_t num_edges() const { return num_edges_; }

  Label vertex_label(VertexId v) const { return labels_[v]; }
  const std::vector<Label>& vertex_labels() const { return labels_; }

  std::span<const AdjEntry> neighbors(VertexId v) const {
    return {entries_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }
  int32_t degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  // Label of edge (u, v), or -1 if absent; scans the shorter of the two
  // neighbor spans, same as Graph::EdgeLabelBetween.
  Label EdgeLabelBetween(VertexId u, VertexId v) const;

  // All vertices at hop distance <= radius from `center` (BFS), including
  // `center`, in the same BFS order as Graph::VerticesWithinRadius.
  std::vector<VertexId> VerticesWithinRadius(VertexId center,
                                             int radius) const;

 private:
  std::vector<int32_t> offsets_;  // size num_vertices + 1
  std::vector<AdjEntry> entries_;
  std::vector<Label> labels_;
  int32_t num_edges_ = 0;
};

}  // namespace graphsig::graph

#endif  // GRAPHSIG_GRAPH_CSR_H_
