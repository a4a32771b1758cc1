#include "fsm/dfs_code.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <span>
#include <tuple>

#include "util/check.h"
#include "util/strings.h"

namespace graphsig::fsm {

int32_t DfsCode::NumVertices() const {
  int32_t max_id = -1;
  for (const DfsEdge& e : edges_) {
    max_id = std::max(max_id, std::max(e.from, e.to));
  }
  return max_id + 1;
}

graph::Graph DfsCode::ToGraph() const {
  graph::Graph g;
  int32_t n = NumVertices();
  // Any int32 is a valid label, so a separate flag marks labeled ids.
  std::vector<graph::Label> labels(n);
  std::vector<char> labeled(n, 0);
  for (const DfsEdge& e : edges_) {
    labels[e.from] = e.from_label;
    labels[e.to] = e.to_label;
    labeled[e.from] = labeled[e.to] = 1;
  }
  for (int32_t v = 0; v < n; ++v) {
    GS_CHECK(labeled[v]);
    g.AddVertex(labels[v]);
  }
  for (const DfsEdge& e : edges_) {
    g.AddEdge(e.from, e.to, e.edge_label);
  }
  return g;
}

std::vector<int> DfsCode::BuildRmPath() const {
  std::vector<int> rmpath;
  BuildRmPath(&rmpath);
  return rmpath;
}

void DfsCode::BuildRmPath(std::vector<int>* rmpath) const {
  // Walk the code backwards collecting the chain of forward edges that
  // ends at the rightmost vertex: index order is rightmost-first.
  rmpath->clear();
  int32_t old_from = -1;
  for (int i = static_cast<int>(edges_.size()) - 1; i >= 0; --i) {
    const DfsEdge& e = edges_[i];
    if (e.IsForward() && (rmpath->empty() || old_from == e.to)) {
      rmpath->push_back(i);
      old_from = e.from;
    }
  }
}

std::string DfsCode::ToString() const {
  // Same bytes as "(%d,%d,%d,%d,%d)" per edge. std::to_chars skips
  // printf's format parsing, which showed in profiles of the dedup keys.
  std::string out;
  out.reserve(edges_.size() * 16);
  char buf[64];  // 5 x int32 (<= 11 chars each) + 6 punctuation
  for (const DfsEdge& e : edges_) {
    char* p = buf;
    char* const end = buf + sizeof(buf);
    *p++ = '(';
    for (int32_t field : {e.from, e.to, e.from_label, e.edge_label}) {
      p = std::to_chars(p, end, field).ptr;
      *p++ = ',';
    }
    p = std::to_chars(p, end, e.to_label).ptr;
    *p++ = ')';
    out.append(buf, p);
  }
  return out;
}

bool DfsEdgeLess(const DfsEdge& a, const DfsEdge& b) {
  // Comparator for candidate extensions of one common prefix:
  // backward edges precede forward edges; backward edges order by
  // (to asc, edge_label asc); forward edges by (from desc, edge_label asc,
  // to_label asc).
  const bool a_fwd = a.IsForward();
  const bool b_fwd = b.IsForward();
  if (a_fwd != b_fwd) return !a_fwd;
  if (!a_fwd) {
    return std::tie(a.to, a.edge_label) < std::tie(b.to, b.edge_label);
  }
  if (a.from != b.from) return a.from > b.from;
  return std::tie(a.edge_label, a.to_label) <
         std::tie(b.edge_label, b.to_label);
}

namespace {

using graph::AdjEntry;
using graph::EdgeRecord;
using graph::Label;
using graph::VertexId;

// Embeddings of the current minimum-code prefix into the graph, stored
// flat. Each one is a DFS id -> vertex map plus used-edge and
// used-vertex bit masks. The mask width is fixed per graph (one word
// covers the <= 25-edge patterns gSpan checks), so copying an
// embedding is a few word copies instead of two vector<bool>s. Reset
// keeps the buffers, so a reused set allocates only to grow.
class EmbeddingSet {
 public:
  // Empties the set and sizes its entries for a graph of this shape.
  void Reset(int32_t num_vertices, int32_t num_edges) {
    map_stride_ = static_cast<size_t>(num_vertices);
    edge_words_ = static_cast<size_t>(num_edges + 63) / 64;
    mask_stride_ = edge_words_ + static_cast<size_t>(num_vertices + 63) / 64;
    size_ = 0;
  }

  size_t size() const { return size_; }
  void clear() { size_ = 0; }

  const VertexId* map(size_t k) const { return &maps_[k * map_stride_]; }
  bool EdgeUsed(size_t k, int32_t e) const {
    return Test(&masks_[k * mask_stride_], e);
  }
  bool VertexUsed(size_t k, VertexId v) const {
    return Test(&masks_[k * mask_stride_ + edge_words_], v);
  }

  // Appends a fresh embedding of a single edge instance.
  void AddSeed(VertexId a, VertexId b, int32_t edge) {
    const size_t k = Grow();
    std::fill_n(&masks_[k * mask_stride_], mask_stride_, 0);
    maps_[k * map_stride_] = a;
    maps_[k * map_stride_ + 1] = b;
    Mark(k, edge, a, b);
  }

  // Appends embedding k of `from` grown by one edge; `new_dfs` >= 0 maps
  // that DFS id to `new_vertex` (forward growth).
  void AddGrown(const EmbeddingSet& from, size_t k, int32_t edge,
                int32_t new_dfs, VertexId new_vertex) {
    const size_t j = Grow();
    std::copy_n(&from.maps_[k * map_stride_], map_stride_,
                &maps_[j * map_stride_]);
    std::copy_n(&from.masks_[k * mask_stride_], mask_stride_,
                &masks_[j * mask_stride_]);
    if (new_dfs >= 0) maps_[j * map_stride_ + new_dfs] = new_vertex;
    Mark(j, edge, new_vertex, new_vertex);
  }

  // Both sets must have been Reset for the same graph.
  friend void swap(EmbeddingSet& a, EmbeddingSet& b) {
    std::swap(a.size_, b.size_);
    a.maps_.swap(b.maps_);
    a.masks_.swap(b.masks_);
  }

 private:
  static bool Test(const uint64_t* mask, int32_t bit) {
    return (mask[bit >> 6] >> (bit & 63)) & 1;
  }
  static void Set(uint64_t* mask, int32_t bit) {
    mask[bit >> 6] |= uint64_t{1} << (bit & 63);
  }

  size_t Grow() {
    const size_t k = size_++;
    // The strides change with Reset, so each buffer is checked.
    if (maps_.size() < size_ * map_stride_) {
      maps_.resize(size_ * map_stride_ * 2);
    }
    if (masks_.size() < size_ * mask_stride_) {
      masks_.resize(size_ * mask_stride_ * 2);
    }
    return k;
  }

  void Mark(size_t k, int32_t edge, VertexId a, VertexId b) {
    uint64_t* mask = &masks_[k * mask_stride_];
    Set(mask, edge);
    Set(mask + edge_words_, a);
    Set(mask + edge_words_, b);
  }

  size_t map_stride_ = 0;
  size_t edge_words_ = 0;
  size_t mask_stride_ = 0;
  size_t size_ = 0;
  std::vector<VertexId> maps_;
  std::vector<uint64_t> masks_;
};

// The graph of a DFS code (vertex k is DFS id k) as flat adjacency in
// reused buffers: what IsMinimalDfsCode grows the minimum code of, with
// no heap Graph per check. Neighbors are in edge order, as in the Graph
// that DfsCode::ToGraph builds.
class CodeGraph {
 public:
  void Assign(const DfsCode& code) {
    const int32_t n = code.NumVertices();
    labels_.assign(static_cast<size_t>(n), 0);
    offsets_.assign(static_cast<size_t>(n) + 1, 0);
    edges_.clear();
    for (const DfsEdge& e : code.edges()) {
      labels_[e.from] = e.from_label;
      labels_[e.to] = e.to_label;
      edges_.push_back({e.from, e.to, e.edge_label});
      ++offsets_[e.from + 1];
      ++offsets_[e.to + 1];
    }
    for (int32_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
    entries_.resize(2 * edges_.size());
    fill_ = offsets_;
    for (size_t i = 0; i < edges_.size(); ++i) {
      const EdgeRecord& e = edges_[i];
      const int32_t index = static_cast<int32_t>(i);
      entries_[fill_[e.u]++] = {e.v, e.label, index};
      entries_[fill_[e.v]++] = {e.u, e.label, index};
    }
  }

  int32_t num_vertices() const {
    return static_cast<int32_t>(labels_.size());
  }
  int32_t num_edges() const { return static_cast<int32_t>(edges_.size()); }
  Label vertex_label(VertexId v) const { return labels_[v]; }
  std::span<const AdjEntry> neighbors(VertexId v) const {
    return {entries_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }
  const std::vector<EdgeRecord>& edges() const { return edges_; }

 private:
  std::vector<Label> labels_;
  std::vector<int32_t> offsets_;
  std::vector<int32_t> fill_;
  std::vector<AdjEntry> entries_;
  std::vector<EdgeRecord> edges_;
};

// Working memory of GrowMinDfsCode, one set per thread, reused by every
// call on it (a call never starts another).
struct GrowScratch {
  EmbeddingSet embs;
  EmbeddingSet next;
  std::vector<int> rmpath;
  CodeGraph code_graph;
  DfsCode min_code;
};

GrowScratch& ThreadGrowScratch() {
  thread_local GrowScratch scratch;
  return scratch;
}

// Grows the minimum DFS code of the connected, non-empty-edge graph `g`
// into the empty `code`, one edge at a time. Each step keeps only the
// embeddings that realize the minimum prefix, so it is the gSpan
// canonical construction. With a candidate, it returns false at the
// first edge where the minimum departs from the candidate: the is-min
// check then costs only the prefix it agrees on. Otherwise it returns
// true with the full minimum code.
// `AnyGraph` is graph::Graph or CodeGraph.
template <typename AnyGraph>
bool GrowMinDfsCode(const AnyGraph& g, const DfsCode* candidate,
                    DfsCode* code) {
  auto extend_agrees = [&](const DfsEdge& e) {
    code->Push(e);
    return candidate == nullptr || (*candidate)[code->size() - 1] == e;
  };

  // Seed with the minimal (from_label, edge_label, to_label) edge over all
  // directed instances.
  using Triple = std::tuple<Label, Label, Label>;
  Triple best{INT32_MAX, INT32_MAX, INT32_MAX};
  for (const EdgeRecord& e : g.edges()) {
    Triple ab{g.vertex_label(e.u), e.label, g.vertex_label(e.v)};
    Triple ba{g.vertex_label(e.v), e.label, g.vertex_label(e.u)};
    best = std::min(best, std::min(ab, ba));
  }
  if (!extend_agrees({0, 1, std::get<0>(best), std::get<1>(best),
                      std::get<2>(best)})) {
    return false;
  }

  GrowScratch& scratch = ThreadGrowScratch();
  EmbeddingSet& embs = scratch.embs;
  EmbeddingSet& next = scratch.next;
  embs.Reset(g.num_vertices(), g.num_edges());
  next.Reset(g.num_vertices(), g.num_edges());
  for (int32_t ei = 0; ei < g.num_edges(); ++ei) {
    const EdgeRecord& e = g.edges()[ei];
    for (int dir = 0; dir < 2; ++dir) {
      VertexId a = dir == 0 ? e.u : e.v;
      VertexId b = dir == 0 ? e.v : e.u;
      if (Triple{g.vertex_label(a), e.label, g.vertex_label(b)} != best) {
        continue;
      }
      embs.AddSeed(a, b, ei);
    }
  }
  GS_CHECK(embs.size() > 0);

  const Label min_label = std::get<0>(best);
  std::vector<int>& rmpath = scratch.rmpath;

  while (static_cast<int32_t>(code->size()) < g.num_edges()) {
    code->BuildRmPath(&rmpath);
    const int32_t maxtoc = (*code)[rmpath[0]].to;  // rightmost vertex DFS id
    const Label rm_vertex_label = (*code)[rmpath[0]].to_label;
    next.clear();

    // --- Backward extensions: smallest (to, edge_label) wins. Iterate
    // rmpath from the root side so 'to' ascends; first hit is minimal in
    // 'to', then take the minimal edge label for that 'to'.
    bool extended = false;
    for (int j = static_cast<int>(rmpath.size()) - 1; j >= 1 && !extended;
         --j) {
      const DfsEdge e1 = (*code)[rmpath[j]];
      const int32_t to_dfs = e1.from;
      Label best_elabel = INT32_MAX;
      for (size_t k = 0; k < embs.size(); ++k) {
        const VertexId to_g = embs.map(k)[to_dfs];
        for (const AdjEntry& adj : g.neighbors(embs.map(k)[maxtoc])) {
          if (adj.to != to_g) continue;
          if (embs.EdgeUsed(k, adj.edge_index)) continue;
          // Canonical-growth legality (gSpan get_backward): the new
          // backward edge must not precede the rmpath edge it closes on.
          if (e1.edge_label < adj.label ||
              (e1.edge_label == adj.label &&
               e1.to_label <= rm_vertex_label)) {
            best_elabel = std::min(best_elabel, adj.label);
          }
        }
      }
      if (best_elabel == INT32_MAX) continue;
      if (!extend_agrees({maxtoc, to_dfs, rm_vertex_label, best_elabel,
                          e1.from_label})) {
        return false;
      }
      // Extend embeddings along the chosen backward edge.
      for (size_t k = 0; k < embs.size(); ++k) {
        const VertexId to_g = embs.map(k)[to_dfs];
        for (const AdjEntry& adj : g.neighbors(embs.map(k)[maxtoc])) {
          if (adj.to != to_g || adj.label != best_elabel) continue;
          if (embs.EdgeUsed(k, adj.edge_index)) continue;
          next.AddGrown(embs, k, adj.edge_index, -1, adj.to);
        }
      }
      GS_CHECK(next.size() > 0);
      swap(embs, next);
      extended = true;
    }
    if (extended) continue;

    // --- Forward extensions: largest 'from' wins (rightmost vertex
    // first, then up the rightmost path), then smallest (elabel, tolabel).
    struct FwdPick {
      int32_t from_dfs;
      Label from_label;
      Label elabel;
      Label tolabel;
    };
    std::optional<FwdPick> pick;

    auto consider = [&](int32_t from_dfs, Label from_label, Label elabel,
                        Label tolabel) {
      if (!pick.has_value() ||
          std::tie(elabel, tolabel) < std::tie(pick->elabel, pick->tolabel)) {
        pick = FwdPick{from_dfs, from_label, elabel, tolabel};
      }
    };

    // Pure forward from the rightmost vertex.
    for (size_t k = 0; k < embs.size(); ++k) {
      for (const AdjEntry& adj : g.neighbors(embs.map(k)[maxtoc])) {
        if (embs.VertexUsed(k, adj.to)) continue;
        if (g.vertex_label(adj.to) < min_label) continue;
        consider(maxtoc, rm_vertex_label, adj.label, g.vertex_label(adj.to));
      }
    }
    // Forward off the rightmost path, from rightmost-1 back to root,
    // only if the rightmost vertex produced nothing.
    for (size_t j = 0; j < rmpath.size() && !pick.has_value(); ++j) {
      const DfsEdge e1 = (*code)[rmpath[j]];
      for (size_t k = 0; k < embs.size(); ++k) {
        for (const AdjEntry& adj : g.neighbors(embs.map(k)[e1.from])) {
          if (embs.VertexUsed(k, adj.to)) continue;
          const Label tolabel = g.vertex_label(adj.to);
          if (tolabel < min_label) continue;
          // Legality (gSpan get_forward_rmpath): the branch must not
          // precede the rmpath edge it shares a source with.
          if (e1.edge_label < adj.label ||
              (e1.edge_label == adj.label && e1.to_label <= tolabel)) {
            consider(e1.from, e1.from_label, adj.label, tolabel);
          }
        }
      }
    }
    GS_CHECK(pick.has_value());  // connected graph must extend

    const int32_t new_dfs = maxtoc + 1;
    if (!extend_agrees({pick->from_dfs, new_dfs, pick->from_label,
                        pick->elabel, pick->tolabel})) {
      return false;
    }
    for (size_t k = 0; k < embs.size(); ++k) {
      for (const AdjEntry& adj : g.neighbors(embs.map(k)[pick->from_dfs])) {
        if (embs.VertexUsed(k, adj.to)) continue;
        if (adj.label != pick->elabel) continue;
        if (g.vertex_label(adj.to) != pick->tolabel) continue;
        next.AddGrown(embs, k, adj.edge_index, new_dfs, adj.to);
      }
    }
    GS_CHECK(next.size() > 0);
    swap(embs, next);
  }
  return true;
}

}  // namespace

DfsCode BuildMinDfsCode(const graph::Graph& g) {
  GS_CHECK_GT(g.num_vertices(), 0);
  GS_CHECK(g.IsConnected());
  DfsCode code;
  if (g.num_edges() == 0) {
    GS_CHECK_EQ(g.num_vertices(), 1);
    return code;  // single vertex: empty code
  }
  GrowMinDfsCode(g, nullptr, &code);
  return code;
}

bool IsMinimalDfsCode(const DfsCode& code) {
  if (code.empty()) return true;
  GrowScratch& scratch = ThreadGrowScratch();
  scratch.code_graph.Assign(code);
  scratch.min_code.Clear();
  return GrowMinDfsCode(scratch.code_graph, &code, &scratch.min_code);
}

std::string CanonicalCode(const graph::Graph& g) {
  GS_CHECK_GT(g.num_vertices(), 0);
  if (g.num_edges() == 0) {
    GS_CHECK_EQ(g.num_vertices(), 1);
    return util::StrPrintf("v%d", g.vertex_label(0));
  }
  return BuildMinDfsCode(g).ToString();
}

}  // namespace graphsig::fsm
