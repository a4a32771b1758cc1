#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <tuple>

#include "fsm/dfs_code.h"
#include "fsm/miner.h"
#include "graph/csr.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/timer.h"

namespace graphsig::fsm {

int64_t SupportFromPercent(double percent, size_t db_size) {
  GS_CHECK_GE(percent, 0.0);
  int64_t s = static_cast<int64_t>(
      std::ceil(percent * static_cast<double>(db_size) / 100.0));
  return std::max<int64_t>(s, 1);
}

namespace {

using graph::AdjEntry;
using graph::CsrGraph;
using graph::Label;
using graph::VertexId;

// One edge of an embedding chain. `edge` points into the per-graph CSR
// half-edge array; `prev` points into the miner's arena. Walking prev
// links reconstructs the full embedding of the code. Trivially
// destructible by design: chains live in the task's Arena and are freed
// by rewinding, never destroyed.
struct Emb {
  int32_t gid;
  VertexId from;        // graph vertex the instance starts at
  const AdjEntry* edge;  // instance: (to, label, edge_index)
  const Emb* prev;
};

// The embeddings of one code: a contiguous arena array in gid order.
using Projected = std::span<const Emb>;

// One rightmost extension instance found while scanning a projection:
// parent embedding, the half-edge it grows along, and its key's bucket.
struct Candidate {
  const Emb* prev;
  const AdjEntry* edge;
  int32_t gid;
  VertexId from;
  int32_t bucket;
};

// All instances of one extension key within a projection. Support is
// the number of gid runs, because instances arrive in gid order.
struct Bucket {
  DfsEdge key;
  int64_t support = 0;
  int32_t last_gid = -1;
  int32_t count = 0;  // instances
  Emb* out = nullptr;  // child projection, frequent keys only
};

// Distinct extension keys of one scan in first-seen order, with an
// open-addressing index over them (a scan sees a few dozen keys at most,
// but looks one up per instance).
class BucketIndex {
 public:
  std::vector<Bucket>& buckets() { return buckets_; }

  // Clears the buckets and their index slots, keeping capacity.
  void Reset() {
    for (int32_t slot : used_slots_) table_[slot] = -1;
    used_slots_.clear();
    buckets_.clear();
  }

  // Bucket id of `key`, created on first sight.
  int32_t Find(const DfsEdge& key) {
    if (2 * (buckets_.size() + 1) > table_.size()) Rehash();
    const size_t mask = table_.size() - 1;
    for (size_t slot = Hash(key) & mask;; slot = (slot + 1) & mask) {
      const int32_t id = table_[slot];
      if (id < 0) {
        table_[slot] = static_cast<int32_t>(buckets_.size());
        used_slots_.push_back(static_cast<int32_t>(slot));
        buckets_.push_back({key});
        return table_[slot];
      }
      if (buckets_[id].key == key) return id;
    }
  }

 private:
  static size_t Hash(const DfsEdge& e) {
    uint64_t h = 0;
    for (int32_t field :
         {e.from, e.to, e.from_label, e.edge_label, e.to_label}) {
      h = (h ^ static_cast<uint32_t>(field)) * 0x9e3779b97f4a7c15ull;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }

  void Rehash() {
    table_.assign(std::max<size_t>(64, table_.size() * 2), -1);
    used_slots_.clear();
    const size_t mask = table_.size() - 1;
    for (size_t id = 0; id < buckets_.size(); ++id) {
      size_t slot = Hash(buckets_[id].key) & mask;
      while (table_[slot] >= 0) slot = (slot + 1) & mask;
      table_[slot] = static_cast<int32_t>(id);
      used_slots_.push_back(static_cast<int32_t>(slot));
    }
  }

  std::vector<Bucket> buckets_;
  std::vector<int32_t> table_;  // bucket id per slot, -1 when empty
  std::vector<int32_t> used_slots_;
};

// A frequent child of one Project frame, kept until its subtree is
// explored.
struct Child {
  DfsEdge key;
  int64_t support;
  Projected projected;
};

class GSpanMiner {
 public:
  GSpanMiner(CsrDatabase db, const MinerConfig& config)
      : db_(db), config_(config) {}

  MineResult Run() {
    util::WallTimer timer;
    if (config_.include_single_vertices && config_.min_edges <= 0) {
      ReportSingleVertices();
    }

    // All extension loops and embedding chains reference the borrowed
    // CSRs' half-edge arrays.
    int32_t max_vertices = 0;
    int32_t max_edges = 0;
    for (const CsrGraph* g : db_) {
      max_vertices = std::max(max_vertices, g->num_vertices());
      max_edges = std::max(max_edges, g->num_edges());
    }
    vertex_stamp_.assign(static_cast<size_t>(max_vertices), 0);
    edge_stamp_.assign(static_cast<size_t>(max_edges), 0);

    // Frequent 1-edge seeds, keyed by (from_label, elabel, to_label)
    // with from_label <= to_label; both orientations are kept as
    // embeddings when the endpoint labels are equal. Root embeddings are
    // allocated before any Project frame marks the arena, so they outlive
    // every rewind.
    for (size_t gid = 0; gid < db_.size(); ++gid) {
      const CsrGraph& g = *db_[gid];
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        for (const AdjEntry& adj : g.neighbors(v)) {
          if (g.vertex_label(v) > g.vertex_label(adj.to)) continue;
          AddCandidate(static_cast<int32_t>(gid), nullptr, v, &adj,
                       {0, 1, g.vertex_label(v), adj.label,
                        g.vertex_label(adj.to)});
        }
      }
    }
    // Roots go in (from_label, elabel, to_label) order.
    std::vector<Child> roots = TakeFrequentChildren(
        [](const DfsEdge& a, const DfsEdge& b) {
          return std::tie(a.from_label, a.edge_label, a.to_label) <
                 std::tie(b.from_label, b.edge_label, b.to_label);
        });

    DfsCode code;
    for (const Child& root : roots) {
      if (stopped_) break;
      code.Push(root.key);
      Project(code, root.projected, root.support);
      code.Pop();
    }

    result_.seconds = timer.ElapsedSeconds();
    result_.completed = !stopped_;
    result_.embedding_arena_bytes = arena_.bytes_requested();
    return std::move(result_);
  }

 private:
  void ReportSingleVertices() {
    std::map<Label, std::vector<int32_t>> by_label;
    for (size_t gid = 0; gid < db_.size(); ++gid) {
      std::map<Label, bool> seen;
      for (Label l : db_[gid]->vertex_labels()) {
        if (!seen[l]) {
          seen[l] = true;
          by_label[l].push_back(static_cast<int32_t>(gid));
        }
      }
    }
    for (const auto& [label, gids] : by_label) {
      if (static_cast<int64_t>(gids.size()) < config_.min_support) continue;
      Pattern p;
      p.graph.AddVertex(label);
      p.support = static_cast<int64_t>(gids.size());
      p.supporting = gids;
      Emit(std::move(p));
      if (stopped_) return;
    }
  }

  // Records one extension instance and counts its key's support. Scans
  // visit embeddings in gid order, so a new gid run is a new graph.
  void AddCandidate(int32_t gid, const Emb* prev, VertexId from,
                    const AdjEntry* edge, const DfsEdge& key) {
    const int32_t id = index_.Find(key);
    Bucket& bucket = index_.buckets()[id];
    GS_CHECK_GE(gid, bucket.last_gid);
    if (gid != bucket.last_gid) {
      bucket.last_gid = gid;
      ++bucket.support;
    }
    ++bucket.count;
    candidates_.push_back({prev, edge, gid, from, id});
  }

  // Allocates child projections for the keys that reach min_support and
  // returns them in `less` order. Each child keeps its instances in scan
  // order (so in gid order). Infrequent keys get no embeddings: Project
  // would return on them before doing anything.
  template <typename Less>
  std::vector<Child> TakeFrequentChildren(Less less) {
    std::vector<Bucket>& buckets = index_.buckets();
    std::vector<int32_t> frequent;
    for (size_t id = 0; id < buckets.size(); ++id) {
      if (buckets[id].support >= config_.min_support) {
        frequent.push_back(static_cast<int32_t>(id));
      }
    }
    std::sort(frequent.begin(), frequent.end(), [&](int32_t a, int32_t b) {
      return less(buckets[a].key, buckets[b].key);
    });
    std::vector<Child> children;
    children.reserve(frequent.size());
    for (int32_t id : frequent) {
      Bucket& bucket = buckets[id];
      bucket.out = arena_.AllocateArray<Emb>(bucket.count);
      children.push_back({bucket.key, bucket.support,
                          {bucket.out, static_cast<size_t>(bucket.count)}});
    }
    for (const Candidate& c : candidates_) {
      Bucket& bucket = buckets[c.bucket];
      if (bucket.out == nullptr) continue;
      *bucket.out++ = {c.gid, c.from, c.edge, c.prev};
    }
    index_.Reset();
    candidates_.clear();
    return children;
  }

  // Expands `emb` into the stamped History buffers: marks the graph
  // edges and vertices it uses with a fresh epoch and records where each
  // DFS id landed in dfs_to_g_.
  void LoadHistory(const DfsCode& code, const Emb* emb) {
    if (++epoch_ == 0) {  // wrapped: no stale stamp may equal the epoch
      std::fill(vertex_stamp_.begin(), vertex_stamp_.end(), 0);
      std::fill(edge_stamp_.begin(), edge_stamp_.end(), 0);
      epoch_ = 1;
    }
    int i = static_cast<int>(code.size()) - 1;
    for (const Emb* e = emb; e != nullptr; e = e->prev, --i) {
      edge_stamp_[e->edge->edge_index] = epoch_;
      vertex_stamp_[e->from] = epoch_;
      vertex_stamp_[e->edge->to] = epoch_;
      if (code[i].IsForward()) dfs_to_g_[code[i].to] = e->edge->to;
      if (i == 0) dfs_to_g_[code[0].from] = e->from;
    }
    GS_CHECK_EQ(i, -1);
  }

  bool EdgeUsed(int32_t edge) const { return edge_stamp_[edge] == epoch_; }
  bool VertexUsed(VertexId v) const { return vertex_stamp_[v] == epoch_; }

  static std::vector<int32_t> DistinctGids(Projected projected) {
    std::vector<int32_t> gids;
    for (const Emb& e : projected) {
      if (gids.empty() || gids.back() != e.gid) gids.push_back(e.gid);
    }
    return gids;
  }

  void Emit(Pattern p) {
    result_.patterns.push_back(std::move(p));
    if (result_.patterns.size() >= config_.max_patterns) stopped_ = true;
  }

  // `projected` holds `support` distinct graphs, at least min_support.
  void Project(DfsCode& code, Projected projected, int64_t support) {
    if (stopped_) return;
    if (!IsMinimalDfsCode(code)) return;

    ++result_.states_expanded;
    if ((result_.states_expanded & 0x3f) == 0 &&
        budget_timer_.ElapsedSeconds() > config_.budget_seconds) {
      stopped_ = true;
      return;
    }

    if (static_cast<int32_t>(code.size()) >= config_.min_edges) {
      Pattern p;
      p.graph = code.ToGraph();
      p.support = support;
      p.supporting = DistinctGids(projected);
      Emit(std::move(p));
      if (stopped_) return;
    }
    if (static_cast<int32_t>(code.size()) >= config_.max_edges) return;

    const std::vector<int> rmpath = code.BuildRmPath();
    const int32_t maxtoc = code[rmpath[0]].to;
    const Label rm_vertex_label = code[rmpath[0]].to_label;
    const Label min_label = code[0].from_label;
    dfs_to_g_.resize(static_cast<size_t>(maxtoc) + 1);

    // Child embeddings live in this frame's arena region and are freed by
    // rewinding once all child branches have been explored (chains only
    // point parent-ward, so a rewind never strands a live chain).
    const util::Arena::Mark frame_mark = arena_.Position();

    for (const Emb& emb : projected) {
      const CsrGraph& g = *db_[emb.gid];
      LoadHistory(code, &emb);
      const VertexId rm_g = dfs_to_g_[maxtoc];

      // Backward extensions off the rightmost vertex, closing onto a
      // rightmost-path vertex (root side first).
      for (int j = static_cast<int>(rmpath.size()) - 1; j >= 1; --j) {
        const DfsEdge& e1 = code[rmpath[j]];
        const VertexId to_g = dfs_to_g_[e1.from];
        for (const AdjEntry& adj : g.neighbors(rm_g)) {
          if (adj.to != to_g) continue;
          if (EdgeUsed(adj.edge_index)) continue;
          if (e1.edge_label < adj.label ||
              (e1.edge_label == adj.label &&
               e1.to_label <= rm_vertex_label)) {
            AddCandidate(emb.gid, &emb, rm_g, &adj,
                         {maxtoc, e1.from, rm_vertex_label, adj.label,
                          e1.from_label});
          }
        }
      }

      // Pure forward from the rightmost vertex.
      for (const AdjEntry& adj : g.neighbors(rm_g)) {
        if (VertexUsed(adj.to)) continue;
        const Label tolabel = g.vertex_label(adj.to);
        if (tolabel < min_label) continue;
        AddCandidate(emb.gid, &emb, rm_g, &adj,
                     {maxtoc, maxtoc + 1, rm_vertex_label, adj.label,
                      tolabel});
      }

      // Forward branching off the rightmost path.
      for (size_t j = 0; j < rmpath.size(); ++j) {
        const DfsEdge& e1 = code[rmpath[j]];
        const VertexId from_g = dfs_to_g_[e1.from];
        for (const AdjEntry& adj : g.neighbors(from_g)) {
          if (VertexUsed(adj.to)) continue;
          const Label tolabel = g.vertex_label(adj.to);
          if (tolabel < min_label) continue;
          if (e1.edge_label < adj.label ||
              (e1.edge_label == adj.label && e1.to_label <= tolabel)) {
            AddCandidate(emb.gid, &emb, from_g, &adj,
                         {e1.from, maxtoc + 1, e1.from_label, adj.label,
                          tolabel});
          }
        }
      }
    }

    const std::vector<Child> children = TakeFrequentChildren(DfsEdgeLess);
    for (const Child& child : children) {
      if (stopped_) break;
      code.Push(child.key);
      Project(code, child.projected, child.support);
      code.Pop();
    }
    arena_.Rewind(frame_mark);
  }

  const CsrDatabase db_;  // borrowed: one flat adjacency per graph
  const MinerConfig config_;
  MineResult result_;
  util::Arena arena_;  // embedding-chain storage (task-scoped)
  // Scan scratch, reused by every frame: a frame consumes it into child
  // projections before it recurses.
  BucketIndex index_;
  std::vector<Candidate> candidates_;
  // History: the embedding being extended, as epoch stamps over the
  // largest graph's vertices and edges plus its DFS id -> vertex map.
  std::vector<uint32_t> vertex_stamp_;
  std::vector<uint32_t> edge_stamp_;
  uint32_t epoch_ = 0;
  std::vector<VertexId> dfs_to_g_;
  util::WallTimer budget_timer_;
  bool stopped_ = false;
};

}  // namespace

MineResult MineFrequentGSpan(const graph::GraphDatabase& db,
                             const MinerConfig& config) {
  const std::vector<CsrGraph> csrs(db.graphs().begin(), db.graphs().end());
  std::vector<const CsrGraph*> borrowed;
  borrowed.reserve(csrs.size());
  for (const CsrGraph& g : csrs) borrowed.push_back(&g);
  return MineFrequentGSpan(borrowed, config);
}

MineResult MineFrequentGSpan(CsrDatabase db, const MinerConfig& config) {
  GS_CHECK_GE(config.min_support, 1);
  GS_TRACE_SPAN_NAMED(span, "mine/fsm/gspan");
  GSpanMiner miner(db, config);
  MineResult result = miner.Run();
  // Candidate totals come straight out of the single-threaded search,
  // so they are deterministic work counters (DESIGN.md §12).
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const candidates =
      registry.GetCounter("gspan/candidates");
  static obs::Counter* const patterns =
      registry.GetCounter("gspan/patterns");
  static obs::Counter* const arena_bytes =
      registry.GetCounter("gspan/embeddings_arena_bytes");
  candidates->Add(result.states_expanded);
  patterns->Add(result.patterns.size());
  arena_bytes->Add(result.embedding_arena_bytes);
  span.AddWork(result.states_expanded);
  return result;
}

}  // namespace graphsig::fsm
