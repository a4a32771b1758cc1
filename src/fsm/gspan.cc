#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <tuple>

#include "fsm/dfs_code.h"
#include "fsm/maximal.h"
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
// destructible by design: chains live in the run's Arena and are freed
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
  int32_t slot = -1;  // direct slot, or -1 for a hashed (root) bucket
  int64_t support = 0;
  int32_t last_gid = -1;
  int32_t count = 0;  // instances
  Emb* out = nullptr;  // child projection, frequent keys only
};

// A frequent child of one Project frame, kept until its subtree is
// explored.
struct Child {
  DfsEdge key;
  int64_t support;
  Projected projected;
};

// Distinct extension keys of one scan in first-seen order. A Project
// frame finds a key's bucket through a direct slot (GSpanMiner::Scan);
// root seeding, whose label-triple space is not bounded per frame, goes
// through a small open-addressing hash.
class BucketIndex {
 public:
  static constexpr int32_t kEmptySlot = -1;
  static constexpr int32_t kPrunedSlot = -2;

  std::vector<Bucket>& buckets() { return buckets_; }

  // Makes slots [0, n) addressable (new ones empty).
  void ReserveSlots(size_t n) {
    if (slots_.size() < n) slots_.resize(n, kEmptySlot);
  }

  // Bucket id in `slot`, or kEmptySlot / kPrunedSlot.
  int32_t slot(size_t slot) const { return slots_[slot]; }

  // Fills an empty slot: a new bucket for `key`, or kPrunedSlot (no
  // bucket, its instances are dropped) when `key` is null.
  int32_t FillSlot(size_t slot, const DfsEdge* key) {
    used_slots_.push_back(static_cast<int32_t>(slot));
    if (key == nullptr) return slots_[slot] = kPrunedSlot;
    buckets_.push_back({*key, static_cast<int32_t>(slot)});
    return slots_[slot] = static_cast<int32_t>(buckets_.size() - 1);
  }

  // Marks a filled slot pruned: its bucket keeps what it buffered, but
  // later instances of its key are dropped.
  void PruneSlot(size_t slot) { slots_[slot] = kPrunedSlot; }

  // Bucket id of `key`, created on first sight.
  int32_t FindHashed(const DfsEdge& key) {
    if (2 * (buckets_.size() + 1) > table_.size()) Rehash();
    const size_t mask = table_.size() - 1;
    for (size_t slot = Hash(key) & mask;; slot = (slot + 1) & mask) {
      const int32_t id = table_[slot];
      if (id < 0) {
        table_[slot] = static_cast<int32_t>(buckets_.size());
        used_table_.push_back(static_cast<int32_t>(slot));
        buckets_.push_back({key});
        return table_[slot];
      }
      if (buckets_[id].key == key) return id;
    }
  }

  // Clears the buckets and every slot they used, keeping capacity.
  void Reset() {
    for (int32_t slot : used_slots_) slots_[slot] = kEmptySlot;
    for (int32_t slot : used_table_) table_[slot] = -1;
    used_slots_.clear();
    used_table_.clear();
    buckets_.clear();
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
    used_table_.clear();
    const size_t mask = table_.size() - 1;
    for (size_t id = 0; id < buckets_.size(); ++id) {
      size_t slot = Hash(buckets_[id].key) & mask;
      while (table_[slot] >= 0) slot = (slot + 1) & mask;
      table_[slot] = static_cast<int32_t>(id);
      used_table_.push_back(static_cast<int32_t>(slot));
    }
  }

  std::vector<Bucket> buckets_;
  std::vector<int32_t> slots_;  // bucket id per direct slot, or k*Slot
  std::vector<int32_t> used_slots_;
  std::vector<int32_t> table_;  // bucket id per hash slot, -1 when empty
  std::vector<int32_t> used_table_;
};

// Dense ranks of the vertex or edge labels of a run's frequent roots,
// in label order, so a label can index a flat slot table. Any other
// label has no rank: an extension through it adds an infrequent edge, so
// it cannot be frequent. Label sets spanning up to kMaxDenseSpan values
// map through a direct table; sparser ones (huge or scattered labels)
// fall back to a binary search.
class LabelRanks {
 public:
  static constexpr int32_t kNoRank = -1;

  // Ranks the distinct values of `labels`, which it clobbers.
  void Build(std::vector<Label>* labels) {
    dense_.clear();
    sorted_.clear();
    min_ = 0;
    size_ = 0;
    if (labels->empty()) return;
    const auto [lo, hi] = std::minmax_element(labels->begin(), labels->end());
    const int64_t span = int64_t{*hi} - int64_t{*lo} + 1;
    if (span <= kMaxDenseSpan) {
      min_ = *lo;
      dense_.assign(static_cast<size_t>(span), kNoRank);
      for (Label l : *labels) dense_[l - min_] = 0;
      for (int32_t& rank : dense_) {
        if (rank == 0) rank = size_++;
      }
      return;
    }
    std::sort(labels->begin(), labels->end());
    labels->erase(std::unique(labels->begin(), labels->end()),
                  labels->end());
    sorted_.swap(*labels);
    size_ = static_cast<int32_t>(sorted_.size());
  }

  size_t size() const { return static_cast<size_t>(size_); }

  // Rank lookup by value, so a hot loop can keep it in registers.
  struct View {
    const int32_t* dense;  // null on the sparse path
    Label min;
    uint32_t span;  // dense table size
    const Label* sorted;
    const Label* sorted_end;

    // Rank of `l`, or kNoRank.
    int32_t operator()(Label l) const {
      if (dense != nullptr) {
        const uint32_t offset =
            static_cast<uint32_t>(l) - static_cast<uint32_t>(min);
        return offset < span ? dense[offset] : kNoRank;
      }
      const Label* it = std::lower_bound(sorted, sorted_end, l);
      return it != sorted_end && *it == l
                 ? static_cast<int32_t>(it - sorted)
                 : kNoRank;
    }
  };
  View view() const {
    return {dense_.empty() ? nullptr : dense_.data(), min_,
            static_cast<uint32_t>(dense_.size()), sorted_.data(),
            sorted_.data() + sorted_.size()};
  }

 private:
  static constexpr int64_t kMaxDenseSpan = 1 << 12;
  Label min_ = 0;
  int32_t size_ = 0;
  std::vector<int32_t> dense_;  // rank per (label - min_), or kNoRank
  std::vector<Label> sorted_;   // sparse fallback: the distinct labels
};

// A pattern the maximal-only emission held back because its scan found a
// frequent rightmost extension: its found-order number, support, and the
// ends of its code and supporting gids in MinerScratch's flat buffers.
struct HeldPattern {
  uint64_t seq;
  int64_t support;
  size_t code_end;
  size_t gids_end;
};

// One thread's gSpan working memory, reused by every run on that thread
// (a run never starts another run on the same thread). A run resets or
// rewinds each buffer on entry and only ever grows it, so after warm-up
// a region task allocates no arena chunk, scan or History memory.
struct MinerScratch {
  util::Arena arena;  // embedding chains
  // Scan scratch, reused by every frame: a frame consumes it into child
  // projections before it recurses.
  BucketIndex index;
  std::vector<Candidate> candidates;
  std::vector<int32_t> frequent;
  std::vector<int32_t> live;  // buckets that can still be frequent
  std::vector<uint8_t> live_from;  // per DFS id: a live key attaches there
  std::vector<int> rmpath;
  std::vector<DfsEdge> rm_edges;
  std::vector<std::vector<Child>> children;  // per code length
  LabelRanks vertex_ranks;
  LabelRanks edge_ranks;
  std::vector<Label> labels;  // LabelRanks input
  // History: the embedding being extended, as epoch stamps over the
  // largest graph's vertices and edges plus its DFS id -> vertex map.
  // The epoch only grows, so stamps left by an earlier run never match.
  std::vector<uint32_t> vertex_stamp;
  std::vector<uint32_t> edge_stamp;
  uint32_t epoch = 0;
  std::vector<VertexId> dfs_to_g;
  // Maximal-only emission: held patterns' codes and gids, back to back,
  // and the found-order numbers of the patterns emitted so far.
  std::vector<HeldPattern> held;
  std::vector<DfsEdge> held_edges;
  std::vector<int32_t> held_gids;
  std::vector<uint64_t> emitted_seq;
  bool busy = false;
};

MinerScratch& ThreadScratch() {
  thread_local MinerScratch scratch;
  return scratch;
}

class GSpanMiner {
 public:
  // `maximal_only`: emit only the patterns a maximal set can contain
  // (MineMaximalGSpan); otherwise every frequent pattern
  // (MineFrequentGSpan).
  GSpanMiner(CsrDatabase db, const MinerConfig& config, bool maximal_only)
      : db_(db),
        config_(config),
        maximal_only_(maximal_only),
        s_(ThreadScratch()) {
    GS_CHECK(!s_.busy);
    s_.busy = true;
  }
  ~GSpanMiner() { s_.busy = false; }
  GSpanMiner(const GSpanMiner&) = delete;
  GSpanMiner& operator=(const GSpanMiner&) = delete;

  // Patterns found, held back or not: what max_patterns caps and
  // gspan/patterns counts.
  uint64_t patterns_found() const { return found_; }
  // Embeddings Scan visited before the support bound stopped it.
  uint64_t scan_embeddings() const { return scanned_; }

  MineResult Run() {
    util::WallTimer timer;
    s_.arena.Reset();
    const uint64_t arena_start = s_.arena.bytes_requested();
    s_.index.Reset();
    s_.candidates.clear();
    s_.held.clear();
    s_.held_edges.clear();
    s_.held_gids.clear();
    s_.emitted_seq.clear();
    if (config_.include_single_vertices && config_.min_edges <= 0) {
      ReportSingleVertices();
    }

    // All extension loops and embedding chains reference the borrowed
    // CSRs' half-edge arrays.
    size_t max_vertices = 0;
    size_t max_edges = 0;
    for (const CsrGraph* g : db_) {
      max_vertices =
          std::max(max_vertices, static_cast<size_t>(g->num_vertices()));
      max_edges = std::max(max_edges, static_cast<size_t>(g->num_edges()));
    }
    if (s_.vertex_stamp.size() < max_vertices) {
      s_.vertex_stamp.resize(max_vertices, 0);
    }
    if (s_.edge_stamp.size() < max_edges) s_.edge_stamp.resize(max_edges, 0);

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
                       s_.index.FindHashed({0, 1, g.vertex_label(v),
                                            adj.label,
                                            g.vertex_label(adj.to)}));
        }
      }
    }
    // Roots go in (from_label, elabel, to_label) order.
    TakeFrequentChildren(
        [](const DfsEdge& a, const DfsEdge& b) {
          return std::tie(a.from_label, a.edge_label, a.to_label) <
                 std::tie(b.from_label, b.edge_label, b.to_label);
        },
        0);
    RankLabels();

    DfsCode code;
    for (size_t i = 0; i < s_.children[0].size() && !stopped_; ++i) {
      const Child root = s_.children[0][i];
      code.Push(root.key);
      Project(code, root.projected, root.support);
      code.Pop();
    }
    if (maximal_only_ && stopped_) ReleaseHeld();

    result_.seconds = timer.ElapsedSeconds();
    result_.completed = !stopped_;
    result_.embedding_arena_bytes = s_.arena.bytes_requested() - arena_start;
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
      Emit(std::move(p), Found());
      if (stopped_) return;
    }
  }

  // Ranks the vertex and edge labels of the frequent roots for the slot
  // tables.
  void RankLabels() {
    s_.labels.clear();
    for (const Child& root : s_.children[0]) {
      s_.labels.push_back(root.key.from_label);
      s_.labels.push_back(root.key.to_label);
    }
    s_.vertex_ranks.Build(&s_.labels);
    s_.labels.clear();
    for (const Child& root : s_.children[0]) {
      s_.labels.push_back(root.key.edge_label);
    }
    s_.edge_ranks.Build(&s_.labels);
  }

  // Numbers the next found pattern and counts it against max_patterns.
  uint64_t Found() {
    if (++found_ >= config_.max_patterns) stopped_ = true;
    return found_ - 1;
  }

  // Records one extension instance under bucket `id` and counts its
  // key's support. Scans visit embeddings in gid order, so a new gid run
  // is a new graph.
  void AddCandidate(int32_t gid, const Emb* prev, VertexId from,
                    const AdjEntry* edge, int32_t id) {
    Bucket& bucket = s_.index.buckets()[id];
    GS_CHECK_GE(gid, bucket.last_gid);
    if (gid != bucket.last_gid) {
      bucket.last_gid = gid;
      ++bucket.support;
    }
    ++bucket.count;
    s_.candidates.push_back({prev, edge, gid, from, id});
  }

  // Allocates child projections for the keys that reach min_support and
  // puts them, in `less` order, in the children buffer of code length
  // `depth`. Each child keeps its instances in scan order (so in gid
  // order). Infrequent keys get no embeddings: Project would return on
  // them before doing anything.
  template <typename Less>
  void TakeFrequentChildren(Less less, size_t depth) {
    if (s_.children.size() <= depth) s_.children.resize(depth + 1);
    std::vector<Child>& children = s_.children[depth];
    std::vector<Bucket>& buckets = s_.index.buckets();
    std::vector<int32_t>& frequent = s_.frequent;
    frequent.clear();
    for (size_t id = 0; id < buckets.size(); ++id) {
      if (buckets[id].support >= config_.min_support) {
        frequent.push_back(static_cast<int32_t>(id));
      }
    }
    std::sort(frequent.begin(), frequent.end(), [&](int32_t a, int32_t b) {
      return less(buckets[a].key, buckets[b].key);
    });
    children.clear();
    for (int32_t id : frequent) {
      Bucket& bucket = buckets[id];
      bucket.out = s_.arena.AllocateArray<Emb>(bucket.count);
      children.push_back({bucket.key, bucket.support,
                          {bucket.out, static_cast<size_t>(bucket.count)}});
    }
    if (!frequent.empty()) {
      for (const Candidate& c : s_.candidates) {
        Bucket& bucket = buckets[c.bucket];
        if (bucket.out == nullptr) continue;
        *bucket.out++ = {c.gid, c.from, c.edge, c.prev};
      }
    }
    s_.index.Reset();
    s_.candidates.clear();
  }

  // Points the History buffers at `emb`. Consecutive embeddings of a scan
  // often share a prefix (siblings share `prev`, cousins a grandparent):
  // when the chains part within their last half, only the edges below
  // the common ancestor are unstamped and restamped. Otherwise a fresh
  // epoch clears everything and the whole chain is stamped.
  void LoadHistory(const DfsCode& code, const Emb* emb) {
    const int n = static_cast<int>(code.size());
    const Emb* const old = loaded_;
    loaded_ = emb;
    if (old != nullptr && old->gid == emb->gid) {
      int parted = 0;  // chain edges below the common ancestor
      for (const Emb *a = emb, *b = old; a != b && 2 * parted <= n;
           a = a->prev, b = b->prev) {
        ++parted;
      }
      if (2 * parted <= n) {
        // Only the last `parted` code edges differ, none of them the root
        // edge. A forward edge's target is new at its level, so it is
        // the only vertex such an edge adds.
        const Emb* b = old;
        for (int i = n - 1; i >= n - parted; --i, b = b->prev) {
          s_.edge_stamp[b->edge->edge_index] = 0;
          if (code[i].IsForward()) s_.vertex_stamp[b->edge->to] = 0;
        }
        const Emb* a = emb;
        for (int i = n - 1; i >= n - parted; --i, a = a->prev) {
          s_.edge_stamp[a->edge->edge_index] = s_.epoch;
          if (code[i].IsForward()) {
            s_.vertex_stamp[a->edge->to] = s_.epoch;
            s_.dfs_to_g[code[i].to] = a->edge->to;
          }
        }
        return;
      }
    }
    if (++s_.epoch == 0) {  // wrapped: no stale stamp may equal the epoch
      std::fill(s_.vertex_stamp.begin(), s_.vertex_stamp.end(), 0);
      std::fill(s_.edge_stamp.begin(), s_.edge_stamp.end(), 0);
      s_.epoch = 1;
    }
    int i = n - 1;
    for (const Emb* e = emb; e != nullptr; e = e->prev, --i) {
      s_.edge_stamp[e->edge->edge_index] = s_.epoch;
      s_.vertex_stamp[e->from] = s_.epoch;
      s_.vertex_stamp[e->edge->to] = s_.epoch;
      if (code[i].IsForward()) s_.dfs_to_g[code[i].to] = e->edge->to;
      if (i == 0) s_.dfs_to_g[code[0].from] = e->from;
    }
    GS_CHECK_EQ(i, -1);
  }

  bool EdgeUsed(int32_t edge) const {
    return s_.edge_stamp[edge] == s_.epoch;
  }
  bool VertexUsed(VertexId v) const {
    return s_.vertex_stamp[v] == s_.epoch;
  }

  static void AppendDistinctGids(Projected projected,
                                 std::vector<int32_t>* gids) {
    int32_t last = -1;
    for (const Emb& e : projected) {
      if (e.gid != last) gids->push_back(last = e.gid);
    }
  }

  void Emit(Pattern p, uint64_t seq) {
    result_.patterns.push_back(std::move(p));
    if (maximal_only_) s_.emitted_seq.push_back(seq);
  }

  void EmitCode(const DfsCode& code, Projected projected, int64_t support,
                uint64_t seq) {
    Pattern p;
    p.graph = code.ToGraph();
    p.support = support;
    AppendDistinctGids(projected, &p.supporting);
    p.code = code.ToString();
    Emit(std::move(p), seq);
  }

  void Hold(const DfsCode& code, Projected projected, int64_t support,
            uint64_t seq) {
    s_.held_edges.insert(s_.held_edges.end(), code.edges().begin(),
                         code.edges().end());
    AppendDistinctGids(projected, &s_.held_gids);
    s_.held.push_back(
        {seq, support, s_.held_edges.size(), s_.held_gids.size()});
  }

  // A stopped run cannot tell which held patterns are maximal: its
  // output is every pattern found, in found order, as the plain
  // enumeration emits it. Both lists are in found order already, because
  // a pattern is emitted or held before the next one is found.
  void ReleaseHeld() {
    std::vector<Pattern> emitted = std::move(result_.patterns);
    result_.patterns.clear();
    result_.patterns.reserve(emitted.size() + s_.held.size());
    size_t next = 0;
    size_t code_begin = 0;
    size_t gids_begin = 0;
    DfsCode code;
    for (const HeldPattern& h : s_.held) {
      while (next < emitted.size() && s_.emitted_seq[next] < h.seq) {
        result_.patterns.push_back(std::move(emitted[next++]));
      }
      code.Clear();
      for (size_t k = code_begin; k < h.code_end; ++k) {
        code.Push(s_.held_edges[k]);
      }
      Pattern p;
      p.graph = code.ToGraph();
      p.support = h.support;
      p.supporting.assign(s_.held_gids.begin() + gids_begin,
                          s_.held_gids.begin() + h.gids_end);
      p.code = code.ToString();
      result_.patterns.push_back(std::move(p));
      code_begin = h.code_end;
      gids_begin = h.gids_end;
    }
    while (next < emitted.size()) {
      result_.patterns.push_back(std::move(emitted[next++]));
    }
  }

  // True when the 1-edge pattern of `key`'s edge is a frequent root. A
  // child through any other edge is infrequent, so its instances need
  // no bucket.
  bool FrequentEdge(const DfsEdge& key) const {
    const std::pair<Label, Label> triple =
        std::minmax(key.from_label, key.to_label);
    const std::vector<Child>& roots = s_.children[0];
    auto it = std::lower_bound(
        roots.begin(), roots.end(), triple,
        [&](const Child& root, const std::pair<Label, Label>& t) {
          return std::tie(root.key.from_label, root.key.edge_label,
                          root.key.to_label) <
                 std::tie(t.first, key.edge_label, t.second);
        });
    return it != roots.end() && it->key.from_label == triple.first &&
           it->key.edge_label == key.edge_label &&
           it->key.to_label == triple.second;
  }

  // Bucket of the extension in direct slot `slot`, or a negative id when
  // it cannot be frequent: its edge is not frequent, its key is first
  // seen past the support slack (`open` false), or its key has died.
  // `make_key` runs on the slot's first instance only.
  template <typename MakeKey>
  int32_t SlotBucket(size_t slot, bool open, MakeKey make_key) {
    const int32_t id = s_.index.slot(slot);
    if (id != BucketIndex::kEmptySlot) return id;
    if (!open) return s_.index.FillSlot(slot, nullptr);
    const DfsEdge key = make_key();
    return s_.index.FillSlot(slot, FrequentEdge(key) ? &key : nullptr);
  }

  // Support bound at the boundary of the projection graph of rank `rank`
  // (0-based), past the slack: a bucket that missed more than `slack` of
  // the graphs before it can no longer reach min_support, so its slot is
  // pruned. Marks, per DFS id, whether a live key attaches there. Returns
  // false when no bucket is live.
  bool BoundLiveKeys(int64_t rank, int64_t slack, size_t num_ids) {
    std::vector<Bucket>& buckets = s_.index.buckets();
    std::vector<int32_t>& live = s_.live;
    if (rank == slack + 1) {  // first boundary past the slack
      live.resize(buckets.size());
      for (size_t id = 0; id < live.size(); ++id) {
        live[id] = static_cast<int32_t>(id);
      }
    }
    std::fill_n(s_.live_from.begin(), num_ids, 0);
    size_t kept = 0;
    for (int32_t id : live) {
      const Bucket& bucket = buckets[id];
      if (rank - bucket.support > slack) {
        s_.index.PruneSlot(static_cast<size_t>(bucket.slot));
        continue;
      }
      s_.live_from[bucket.key.from] = 1;
      live[kept++] = id;
    }
    live.resize(kept);
    return kept > 0;
  }

  // Scans every rightmost extension of every embedding in `projected`
  // into the candidate buffer, bucketed by key. Within one frame a key
  // is fixed by where it attaches and its labels, so its bucket sits in
  // a direct slot:
  //   backward to rmpath[j], j in [1, r):  j * E + edge_rank
  //   forward from position p in [0, r]:   r * E + (p * E + edge_rank) *
  //                                        V + vertex_rank
  // with r = |rmpath|, E/V the numbers of ranked edge/vertex labels, p = 0
  // the rightmost vertex and p = j + 1 the source of rmpath[j]. An
  // instance with an unranked label, or in a pruned slot, is dropped.
  //
  // `projected` spans `support` graphs, so a key can miss at most
  // slack = support - min_support of them and still be frequent. Past
  // the slack (graph rank > slack) no new key can reach min_support, a
  // key that missed more than slack graphs is dead, attachment points
  // with no live key are skipped, and the scan stops once no key is
  // live. Frequent keys are never pruned, so their instances and order
  // are unchanged (DESIGN.md §14).
  void Scan(const DfsCode& code, Projected projected, int64_t support) {
    code.BuildRmPath(&s_.rmpath);
    const size_t r = s_.rmpath.size();
    std::vector<DfsEdge>& rm_edges = s_.rm_edges;  // rmpath edges, in order
    rm_edges.clear();
    for (int i : s_.rmpath) rm_edges.push_back(code[i]);
    const int32_t maxtoc = rm_edges[0].to;
    const Label rm_vertex_label = rm_edges[0].to_label;
    const Label min_label = code[0].from_label;
    if (s_.dfs_to_g.size() <= static_cast<size_t>(maxtoc)) {
      s_.dfs_to_g.resize(static_cast<size_t>(maxtoc) + 1);
    }
    const LabelRanks::View vrank = s_.vertex_ranks.view();
    const LabelRanks::View erank = s_.edge_ranks.view();
    const size_t ne = s_.edge_ranks.size();
    const size_t nv = s_.vertex_ranks.size();
    const size_t forward_base = r * ne;
    s_.index.ReserveSlots(forward_base + (r + 1) * ne * nv);
    // Slot of a forward extension, or -1 when a label has no rank.
    auto forward_slot = [&](size_t position, Label elabel,
                            Label tolabel) -> ptrdiff_t {
      const int32_t e = erank(elabel);
      const int32_t v = vrank(tolabel);
      if (e < 0 || v < 0) return -1;
      return static_cast<ptrdiff_t>(forward_base +
                                    (position * ne + e) * nv + v);
    };
    const VertexId* const dfs_to_g = s_.dfs_to_g.data();
    const size_t num_ids = static_cast<size_t>(maxtoc) + 1;
    if (s_.live_from.size() < num_ids) s_.live_from.resize(num_ids);
    const uint8_t* const live_from = s_.live_from.data();
    const int64_t slack = support - config_.min_support;
    int64_t rank = -1;  // of emb.gid among the projection's graphs
    int32_t gid = -1;
    bool open = true;  // rank <= slack: every attachment point is live

    loaded_ = nullptr;  // the previous scan's chains may be rewound
    for (const Emb& emb : projected) {
      if (emb.gid != gid) {
        gid = emb.gid;
        if (++rank > slack) {
          open = false;
          if (!BoundLiveKeys(rank, slack, num_ids)) break;
        }
      }
      ++scanned_;
      const CsrGraph& g = *db_[emb.gid];
      LoadHistory(code, &emb);
      const VertexId rm_g = dfs_to_g[maxtoc];
      // Backward and forward keys both attach at the rightmost vertex.
      const std::span<const AdjEntry> rm_neighbors =
          open || live_from[maxtoc] != 0 ? g.neighbors(rm_g)
                                         : std::span<const AdjEntry>();

      // Off the rightmost vertex in one pass: a used neighbor over an
      // unused edge may close a backward edge onto the rightmost path, an
      // unused one grows a pure forward edge. Instances of one key still
      // arrive in (embedding, adjacency) order.
      for (const AdjEntry& adj : rm_neighbors) {
        if (VertexUsed(adj.to)) {
          if (EdgeUsed(adj.edge_index)) continue;
          for (size_t j = r - 1; j >= 1; --j) {
            const DfsEdge& e1 = rm_edges[j];
            if (dfs_to_g[e1.from] != adj.to) continue;
            const int32_t e = erank(adj.label);
            if (e >= 0 && (e1.edge_label < adj.label ||
                           (e1.edge_label == adj.label &&
                            e1.to_label <= rm_vertex_label))) {
              const int32_t id = SlotBucket(j * ne + e, open, [&] {
                return DfsEdge{maxtoc, e1.from, rm_vertex_label, adj.label,
                               e1.from_label};
              });
              if (id >= 0) AddCandidate(emb.gid, &emb, rm_g, &adj, id);
            }
            break;
          }
          continue;
        }
        const Label tolabel = g.vertex_label(adj.to);
        if (tolabel < min_label) continue;
        const ptrdiff_t slot = forward_slot(0, adj.label, tolabel);
        if (slot < 0) continue;
        const int32_t id = SlotBucket(slot, open, [&] {
          return DfsEdge{maxtoc, maxtoc + 1, rm_vertex_label, adj.label,
                         tolabel};
        });
        if (id >= 0) AddCandidate(emb.gid, &emb, rm_g, &adj, id);
      }

      // Forward branching off the rightmost path.
      for (size_t j = 0; j < r; ++j) {
        const DfsEdge& e1 = rm_edges[j];
        if (!open && live_from[e1.from] == 0) continue;
        const VertexId from_g = dfs_to_g[e1.from];
        for (const AdjEntry& adj : g.neighbors(from_g)) {
          if (VertexUsed(adj.to)) continue;
          const Label tolabel = g.vertex_label(adj.to);
          if (tolabel < min_label) continue;
          if (e1.edge_label < adj.label ||
              (e1.edge_label == adj.label && e1.to_label <= tolabel)) {
            const ptrdiff_t slot = forward_slot(j + 1, adj.label, tolabel);
            if (slot < 0) continue;
            const int32_t id = SlotBucket(slot, open, [&] {
              return DfsEdge{e1.from, maxtoc + 1, e1.from_label, adj.label,
                             tolabel};
            });
            if (id >= 0) AddCandidate(emb.gid, &emb, from_g, &adj, id);
          }
        }
      }
    }
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

    const size_t depth = code.size();
    const bool reported = static_cast<int32_t>(depth) >= config_.min_edges;
    const bool at_max = static_cast<int32_t>(depth) >= config_.max_edges;
    uint64_t seq = 0;
    if (reported) {
      seq = Found();
      // Maximal-only emission decides after the scan, unless there is no
      // scan: at max_edges, or when this pattern stops the run.
      if (!maximal_only_ || stopped_ || at_max) {
        EmitCode(code, projected, support, seq);
      }
      if (stopped_) return;
    }
    if (at_max) return;

    // Child embeddings live in this frame's arena region and are freed by
    // rewinding once all child branches have been explored (chains only
    // point parent-ward, so a rewind never strands a live chain).
    const util::Arena::Mark frame_mark = s_.arena.Position();
    Scan(code, projected, support);
    TakeFrequentChildren(DfsEdgeLess, depth);
    if (reported && maximal_only_) {
      // A frequent child contains this pattern, so it is not maximal.
      if (s_.children[depth].empty()) {
        EmitCode(code, projected, support, seq);
      } else {
        Hold(code, projected, support, seq);
      }
    }
    // Deeper frames reuse s_.children past `depth` (and may grow it), so
    // each child is copied out before its subtree runs.
    for (size_t i = 0; i < s_.children[depth].size() && !stopped_; ++i) {
      const Child child = s_.children[depth][i];
      code.Push(child.key);
      Project(code, child.projected, child.support);
      code.Pop();
    }
    s_.arena.Rewind(frame_mark);
  }

  const CsrDatabase db_;  // borrowed: one flat adjacency per graph
  const MinerConfig config_;
  const bool maximal_only_;
  MinerScratch& s_;
  MineResult result_;
  uint64_t found_ = 0;
  uint64_t scanned_ = 0;
  const Emb* loaded_ = nullptr;  // the embedding History describes
  util::WallTimer budget_timer_;
  bool stopped_ = false;
};

// Runs one search and books its deterministic work counters.
MineResult RunGSpan(CsrDatabase db, const MinerConfig& config,
                    bool maximal_only) {
  GS_CHECK_GE(config.min_support, 1);
  GS_TRACE_SPAN_NAMED(span, "mine/fsm/gspan");
  GSpanMiner miner(db, config, maximal_only);
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
  static obs::Counter* const scan_embeddings =
      registry.GetCounter("gspan/scan_embeddings");
  candidates->Add(result.states_expanded);
  patterns->Add(miner.patterns_found());
  scan_embeddings->Add(miner.scan_embeddings());
  arena_bytes->Add(result.embedding_arena_bytes);
  span.AddWork(result.states_expanded);
  return result;
}

// Flattens every graph of `db` (one graph/csr_builds each) and runs `mine`
// over the borrowed CSRs.
template <typename Mine>
MineResult MineFlattened(const graph::GraphDatabase& db, Mine mine) {
  const std::vector<CsrGraph> csrs(db.graphs().begin(), db.graphs().end());
  std::vector<const CsrGraph*> borrowed;
  borrowed.reserve(csrs.size());
  for (const CsrGraph& g : csrs) borrowed.push_back(&g);
  return mine(CsrDatabase(borrowed));
}

}  // namespace

MineResult MineFrequentGSpan(const graph::GraphDatabase& db,
                             const MinerConfig& config) {
  return MineFlattened(
      db, [&](CsrDatabase csrs) { return MineFrequentGSpan(csrs, config); });
}

MineResult MineFrequentGSpan(CsrDatabase db, const MinerConfig& config) {
  return RunGSpan(db, config, /*maximal_only=*/false);
}

MineResult MineMaximalGSpan(CsrDatabase db, const MinerConfig& config) {
  MineResult result = RunGSpan(db, config, /*maximal_only=*/true);
  result.patterns = FilterMaximal(std::move(result.patterns));
  return result;
}

MineResult MineMaximalGSpan(const graph::GraphDatabase& db,
                            const MinerConfig& config) {
  return MineFlattened(
      db, [&](CsrDatabase csrs) { return MineMaximalGSpan(csrs, config); });
}

}  // namespace graphsig::fsm
