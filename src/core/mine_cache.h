#ifndef GRAPHSIG_CORE_MINE_CACHE_H_
#define GRAPHSIG_CORE_MINE_CACHE_H_

// The units of earlier mines that GraphSig::Mine can reuse
// (DESIGN.md §16). A mine without a cache is the cold run of
// Algorithm 2; a mine with one reuses every unit whose inputs are
// unchanged and runs the rest, storing each fresh unit for the next
// mine.
//
// Each cached unit pairs its *output* with the work-counter delta
// (obs/work_capture.h) its computation emitted. Reusing the unit means
// replaying the delta, which is what keeps a cached mine's artifact
// and deterministic counter dump byte-identical to a cold mine of the
// same database. stream::MineState checkpoints everything here except
// the region cuts (stream/mine_state.h).

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/graphsig.h"
#include "features/feature_space.h"
#include "features/feature_vector.h"
#include "fvmine/fvmine.h"
#include "graph/graph.h"
#include "obs/work_capture.h"

namespace graphsig::core {

// Cached graph-space mining of one feature-vector candidate (the
// pipeline::MineRegionTask output for candidate `i` of a group).
// Entries are filled lazily — a candidate filtered by delta* in every
// mine so far has never been region-mined — hence the present flag.
struct GroupFsmEntry {
  bool present = false;
  bool filtered = false;  // no common structure (line-13 pruning)
  std::map<std::string, SignificantSubgraph> dedup;
  obs::WorkDelta delta;
};

// Cached FVMine of one anchor-label group. Valid while the group's
// member list (node-vector indices) is unchanged — appends that add
// vectors to the group change `members` and invalidate the entry.
struct GroupCacheEntry {
  graph::Label label = -1;
  std::vector<int32_t> members;  // ascending node-vector indices
  // MineLabelGroup output: candidates (supporting lists re-based to
  // node-vector indices) and, in Tarone mode, the psi family.
  std::vector<fvmine::SignificantVector> vectors;
  std::vector<double> psis;
  obs::WorkDelta delta;
  std::vector<GroupFsmEntry> fsm;  // parallel to `vectors`
};

// Region cuts (pipeline::CutRegion outputs) keyed by the generation
// that introduced the host graph.
//
// A cut is a pure function of (graph content, node, radius), and a
// graph's content never changes once its batch is appended — so the
// key carries the ingest generation that *introduced* the graph, which
// is stable across later appends. The generation component exists for
// lineage safety: a cache filled against a different log (a rebuilt or
// compacted one whose graph indices mean something else) stamps
// different generations, so its lookups miss instead of serving cuts
// from the wrong database.
//
// Cuts bump no work counters (the cache-accounting counters live in
// pipeline::PlanRegionTasks), so serving a hit is counter-transparent
// by construction: skipping the recompute changes no dump byte.
//
// Not thread-safe: the miner fills it from a serial section and reads
// it from parallel tasks only after filling completes.
class RegionCutCache {
 public:
  struct Key {
    uint64_t generation = 0;  // generation that introduced graph_index
    int32_t graph_index = -1;
    graph::VertexId node = -1;

    friend bool operator<(const Key& a, const Key& b) {
      return std::tie(a.generation, a.graph_index, a.node) <
             std::tie(b.generation, b.graph_index, b.node);
    }
  };

  // Null on miss. The pointer is stable until the next Insert/Clear.
  const graph::Graph* Lookup(const Key& key) const {
    auto it = cuts_.find(key);
    return it == cuts_.end() ? nullptr : &it->second;
  }

  // Overwrites any existing entry (idempotent: a recomputed cut is
  // byte-identical to the cached one).
  void Insert(const Key& key, graph::Graph cut) {
    cuts_.insert_or_assign(key, std::move(cut));
  }

  void Clear() { cuts_.clear(); }
  size_t size() const { return cuts_.size(); }

 private:
  std::map<Key, graph::Graph> cuts_;
};

// Everything one mine leaves for the next. The caller stamps
// `graph_generations` (one entry per database graph, parallel to the
// database about to be mined) and drops the whole cache when those
// stamps stop extending the ones it was filled under; GraphSig::Mine
// maintains the rest.
struct MineCache {
  // The space `node_vectors` were computed in. A mine whose database
  // selects another space drops vectors and groups but keeps cuts,
  // which depend only on graph content.
  features::FeatureSpace feature_space;
  // One NodeVector per node of every featurized graph, in database
  // order — indices are stable under append, which is what makes every
  // cache below reusable.
  std::vector<features::NodeVector> node_vectors;
  // Per-graph featurization deltas (rwr/* and csr counters); graph i is
  // featurized iff i < featurize_deltas.size().
  std::vector<obs::WorkDelta> featurize_deltas;
  // The ingest generation that introduced each graph: the region-cut
  // key.
  std::vector<uint64_t> graph_generations;
  std::vector<GroupCacheEntry> groups;  // ascending label order
  // In memory only: checkpoints do not carry cuts.
  RegionCutCache cuts;

  void Clear() { *this = MineCache(); }
};

// Per-mine reuse accounting of one cached mine (also exported as the
// stream/inc_* counters). Every field describes the last mine only.
struct MineCacheStats {
  int64_t graphs_featurized = 0;
  int64_t graphs_reused = 0;
  int64_t groups_mined = 0;
  int64_t groups_reused = 0;
  int64_t fsm_tasks_mined = 0;
  int64_t fsm_tasks_replayed = 0;
  int64_t cuts_computed = 0;
  int64_t cuts_reused = 0;
  bool invalidated_feature_space = false;
};

}  // namespace graphsig::core

#endif  // GRAPHSIG_CORE_MINE_CACHE_H_
