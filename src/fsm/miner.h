#ifndef GRAPHSIG_FSM_MINER_H_
#define GRAPHSIG_FSM_MINER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/graph_database.h"

namespace graphsig::fsm {

// One mined frequent pattern.
struct Pattern {
  graph::Graph graph;               // the pattern itself
  int64_t support = 0;              // number of database graphs containing it
  std::vector<int32_t> supporting;  // ascending DB indices of those graphs
  // gSpan only: DfsCode::ToString() of the minimal DFS code the search
  // found `graph` under (vertex k of `graph` is DFS id k), which equals
  // CanonicalCode(graph). Empty from the other miners.
  std::string code;
};

// Shared knobs for the frequent-subgraph miners. Caps beyond min_support
// exist so the deliberately-exponential baselines (Figs. 2, 9, 11) can be
// run to a bounded budget; a capped run reports completed=false.
struct MinerConfig {
  int64_t min_support = 1;  // absolute graph count
  int32_t min_edges = 1;    // only report patterns with >= this many edges
  int32_t max_edges = std::numeric_limits<int32_t>::max();
  size_t max_patterns = std::numeric_limits<size_t>::max();
  double budget_seconds = std::numeric_limits<double>::infinity();
  // Also report frequent single-vertex patterns (min_edges permitting).
  bool include_single_vertices = false;
};

struct MineResult {
  std::vector<Pattern> patterns;
  bool completed = true;  // false if a cap or the time budget fired
  double seconds = 0.0;
  uint64_t states_expanded = 0;  // search states / candidates evaluated
  // gSpan only: bytes of embedding-chain scratch served by the task's
  // arena. Only extensions that reach min_support get embeddings, so
  // this counts frequent children's embeddings (deterministic; 0 for the
  // apriori miner).
  uint64_t embedding_arena_bytes = 0;
};

// ceil(relative * db_size / 100) clamped to >= 1 — converts the paper's
// percentage thresholds ("theta") to absolute support.
int64_t SupportFromPercent(double percent, size_t db_size);

// A database as borrowed CSRs: slot i is database graph i, and the
// pointed-to graphs outlive the mining call. Reported gids index slots.
using CsrDatabase = std::span<const graph::CsrGraph* const>;

// Pattern-growth miner (gSpan: minimum DFS codes + rightmost-path
// extension over projected embeddings). Each search state scans its
// embeddings once, in database order (DESIGN.md §14):
//   * Scratch: all working memory (embedding arena, scan buffers, slot
//     tables, History) is per thread, reset on entry and grown only.
//   * History: an embedding is expanded into epoch-stamped
//     used-edge/used-vertex buffers and a DFS id -> vertex map; the next
//     embedding of the scan restamps only the part of its chain below
//     the common ancestor when that is the shorter way.
//   * Grouping: each extension instance goes into a flat buffer under
//     its key's bucket, found through a direct slot indexed by the
//     key's attachment point and label ranks; buckets are visited in
//     DfsEdgeLess order (roots in label-triple order) and keep their
//     instances in scan order.
//   * Support before allocation: a key's support is its number of gid
//     runs, counted during the scan; only keys reaching min_support get
//     child embeddings in the arena.
//   * Minimality: each frequent child is checked with the early-exit
//     IsMinimalDfsCode before it is expanded or reported.
// Patterns are reported in DFS-search order, which downstream unstable
// sorts make part of the output, each with its minimal code in
// Pattern::code. The engine reads only the borrowed CSRs; GraphSig's
// region tasks pass the per-mine flattenings of their cuts
// (core/mine_pipeline.h).
MineResult MineFrequentGSpan(CsrDatabase db, const MinerConfig& config);
// Flattens every graph of `db` (one graph/csr_builds each) and forwards.
MineResult MineFrequentGSpan(const graph::GraphDatabase& db,
                             const MinerConfig& config);

// Level-wise apriori miner in the style of FSG: breadth-first candidate
// generation, canonical dedup, downward-closure pruning, and explicit
// support counting against TID lists.
MineResult MineFrequentApriori(const graph::GraphDatabase& db,
                               const MinerConfig& config);

}  // namespace graphsig::fsm

#endif  // GRAPHSIG_FSM_MINER_H_
