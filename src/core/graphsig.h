#ifndef GRAPHSIG_CORE_GRAPHSIG_H_
#define GRAPHSIG_CORE_GRAPHSIG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "features/feature_space.h"
#include "features/rwr.h"
#include "fvmine/fvmine.h"
#include "graph/graph_database.h"

namespace graphsig::core {

// Absolute floor under FVMine's group-relative frequency threshold (tiny
// groups would otherwise mine "patterns" supported by a single region).
inline constexpr int64_t kMinSupportFloor = 3;

// A region set needs at least this many regions to be mined (a high
// relative threshold over one graph would degenerate to support 1 and
// enumerate everything).
inline constexpr size_t kMinSetSize = 3;

// Large region sets are evenly subsampled to this many regions before
// maximal FSM; the 80% relative threshold is computed on the sample. A
// pattern present in >= 80% of the set is present in ~80% of any even
// sample, so this bounds per-set mining cost without changing which
// cores surface.
inline constexpr size_t kMaxRegionsPerSet = 128;

// Configuration of the end-to-end GraphSig pipeline (Algorithm 2).
// Defaults follow the paper's Table IV.
struct GraphSigConfig {
  features::RwrConfig rwr;  // alpha = 0.25, 10 bins

  // Feature selection: top-k atoms whose pairwise edge types become
  // features (Section II-B).
  int top_k_atoms = 5;

  // FVMine thresholds (Table IV): maxPvalue = 0.1; minFreq = 0.1%.
  // The frequency threshold is relative to the anchor-label group D_a
  // each FVMine call runs on — this is what lets GraphSig surface
  // patterns around rare atoms (Sb/Bi, Fig. 15) whose global frequency
  // is far below any workable database-wide threshold.
  double max_pvalue = 0.1;
  double min_freq_percent = 0.1;  // floored at kMinSupportFloor

  // Region extraction: CutGraph radius (Table IV: 8) and the relative
  // frequency threshold for maximal FSM on each region set (Table IV:
  // fsgFreq = 80%).
  int cutoff_radius = 8;
  double fsg_freq_percent = 80.0;

  // Engineering guards on region mining: pattern size and count.
  int32_t fsm_max_edges = 25;
  size_t fsm_max_patterns = 100000;

  // FVMine's optimistic-ceiling prune (an ablation switch).
  bool use_ceiling_prune = true;

  // Family-wise error control (stream/tarone.h): > 0 runs FVMine in
  // Tarone testability mode at this alpha and keeps only vectors whose
  // p-value clears the solved threshold delta* <= alpha. 0 (default)
  // preserves the paper's uncorrected per-vector test — and the
  // pre-existing counter baseline.
  double tarone_alpha = 0.0;

  // Worker threads for every pipeline phase: RWR featurization,
  // per-label-group FVMine, region cutting, and per-vector graph-space
  // mining (1 = serial). Output is bit-identical for any value — each
  // phase merges its per-task results in a fixed order.
  int num_threads = 1;

  // Compute each output pattern's frequency over the full database
  // (needed by the Fig. 16 analysis; one subgraph-iso scan per pattern).
  bool compute_db_frequency = true;
};

// One mined significant subgraph with the evidence trail back through
// the pipeline.
struct SignificantSubgraph {
  graph::Graph subgraph;
  // Feature-space evidence: the closed significant sub-feature vector
  // that selected this region set.
  features::FeatureVec vector;
  double vector_pvalue = 1.0;
  int64_t vector_support = 0;
  graph::Label anchor_label = -1;  // the D_a group it came from
  // Graph-space evidence.
  int64_t set_size = 0;     // regions mined
  int64_t set_support = 0;  // regions containing the pattern
  int64_t db_frequency = -1;  // graphs of the full DB containing it
};

// Wall-time share of each pipeline stage (the Fig. 10 profile), each
// read from the trace span that brackets the stage. Feature-space
// selection runs before features/vectorize, so it counts only in the
// total.
struct GraphSigProfile {
  double rwr_seconds = 0.0;      // features/vectorize: RWR + discretize
  double feature_seconds = 0.0;  // mine/feature: priors + FVMine
  double fsm_seconds = 0.0;      // mine/fsm: cutting + maximal FSM
  double total_seconds = 0.0;    // mine
};

struct GraphSigStats {
  int64_t num_vectors = 0;             // |D|
  int64_t num_groups = 0;              // distinct anchor labels
  int64_t num_significant_vectors = 0;  // FVMine outputs across groups
  int64_t num_sets_mined = 0;          // region sets that reached FSM
  int64_t num_sets_filtered = 0;       // false-positive sets (no pattern)
  // Region-cut cache effectiveness: cuts requested across all region
  // sets vs distinct (graph, node) cuts actually computed. Their ratio
  // is the dedup factor the cache buys.
  int64_t num_region_requests = 0;
  int64_t num_unique_regions = 0;
  // Tarone mode only (tarone_alpha > 0): the solved family-wise
  // threshold delta* = alpha / k_T, the family size N (candidate states
  // across all groups), and how many candidates delta* filtered out.
  double tarone_delta_star = 0.0;
  int64_t tarone_family_size = 0;
  int64_t tarone_filtered_vectors = 0;
};

struct GraphSigResult {
  std::vector<SignificantSubgraph> subgraphs;
  GraphSigProfile profile;
  GraphSigStats stats;
  features::FeatureSpace feature_space;
};

struct MineCache;       // core/mine_cache.h
struct MineCacheStats;  // core/mine_cache.h

// The GraphSig miner. Stateless between calls; one instance can mine
// many databases.
class GraphSig {
 public:
  explicit GraphSig(GraphSigConfig config) : config_(config) {}

  // Runs Algorithm 2 over `db` and returns the significant subgraphs,
  // deduplicated by canonical form (keeping the lowest vector p-value).
  //
  // With a `cache` (core/mine_cache.h) every unit of work — a graph's
  // featurization, a label group's FVMine, a region cut, a region
  // set's FSM — whose inputs are unchanged since the mine that stored
  // it is reused and its captured work replayed; the rest run and are
  // stored. The result and the deterministic counter dump equal the
  // cold mine's. `cache_stats`, if given, is overwritten with this
  // mine's reuse accounting. Without a cache nothing is captured or
  // stored.
  GraphSigResult Mine(const graph::GraphDatabase& db,
                      MineCache* cache = nullptr,
                      MineCacheStats* cache_stats = nullptr) const;

  // Runs only the feature-space half (RWR + grouping + FVMine): the
  // significant sub-feature vectors per anchor label. This is what the
  // classifier trains on (Section V). If `space` is non-null it is used
  // instead of deriving one from `db` — the classifier passes a shared
  // space so positive/negative vectors and queries are comparable.
  std::vector<std::pair<graph::Label, fvmine::SignificantVector>>
  MineSignificantVectors(const graph::GraphDatabase& db,
                         GraphSigProfile* profile = nullptr,
                         const features::FeatureSpace* space = nullptr) const;

  const GraphSigConfig& config() const { return config_; }

 private:
  GraphSigConfig config_;
};

}  // namespace graphsig::core

#endif  // GRAPHSIG_CORE_GRAPHSIG_H_
