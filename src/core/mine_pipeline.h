#ifndef GRAPHSIG_CORE_MINE_PIPELINE_H_
#define GRAPHSIG_CORE_MINE_PIPELINE_H_

// The GraphSig mining pipeline, decomposed into its deterministic units
// of work. core::GraphSig::Mine (core/graphsig.cc) is the one
// orchestration that composes them into Algorithm 2. Given a
// core::MineCache (core/mine_cache.h) it reuses a unit whose inputs are
// unchanged — replaying the work-counter delta (obs/work_capture.h)
// captured when the unit first ran — and runs the rest under capture;
// without one it just runs every unit. That is what makes a cached mine
// byte-identical, artifact and counter dump both, to a cold mine of the
// same database. perfbench recomposes the same functions with a span
// per layer.
//
// Every function here is a pure function of its arguments (plus the
// deterministic work counters it bumps); none touches global state
// other than the metrics registry. Units that run inside ParallelFor
// tasks (MineLabelGroup, CutRegion, MineRegionTask) are internally
// single-threaded, which is what makes their metric writes capturable
// per unit. The one exception is the per-mine flattening of region cuts
// (see RegionPlan): it runs outside any capture, so cached units carry
// no CSR builds and every mine counts one build per distinct cut.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/graphsig.h"
#include "features/feature_vector.h"
#include "fsm/miner.h"
#include "fvmine/fvmine.h"
#include "graph/csr.h"
#include "graph/graph_database.h"

namespace graphsig::core::pipeline {

// Node-vector indices per anchor label, in ascending label order (the
// line-6 grouping; label order is the deterministic merge order for
// everything downstream).
std::vector<std::pair<graph::Label, std::vector<int32_t>>>
GroupByAnchorLabel(const std::vector<features::NodeVector>& node_vectors);

struct GroupMineOutput {
  // Significant closed sub-feature vectors, supporting lists re-based
  // to indices into the full node-vector array.
  std::vector<fvmine::SignificantVector> vectors;
  // Tarone mode only: the group's testability statistics in DFS order.
  std::vector<double> psis;
};

// Priors + FVMine over one anchor-label group (Algorithm 2 line 7).
// Returns empty output for groups below the support threshold.
GroupMineOutput MineLabelGroup(
    const GraphSigConfig& config,
    const std::vector<features::NodeVector>& node_vectors,
    const std::vector<int32_t>& members);

// One graph-space mining task: a significant vector, the node-vector
// indices (after even subsampling) whose regions it selects, and the cut
// slot of each chosen vector's region, in `chosen` order.
struct RegionTask {
  graph::Label label = -1;
  int32_t sv_index = 0;  // index into the significant-vector list
  std::vector<int32_t> chosen;
  std::vector<int32_t> slots;
};

// Pass-1 output: the task list plus the distinct (graph, node) cuts the
// tasks need. `cut_slot` maps RegionCutKey -> slot, `cut_owner` maps
// slot -> node-vector index to cut at.
//
// GraphSig::Mine makes (or fetches from its cache) each slot's cut and
// flattens it to one graph::CsrGraph per slot, once per mine and outside
// any work capture; every task that selects the cut borrows that CSR
// (TaskRegions).
struct RegionPlan {
  std::vector<RegionTask> tasks;
  std::unordered_map<int64_t, int32_t> cut_slot;
  std::vector<int32_t> cut_owner;
  int64_t num_region_requests = 0;
  int64_t num_unique_regions = 0;
};

// (graph_index, node) packed into one map key; radius is fixed per run,
// so this identifies a cut.
int64_t RegionCutKey(int32_t graph_index, graph::VertexId node);

// Serial pass 1: selects each vector's region sample and dedups the
// cuts. Bumps the mine/region_cache_hits|misses work counters.
RegionPlan PlanRegionTasks(
    const GraphSigConfig& config,
    const std::vector<std::pair<graph::Label, fvmine::SignificantVector>>&
        significant,
    const std::vector<features::NodeVector>& node_vectors);

// One region cut: the induced subgraph of the radius ball around
// `node`, stamped with the host graph's database index.
graph::Graph CutRegion(const graph::Graph& host, int32_t graph_index,
                       graph::VertexId node, int cutoff_radius);

struct RegionTaskOutput {
  std::map<std::string, SignificantSubgraph> dedup;  // canonical -> best
  bool filtered = false;  // no common structure (line-13 pruning)
};

// The borrowed region set of one task: the slot CSR of each chosen
// vector's cut, in `task.chosen` order. `region_csrs` is indexed by slot.
std::vector<const graph::CsrGraph*> TaskRegions(
    const RegionTask& task, const std::vector<graph::CsrGraph>& region_csrs);

// Pass-3 body: maximal FSM over one assembled region set. Builds no CSR.
RegionTaskOutput MineRegionTask(const GraphSigConfig& config,
                                graph::Label label,
                                const fvmine::SignificantVector& sv,
                                fsm::CsrDatabase regions);
// Same over Graph regions: flattens each region (one graph/csr_builds
// each) and forwards.
RegionTaskOutput MineRegionTask(const GraphSigConfig& config,
                                graph::Label label,
                                const fvmine::SignificantVector& sv,
                                const graph::GraphDatabase& regions);

// Folds one task's output into the global dedup map; must be called in
// task order with the same better-candidate rule for every thread
// count. Also advances the sets-mined/filtered stats.
void MergeRegionOutput(RegionTaskOutput&& output,
                       std::map<std::string, SignificantSubgraph>* dedup,
                       GraphSigStats* stats);

// Full-database frequency scan (compute_db_frequency) and the final
// (p-value asc, edges desc) ordering. The scan runs VF2 only on the
// (pattern, graph) pairs whose containment signatures
// (graph/signature.h) do not already rule containment out.
void ComputeDbFrequencies(const GraphSigConfig& config,
                          const graph::GraphDatabase& db,
                          std::vector<SignificantSubgraph>* subgraphs);
void SortBySignificance(std::vector<SignificantSubgraph>* subgraphs);

}  // namespace graphsig::core::pipeline

#endif  // GRAPHSIG_CORE_MINE_PIPELINE_H_
