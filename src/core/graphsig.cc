#include "core/graphsig.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "core/mine_pipeline.h"
#include "obs/trace.h"
#include "stream/tarone.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace graphsig::core {
namespace {

using features::NodeVector;
using graph::GraphDatabase;
using graph::Label;

struct FeaturePhaseOutput {
  features::FeatureSpace feature_space;
  std::vector<NodeVector> node_vectors;
  // Significant closed sub-feature vectors per anchor label; supporting
  // lists are re-based to indices into `node_vectors`.
  std::vector<std::pair<Label, fvmine::SignificantVector>> significant;
  double rwr_seconds = 0.0;
  double feature_seconds = 0.0;
  GraphSigStats stats;
};

FeaturePhaseOutput RunFeaturePhase(const GraphSigConfig& config,
                                   const GraphDatabase& db,
                                   const features::FeatureSpace* space) {
  FeaturePhaseOutput out;
  util::WallTimer timer;

  // Feature selection + RWR featurization (Algorithm 2, lines 3-4).
  out.feature_space =
      space != nullptr
          ? *space
          : features::FeatureSpace::ForChemicalDatabase(db,
                                                        config.top_k_atoms);
  out.node_vectors = features::DatabaseToVectors(
      db, out.feature_space, config.rwr, config.num_threads);
  out.rwr_seconds = timer.ElapsedSeconds();
  out.stats.num_vectors = static_cast<int64_t>(out.node_vectors.size());
  if (out.node_vectors.empty()) return out;

  timer.Restart();
  GS_TRACE_SPAN_NAMED(feature_span, "mine/feature");
  // Group by anchor label (line 6) and run FVMine per group (line 7).
  const auto groups = pipeline::GroupByAnchorLabel(out.node_vectors);
  out.stats.num_groups = static_cast<int64_t>(groups.size());

  // Groups are independent minings, so they fan out over the pool; each
  // writes its own slot and the slots concatenate in label order below,
  // making the output identical for any thread count.
  std::vector<pipeline::GroupMineOutput> per_group(groups.size());
  util::ParallelFor(config.num_threads, groups.size(), [&](size_t g) {
    per_group[g] =
        pipeline::MineLabelGroup(config, out.node_vectors, groups[g].second);
  });
  for (size_t g = 0; g < per_group.size(); ++g) {
    for (fvmine::SignificantVector& sv : per_group[g].vectors) {
      out.significant.emplace_back(groups[g].first, std::move(sv));
    }
  }

  if (config.tarone_alpha > 0.0) {
    // Solve for the family-wise threshold over the psis of every state
    // FVMine evaluated, concatenated in group-label order, then keep
    // only candidates that clear delta* (stream/tarone.h).
    std::vector<double> psis;
    for (const pipeline::GroupMineOutput& group : per_group) {
      psis.insert(psis.end(), group.psis.begin(), group.psis.end());
    }
    const stream::TaroneResult tarone =
        stream::TaroneThreshold::Compute(std::move(psis),
                                         config.tarone_alpha);
    const size_t candidates = out.significant.size();
    std::erase_if(out.significant, [&](const auto& entry) {
      return entry.second.p_value > tarone.delta_star;
    });
    out.stats.tarone_delta_star = tarone.delta_star;
    out.stats.tarone_family_size =
        static_cast<int64_t>(tarone.family_size);
    out.stats.tarone_filtered_vectors =
        static_cast<int64_t>(candidates - out.significant.size());
  }

  out.stats.num_significant_vectors =
      static_cast<int64_t>(out.significant.size());
  feature_span.AddWork(out.significant.size());
  out.feature_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace

std::vector<std::pair<Label, fvmine::SignificantVector>>
GraphSig::MineSignificantVectors(const GraphDatabase& db,
                                 GraphSigProfile* profile,
                                 const features::FeatureSpace* space) const {
  FeaturePhaseOutput phase = RunFeaturePhase(config_, db, space);
  if (profile != nullptr) {
    profile->rwr_seconds = phase.rwr_seconds;
    profile->feature_seconds = phase.feature_seconds;
    profile->fsm_seconds = 0.0;
    profile->total_seconds = phase.rwr_seconds + phase.feature_seconds;
  }
  return std::move(phase.significant);
}

GraphSigResult GraphSig::Mine(const GraphDatabase& db) const {
  GS_TRACE_SPAN("mine");
  GraphSigResult result;
  util::WallTimer total_timer;

  FeaturePhaseOutput phase = RunFeaturePhase(config_, db, nullptr);
  result.feature_space = phase.feature_space;
  result.stats = phase.stats;
  result.profile.rwr_seconds = phase.rwr_seconds;
  result.profile.feature_seconds = phase.feature_seconds;

  util::WallTimer fsm_timer;
  GS_TRACE_SPAN_NAMED(fsm_span, "mine/fsm");
  // Graph-space phase (Algorithm 2, lines 8-13): each significant vector
  // selects the regions it describes; cut them out and mine maximally at
  // a high relative threshold. The per-vector minings are independent,
  // so each runs as a pool task that dedups into its own local map; the
  // local maps merge at the barrier in significant-vector order — the
  // order the old serial loop used — so output is identical for any
  // thread count.

  // Pass 1 (serial, cheap): pick each vector's region sample and collect
  // the distinct (graph, node) cuts the samples need. Nearby significant
  // vectors keep re-selecting the same nodes, so the same BFS + induced
  // subgraph would otherwise be recomputed once per selecting vector;
  // the cache computes each cut exactly once (radius is fixed per run,
  // so (graph_index, node) identifies a cut).
  pipeline::RegionPlan plan =
      pipeline::PlanRegionTasks(config_, phase.significant,
                                phase.node_vectors);
  result.stats.num_region_requests = plan.num_region_requests;
  result.stats.num_unique_regions = plan.num_unique_regions;

  // Pass 2: make and flatten each distinct cut once, in parallel (each
  // slot is written by exactly one task; the cut is a pure function of
  // its key). Every task that selects a cut borrows its one CSR. No work
  // capture is open here, which keeps the graph/csr_builds total equal
  // to the incremental miner's (core/mine_pipeline.h).
  std::vector<graph::CsrGraph> region_csrs(plan.cut_owner.size());
  util::ParallelFor(
      config_.num_threads, plan.cut_owner.size(), [&](size_t i) {
        const NodeVector& nv = phase.node_vectors[plan.cut_owner[i]];
        region_csrs[i] = graph::CsrGraph(
            pipeline::CutRegion(db.graph(nv.graph_index), nv.graph_index,
                                nv.node, config_.cutoff_radius));
      });

  // Pass 3: mine every region set as a pool task. `plan` and
  // `region_csrs` are read-only from here on.
  std::vector<pipeline::RegionTaskOutput> outputs(plan.tasks.size());
  util::ParallelFor(
      config_.num_threads, plan.tasks.size(), [&](size_t t) {
        const pipeline::RegionTask& task = plan.tasks[t];
        outputs[t] = pipeline::MineRegionTask(
            config_, task.label, phase.significant[task.sv_index].second,
            pipeline::TaskRegions(plan, task, phase.node_vectors,
                                  region_csrs));
      });

  // Deterministic merge: task order is significant-vector order, and the
  // better-candidate rule matches the old serial loop, so ties resolve
  // identically regardless of which worker mined what.
  std::map<std::string, SignificantSubgraph> dedup;  // canonical -> best
  for (size_t t = 0; t < outputs.size(); ++t) {
    pipeline::MergeRegionOutput(std::move(outputs[t]), &dedup,
                                &result.stats);
  }

  result.subgraphs.reserve(dedup.size());
  for (auto& [key, subgraph] : dedup) {
    result.subgraphs.push_back(std::move(subgraph));
  }
  pipeline::ComputeDbFrequencies(config_, db, &result.subgraphs);
  pipeline::SortBySignificance(&result.subgraphs);

  fsm_span.AddWork(static_cast<uint64_t>(result.stats.num_sets_mined));
  result.profile.fsm_seconds = fsm_timer.ElapsedSeconds();
  result.profile.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace graphsig::core
