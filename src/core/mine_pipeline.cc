#include "core/mine_pipeline.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "features/packed_vector_set.h"
#include "fsm/maximal.h"
#include "fsm/miner.h"
#include "graph/csr.h"
#include "graph/isomorphism.h"
#include "graph/signature.h"
#include "obs/metrics.h"
#include "stats/pvalue_model.h"
#include "util/parallel.h"

namespace graphsig::core::pipeline {

using features::NodeVector;
using graph::GraphDatabase;
using graph::Label;

std::vector<std::pair<Label, std::vector<int32_t>>> GroupByAnchorLabel(
    const std::vector<NodeVector>& node_vectors) {
  std::map<Label, std::vector<int32_t>> groups;
  for (size_t i = 0; i < node_vectors.size(); ++i) {
    groups[node_vectors[i].node_label].push_back(static_cast<int32_t>(i));
  }
  std::vector<std::pair<Label, std::vector<int32_t>>> ordered;
  ordered.reserve(groups.size());
  for (auto& [label, members] : groups) {
    ordered.emplace_back(label, std::move(members));
  }
  return ordered;
}

GroupMineOutput MineLabelGroup(const GraphSigConfig& config,
                               const std::vector<NodeVector>& node_vectors,
                               const std::vector<int32_t>& members) {
  GroupMineOutput out;
  // Group-relative frequency threshold (see GraphSigConfig).
  const int64_t min_support = std::max<int64_t>(
      kMinSupportFloor,
      static_cast<int64_t>(
          std::ceil(config.min_freq_percent / 100.0 * members.size())));
  if (static_cast<int64_t>(members.size()) < min_support) return out;
  features::PackedVectorSet population(
      node_vectors[members[0]].values.size());
  population.Reserve(members.size());
  for (int32_t idx : members) {
    population.Add(node_vectors[idx].values);
  }
  stats::FeaturePriors priors(population, config.rwr.bins);
  fvmine::FvMineConfig fv_config;
  fv_config.min_support = min_support;
  fv_config.max_pvalue = config.max_pvalue;
  fv_config.use_ceiling_prune = config.use_ceiling_prune;
  fv_config.tarone_alpha = config.tarone_alpha;
  fvmine::FvMineResult mined = fvmine::FvMine(population, priors, fv_config);
  out.vectors.reserve(mined.vectors.size());
  for (fvmine::SignificantVector& sv : mined.vectors) {
    for (int32_t& idx : sv.supporting) idx = members[idx];
    out.vectors.push_back(std::move(sv));
  }
  out.psis = std::move(mined.candidate_psis);
  return out;
}

int64_t RegionCutKey(int32_t graph_index, graph::VertexId node) {
  return (static_cast<int64_t>(graph_index) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(node));
}

RegionPlan PlanRegionTasks(
    const GraphSigConfig& /*config*/,
    const std::vector<std::pair<Label, fvmine::SignificantVector>>&
        significant,
    const std::vector<NodeVector>& node_vectors) {
  RegionPlan plan;
  for (size_t v = 0; v < significant.size(); ++v) {
    const auto& [label, sv] = significant[v];
    if (sv.supporting.size() < kMinSetSize) continue;
    RegionTask task;
    task.label = label;
    task.sv_index = static_cast<int32_t>(v);
    // Evenly subsample oversized sets (see kMaxRegionsPerSet).
    if (sv.supporting.size() > kMaxRegionsPerSet) {
      task.chosen.reserve(kMaxRegionsPerSet);
      const double stride = static_cast<double>(sv.supporting.size()) /
                            static_cast<double>(kMaxRegionsPerSet);
      for (size_t k = 0; k < kMaxRegionsPerSet; ++k) {
        task.chosen.push_back(
            sv.supporting[static_cast<size_t>(k * stride)]);
      }
    } else {
      task.chosen = sv.supporting;
    }
    task.slots.reserve(task.chosen.size());
    for (int32_t vector_index : task.chosen) {
      const NodeVector& nv = node_vectors[vector_index];
      const auto [it, inserted] =
          plan.cut_slot.emplace(RegionCutKey(nv.graph_index, nv.node),
                                static_cast<int32_t>(plan.cut_owner.size()));
      if (inserted) plan.cut_owner.push_back(vector_index);
      task.slots.push_back(it->second);
    }
    plan.num_region_requests += static_cast<int64_t>(task.chosen.size());
    plan.tasks.push_back(std::move(task));
  }
  plan.num_unique_regions = static_cast<int64_t>(plan.cut_owner.size());
  // Cache accounting: every request beyond the first for a (graph, node)
  // cut is a hit. Both totals fall out of the serial pass 1, so they are
  // deterministic work counters (DESIGN.md §12).
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const cache_hits =
      registry.GetCounter("mine/region_cache_hits");
  static obs::Counter* const cache_misses =
      registry.GetCounter("mine/region_cache_misses");
  cache_hits->Add(static_cast<uint64_t>(plan.num_region_requests -
                                        plan.num_unique_regions));
  cache_misses->Add(static_cast<uint64_t>(plan.num_unique_regions));
  return plan;
}

graph::Graph CutRegion(const graph::Graph& host, int32_t graph_index,
                       graph::VertexId node, int cutoff_radius) {
  graph::Graph cut =
      host.InducedSubgraph(host.VerticesWithinRadius(node, cutoff_radius));
  cut.set_id(graph_index);
  return cut;
}

std::vector<const graph::CsrGraph*> TaskRegions(
    const RegionTask& task, const std::vector<graph::CsrGraph>& region_csrs) {
  std::vector<const graph::CsrGraph*> regions;
  regions.reserve(task.slots.size());
  for (int32_t slot : task.slots) regions.push_back(&region_csrs[slot]);
  return regions;
}

RegionTaskOutput MineRegionTask(const GraphSigConfig& config, Label label,
                                const fvmine::SignificantVector& sv,
                                const GraphDatabase& regions) {
  const std::vector<graph::CsrGraph> csrs(regions.graphs().begin(),
                                          regions.graphs().end());
  std::vector<const graph::CsrGraph*> borrowed;
  borrowed.reserve(csrs.size());
  for (const graph::CsrGraph& g : csrs) borrowed.push_back(&g);
  return MineRegionTask(config, label, sv, borrowed);
}

RegionTaskOutput MineRegionTask(const GraphSigConfig& config, Label label,
                                const fvmine::SignificantVector& sv,
                                fsm::CsrDatabase regions) {
  RegionTaskOutput output;
  fsm::MinerConfig miner_config;
  miner_config.min_support = std::max<int64_t>(
      2,
      fsm::SupportFromPercent(config.fsg_freq_percent, regions.size()));
  miner_config.max_edges = config.fsm_max_edges;
  miner_config.max_patterns = config.fsm_max_patterns;
  fsm::MineResult mined = fsm::MineMaximalGSpan(regions, miner_config);
  if (mined.patterns.empty()) {
    // False positive: similar vectors, no common structure (the line-13
    // pruning the paper describes).
    output.filtered = true;
    return output;
  }
  for (fsm::Pattern& pattern : mined.patterns) {
    if (pattern.graph.num_edges() < 1) continue;
    SignificantSubgraph candidate;
    candidate.subgraph = std::move(pattern.graph);
    candidate.vector = sv.vector;
    candidate.vector_pvalue = sv.p_value;
    candidate.vector_support = sv.support;
    candidate.anchor_label = label;
    candidate.set_size = static_cast<int64_t>(regions.size());
    candidate.set_support = pattern.support;
    // gSpan's minimal DFS code is the pattern's CanonicalCode.
    output.dedup.emplace(std::move(pattern.code), std::move(candidate));
  }
  return output;
}

void MergeRegionOutput(RegionTaskOutput&& output,
                       std::map<std::string, SignificantSubgraph>* dedup,
                       GraphSigStats* stats) {
  ++stats->num_sets_mined;
  if (output.filtered) ++stats->num_sets_filtered;
  for (auto& [key, candidate] : output.dedup) {
    auto it = dedup->find(key);
    if (it == dedup->end()) {
      dedup->emplace(key, std::move(candidate));
    } else if (candidate.vector_pvalue < it->second.vector_pvalue ||
               (candidate.vector_pvalue == it->second.vector_pvalue &&
                candidate.set_support > it->second.set_support)) {
      it->second = std::move(candidate);
    }
  }
}

void ComputeDbFrequencies(const GraphSigConfig& config,
                          const GraphDatabase& db,
                          std::vector<SignificantSubgraph>* subgraphs) {
  if (!config.compute_db_frequency || subgraphs->empty()) return;
  // Every pattern is tested against every graph: flatten and profile
  // each database graph once per mine and each pattern once, not per
  // pair. Most pairs fail the signature test, which is a necessary
  // condition for containment, so VF2 only sees the rest.
  std::vector<graph::CsrGraph> targets(db.size());
  std::vector<graph::ContainmentSignature> profiles(db.size());
  util::ParallelFor(config.num_threads, db.size(), [&](size_t g) {
    targets[g] = graph::CsrGraph(db.graph(g));
    profiles[g] = graph::BuildContainmentSignature(db.graph(g));
  });
  // Each pattern's VF2 visit order is built once too, ranking labels by
  // their counts in the mined database.
  const std::map<graph::Label, int64_t> label_counts =
      db.VertexLabelCounts();
  util::ParallelFor(config.num_threads, subgraphs->size(), [&](size_t i) {
    SignificantSubgraph& sg = (*subgraphs)[i];
    const graph::ContainmentSignature signature =
        graph::BuildContainmentSignature(sg.subgraph);
    const graph::CsrGraph pattern(sg.subgraph);
    const std::vector<graph::VertexId> order =
        graph::PatternVisitOrder(pattern, label_counts);
    int64_t frequency = 0;
    for (size_t g = 0; g < targets.size(); ++g) {
      if (graph::SignatureDominated(signature, profiles[g]) &&
          graph::IsSubgraphIsomorphic(pattern, order, targets[g])) {
        ++frequency;
      }
    }
    sg.db_frequency = frequency;
  });
}

void SortBySignificance(std::vector<SignificantSubgraph>* subgraphs) {
  std::sort(subgraphs->begin(), subgraphs->end(),
            [](const SignificantSubgraph& a, const SignificantSubgraph& b) {
              if (a.vector_pvalue != b.vector_pvalue) {
                return a.vector_pvalue < b.vector_pvalue;
              }
              return a.subgraph.num_edges() > b.subgraph.num_edges();
            });
}

}  // namespace graphsig::core::pipeline
