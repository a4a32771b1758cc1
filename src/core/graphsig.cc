#include "core/graphsig.h"

#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "core/mine_cache.h"
#include "core/mine_pipeline.h"
#include "obs/trace.h"
#include "obs/work_capture.h"
#include "stream/tarone.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace graphsig::core {
namespace {

using features::NodeVector;
using graph::GraphDatabase;
using graph::Label;

// Runs one cacheable unit of work. With `delta` it runs under a
// WorkCapture that stores the unit's deterministic metric contributions
// there for later replay; without, it just runs — a cold mine captures
// nothing.
template <typename Unit>
auto RunUnit(obs::WorkDelta* delta, Unit&& unit) {
  if (delta == nullptr) return unit();
  obs::WorkCapture capture;
  auto output = unit();
  *delta = capture.Take();
  return output;
}

// Featurization (Algorithm 2 lines 3-4) appended to
// `units->node_vectors`: graphs the cache already featurized replay
// their captured deltas, the rest run RWR. The features/vectorize span
// records one call and one work unit per node vector either way.
void Featurize(const GraphSigConfig& config, const GraphDatabase& db,
               bool keep, MineCache* units, MineCacheStats* acct) {
  GS_TRACE_SPAN_NAMED(span, "features/vectorize");
  for (const obs::WorkDelta& delta : units->featurize_deltas) {
    obs::ReplayWorkDelta(delta);
  }
  const size_t done = units->featurize_deltas.size();
  GS_CHECK_LE(done, db.size());  // the cache must describe a db prefix
  const size_t todo = db.size() - done;
  std::vector<std::vector<NodeVector>> fresh(todo);
  std::vector<obs::WorkDelta> deltas(keep ? todo : 0);
  util::ParallelFor(config.num_threads, todo, [&](size_t k) {
    const size_t g = done + k;
    fresh[k] = RunUnit(keep ? &deltas[k] : nullptr, [&] {
      return features::GraphToVectors(db.graph(g), static_cast<int32_t>(g),
                                      units->feature_space, config.rwr);
    });
  });
  size_t total = units->node_vectors.size();
  for (const std::vector<NodeVector>& vectors : fresh) {
    total += vectors.size();
  }
  units->node_vectors.reserve(total);
  for (std::vector<NodeVector>& vectors : fresh) {
    units->node_vectors.insert(units->node_vectors.end(),
                               std::make_move_iterator(vectors.begin()),
                               std::make_move_iterator(vectors.end()));
  }
  units->featurize_deltas.insert(units->featurize_deltas.end(),
                                 std::make_move_iterator(deltas.begin()),
                                 std::make_move_iterator(deltas.end()));
  acct->graphs_reused = static_cast<int64_t>(done);
  acct->graphs_featurized = static_cast<int64_t>(todo);
  span.AddWork(units->node_vectors.size());
}

// FVMine per anchor-label group (lines 6-7), in ascending label order.
// A cached group whose member list is unchanged is reused and its delta
// replayed; a changed member list means changed priors, so that group
// and everything downstream of it is mined again. Groups are
// independent minings, so they fan out over the pool; each writes its
// own slot, making the output identical for any thread count.
std::vector<GroupCacheEntry> MineGroups(const GraphSigConfig& config,
                                        bool keep, MineCache* units,
                                        MineCacheStats* acct) {
  auto groups = pipeline::GroupByAnchorLabel(units->node_vectors);
  std::map<Label, GroupCacheEntry*> cached;
  for (GroupCacheEntry& entry : units->groups) cached[entry.label] = &entry;
  std::vector<GroupCacheEntry> entries(groups.size());
  std::vector<size_t> to_mine;
  for (size_t g = 0; g < groups.size(); ++g) {
    auto it = cached.find(groups[g].first);
    if (it != cached.end() && it->second->members == groups[g].second) {
      entries[g] = std::move(*it->second);
      obs::ReplayWorkDelta(entries[g].delta);
      ++acct->groups_reused;
    } else {
      to_mine.push_back(g);
    }
  }
  util::ParallelFor(config.num_threads, to_mine.size(), [&](size_t i) {
    const size_t g = to_mine[i];
    GroupCacheEntry& entry = entries[g];
    pipeline::GroupMineOutput out = RunUnit(keep ? &entry.delta : nullptr, [&] {
      return pipeline::MineLabelGroup(config, units->node_vectors,
                                      groups[g].second);
    });
    entry.label = groups[g].first;
    entry.members = std::move(groups[g].second);
    entry.vectors = std::move(out.vectors);
    entry.psis = std::move(out.psis);
    entry.fsm.resize(entry.vectors.size());
  });
  acct->groups_mined = static_cast<int64_t>(to_mine.size());
  return entries;
}

// The feature-space half's hand-off to the graph-space half.
struct FeaturePhase {
  std::vector<GroupCacheEntry> groups;  // ascending label order
  // Candidates in (label, DFS) order that clear the Tarone threshold,
  // with each one's (group slot, index in group) for FSM-cache
  // addressing.
  std::vector<std::pair<Label, fvmine::SignificantVector>> significant;
  std::vector<std::pair<size_t, size_t>> origin;
};

// Lines 3-7 over `units`: feature selection, featurization, FVMine per
// group and the Tarone filter. Fills the result's feature space, the
// feature-side stats and the rwr/feature profile.
FeaturePhase RunFeaturePhase(const GraphSigConfig& config,
                             const GraphDatabase& db,
                             const features::FeatureSpace* space, bool keep,
                             MineCache* units, MineCacheStats* acct,
                             GraphSigResult* result) {
  FeaturePhase phase;
  util::WallTimer timer;
  result->feature_space =
      space != nullptr
          ? *space
          : features::FeatureSpace::ForChemicalDatabase(db,
                                                        config.top_k_atoms);
  if (!(result->feature_space == units->feature_space)) {
    // Appends can re-rank the atom labels, which re-shapes every vector:
    // drop vectors and groups. Region cuts depend only on graph content
    // and stay.
    acct->invalidated_feature_space = !units->node_vectors.empty();
    units->node_vectors.clear();
    units->featurize_deltas.clear();
    units->groups.clear();
    units->feature_space = result->feature_space;
  }
  Featurize(config, db, keep, units, acct);
  result->profile.rwr_seconds = timer.ElapsedSeconds();
  result->stats.num_vectors =
      static_cast<int64_t>(units->node_vectors.size());
  if (units->node_vectors.empty()) return phase;

  timer.Restart();
  GS_TRACE_SPAN_NAMED(feature_span, "mine/feature");
  phase.groups = MineGroups(config, keep, units, acct);
  result->stats.num_groups = static_cast<int64_t>(phase.groups.size());
  for (size_t g = 0; g < phase.groups.size(); ++g) {
    GroupCacheEntry& group = phase.groups[g];
    for (size_t c = 0; c < group.vectors.size(); ++c) {
      // A cold mine hands the vectors over; a cached one keeps them.
      if (keep) {
        phase.significant.emplace_back(group.label, group.vectors[c]);
      } else {
        phase.significant.emplace_back(group.label,
                                       std::move(group.vectors[c]));
      }
      phase.origin.emplace_back(g, c);
    }
  }

  if (config.tarone_alpha > 0.0) {
    // Solve for the family-wise threshold over the psis of every state
    // FVMine evaluated, concatenated in group-label order, then keep
    // only candidates that clear delta* (stream/tarone.h).
    std::vector<double> psis;
    for (const GroupCacheEntry& group : phase.groups) {
      psis.insert(psis.end(), group.psis.begin(), group.psis.end());
    }
    const stream::TaroneResult tarone =
        stream::TaroneThreshold::Compute(std::move(psis),
                                         config.tarone_alpha);
    size_t kept = 0;
    for (size_t i = 0; i < phase.significant.size(); ++i) {
      if (phase.significant[i].second.p_value <= tarone.delta_star) {
        phase.significant[kept] = std::move(phase.significant[i]);
        phase.origin[kept] = phase.origin[i];
        ++kept;
      }
    }
    result->stats.tarone_filtered_vectors =
        static_cast<int64_t>(phase.significant.size() - kept);
    phase.significant.resize(kept);
    phase.origin.resize(kept);
    result->stats.tarone_delta_star = tarone.delta_star;
    result->stats.tarone_family_size =
        static_cast<int64_t>(tarone.family_size);
  }

  result->stats.num_significant_vectors =
      static_cast<int64_t>(phase.significant.size());
  feature_span.AddWork(phase.significant.size());
  result->profile.feature_seconds = timer.ElapsedSeconds();
  return phase;
}

// Line 9 (pass 2 of the graph-space phase): fetches or makes each
// planned cut and flattens it to one CSR per slot, in parallel (each
// slot is written by exactly one task; a cut is a pure function of its
// key). Flattening runs outside any capture, so cached units carry no
// CSR builds and every mine counts one build per distinct cut. Cuts
// bump no work counters, so serving one from the cache needs no replay.
std::vector<graph::CsrGraph> CutRegions(const GraphSigConfig& config,
                                        const GraphDatabase& db,
                                        const pipeline::RegionPlan& plan,
                                        bool keep, MineCache* units,
                                        MineCacheStats* acct) {
  const size_t slots = plan.cut_owner.size();
  std::vector<RegionCutCache::Key> keys(keep ? slots : 0);
  std::vector<const graph::Graph*> cached(slots, nullptr);
  for (size_t i = 0; i < keys.size(); ++i) {
    const NodeVector& nv = units->node_vectors[plan.cut_owner[i]];
    keys[i] = RegionCutCache::Key{units->graph_generations[nv.graph_index],
                                  nv.graph_index, nv.node};
    cached[i] = units->cuts.Lookup(keys[i]);
    if (cached[i] != nullptr) ++acct->cuts_reused;
  }
  std::vector<graph::CsrGraph> region_csrs(slots);
  std::vector<graph::Graph> fresh(keys.size());
  util::ParallelFor(config.num_threads, slots, [&](size_t i) {
    if (cached[i] != nullptr) {
      region_csrs[i] = graph::CsrGraph(*cached[i]);
      return;
    }
    const NodeVector& nv = units->node_vectors[plan.cut_owner[i]];
    graph::Graph cut =
        pipeline::CutRegion(db.graph(nv.graph_index), nv.graph_index,
                            nv.node, config.cutoff_radius);
    region_csrs[i] = graph::CsrGraph(cut);
    if (keep) fresh[i] = std::move(cut);
  });
  for (size_t i = 0; i < keys.size(); ++i) {
    if (cached[i] == nullptr) units->cuts.Insert(keys[i], std::move(fresh[i]));
  }
  acct->cuts_computed = static_cast<int64_t>(slots) - acct->cuts_reused;
  return region_csrs;
}

// Lines 10-13 (pass 3): maximal FSM over every planned region set as a
// pool task. A candidate an earlier mine region-mined replays its stored
// output; the rest run. A reused group can still have absent entries —
// delta* may admit candidates this mine that it filtered before.
std::vector<pipeline::RegionTaskOutput> MineRegionSets(
    const GraphSigConfig& config, const pipeline::RegionPlan& plan,
    const std::vector<graph::CsrGraph>& region_csrs, bool keep,
    FeaturePhase* phase, MineCacheStats* acct) {
  auto entry_of = [&](const pipeline::RegionTask& task) -> GroupFsmEntry& {
    const auto [g, c] = phase->origin[task.sv_index];
    return phase->groups[g].fsm[c];
  };
  std::vector<pipeline::RegionTaskOutput> outputs(plan.tasks.size());
  std::vector<size_t> to_run;
  for (size_t t = 0; t < plan.tasks.size(); ++t) {
    const GroupFsmEntry& entry = entry_of(plan.tasks[t]);
    if (entry.present) {
      outputs[t].dedup = entry.dedup;
      outputs[t].filtered = entry.filtered;
      obs::ReplayWorkDelta(entry.delta);
      ++acct->fsm_tasks_replayed;
    } else {
      to_run.push_back(t);
    }
  }
  util::ParallelFor(config.num_threads, to_run.size(), [&](size_t i) {
    const size_t t = to_run[i];
    const pipeline::RegionTask& task = plan.tasks[t];
    GroupFsmEntry& entry = entry_of(task);
    const std::vector<const graph::CsrGraph*> regions =
        pipeline::TaskRegions(task, region_csrs);
    outputs[t] = RunUnit(keep ? &entry.delta : nullptr, [&] {
      return pipeline::MineRegionTask(
          config, task.label, phase->significant[task.sv_index].second,
          regions);
    });
    if (keep) {
      entry.present = true;
      entry.filtered = outputs[t].filtered;
      entry.dedup = outputs[t].dedup;
    }
  });
  acct->fsm_tasks_mined = static_cast<int64_t>(to_run.size());
  return outputs;
}

}  // namespace

std::vector<std::pair<Label, fvmine::SignificantVector>>
GraphSig::MineSignificantVectors(const GraphDatabase& db,
                                 GraphSigProfile* profile,
                                 const features::FeatureSpace* space) const {
  GraphSigResult result;
  MineCache scratch;
  MineCacheStats acct;
  FeaturePhase phase = RunFeaturePhase(config_, db, space, /*keep=*/false,
                                       &scratch, &acct, &result);
  if (profile != nullptr) {
    *profile = result.profile;
    profile->total_seconds =
        result.profile.rwr_seconds + result.profile.feature_seconds;
  }
  return std::move(phase.significant);
}

GraphSigResult GraphSig::Mine(const GraphDatabase& db, MineCache* cache,
                              MineCacheStats* cache_stats) const {
  GS_TRACE_SPAN("mine");
  util::WallTimer total_timer;
  GraphSigResult result;
  // A cold mine runs on an empty scratch cache and keeps nothing.
  const bool keep = cache != nullptr;
  MineCache scratch;
  MineCache& units = keep ? *cache : scratch;
  if (keep) GS_CHECK_EQ(units.graph_generations.size(), db.size());
  MineCacheStats local_stats;
  MineCacheStats& acct = cache_stats != nullptr ? *cache_stats : local_stats;
  acct = MineCacheStats();

  FeaturePhase phase = RunFeaturePhase(config_, db, nullptr, keep, &units,
                                       &acct, &result);

  util::WallTimer fsm_timer;
  GS_TRACE_SPAN_NAMED(fsm_span, "mine/fsm");
  // Graph-space phase (Algorithm 2, lines 8-13): each significant vector
  // selects the regions it describes; cut them out and mine maximally at
  // a high relative threshold. Pass 1 (serial, cheap) picks each
  // vector's region sample and dedups the (graph, node) cuts the samples
  // need, so each distinct cut is made and flattened once per mine.
  const pipeline::RegionPlan plan = pipeline::PlanRegionTasks(
      config_, phase.significant, units.node_vectors);
  result.stats.num_region_requests = plan.num_region_requests;
  result.stats.num_unique_regions = plan.num_unique_regions;
  const std::vector<graph::CsrGraph> region_csrs =
      CutRegions(config_, db, plan, keep, &units, &acct);
  std::vector<pipeline::RegionTaskOutput> outputs =
      MineRegionSets(config_, plan, region_csrs, keep, &phase, &acct);

  // Deterministic merge: task order is significant-vector order, and the
  // better-candidate rule is fixed, so ties resolve identically
  // regardless of which worker mined what.
  std::map<std::string, SignificantSubgraph> dedup;  // canonical -> best
  for (pipeline::RegionTaskOutput& output : outputs) {
    pipeline::MergeRegionOutput(std::move(output), &dedup, &result.stats);
  }
  result.subgraphs.reserve(dedup.size());
  for (auto& [key, subgraph] : dedup) {
    result.subgraphs.push_back(std::move(subgraph));
  }
  pipeline::ComputeDbFrequencies(config_, db, &result.subgraphs);
  pipeline::SortBySignificance(&result.subgraphs);
  units.groups = std::move(phase.groups);

  fsm_span.AddWork(static_cast<uint64_t>(result.stats.num_sets_mined));
  result.profile.fsm_seconds = fsm_timer.ElapsedSeconds();
  result.profile.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace graphsig::core
