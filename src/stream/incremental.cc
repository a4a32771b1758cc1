#include "stream/incremental.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/mine_pipeline.h"
#include "features/rwr.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/work_capture.h"
#include "stream/tarone.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace graphsig::stream {
namespace {

using core::pipeline::GroupMineOutput;
using features::NodeVector;
using graph::GraphDatabase;
using graph::Label;

// True iff `prefix` is an exact prefix of `full` — the lineage check:
// cached per-graph generation stamps must agree with the log's.
bool IsPrefix(const std::vector<uint64_t>& prefix,
              const std::vector<uint64_t>& full) {
  return prefix.size() <= full.size() &&
         std::equal(prefix.begin(), prefix.end(), full.begin());
}

}  // namespace

IncrementalMiner::IncrementalMiner(core::GraphSigConfig config)
    : config_(std::move(config)) {
  state_.config_fingerprint = ConfigFingerprint(config_);
}

util::Result<bool> IncrementalMiner::Restore(std::string_view checkpoint) {
  auto decoded = DecodeMineState(checkpoint);
  if (!decoded.ok()) {
    if (decoded.status().code() == util::StatusCode::kFailedPrecondition) {
      return false;  // version from another build: start cold
    }
    return decoded.status();
  }
  if (decoded.value().config_fingerprint != state_.config_fingerprint) {
    return false;  // mined under a different config: start cold
  }
  state_ = std::move(decoded.value());
  return true;
}

core::GraphSigResult IncrementalMiner::Mine(
    const GraphDatabase& db,
    const std::vector<uint64_t>& graph_generations, uint64_t generation,
    IncrementalMineStats* mine_stats) {
  GS_CHECK_EQ(graph_generations.size(), db.size());
  GS_TRACE_SPAN("mine");
  core::GraphSigResult result;
  IncrementalMineStats local_stats;
  IncrementalMineStats& acct = mine_stats ? *mine_stats : local_stats;
  util::WallTimer total_timer;
  util::WallTimer timer;

  // The state is only reusable against the same database lineage,
  // extended append-only.
  if (!IsPrefix(state_.graph_generations, graph_generations)) {
    state_.node_vectors.clear();
    state_.featurize_deltas.clear();
    state_.graph_generations.clear();
    state_.groups.clear();
    state_.feature_space = features::FeatureSpace();
    cut_cache_.Clear();
  }

  // Feature selection is global: an append can change the top-k atom
  // set, which re-shapes every vector. Recompute and compare — a change
  // invalidates vectors and groups, but not region cuts (cuts depend
  // only on graph content).
  features::FeatureSpace space =
      features::FeatureSpace::ForChemicalDatabase(db, config_.top_k_atoms);
  if (!state_.node_vectors.empty() && !(space == state_.feature_space)) {
    state_.node_vectors.clear();
    state_.featurize_deltas.clear();
    state_.groups.clear();
    acct.invalidated_feature_space = true;
  }
  state_.feature_space = space;
  result.feature_space = space;

  // --- incremental featurization -------------------------------------
  // Only graphs appended since the last mine run RWR; earlier graphs
  // replay their captured rwr/* deltas. The features/vectorize span is
  // emitted here with the same calls/work a cold DatabaseToVectors
  // would record.
  {
    GS_TRACE_SPAN_NAMED(vec_span, "features/vectorize");
    for (const obs::WorkDelta& delta : state_.featurize_deltas) {
      obs::ReplayWorkDelta(delta);
    }
    acct.graphs_reused =
        static_cast<int64_t>(state_.featurize_deltas.size());
    const size_t old_graphs = state_.featurize_deltas.size();
    const size_t new_graphs = db.size() - old_graphs;
    std::vector<std::vector<NodeVector>> fresh(new_graphs);
    std::vector<obs::WorkDelta> fresh_deltas(new_graphs);
    util::ParallelFor(config_.num_threads, new_graphs, [&](size_t k) {
      const size_t graph_index = old_graphs + k;
      obs::WorkCapture capture;
      fresh[k] = features::GraphToVectors(
          db.graph(graph_index), static_cast<int32_t>(graph_index),
          state_.feature_space, config_.rwr);
      fresh_deltas[k] = capture.Take();
    });
    for (size_t k = 0; k < new_graphs; ++k) {
      state_.node_vectors.insert(
          state_.node_vectors.end(),
          std::make_move_iterator(fresh[k].begin()),
          std::make_move_iterator(fresh[k].end()));
      state_.featurize_deltas.push_back(std::move(fresh_deltas[k]));
    }
    state_.graph_generations = graph_generations;
    acct.graphs_featurized = static_cast<int64_t>(new_graphs);
    vec_span.AddWork(state_.node_vectors.size());
  }
  result.profile.rwr_seconds = timer.ElapsedSeconds();
  result.stats.num_vectors =
      static_cast<int64_t>(state_.node_vectors.size());

  // --- delta FVMine ----------------------------------------------------
  // Candidate list in (label, DFS) order plus, per candidate, its
  // (group slot, in-group index) for FSM-cache addressing.
  std::vector<std::pair<Label, fvmine::SignificantVector>> significant;
  std::vector<std::pair<size_t, size_t>> origin;  // (group slot, index)
  std::vector<GroupCacheEntry> new_groups;

  timer.Restart();
  if (!state_.node_vectors.empty()) {
    GS_TRACE_SPAN_NAMED(feature_span, "mine/feature");
    const auto groups =
        core::pipeline::GroupByAnchorLabel(state_.node_vectors);
    result.stats.num_groups = static_cast<int64_t>(groups.size());

    // Index the cached groups by label, then decide per group: members
    // unchanged -> reuse output + replay delta; changed (or new label)
    // -> re-mine under capture. A changed member list means the group's
    // priors changed, so nothing downstream of it is reusable.
    std::map<Label, GroupCacheEntry*> cached;
    for (GroupCacheEntry& entry : state_.groups) {
      cached[entry.label] = &entry;
    }
    new_groups.resize(groups.size());
    std::vector<size_t> to_mine;
    for (size_t g = 0; g < groups.size(); ++g) {
      auto it = cached.find(groups[g].first);
      if (it != cached.end() && it->second->members == groups[g].second) {
        new_groups[g] = std::move(*it->second);
        obs::ReplayWorkDelta(new_groups[g].delta);
        ++acct.groups_reused;
      } else {
        to_mine.push_back(g);
      }
    }
    util::ParallelFor(config_.num_threads, to_mine.size(), [&](size_t i) {
      const size_t g = to_mine[i];
      obs::WorkCapture capture;
      GroupMineOutput out = core::pipeline::MineLabelGroup(
          config_, state_.node_vectors, groups[g].second);
      GroupCacheEntry& entry = new_groups[g];
      entry.delta = capture.Take();
      entry.label = groups[g].first;
      entry.members = groups[g].second;
      entry.vectors = std::move(out.vectors);
      entry.psis = std::move(out.psis);
      entry.fsm.assign(entry.vectors.size(), GroupFsmEntry{});
    });
    acct.groups_mined = static_cast<int64_t>(to_mine.size());

    for (size_t g = 0; g < new_groups.size(); ++g) {
      for (size_t c = 0; c < new_groups[g].vectors.size(); ++c) {
        significant.emplace_back(new_groups[g].label,
                                 new_groups[g].vectors[c]);
        origin.emplace_back(g, c);
      }
    }

    if (config_.tarone_alpha > 0.0) {
      std::vector<double> psis;
      for (const GroupCacheEntry& entry : new_groups) {
        psis.insert(psis.end(), entry.psis.begin(), entry.psis.end());
      }
      const TaroneResult tarone =
          TaroneThreshold::Compute(std::move(psis), config_.tarone_alpha);
      size_t kept = 0;
      for (size_t i = 0; i < significant.size(); ++i) {
        if (significant[i].second.p_value <= tarone.delta_star) {
          significant[kept] = std::move(significant[i]);
          origin[kept] = origin[i];
          ++kept;
        }
      }
      result.stats.tarone_filtered_vectors =
          static_cast<int64_t>(significant.size() - kept);
      significant.resize(kept);
      origin.resize(kept);
      result.stats.tarone_delta_star = tarone.delta_star;
      result.stats.tarone_family_size =
          static_cast<int64_t>(tarone.family_size);
    }

    result.stats.num_significant_vectors =
        static_cast<int64_t>(significant.size());
    feature_span.AddWork(significant.size());
  }
  result.profile.feature_seconds = timer.ElapsedSeconds();

  // --- graph-space phase ----------------------------------------------
  util::WallTimer fsm_timer;
  {
    GS_TRACE_SPAN_NAMED(fsm_span, "mine/fsm");
    core::pipeline::RegionPlan plan = core::pipeline::PlanRegionTasks(
        config_, significant, state_.node_vectors);
    result.stats.num_region_requests = plan.num_region_requests;
    result.stats.num_unique_regions = plan.num_unique_regions;

    // Cuts: serve from the generation-keyed cache, compute the misses
    // (cuts bump no work counters, so skipping recomputes is
    // counter-transparent by construction). Every planned cut, hit or
    // miss, is then flattened once, outside any capture, exactly as a
    // cold mine flattens it: cached FSM deltas carry no CSR builds.
    std::vector<graph::CsrGraph> region_csrs(plan.cut_owner.size());
    std::vector<graph::Graph> fresh_cuts(plan.cut_owner.size());
    std::vector<const graph::Graph*> cached_cuts(plan.cut_owner.size());
    std::vector<RegionCutCache::Key> keys(plan.cut_owner.size());
    std::vector<size_t> missing;
    for (size_t i = 0; i < plan.cut_owner.size(); ++i) {
      const NodeVector& nv = state_.node_vectors[plan.cut_owner[i]];
      keys[i] = RegionCutCache::Key{
          state_.graph_generations[nv.graph_index], nv.graph_index,
          nv.node};
      cached_cuts[i] = cut_cache_.Lookup(keys[i]);
      if (cached_cuts[i] != nullptr) {
        ++acct.cuts_reused;
      } else {
        missing.push_back(i);
      }
    }
    util::ParallelFor(
        config_.num_threads, plan.cut_owner.size(), [&](size_t i) {
          if (cached_cuts[i] != nullptr) {
            region_csrs[i] = graph::CsrGraph(*cached_cuts[i]);
            return;
          }
          const NodeVector& nv = state_.node_vectors[plan.cut_owner[i]];
          fresh_cuts[i] = core::pipeline::CutRegion(
              db.graph(nv.graph_index), nv.graph_index, nv.node,
              config_.cutoff_radius);
          region_csrs[i] = graph::CsrGraph(fresh_cuts[i]);
        });
    for (size_t i : missing) {
      cut_cache_.Insert(keys[i], std::move(fresh_cuts[i]));
    }
    acct.cuts_computed = static_cast<int64_t>(missing.size());

    // Region mining: a cached (group, candidate) entry is replayed; the
    // rest mine fresh under capture and land in the cache. A reused
    // group can still have absent entries — delta* may admit candidates
    // this mine that it filtered before.
    std::vector<core::pipeline::RegionTaskOutput> outputs(
        plan.tasks.size());
    std::vector<size_t> to_run;
    for (size_t t = 0; t < plan.tasks.size(); ++t) {
      const auto [g, c] = origin[plan.tasks[t].sv_index];
      GroupFsmEntry& entry = new_groups[g].fsm[c];
      if (entry.present) {
        outputs[t].dedup = entry.dedup;
        outputs[t].filtered = entry.filtered;
        obs::ReplayWorkDelta(entry.delta);
        ++acct.fsm_tasks_replayed;
      } else {
        to_run.push_back(t);
      }
    }
    util::ParallelFor(config_.num_threads, to_run.size(), [&](size_t i) {
      const size_t t = to_run[i];
      const core::pipeline::RegionTask& task = plan.tasks[t];
      const std::vector<const graph::CsrGraph*> regions =
          core::pipeline::TaskRegions(plan, task, state_.node_vectors,
                                      region_csrs);
      obs::WorkCapture capture;
      outputs[t] = core::pipeline::MineRegionTask(
          config_, task.label, significant[task.sv_index].second, regions);
      const auto [g, c] = origin[task.sv_index];
      GroupFsmEntry& entry = new_groups[g].fsm[c];
      entry.delta = capture.Take();
      entry.present = true;
      entry.filtered = outputs[t].filtered;
      entry.dedup = outputs[t].dedup;
    });
    acct.fsm_tasks_mined = static_cast<int64_t>(to_run.size());

    std::map<std::string, core::SignificantSubgraph> dedup;
    for (size_t t = 0; t < outputs.size(); ++t) {
      core::pipeline::MergeRegionOutput(std::move(outputs[t]), &dedup,
                                        &result.stats);
    }
    result.subgraphs.reserve(dedup.size());
    for (auto& [key, subgraph] : dedup) {
      result.subgraphs.push_back(std::move(subgraph));
    }
    core::pipeline::ComputeDbFrequencies(config_, db, &result.subgraphs);
    core::pipeline::SortBySignificance(&result.subgraphs);
    fsm_span.AddWork(static_cast<uint64_t>(result.stats.num_sets_mined));
  }
  result.profile.fsm_seconds = fsm_timer.ElapsedSeconds();
  result.profile.total_seconds = total_timer.ElapsedSeconds();

  state_.groups = std::move(new_groups);
  state_.generation = generation;

  // Ingest-side accounting: stream/* counters are the documented
  // exception to cold-mine counter equivalence (they only exist on the
  // incremental path). Bumped here, outside any capture frame, so they
  // can never leak into a cached delta.
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const graphs_featurized =
      registry.GetCounter("stream/inc_graphs_featurized");
  static obs::Counter* const graphs_reused =
      registry.GetCounter("stream/inc_graphs_reused");
  static obs::Counter* const groups_mined =
      registry.GetCounter("stream/inc_groups_mined");
  static obs::Counter* const groups_reused =
      registry.GetCounter("stream/inc_groups_reused");
  static obs::Counter* const fsm_mined =
      registry.GetCounter("stream/inc_fsm_mined");
  static obs::Counter* const fsm_replayed =
      registry.GetCounter("stream/inc_fsm_replayed");
  static obs::Counter* const cuts_computed =
      registry.GetCounter("stream/inc_cuts_computed");
  static obs::Counter* const cuts_reused =
      registry.GetCounter("stream/inc_cuts_reused");
  graphs_featurized->Add(static_cast<uint64_t>(acct.graphs_featurized));
  graphs_reused->Add(static_cast<uint64_t>(acct.graphs_reused));
  groups_mined->Add(static_cast<uint64_t>(acct.groups_mined));
  groups_reused->Add(static_cast<uint64_t>(acct.groups_reused));
  fsm_mined->Add(static_cast<uint64_t>(acct.fsm_tasks_mined));
  fsm_replayed->Add(static_cast<uint64_t>(acct.fsm_tasks_replayed));
  cuts_computed->Add(static_cast<uint64_t>(acct.cuts_computed));
  cuts_reused->Add(static_cast<uint64_t>(acct.cuts_reused));
  return result;
}

}  // namespace graphsig::stream
