// mine_screen: a full GraphSig::Mine of the UACC-257 screen at 1 and 4
// threads (the batch user's job). The traced run recomposes the same
// mine from the core::pipeline functions with a span around each layer
// call, and checks that the composition's output is byte-identical to
// GraphSig::Mine, so the trace measures the same program.

#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/graphsig.h"
#include "core/mine_pipeline.h"
#include "features/feature_space.h"
#include "features/rwr.h"
#include "model/artifact.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using graphsig::core::GraphSigConfig;
using graphsig::core::GraphSigResult;
using graphsig::graph::GraphDatabase;
namespace pipeline = graphsig::core::pipeline;

GraphSigConfig MineConfig(const Options& options, int threads) {
  GraphSigConfig config;
  config.cutoff_radius = options.tiny ? 3 : 4;
  config.num_threads = threads;
  return config;
}


// Layer timings of one traced mine.
struct TracedMine {
  GraphSigResult result;
  double wall_s = 0.0;
  std::map<std::string, double> layer_s;  // span name -> duration
  double uncovered_s = 0.0;
  std::vector<double> task_ms;
  double task_busy_s = 0.0;
  int64_t kept_patterns = 0;
  int64_t sets_mined = 0;
  int64_t sets_filtered = 0;
};

// GraphSig::Mine (tarone off) recomposed from core/mine_pipeline.h, one
// span per layer call. Must stay in step with core/graphsig.cc; the
// byte-identity check catches any drift.
TracedMine MineTraced(const GraphSigConfig& config, const GraphDatabase& db,
                      SpanRecorder* spans, int64_t request_id) {
  namespace features = graphsig::features;
  TracedMine out;
  const double start = NowSeconds();
  const int64_t root = spans->Begin("mine", -1, request_id);
  auto layer = [&](const char* name, auto&& body) {
    const int64_t id = spans->Begin(name, root, request_id);
    body(id);
    spans->End(id);
    out.layer_s[name] = spans->DurationSeconds(id);
  };

  std::vector<features::NodeVector> node_vectors;
  layer("features.vectorize", [&](int64_t) {
    out.result.feature_space = features::FeatureSpace::ForChemicalDatabase(
        db, config.top_k_atoms);
    node_vectors = features::DatabaseToVectors(
        db, out.result.feature_space, config.rwr, config.num_threads);
  });

  std::vector<std::pair<graphsig::graph::Label,
                        graphsig::fvmine::SignificantVector>>
      significant;
  layer("fvmine.groups", [&](int64_t) {
    const auto groups = pipeline::GroupByAnchorLabel(node_vectors);
    std::vector<pipeline::GroupMineOutput> per_group(groups.size());
    graphsig::util::ParallelFor(
        config.num_threads, groups.size(), [&](size_t g) {
          per_group[g] = pipeline::MineLabelGroup(config, node_vectors,
                                                  groups[g].second);
        });
    for (size_t g = 0; g < per_group.size(); ++g) {
      for (auto& sv : per_group[g].vectors) {
        significant.emplace_back(groups[g].first, std::move(sv));
      }
    }
  });

  pipeline::RegionPlan plan;
  layer("core.plan", [&](int64_t) {
    plan = pipeline::PlanRegionTasks(config, significant, node_vectors);
  });

  std::vector<graphsig::graph::Graph> cuts(plan.cut_owner.size());
  layer("core.cut", [&](int64_t) {
    graphsig::util::ParallelFor(
        config.num_threads, plan.cut_owner.size(), [&](size_t i) {
          const features::NodeVector& nv = node_vectors[plan.cut_owner[i]];
          cuts[i] = pipeline::CutRegion(db.graph(nv.graph_index),
                                        nv.graph_index, nv.node,
                                        config.cutoff_radius);
        });
  });

  std::vector<pipeline::RegionTaskOutput> outputs(plan.tasks.size());
  std::vector<int64_t> task_spans(plan.tasks.size(), -1);
  layer("fsm.region_tasks", [&](int64_t phase) {
    graphsig::util::ParallelFor(
        config.num_threads, plan.tasks.size(), [&](size_t t) {
          task_spans[t] = spans->Begin("fsm.task", phase, request_id);
          const pipeline::RegionTask& task = plan.tasks[t];
          GraphDatabase regions;
          regions.Reserve(task.chosen.size());
          for (int32_t vector_index : task.chosen) {
            const features::NodeVector& nv = node_vectors[vector_index];
            regions.Add(cuts[plan.cut_slot.at(
                pipeline::RegionCutKey(nv.graph_index, nv.node))]);
          }
          outputs[t] = pipeline::MineRegionTask(
              config, task.label, significant[task.sv_index].second,
              regions);
          spans->End(task_spans[t]);
        });
  });
  for (int64_t id : task_spans) {
    const double s = spans->DurationSeconds(id);
    out.task_ms.push_back(s * 1e3);
    out.task_busy_s += s;
  }
  for (const auto& o : outputs) {
    out.kept_patterns += static_cast<int64_t>(o.dedup.size());
  }

  layer("core.merge", [&](int64_t) {
    std::map<std::string, graphsig::core::SignificantSubgraph> dedup;
    for (auto& o : outputs) {
      pipeline::MergeRegionOutput(std::move(o), &dedup, &out.result.stats);
    }
    out.result.subgraphs.reserve(dedup.size());
    for (auto& [key, subgraph] : dedup) {
      out.result.subgraphs.push_back(std::move(subgraph));
    }
  });
  out.sets_mined = out.result.stats.num_sets_mined;
  out.sets_filtered = out.result.stats.num_sets_filtered;

  layer("core.db_frequency", [&](int64_t) {
    pipeline::ComputeDbFrequencies(config, db, &out.result.subgraphs);
    pipeline::SortBySignificance(&out.result.subgraphs);
  });

  spans->End(root);
  out.wall_s = NowSeconds() - start;
  out.uncovered_s = spans->SelfSeconds(root);
  return out;
}

void RunUntraced(const Options& options, const GraphDatabase& base,
                 Outcome* outcome) {
  std::vector<double> t1_ms, t4_ms;
  graphsig::util::Rng rng(options.seed);
  const double start = NowSeconds();
  double pair_s = 0.0;
  // Pairs of (1-thread, 4-thread) mines over a fresh permutation each,
  // until the next pair would overrun the measuring window.
  while (t1_ms.empty() || NowSeconds() - start + pair_s <= options.seconds) {
    const double pair_start = NowSeconds();
    const GraphDatabase db = Permuted(base, rng.NextU64());
    double t = NowSeconds();
    const GraphSigResult r1 =
        graphsig::core::GraphSig(MineConfig(options, 1)).Mine(db);
    t1_ms.push_back((NowSeconds() - t) * 1e3);
    t = NowSeconds();
    const GraphSigResult r4 =
        graphsig::core::GraphSig(MineConfig(options, 4)).Mine(db);
    t4_ms.push_back((NowSeconds() - t) * 1e3);
    outcome->attempted += 2;
    const std::string e1 = EncodeResult(db, r1);
    const std::string e4 =
        MaybePerturb(EncodeResult(db, r4), options, "mine_threads");
    if (e1 != e4) {
      ++outcome->failed;
      outcome->CheckFailed("mine_threads",
                           "1-thread and 4-thread results differ");
    }
    pair_s = NowSeconds() - pair_start;
  }
  outcome->Set("mine_s.t1", Median(t1_ms) / 1e3, "s");
  outcome->Set("mine_s.t4", Median(t4_ms) / 1e3, "s");
  outcome->Set("mine.samples", static_cast<double>(t1_ms.size()), "count");
  outcome->Set("primary_p50_ms", Median(t1_ms), "ms");
  outcome->Set("secondary_p50_ms", Median(t4_ms), "ms");
}

void RunTraced(const Options& options, const GraphDatabase& base,
               SpanRecorder* spans, Outcome* outcome) {
  // Per-repetition values; the reported figure is their median.
  std::map<std::string, std::vector<double>> reps;
  graphsig::util::Rng rng(options.seed);
  const double start = NowSeconds();
  double rep_s = 0.0;
  int64_t request_id = 0;
  while (reps.empty() || NowSeconds() - start + rep_s <= options.seconds) {
    const double rep_start = NowSeconds();
    const GraphDatabase db = Permuted(base, rng.NextU64());

    double t = NowSeconds();
    const GraphSigResult plain =
        graphsig::core::GraphSig(MineConfig(options, 1)).Mine(db);
    const double untraced_s = NowSeconds() - t;
    const std::string expected = EncodeResult(db, plain);

    const CounterDelta counters;
    const TracedMine t1 =
        MineTraced(MineConfig(options, 1), db, spans, request_id++);
    const auto count = [&](const char* name) {
      return static_cast<double>(counters.Get(name));
    };
    const double hits = count("mine/region_cache_hits");
    const double misses = count("mine/region_cache_misses");
    const double candidates = count("gspan/candidates");
    const double expansions = count("fvmine/expansions");
    auto& r = reps;
    r["features.vectorize_s"].push_back(t1.layer_s.at("features.vectorize"));
    r["rwr.power_iterations"].push_back(count("rwr/power_iterations"));
    r["fvmine.groups_s"].push_back(t1.layer_s.at("fvmine.groups"));
    r["fvmine.expansions"].push_back(expansions);
    r["fvmine.yield"].push_back(
        expansions > 0 ? count("fvmine/significant_vectors") / expansions
                       : 0.0);
    r["core.plan_s"].push_back(t1.layer_s.at("core.plan"));
    r["core.region_cache_hit_ratio"].push_back(
        hits + misses > 0 ? hits / (hits + misses) : 0.0);
    r["core.cut_s"].push_back(t1.layer_s.at("core.cut"));
    r["fsm.region_tasks_s"].push_back(t1.layer_s.at("fsm.region_tasks"));
    r["gspan.candidates"].push_back(candidates);
    r["graph.csr_builds"].push_back(count("graph/csr_builds"));
    r["fsm.pattern_yield"].push_back(
        candidates > 0 ? static_cast<double>(t1.kept_patterns) / candidates
                       : 0.0);
    r["fsm.filtered_set_ratio"].push_back(
        t1.sets_mined > 0 ? static_cast<double>(t1.sets_filtered) /
                                static_cast<double>(t1.sets_mined)
                          : 0.0);
    r["core.merge_s"].push_back(t1.layer_s.at("core.merge"));
    r["core.db_frequency_s"].push_back(t1.layer_s.at("core.db_frequency"));
    r["graph.vf2_feasibility_checks"].push_back(
        count("graph/vf2_feasibility_checks"));
    r["mine.uncovered_s"].push_back(t1.uncovered_s);
    r["mine.traced_s"].push_back(t1.wall_s);
    r["trace.overhead_frac"].push_back((t1.wall_s - untraced_s) /
                                       untraced_s);

    const TracedMine t4 =
        MineTraced(MineConfig(options, 4), db, spans, request_id++);
    r["fsm.region_tasks_s.t4"].push_back(t4.layer_s.at("fsm.region_tasks"));
    r["fsm.task_p99_ms"].push_back(Percentile(t4.task_ms, 99));
    r["fsm.task_max_ms"].push_back(Max(t4.task_ms));
    r["util.pool_busy_frac"].push_back(
        t4.task_busy_s / (4.0 * t4.layer_s.at("fsm.region_tasks")));

    outcome->attempted += 3;
    for (const auto* traced : {&t1, &t4}) {
      const std::string got = MaybePerturb(
          EncodeResult(db, traced->result), options, "mine_trace");
      if (got != expected) {
        ++outcome->failed;
        outcome->CheckFailed("mine_trace",
                             "pipeline composition differs from Mine");
      }
    }
    rep_s = NowSeconds() - rep_start;
  }
  for (const auto& [name, values] : reps) {
    outcome->Set(name, Median(values), PerLayerUnit(name));
  }
}

}  // namespace

Outcome RunMineScreen(const Options& options, SpanRecorder* spans) {
  Outcome outcome;
  const size_t size = options.tiny ? 60 : 418;
  // Set-up: generating the screen. Repeated so setup_s is a median.
  std::vector<double> setup_s;
  GraphDatabase base;
  for (int i = 0; i < 20; ++i) {
    const double t = NowSeconds();
    base = BaseScreen(size, 0.05);
    setup_s.push_back(NowSeconds() - t);
  }
  outcome.Set("setup_s", Median(setup_s), "s");
  if (spans == nullptr) {
    RunUntraced(options, base, &outcome);
  } else {
    RunTraced(options, base, spans, &outcome);
  }
  return outcome;
}

}  // namespace perfbench
