// Mining-pipeline reuse tests (DESIGN.md §14): region tasks that borrow
// the per-mine region CSRs must mine exactly what the GraphDatabase
// entry points mine, and the signature-pruned db-frequency scan must
// count exactly what unpruned VF2 counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/graphsig.h"
#include "core/mine_pipeline.h"
#include "data/datasets.h"
#include "features/feature_space.h"
#include "features/rwr.h"
#include "fsm/dfs_code.h"
#include "fsm/maximal.h"
#include "fsm/miner.h"
#include "graph/csr.h"
#include "graph/isomorphism.h"
#include "graph/signature.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace graphsig::core {
namespace {

using features::NodeVector;
using graph::CsrGraph;
using graph::Graph;
using graph::GraphDatabase;

GraphDatabase Screen(const std::string& name, uint64_t seed) {
  data::DatasetOptions options;
  options.size = 40;
  options.seed = seed;
  options.active_fraction = 0.3;
  return data::MakeCancerScreen(name, options);
}

GraphSigConfig SmallConfig(int num_threads) {
  GraphSigConfig config;
  config.cutoff_radius = 3;
  config.min_freq_percent = 5.0;
  config.fsm_max_edges = 8;
  config.num_threads = num_threads;
  return config;
}

const std::pair<const char*, uint64_t> kScreens[] = {
    {"MCF-7", 3}, {"UACC-257", 5}, {"MOLT-4", 7}};

// One screen's region plan, made the way GraphSig::Mine makes it, with
// each slot's cut as a Graph.
struct PlannedScreen {
  GraphDatabase db;
  std::vector<NodeVector> node_vectors;
  std::vector<std::pair<graph::Label, fvmine::SignificantVector>>
      significant;
  pipeline::RegionPlan plan;
  std::vector<Graph> cuts;  // by slot
};

PlannedScreen PlanScreen(GraphDatabase db, const GraphSigConfig& config) {
  PlannedScreen out;
  out.db = std::move(db);
  const features::FeatureSpace space =
      features::FeatureSpace::ForChemicalDatabase(out.db,
                                                  config.top_k_atoms);
  out.node_vectors = features::DatabaseToVectors(out.db, space, config.rwr);
  for (const auto& [label, members] :
       pipeline::GroupByAnchorLabel(out.node_vectors)) {
    for (fvmine::SignificantVector& sv :
         pipeline::MineLabelGroup(config, out.node_vectors, members)
             .vectors) {
      out.significant.emplace_back(label, std::move(sv));
    }
  }
  out.plan =
      pipeline::PlanRegionTasks(config, out.significant, out.node_vectors);
  for (int32_t owner : out.plan.cut_owner) {
    const NodeVector& nv = out.node_vectors[owner];
    out.cuts.push_back(pipeline::CutRegion(out.db.graph(nv.graph_index),
                                           nv.graph_index, nv.node,
                                           config.cutoff_radius));
  }
  return out;
}

std::map<std::string, uint64_t> GSpanCounters() {
  std::map<std::string, uint64_t> values;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().WorkValues()) {
    if (name.rfind("gspan/", 0) == 0) values.emplace(name, value);
  }
  return values;
}

std::map<std::string, uint64_t> Delta(
    const std::map<std::string, uint64_t>& start,
    const std::map<std::string, uint64_t>& end) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : end) {
    auto it = start.find(name);
    delta[name] = value - (it == start.end() ? 0 : it->second);
  }
  return delta;
}

// Every pattern in emission order with its support and supporting gids.
std::string Describe(const fsm::MineResult& result) {
  std::string out;
  for (const fsm::Pattern& p : result.patterns) {
    out += p.graph.ToString() + " support " + std::to_string(p.support) +
           " in";
    for (int32_t gid : p.supporting) out += " " + std::to_string(gid);
    out += "\n";
  }
  return out + (result.completed ? "completed" : "capped");
}

std::string Describe(const pipeline::RegionTaskOutput& output) {
  std::string out = output.filtered ? "filtered\n" : "";
  for (const auto& [key, c] : output.dedup) {
    out += key + " | " + c.subgraph.ToString() + " p=" +
           std::to_string(c.vector_pvalue) + " vs=" +
           std::to_string(c.vector_support) + " a=" +
           std::to_string(c.anchor_label) + " set=" +
           std::to_string(c.set_size) + "/" + std::to_string(c.set_support) +
           " vec";
    for (int16_t v : c.vector) out += " " + std::to_string(v);
    out += "\n";
  }
  return out;
}

// Entry by entry: labels, offsets, neighbor order and edge indices.
void ExpectSameCsr(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.vertex_labels(), b.vertex_labels());
  for (graph::VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.neighbors(v).data() - a.neighbors(0).data(),
              b.neighbors(v).data() - b.neighbors(0).data())
        << "offset of vertex " << v;
    ASSERT_EQ(a.degree(v), b.degree(v));
    for (int32_t k = 0; k < a.degree(v); ++k) {
      const graph::AdjEntry& x = a.neighbors(v)[k];
      const graph::AdjEntry& y = b.neighbors(v)[k];
      EXPECT_EQ(x.to, y.to);
      EXPECT_EQ(x.label, y.label);
      EXPECT_EQ(x.edge_index, y.edge_index);
    }
  }
}

// Region tasks borrow one CSR per distinct cut, flattened at cut time;
// the GraphDatabase entry points flatten each region per task. Both must
// produce the same CSRs, patterns, supports, supporting gids, emission
// order and gspan/* work.
TEST(RegionCsrTest, BorrowedCsrsMatchGraphDatabasePath) {
  const GraphSigConfig config = SmallConfig(1);
  size_t tasks_checked = 0;
  for (const auto& [name, seed] : kScreens) {
    SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
    const PlannedScreen screen = PlanScreen(Screen(name, seed), config);
    ASSERT_FALSE(screen.plan.tasks.empty());
    const std::vector<CsrGraph> region_csrs(screen.cuts.begin(),
                                            screen.cuts.end());
    for (const pipeline::RegionTask& task : screen.plan.tasks) {
      GraphDatabase regions;
      for (int32_t vector_index : task.chosen) {
        const NodeVector& nv = screen.node_vectors[vector_index];
        regions.Add(screen.cuts[screen.plan.cut_slot.at(
            pipeline::RegionCutKey(nv.graph_index, nv.node))]);
      }
      const std::vector<const CsrGraph*> borrowed =
          pipeline::TaskRegions(task, region_csrs);
      ASSERT_EQ(borrowed.size(), regions.size());
      for (size_t k = 0; k < regions.size(); ++k) {
        ExpectSameCsr(CsrGraph(regions.graph(k)), *borrowed[k]);
      }

      fsm::MinerConfig miner_config;
      miner_config.min_support = std::max<int64_t>(
          2, fsm::SupportFromPercent(config.fsg_freq_percent,
                                     regions.size()));
      miner_config.max_edges = config.fsm_max_edges;
      // Emission order of the frequent set, before the maximal filter's
      // sort.
      EXPECT_EQ(Describe(fsm::MineFrequentGSpan(borrowed, miner_config)),
                Describe(fsm::MineFrequentGSpan(regions, miner_config)));
      auto start = GSpanCounters();
      const fsm::MineResult from_db =
          fsm::MineMaximalGSpan(regions, miner_config);
      const auto db_delta = Delta(start, GSpanCounters());
      start = GSpanCounters();
      const fsm::MineResult from_csrs =
          fsm::MineMaximalGSpan(borrowed, miner_config);
      EXPECT_EQ(Delta(start, GSpanCounters()), db_delta);
      EXPECT_EQ(Describe(from_csrs), Describe(from_db));
      EXPECT_EQ(from_csrs.states_expanded, from_db.states_expanded);

      const fvmine::SignificantVector& sv =
          screen.significant[task.sv_index].second;
      start = GSpanCounters();
      const pipeline::RegionTaskOutput task_db =
          pipeline::MineRegionTask(config, task.label, sv, regions);
      const auto task_db_delta = Delta(start, GSpanCounters());
      start = GSpanCounters();
      const pipeline::RegionTaskOutput task_csrs =
          pipeline::MineRegionTask(config, task.label, sv, borrowed);
      EXPECT_EQ(Delta(start, GSpanCounters()), task_db_delta);
      EXPECT_EQ(Describe(task_csrs), Describe(task_db));
      ++tasks_checked;
    }
  }
  EXPECT_GE(tasks_checked, 30u);
}

// Region tasks key their dedup maps with gSpan's own minimal codes
// (fsm::Pattern::code) instead of recomputing fsm::CanonicalCode. On
// every radius-4 region task of the 418-molecule UACC-257 screen (seed
// 1), each maximal pattern's code must be its CanonicalCode.
TEST(GSpanRegionTest, CodesAreCanonicalOnUacc257Tasks) {
  GraphSigConfig config;
  config.cutoff_radius = 4;
  config.num_threads = 1;
  data::DatasetOptions options;
  options.size = 418;
  options.seed = 1;
  const PlannedScreen screen =
      PlanScreen(data::MakeCancerScreen("UACC-257", options), config);
  const std::vector<CsrGraph> region_csrs(screen.cuts.begin(),
                                          screen.cuts.end());
  size_t patterns_checked = 0;
  for (const pipeline::RegionTask& task : screen.plan.tasks) {
    const std::vector<const CsrGraph*> regions =
        pipeline::TaskRegions(task, region_csrs);
    fsm::MinerConfig miner_config;
    miner_config.min_support = std::max<int64_t>(
        2, fsm::SupportFromPercent(config.fsg_freq_percent, regions.size()));
    miner_config.max_edges = config.fsm_max_edges;
    miner_config.max_patterns = config.fsm_max_patterns;
    for (const fsm::Pattern& p :
         fsm::MineMaximalGSpan(regions, miner_config).patterns) {
      ASSERT_EQ(p.code, fsm::CanonicalCode(p.graph));
      ++patterns_checked;
    }
  }
  EXPECT_GE(screen.plan.tasks.size(), 1000u);
  EXPECT_GE(patterns_checked, 10000u);
}

// Counts containment the slow way: VF2 on every (pattern, graph) pair.
int64_t UnprunedFrequency(const Graph& pattern, const GraphDatabase& db) {
  int64_t frequency = 0;
  for (const Graph& g : db.graphs()) {
    if (graph::IsSubgraphIsomorphic(pattern, g)) ++frequency;
  }
  return frequency;
}

TEST(DbFrequencyTest, SignaturePruningMatchesUnprunedVf2) {
  for (const auto& [name, seed] : kScreens) {
    const GraphDatabase db = Screen(name, seed);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed) +
                   " threads " + std::to_string(threads));
      const GraphSigResult result = GraphSig(SmallConfig(threads)).Mine(db);
      ASSERT_FALSE(result.subgraphs.empty());
      for (const SignificantSubgraph& sg : result.subgraphs) {
        EXPECT_EQ(sg.db_frequency, UnprunedFrequency(sg.subgraph, db))
            << sg.subgraph.ToString();
      }
    }
  }
}

Graph RandomGraph(util::Rng* rng, int n, int extra_edges, int vlabels,
                  int elabels) {
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(static_cast<graph::Label>(rng->NextBounded(vlabels)));
  }
  for (int i = 1; i < n; ++i) {
    g.AddEdge(static_cast<graph::VertexId>(rng->NextBounded(i)), i,
              static_cast<graph::Label>(rng->NextBounded(elabels)));
  }
  for (int k = 0; k < extra_edges; ++k) {
    const auto u = static_cast<graph::VertexId>(rng->NextBounded(n));
    const auto v = static_cast<graph::VertexId>(rng->NextBounded(n));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v, static_cast<graph::Label>(rng->NextBounded(elabels)));
  }
  return g;
}

// Soundness of the pruning: whatever VF2 finds contained, the signature
// must not rule out. Patterns are cut from the target (contained), cut
// from a sibling graph (often not), or drawn independently.
TEST(DbFrequencyTest, ContainedPairsAreSignatureDominated) {
  util::Rng rng(20240611);
  int contained = 0;
  int pruned = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Graph target = RandomGraph(&rng, 6 + rng.NextBounded(10),
                                     rng.NextBounded(6), 3, 2);
    Graph pattern;
    switch (trial % 3) {
      case 0:
      case 1: {
        const Graph& host = trial % 3 == 0
                                ? target
                                : RandomGraph(&rng, 10, 3, 3, 2);
        const auto center =
            static_cast<graph::VertexId>(rng.NextBounded(host.num_vertices()));
        pattern = host.InducedSubgraph(host.VerticesWithinRadius(
            center, 1 + static_cast<int>(rng.NextBounded(3))));
        break;
      }
      default:
        pattern = RandomGraph(&rng, 2 + rng.NextBounded(5),
                              rng.NextBounded(2), 3, 2);
    }
    const bool dominated =
        graph::SignatureDominated(graph::BuildContainmentSignature(pattern),
                                  graph::BuildContainmentSignature(target));
    if (graph::IsSubgraphIsomorphic(pattern, target)) {
      ++contained;
      EXPECT_TRUE(dominated) << "pattern " << pattern.ToString()
                             << "\ntarget " << target.ToString();
    } else if (!dominated) {
      ++pruned;
    }
  }
  // Both outcomes must actually occur for the property to mean much.
  EXPECT_GE(contained, 150);
  EXPECT_GE(pruned, 50);
}

}  // namespace
}  // namespace graphsig::core
