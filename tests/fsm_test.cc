#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fsm/dfs_code.h"
#include "fsm/maximal.h"
#include "fsm/miner.h"
#include "graph/isomorphism.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace graphsig::fsm {
namespace {

using graph::Graph;
using graph::GraphDatabase;
using graph::Label;
using graph::VertexId;

Graph Path(std::vector<Label> vlabels, std::vector<Label> elabels) {
  Graph g;
  for (Label l : vlabels) g.AddVertex(l);
  for (size_t i = 0; i < elabels.size(); ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
              elabels[i]);
  }
  return g;
}

// Brute-force frequent connected subgraph mining by edge-subset
// enumeration; ground truth for the miners on tiny inputs.
std::map<std::string, int64_t> BruteForceFrequent(const GraphDatabase& db,
                                                  int64_t min_support,
                                                  int max_edges) {
  std::map<std::string, int64_t> support;
  for (size_t gid = 0; gid < db.size(); ++gid) {
    const Graph& g = db.graph(gid);
    std::set<std::string> seen_in_graph;
    const int m = g.num_edges();
    for (uint32_t mask = 1; mask < (1u << m); ++mask) {
      if (__builtin_popcount(mask) > max_edges) continue;
      // Build edge-induced subgraph.
      std::vector<VertexId> map(g.num_vertices(), -1);
      Graph sub;
      for (int e = 0; e < m; ++e) {
        if (!(mask & (1u << e))) continue;
        const graph::EdgeRecord& rec = g.edge(e);
        for (VertexId v : {rec.u, rec.v}) {
          if (map[v] < 0) {
            map[v] = sub.AddVertex(g.vertex_label(v));
          }
        }
        sub.AddEdge(map[rec.u], map[rec.v], rec.label);
      }
      if (!sub.IsConnected()) continue;
      seen_in_graph.insert(CanonicalCode(sub));
    }
    for (const std::string& key : seen_in_graph) ++support[key];
  }
  std::map<std::string, int64_t> frequent;
  for (const auto& [key, sup] : support) {
    if (sup >= min_support) frequent[key] = sup;
  }
  return frequent;
}

std::map<std::string, int64_t> ToCanonicalMap(const MineResult& result) {
  std::map<std::string, int64_t> out;
  for (const Pattern& p : result.patterns) {
    std::string key = CanonicalCode(p.graph);
    auto [it, inserted] = out.emplace(key, p.support);
    EXPECT_TRUE(inserted) << "duplicate pattern reported: " << key;
  }
  return out;
}

GraphDatabase RandomDatabase(uint64_t seed, int num_graphs, int n, int extra,
                             int vl, int el) {
  util::Rng rng(seed);
  GraphDatabase db;
  for (int i = 0; i < num_graphs; ++i) {
    Graph g(i);
    for (int v = 0; v < n; ++v) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(vl)));
    }
    for (int v = 1; v < n; ++v) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(v)), v,
                static_cast<Label>(rng.NextBounded(el)));
    }
    for (int k = 0; k < extra; ++k) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u != v && !g.HasEdge(u, v)) {
        g.AddEdge(u, v, static_cast<Label>(rng.NextBounded(el)));
      }
    }
    db.Add(std::move(g));
  }
  return db;
}

TEST(SupportFromPercentTest, CeilsAndClamps) {
  EXPECT_EQ(SupportFromPercent(10.0, 100), 10);
  EXPECT_EQ(SupportFromPercent(0.1, 100), 1);
  EXPECT_EQ(SupportFromPercent(0.0, 100), 1);
  EXPECT_EQ(SupportFromPercent(1.0, 150), 2);  // ceil(1.5)
  EXPECT_EQ(SupportFromPercent(80.0, 5), 4);
}

TEST(GSpanTest, MinesSharedPathPattern) {
  GraphDatabase db;
  db.Add(Path({0, 1, 2}, {0, 0}));
  db.Add(Path({0, 1, 2}, {0, 0}));
  db.Add(Path({0, 1, 3}, {0, 0}));
  MinerConfig config;
  config.min_support = 3;
  MineResult result = MineFrequentGSpan(db, config);
  auto patterns = ToCanonicalMap(result);
  Graph edge01 = Path({0, 1}, {0});
  Graph path012 = Path({0, 1, 2}, {0, 0});
  // Edge 0-1 occurs in all three graphs; path 0-1-2 in only two, so it is
  // below the threshold of 3.
  EXPECT_TRUE(patterns.count(CanonicalCode(edge01)));
  EXPECT_EQ(patterns[CanonicalCode(edge01)], 3);
  EXPECT_FALSE(patterns.count(CanonicalCode(path012)));

  config.min_support = 2;
  auto relaxed = ToCanonicalMap(MineFrequentGSpan(db, config));
  ASSERT_TRUE(relaxed.count(CanonicalCode(path012)));
  EXPECT_EQ(relaxed[CanonicalCode(path012)], 2);
}

TEST(GSpanTest, SupportingListsAreCorrect) {
  GraphDatabase db;
  db.Add(Path({0, 1}, {0}));
  db.Add(Path({2, 3}, {0}));
  db.Add(Path({0, 1}, {0}));
  MinerConfig config;
  config.min_support = 2;
  MineResult result = MineFrequentGSpan(db, config);
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(result.patterns[0].supporting, (std::vector<int32_t>{0, 2}));
}

TEST(GSpanTest, SingleVertexPatternsOptIn) {
  GraphDatabase db;
  db.Add(Path({0, 1}, {0}));
  db.Add(Path({0, 2}, {0}));
  MinerConfig config;
  config.min_support = 2;
  config.min_edges = 0;
  config.include_single_vertices = true;
  MineResult result = MineFrequentGSpan(db, config);
  auto patterns = ToCanonicalMap(result);
  Graph v0;
  v0.AddVertex(0);
  EXPECT_TRUE(patterns.count(CanonicalCode(v0)));
  EXPECT_EQ(patterns[CanonicalCode(v0)], 2);
}

TEST(GSpanTest, MaxPatternsCapSetsIncomplete) {
  GraphDatabase db = RandomDatabase(99, 8, 6, 3, 2, 2);
  MinerConfig config;
  config.min_support = 2;
  config.max_patterns = 3;
  MineResult result = MineFrequentGSpan(db, config);
  EXPECT_EQ(result.patterns.size(), 3u);
  EXPECT_FALSE(result.completed);
}

TEST(GSpanTest, MaxEdgesBoundsPatternSize) {
  GraphDatabase db;
  db.Add(Path({0, 0, 0, 0, 0}, {0, 0, 0, 0}));
  db.Add(Path({0, 0, 0, 0, 0}, {0, 0, 0, 0}));
  MinerConfig config;
  config.min_support = 2;
  config.max_edges = 2;
  MineResult result = MineFrequentGSpan(db, config);
  for (const Pattern& p : result.patterns) {
    EXPECT_LE(p.graph.num_edges(), 2);
  }
  EXPECT_TRUE(result.completed);
}

TEST(AprioriTest, AgreesOnSharedPath) {
  GraphDatabase db;
  db.Add(Path({0, 1, 2}, {0, 0}));
  db.Add(Path({0, 1, 2}, {0, 0}));
  MinerConfig config;
  config.min_support = 2;
  MineResult gspan = MineFrequentGSpan(db, config);
  MineResult apriori = MineFrequentApriori(db, config);
  EXPECT_EQ(ToCanonicalMap(gspan), ToCanonicalMap(apriori));
}

TEST(MaximalTest, FiltersContainedPatterns) {
  GraphDatabase db;
  db.Add(Path({0, 1, 2}, {0, 0}));
  db.Add(Path({0, 1, 2}, {0, 0}));
  MinerConfig config;
  config.min_support = 2;
  MineResult result = MineMaximalGSpan(db, config);
  // Only the full path 0-1-2 is maximal.
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(result.patterns[0].graph.num_edges(), 2);
  EXPECT_EQ(result.patterns[0].support, 2);
}

TEST(MaximalTest, IncomparablePatternsBothKept) {
  std::vector<Pattern> patterns;
  Pattern a;
  a.graph = Path({0, 1}, {0});
  a.support = 5;
  Pattern b;
  b.graph = Path({2, 3}, {0});
  b.support = 4;
  patterns.push_back(a);
  patterns.push_back(b);
  auto maximal = FilterMaximal(patterns);
  EXPECT_EQ(maximal.size(), 2u);
}

// Cross-validation property: gSpan == apriori == brute force on random
// small databases, over several seeds and support levels.
struct MinerCase {
  uint64_t seed;
  int64_t min_support;
};

class MinerAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MinerAgreementTest, AllThreeMinersAgree) {
  const int seed = std::get<0>(GetParam());
  const int64_t min_support = std::get<1>(GetParam());
  GraphDatabase db = RandomDatabase(5000 + seed, 8, 6, 2, 2, 2);
  MinerConfig config;
  config.min_support = min_support;
  config.max_edges = 4;
  auto truth = BruteForceFrequent(db, min_support, 4);
  auto gspan = ToCanonicalMap(MineFrequentGSpan(db, config));
  auto apriori = ToCanonicalMap(MineFrequentApriori(db, config));
  EXPECT_EQ(gspan, truth);
  EXPECT_EQ(apriori, truth);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinerAgreementTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(2, 3, 5)));

// Every mined pattern must actually occur in every supporting graph.
TEST(GSpanTest, PatternsEmbedInSupportingGraphs) {
  GraphDatabase db = RandomDatabase(777, 6, 7, 3, 3, 2);
  MinerConfig config;
  config.min_support = 2;
  config.max_edges = 5;
  MineResult result = MineFrequentGSpan(db, config);
  for (const Pattern& p : result.patterns) {
    for (int32_t gid : p.supporting) {
      EXPECT_TRUE(graph::IsSubgraphIsomorphic(p.graph, db.graph(gid)));
    }
  }
}

// Maximal oracle: the brute-force frequent set minus every pattern
// contained in a strictly larger frequent pattern, compared with
// MineMaximalGSpan by canonical code and support.
class MaximalOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MaximalOracleTest, MatchesBruteForceMaximalSet) {
  const int seed = std::get<0>(GetParam());
  const int64_t min_support = std::get<1>(GetParam());
  GraphDatabase db = RandomDatabase(6000 + seed, 8, 6, 2, 2, 2);
  const int kMaxEdges = 4;
  std::map<std::string, int64_t> frequent =
      BruteForceFrequent(db, min_support, kMaxEdges);
  // Recover one graph per frequent class from gSpan's complete output
  // (its agreement with brute force is MinerAgreementTest's job).
  MinerConfig config;
  config.min_support = min_support;
  config.max_edges = kMaxEdges;
  std::map<std::string, Graph> graphs;
  for (const Pattern& p : MineFrequentGSpan(db, config).patterns) {
    graphs.emplace(CanonicalCode(p.graph), p.graph);
  }
  ASSERT_EQ(graphs.size(), frequent.size());

  std::map<std::string, int64_t> expected;
  for (const auto& [key, support] : frequent) {
    const Graph& p = graphs.at(key);
    bool contained = false;
    for (const auto& [other_key, q] : graphs) {
      if (q.num_edges() > p.num_edges() &&
          graph::IsSubgraphIsomorphic(p, q)) {
        contained = true;
        break;
      }
    }
    if (!contained) expected.emplace(key, support);
  }
  EXPECT_EQ(ToCanonicalMap(MineMaximalGSpan(db, config)), expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaximalOracleTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(2, 3, 5)));

// FNV-1a over the full output sequence: pattern graphs, supports and
// supporting lists, in emission order.
uint64_t HashMineOutput(const MineResult& result) {
  std::string bytes;
  for (const Pattern& p : result.patterns) {
    bytes += p.graph.ToString();
    bytes += "support " + std::to_string(p.support) + " in";
    for (int32_t gid : p.supporting) bytes += " " + std::to_string(gid);
    bytes += "\n";
  }
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Seeded databases with cycles and repeated labels, and their configs.
GraphDatabase PinnedDatabase(int seed) {
  return RandomDatabase(8000 + seed, 10, 8 + seed % 3, 3 + seed % 4,
                        2 + seed % 3, 2);
}

MinerConfig PinnedConfig(int seed) {
  MinerConfig config;
  config.min_support = 2 + seed % 3;
  config.max_edges = 6;
  return config;
}

// Downstream stages sort mined patterns with unstable std::sort, so the
// emission order is part of the artifact. These hashes pin the order of
// the reference implementation on seeded databases with cycles and
// repeated labels.
TEST(GSpanTest, EmissionOrderIsPinned) {
  const uint64_t kExpected[10] = {
      0x419908160455802full, 0x61d98489200762a8ull, 0x76bf789181e61414ull,
      0x29be7a39eb22fef9ull, 0xe737bd6c2e28b23bull, 0x9bcb2443c86c0a0full,
      0xf39e071a95ae1892ull, 0xc2109850b05ab7d9ull, 0xfcd68802e901bfcbull,
      0xe468d9252fbd9cdfull,
  };
  for (int seed = 0; seed < 10; ++seed) {
    const GraphDatabase db = PinnedDatabase(seed);
    const MineResult result = MineFrequentGSpan(db, PinnedConfig(seed));
    EXPECT_FALSE(result.patterns.empty()) << "seed " << seed;
    EXPECT_EQ(HashMineOutput(result), kExpected[seed])
        << "seed " << seed << ": 0x" << std::hex << HashMineOutput(result);
  }
}

// The early-exit is-min check must agree with building the full minimum
// code, on every code gSpan can visit: each mined pattern's minimum code
// and all of its rightmost extensions over the database's labels.
TEST(GSpanTest, IsMinimalAgreesOnVisitedCodes) {
  for (int seed = 0; seed < 5; ++seed) {
    GraphDatabase db = RandomDatabase(8100 + seed, 8, 7, 3, 3, 2);
    MinerConfig config;
    config.min_support = 2;
    config.max_edges = 5;
    int checked = 0;
    int minimal = 0;
    for (const Pattern& p : MineFrequentGSpan(db, config).patterns) {
      const DfsCode base = BuildMinDfsCode(p.graph);
      std::vector<DfsCode> codes = {base};
      const std::vector<int> rmpath = base.BuildRmPath();
      const int32_t maxtoc = base[rmpath[0]].to;
      const Graph g = base.ToGraph();
      for (Label el = 0; el < 2; ++el) {
        // Backward edges from the rightmost vertex onto the rmpath.
        for (size_t j = 1; j < rmpath.size(); ++j) {
          const DfsEdge& e1 = base[rmpath[j]];
          if (g.HasEdge(maxtoc, e1.from)) continue;
          DfsCode c = base;
          c.Push({maxtoc, e1.from, g.vertex_label(maxtoc), el,
                  e1.from_label});
          codes.push_back(c);
        }
        // Forward edges off every rmpath vertex.
        for (Label tl = 0; tl < 3; ++tl) {
          std::vector<int32_t> sources = {maxtoc};
          for (int idx : rmpath) sources.push_back(base[idx].from);
          for (int32_t from : sources) {
            DfsCode c = base;
            c.Push({from, maxtoc + 1, g.vertex_label(from), el, tl});
            codes.push_back(c);
          }
        }
      }
      for (const DfsCode& c : codes) {
        const bool full = BuildMinDfsCode(c.ToGraph()) == c;
        EXPECT_EQ(IsMinimalDfsCode(c), full) << c.ToString();
        ++checked;
        minimal += full;
      }
    }
    EXPECT_GT(checked, 50) << "seed " << seed;
    EXPECT_GT(minimal, 0) << "seed " << seed;
    EXPECT_LT(minimal, checked) << "seed " << seed;
  }
}

// A random DFS code of `g`: DFS from a random vertex over randomly
// ordered neighbors, each discovered vertex listing its backward edges
// (to earlier DFS ids, ascending) before its forward edges.
DfsCode RandomDfsCode(const Graph& g, util::Rng* rng) {
  std::vector<int32_t> dfs_id(g.num_vertices(), -1);
  std::vector<bool> edge_done(g.num_edges(), false);
  DfsCode code;
  int32_t next_id = 0;
  auto visit = [&](auto&& self, VertexId v) -> void {
    std::vector<graph::AdjEntry> back;
    for (const graph::AdjEntry& adj : g.neighbors(v)) {
      if (dfs_id[adj.to] >= 0 && !edge_done[adj.edge_index]) {
        back.push_back(adj);
      }
    }
    std::sort(back.begin(), back.end(),
              [&](const graph::AdjEntry& a, const graph::AdjEntry& b) {
                return dfs_id[a.to] < dfs_id[b.to];
              });
    for (const graph::AdjEntry& adj : back) {
      edge_done[adj.edge_index] = true;
      code.Push({dfs_id[v], dfs_id[adj.to], g.vertex_label(v), adj.label,
                 g.vertex_label(adj.to)});
    }
    std::vector<graph::AdjEntry> order = g.neighbors(v);
    rng->Shuffle(&order);
    for (const graph::AdjEntry& adj : order) {
      if (dfs_id[adj.to] >= 0) continue;
      dfs_id[adj.to] = next_id++;
      edge_done[adj.edge_index] = true;
      code.Push({dfs_id[v], dfs_id[adj.to], g.vertex_label(v), adj.label,
                 g.vertex_label(adj.to)});
      self(self, adj.to);
    }
  };
  const VertexId root =
      static_cast<VertexId>(rng->NextBounded(g.num_vertices()));
  dfs_id[root] = next_id++;
  visit(visit, root);
  return code;
}

// ... and on perturbed codes: random DFS traversals of random connected
// graphs (rarely minimal), plus minimum codes with one vertex or edge
// label changed (sometimes minimal, sometimes not).
TEST(GSpanTest, IsMinimalAgreesOnPerturbedCodes) {
  util::Rng rng(8200);
  int minimal = 0;
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    GraphDatabase one = RandomDatabase(8300 + trial, 1, 4 + trial % 6,
                                       trial % 4, 2 + trial % 2, 2);
    const Graph& g = one.graph(0);
    std::vector<DfsCode> codes;
    for (int k = 0; k < 4; ++k) codes.push_back(RandomDfsCode(g, &rng));
    const DfsCode min_code = BuildMinDfsCode(g);
    for (int k = 0; k < 4; ++k) {
      std::vector<DfsEdge> edges = min_code.edges();
      if (k % 2 == 0) {
        const int32_t v =
            static_cast<int32_t>(rng.NextBounded(min_code.NumVertices()));
        const Label l = static_cast<Label>(rng.NextBounded(3));
        for (DfsEdge& e : edges) {
          if (e.from == v) e.from_label = l;
          if (e.to == v) e.to_label = l;
        }
      } else {
        edges[rng.NextBounded(edges.size())].edge_label =
            static_cast<Label>(rng.NextBounded(2));
      }
      DfsCode c;
      for (const DfsEdge& e : edges) c.Push(e);
      codes.push_back(c);
    }
    for (const DfsCode& c : codes) {
      ASSERT_EQ(static_cast<int32_t>(c.size()), g.num_edges());
      const bool full = BuildMinDfsCode(c.ToGraph()) == c;
      EXPECT_EQ(IsMinimalDfsCode(c), full) << c.ToString();
      ++checked;
      minimal += full;
    }
  }
  EXPECT_GT(minimal, 20);
  EXPECT_LT(minimal, checked - 20);
}

// Region tasks key their dedup maps with Pattern::code, the minimal DFS
// code gSpan found the pattern under, in place of CanonicalCode.
TEST(GSpanTest, PatternCodeIsCanonicalCode) {
  for (int seed = 0; seed < 10; ++seed) {
    const GraphDatabase db = PinnedDatabase(seed);
    const MinerConfig config = PinnedConfig(seed);
    size_t checked = 0;
    for (const MineResult& result :
         {MineFrequentGSpan(db, config), MineMaximalGSpan(db, config)}) {
      for (const Pattern& p : result.patterns) {
        EXPECT_EQ(p.code, CanonicalCode(p.graph)) << "seed " << seed;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u) << "seed " << seed;
  }
}

// Each pattern's graph, support, supporting gids and code, one line per
// pattern in output order.
std::vector<std::string> Lines(const std::vector<Pattern>& patterns) {
  std::vector<std::string> lines;
  for (const Pattern& p : patterns) {
    std::string line = p.graph.ToString() + " support " +
                       std::to_string(p.support) + " in";
    for (int32_t gid : p.supporting) line += " " + std::to_string(gid);
    lines.push_back(line + " code " + p.code);
  }
  return lines;
}

std::vector<std::string> SortedLines(const std::vector<Pattern>& patterns) {
  std::vector<std::string> lines = Lines(patterns);
  std::sort(lines.begin(), lines.end());
  return lines;
}

// MineMaximalGSpan never materializes a pattern whose scan finds a
// frequent rightmost extension, yet it must return what FilterMaximal
// keeps of the full enumeration: the same set on complete runs, and on
// runs max_patterns stops (where held patterns are released) the very
// same list.
TEST(MaximalTest, MaximalEmissionMatchesFilteredEnumeration) {
  int capped = 0;
  for (int seed = 0; seed < 10; ++seed) {
    const GraphDatabase db = PinnedDatabase(seed);
    std::vector<MinerConfig> configs(6, PinnedConfig(seed));
    configs[1].max_edges = 3;
    configs[2].max_edges = 1;
    configs[3].max_patterns = 5;
    configs[4].max_patterns = 40;
    configs[4].max_edges = 4;
    configs[5].include_single_vertices = true;
    configs[5].min_edges = 0;
    configs[5].min_support = 2;
    for (size_t c = 0; c < configs.size(); ++c) {
      const MinerConfig& config = configs[c];
      const MineResult all = MineFrequentGSpan(db, config);
      const std::vector<Pattern> expected = FilterMaximal(all.patterns);
      const MineResult got = MineMaximalGSpan(db, config);
      EXPECT_EQ(got.completed, all.completed);
      EXPECT_EQ(got.states_expanded, all.states_expanded);
      EXPECT_EQ(got.embedding_arena_bytes, all.embedding_arena_bytes);
      if (all.completed) {
        EXPECT_EQ(SortedLines(got.patterns), SortedLines(expected))
            << "seed " << seed << " config " << c;
      } else {
        ++capped;
        EXPECT_EQ(Lines(got.patterns), Lines(expected))
            << "seed " << seed << " config " << c;
      }
    }
  }
  EXPECT_GE(capped, 15);
}

std::map<std::string, uint64_t> GSpanCounters() {
  std::map<std::string, uint64_t> values;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().WorkValues()) {
    if (name.rfind("gspan/", 0) == 0) values.emplace(name, value);
  }
  return values;
}

struct CountedRun {
  std::vector<std::string> lines;
  bool completed = false;
  std::map<std::string, uint64_t> counters;  // gspan/* deltas
};

CountedRun MineCounted(const GraphDatabase& db, const MinerConfig& config,
                       bool maximal) {
  const std::map<std::string, uint64_t> start = GSpanCounters();
  const MineResult result = maximal ? MineMaximalGSpan(db, config)
                                    : MineFrequentGSpan(db, config);
  CountedRun run;
  run.lines = Lines(result.patterns);
  run.completed = result.completed;
  for (const auto& [name, value] : GSpanCounters()) {
    auto it = start.find(name);
    run.counters[name] = value - (it == start.end() ? 0 : it->second);
  }
  return run;
}

// The miner's per-thread scratch (arena, scan buffers, slot tables,
// History stamps, held patterns) must carry nothing from one run into
// the next: a task mined on a fresh thread, and the same task mined
// after a larger run and after a capped run on one thread, give the same
// patterns and the same gspan/* work.
TEST(GSpanTest, ScratchReuseIsInvisible) {
  const GraphDatabase small = PinnedDatabase(0);
  const MinerConfig small_config = PinnedConfig(0);
  const GraphDatabase large = RandomDatabase(9000, 12, 14, 6, 3, 2);
  MinerConfig large_config;
  large_config.min_support = 2;
  large_config.max_edges = 7;
  MinerConfig capped_config = large_config;
  capped_config.max_patterns = 25;
  for (bool maximal : {false, true}) {
    CountedRun alone;
    std::thread([&] { alone = MineCounted(small, small_config, maximal); })
        .join();
    CountedRun after_large;
    CountedRun after_capped;
    std::thread([&] {
      const CountedRun big = MineCounted(large, large_config, maximal);
      EXPECT_GT(big.counters.at("gspan/embeddings_arena_bytes"),
                alone.counters.at("gspan/embeddings_arena_bytes"));
      after_large = MineCounted(small, small_config, maximal);
      EXPECT_FALSE(MineCounted(large, capped_config, maximal).completed);
      after_capped = MineCounted(small, small_config, maximal);
      // Short runs leave History stamps at small epochs, where a run that
      // restarted its epoch would read them as its own.
      for (size_t gid = 0; gid < small.size(); ++gid) {
        GraphDatabase one;
        one.Add(small.graph(gid));
        MinerConfig shallow;
        shallow.max_edges = 2;
        MineCounted(one, shallow, maximal);
        const CountedRun again = MineCounted(small, small_config, maximal);
        EXPECT_EQ(again.lines, alone.lines)
            << "maximal " << maximal << " after graph " << gid;
        EXPECT_EQ(again.counters, alone.counters)
            << "maximal " << maximal << " after graph " << gid;
      }
    }).join();
    ASSERT_FALSE(alone.lines.empty());
    EXPECT_EQ(after_large.lines, alone.lines) << "maximal " << maximal;
    EXPECT_EQ(after_large.counters, alone.counters) << "maximal " << maximal;
    EXPECT_EQ(after_capped.lines, alone.lines) << "maximal " << maximal;
    EXPECT_EQ(after_capped.counters, alone.counters)
        << "maximal " << maximal;
  }
}

GraphDatabase Relabel(const GraphDatabase& db,
                      const std::vector<Label>& vertex_labels,
                      const std::vector<Label>& edge_labels) {
  GraphDatabase out;
  for (const Graph& g : db.graphs()) {
    Graph h(g.id());
    for (Label l : g.vertex_labels()) h.AddVertex(vertex_labels[l]);
    for (const graph::EdgeRecord& e : g.edges()) {
      h.AddEdge(e.u, e.v, edge_labels[e.label]);
    }
    out.Add(std::move(h));
  }
  return out;
}

// Extension slots index labels by their per-run rank. Sparse labels (too
// wide a span for the direct rank table) and negative ones must mine
// what their ranks mine: under an order-preserving relabeling, the same
// patterns in the same order, and the brute-force frequent set. A
// pendant vertex with a label of its own (base label 3, mapped between
// the others) is in no frequent root, so that label has no rank.
TEST(GSpanTest, SlotsHandleSparseAndNegativeLabels) {
  const std::vector<std::pair<std::vector<Label>, std::vector<Label>>>
      relabelings = {
          {{-5, 7, 1000000, 500}, {-3, 1000000}},  // sparse, negative
          {{-40, -39, -2, -20}, {-7, -1}},         // dense, all negative
          {{-2000000000, 0, 2000000000, 5}, {0, 5}},  // span beyond int32
      };
  for (int seed = 0; seed < 5; ++seed) {
    GraphDatabase db = RandomDatabase(8100 + seed, 8, 7, 3, 3, 2);
    Graph& with_pendant = db.mutable_graph(0);
    with_pendant.AddEdge(0, with_pendant.AddVertex(3), 0);
    MinerConfig config;
    config.min_support = 2;
    config.max_edges = 5;
    const MineResult base = MineFrequentGSpan(db, config);
    for (const auto& [vertex_labels, edge_labels] : relabelings) {
      const GraphDatabase relabeled = Relabel(db, vertex_labels, edge_labels);
      GraphDatabase base_patterns;
      for (const Pattern& p : base.patterns) base_patterns.Add(p.graph);
      const GraphDatabase expected_graphs =
          Relabel(base_patterns, vertex_labels, edge_labels);
      const MineResult got = MineFrequentGSpan(relabeled, config);
      ASSERT_EQ(got.patterns.size(), base.patterns.size())
          << "seed " << seed;
      for (size_t i = 0; i < got.patterns.size(); ++i) {
        EXPECT_EQ(got.patterns[i].graph.ToString(),
                  expected_graphs.graph(i).ToString())
            << "seed " << seed << " pattern " << i;
        EXPECT_EQ(got.patterns[i].supporting, base.patterns[i].supporting);
        EXPECT_EQ(got.patterns[i].code, CanonicalCode(got.patterns[i].graph));
      }
      EXPECT_EQ(ToCanonicalMap(got),
                BruteForceFrequent(relabeled, config.min_support, 5));
      EXPECT_EQ(SortedLines(MineMaximalGSpan(relabeled, config).patterns),
                SortedLines(FilterMaximal(got.patterns)));
    }
  }
}

}  // namespace
}  // namespace graphsig::fsm
