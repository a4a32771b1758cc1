#include <gtest/gtest.h>

#include <map>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace graphsig::graph {
namespace {

Graph Triangle(Label a, Label b, Label c, Label e = 0) {
  Graph g;
  g.AddVertex(a);
  g.AddVertex(b);
  g.AddVertex(c);
  g.AddEdge(0, 1, e);
  g.AddEdge(1, 2, e);
  g.AddEdge(2, 0, e);
  return g;
}

Graph Path(std::vector<Label> vlabels, std::vector<Label> elabels) {
  Graph g;
  for (Label l : vlabels) g.AddVertex(l);
  for (size_t i = 0; i < elabels.size(); ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
              elabels[i]);
  }
  return g;
}

TEST(IsomorphismTest, PathInTriangle) {
  Graph pattern = Path({1, 2}, {0});
  Graph target = Triangle(1, 2, 3);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, LabelMismatchFails) {
  Graph pattern = Path({1, 9}, {0});
  Graph target = Triangle(1, 2, 3);
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, EdgeLabelMismatchFails) {
  Graph pattern = Path({1, 2}, {7});
  Graph target = Triangle(1, 2, 3, 0);
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, NonInducedSemantics) {
  // A path a-b-c embeds in a triangle a-b-c even though the triangle has
  // the extra closing edge (monomorphism, not induced isomorphism).
  Graph pattern = Path({1, 2, 3}, {0, 0});
  Graph target = Triangle(1, 2, 3);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, TriangleNotInPath) {
  Graph pattern = Triangle(1, 2, 3);
  Graph target = Path({1, 2, 3}, {0, 0});
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, EmptyPatternMatches) {
  Graph pattern;
  Graph target = Triangle(1, 2, 3);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, FindEmbeddingIsValid) {
  Graph pattern = Path({1, 2, 3}, {0, 0});
  Graph target = Triangle(1, 2, 3);
  auto emb = FindEmbedding(pattern, target);
  ASSERT_TRUE(emb.has_value());
  ASSERT_EQ(emb->size(), 3u);
  for (VertexId pv = 0; pv < pattern.num_vertices(); ++pv) {
    EXPECT_EQ(pattern.vertex_label(pv), target.vertex_label((*emb)[pv]));
  }
  for (const EdgeRecord& e : pattern.edges()) {
    EXPECT_EQ(target.EdgeLabelBetween((*emb)[e.u], (*emb)[e.v]), e.label);
  }
}

TEST(IsomorphismTest, CountEmbeddingsOnSymmetricTarget) {
  // Pattern a-a in a triangle of all-a: each undirected edge matched in
  // both directions -> 6 embeddings.
  Graph pattern = Path({5, 5}, {0});
  Graph target = Triangle(5, 5, 5);
  EXPECT_EQ(CountEmbeddings(pattern, target), 6u);
  EXPECT_EQ(CountEmbeddings(pattern, target, 2), 2u);
}

TEST(IsomorphismTest, FindAllEmbeddingsMatchesCount) {
  Graph pattern = Path({5, 5}, {0});
  Graph target = Triangle(5, 5, 5);
  auto all = FindAllEmbeddings(pattern, target);
  EXPECT_EQ(all.size(), 6u);
  auto capped = FindAllEmbeddings(pattern, target, 3);
  EXPECT_EQ(capped.size(), 3u);
}

TEST(IsomorphismTest, AreIsomorphicRelabeling) {
  Graph a = Triangle(1, 2, 3);
  // Same triangle constructed in a different vertex order.
  Graph b;
  b.AddVertex(3);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddEdge(0, 1, 0);
  b.AddEdge(1, 2, 0);
  b.AddEdge(2, 0, 0);
  EXPECT_TRUE(AreIsomorphic(a, b));
}

TEST(IsomorphismTest, AreIsomorphicRejectsDifferentEdgeCounts) {
  Graph a = Triangle(1, 1, 1);
  Graph b = Path({1, 1, 1}, {0, 0});
  EXPECT_FALSE(AreIsomorphic(a, b));
  EXPECT_FALSE(AreIsomorphic(b, a));
}

TEST(IsomorphismTest, DisconnectedPatternSupported) {
  Graph pattern;
  pattern.AddVertex(1);
  pattern.AddVertex(2);  // two isolated labeled vertices
  Graph target = Path({1, 3, 2}, {0, 0});
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
  Graph target2 = Path({1, 3, 3}, {0, 0});
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target2));
}

// Property sweep: random connected subgraphs of a random host must always
// be found; the host must not be found in a strictly smaller pattern.
class IsomorphismPropertyTest : public ::testing::TestWithParam<int> {};

Graph RandomConnectedGraph(util::Rng* rng, int n, int extra_edges,
                           int vlabels, int elabels) {
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(static_cast<Label>(rng->NextBounded(vlabels)));
  }
  // Random spanning tree.
  for (int i = 1; i < n; ++i) {
    VertexId parent = static_cast<VertexId>(rng->NextBounded(i));
    g.AddEdge(parent, i, static_cast<Label>(rng->NextBounded(elabels)));
  }
  for (int k = 0; k < extra_edges; ++k) {
    VertexId u = static_cast<VertexId>(rng->NextBounded(n));
    VertexId v = static_cast<VertexId>(rng->NextBounded(n));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v, static_cast<Label>(rng->NextBounded(elabels)));
  }
  return g;
}

TEST_P(IsomorphismPropertyTest, RandomSubgraphAlwaysFound) {
  util::Rng rng(1000 + GetParam());
  Graph host = RandomConnectedGraph(&rng, 12, 5, 3, 2);
  // Take a BFS ball as a connected subgraph.
  VertexId center = static_cast<VertexId>(rng.NextBounded(12));
  auto ball = host.VerticesWithinRadius(center, 2);
  Graph pattern = host.InducedSubgraph(ball);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, host));
}

TEST_P(IsomorphismPropertyTest, HostNotInProperSubgraph) {
  util::Rng rng(2000 + GetParam());
  Graph host = RandomConnectedGraph(&rng, 10, 4, 3, 2);
  std::vector<VertexId> most;
  for (VertexId v = 0; v + 1 < host.num_vertices(); ++v) most.push_back(v);
  Graph smaller = host.InducedSubgraph(most);
  EXPECT_FALSE(IsSubgraphIsomorphic(host, smaller));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsomorphismPropertyTest,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------------
// Per-pattern visit orders (PatternVisitOrder): built once from a label
// count table, they must give every match the per-target order gives.

uint64_t FeasibilityChecks() {
  return obs::MetricsRegistry::Global()
      .GetCounter("graph/vf2_feasibility_checks")
      ->value();
}

std::map<Label, int64_t> LabelCounts(const Graph& g) {
  std::map<Label, int64_t> counts;
  for (Label l : g.vertex_labels()) ++counts[l];
  return counts;
}

// A permutation of the pattern's vertices in which every vertex but one
// seed per connected component has an earlier neighbor.
void ExpectConnectedOrder(const Graph& pattern,
                          const std::vector<VertexId>& order) {
  const int n = pattern.num_vertices();
  ASSERT_EQ(order.size(), static_cast<size_t>(n));
  std::vector<int> placed(n, 0);
  int seeds = 0;
  for (VertexId v : order) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    ASSERT_FALSE(placed[v]) << "vertex " << v << " placed twice";
    bool attached = false;
    for (const AdjEntry& e : pattern.neighbors(v)) attached |= placed[e.to];
    seeds += attached ? 0 : 1;
    placed[v] = 1;
  }
  int components = 0;
  std::vector<int> seen(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (seen[v]) continue;
    ++components;
    std::vector<VertexId> stack = {v};
    seen[v] = 1;
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (const AdjEntry& e : pattern.neighbors(u)) {
        if (!seen[e.to]) {
          seen[e.to] = 1;
          stack.push_back(e.to);
        }
      }
    }
  }
  EXPECT_EQ(seeds, components);
}

// Per-pattern order from `counts` against the per-target order: equal
// match results, and a connected order.
void ExpectOrderAgrees(const Graph& pattern, const Graph& target,
                       const std::map<Label, int64_t>& counts) {
  const CsrGraph p(pattern);
  const CsrGraph t(target);
  const std::vector<VertexId> order = PatternVisitOrder(p, counts);
  ExpectConnectedOrder(pattern, order);
  EXPECT_EQ(IsSubgraphIsomorphic(p, order, t), IsSubgraphIsomorphic(p, t));
}

TEST(PatternVisitOrderTest, TargetCountsReproducePerTargetOrder) {
  // Ranked by the target's own label counts, the per-pattern order is
  // the order the per-target run derives: same result, same work.
  for (int seed = 0; seed < 40; ++seed) {
    util::Rng rng(3000 + seed);
    const Graph target = RandomConnectedGraph(&rng, 14, 6, 4, 2);
    const Graph pattern = RandomConnectedGraph(
        &rng, 3 + static_cast<int>(rng.NextBounded(5)), 2, 4, 2);
    const CsrGraph p(pattern);
    const CsrGraph t(target);
    const std::vector<VertexId> order =
        PatternVisitOrder(p, LabelCounts(target));
    uint64_t before = FeasibilityChecks();
    const bool per_pattern = IsSubgraphIsomorphic(p, order, t);
    const uint64_t per_pattern_checks = FeasibilityChecks() - before;
    before = FeasibilityChecks();
    const bool per_target = IsSubgraphIsomorphic(p, t);
    EXPECT_EQ(per_pattern, per_target) << "seed " << seed;
    EXPECT_EQ(per_pattern_checks, FeasibilityChecks() - before)
        << "seed " << seed;
  }
}

TEST(PatternVisitOrderTest, RandomCountsNeverChangeTheResult) {
  int matched = 0;
  for (int seed = 0; seed < 60; ++seed) {
    util::Rng rng(4000 + seed);
    const Graph target = RandomConnectedGraph(&rng, 12, 5, 3, 2);
    // Half the patterns are BFS balls of the target (always contained).
    Graph pattern;
    if (seed % 2 == 0) {
      const auto center = static_cast<VertexId>(rng.NextBounded(12));
      pattern = target.InducedSubgraph(target.VerticesWithinRadius(center, 1));
    } else {
      pattern = RandomConnectedGraph(&rng, 4, 1, 3, 2);
    }
    std::map<Label, int64_t> counts;
    for (Label l = 0; l < 3; ++l) {
      counts[l] = static_cast<int64_t>(rng.NextBounded(50));
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectOrderAgrees(pattern, target, counts);
    matched += IsSubgraphIsomorphic(pattern, target);
  }
  EXPECT_GT(matched, 0);
  EXPECT_LT(matched, 60);
}

TEST(PatternVisitOrderTest, SingleVertexPattern) {
  Graph single;
  single.AddVertex(2);
  const Graph with = Path({0, 2, 1}, {0, 0});
  const Graph without = Path({0, 1, 1}, {0, 0});
  for (const auto& counts :
       {std::map<Label, int64_t>{}, std::map<Label, int64_t>{{2, 9}}}) {
    ExpectOrderAgrees(single, with, counts);
    ExpectOrderAgrees(single, without, counts);
  }
  EXPECT_EQ(PatternVisitOrder(CsrGraph(single), {}),
            std::vector<VertexId>{0});
}

TEST(PatternVisitOrderTest, DisconnectedPattern) {
  // Two components: an edge 0-1 and an edge 2-3, label 3 the rarest.
  Graph pattern = Path({0, 1}, {0});
  pattern.AddVertex(3);
  pattern.AddVertex(1);
  pattern.AddEdge(2, 3, 0);
  const std::map<Label, int64_t> counts = {{0, 50}, {1, 20}, {3, 2}};
  const std::vector<VertexId> order =
      PatternVisitOrder(CsrGraph(pattern), counts);
  // Seeded at the rarest label, its component finished before the next.
  EXPECT_EQ(order, (std::vector<VertexId>{2, 3, 1, 0}));

  const Graph both = Path({0, 1, 2, 3, 1}, {0, 1, 0, 0});
  const Graph one = Path({0, 1, 2, 1, 1}, {0, 1, 0, 0});
  ExpectOrderAgrees(pattern, both, counts);
  ExpectOrderAgrees(pattern, one, counts);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, both));
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, one));
}

TEST(PatternVisitOrderTest, LabelsAbsentFromTheCountsRankRarest) {
  // Label 7 is in no count table: it counts 0 and seeds the order.
  const Graph pattern = Path({0, 0, 7}, {0, 0});
  const std::map<Label, int64_t> counts = {{0, 5}};
  EXPECT_EQ(PatternVisitOrder(CsrGraph(pattern), counts),
            (std::vector<VertexId>{2, 1, 0}));
  ExpectOrderAgrees(pattern, Path({0, 0, 0, 7}, {0, 0, 0}), counts);
  ExpectOrderAgrees(pattern, Path({0, 0, 0, 1}, {0, 0, 0}), counts);
  ExpectOrderAgrees(pattern, Path({0, 0, 7}, {0, 0}), {});
}

}  // namespace
}  // namespace graphsig::graph
