#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "data/datasets.h"
#include "features/feature_space.h"
#include "features/feature_vector.h"
#include "features/packed_vector_set.h"
#include "features/rwr.h"
#include "features/selection.h"
#include "graph/csr.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace graphsig::features {
namespace {

using graph::Graph;
using graph::GraphDatabase;
using graph::Label;
using graph::VertexId;

// Labels: 0 = C, 1 = N, 2 = O, 3 = S. Edge labels: 0 = single, 1 = double.
GraphDatabase ToyChemDb() {
  GraphDatabase db;
  // C-C-N with a double bond to O on the middle C.
  Graph g1(0);
  g1.AddVertex(0);
  g1.AddVertex(0);
  g1.AddVertex(1);
  g1.AddVertex(2);
  g1.AddEdge(0, 1, 0);
  g1.AddEdge(1, 2, 0);
  g1.AddEdge(1, 3, 1);
  db.Add(g1);
  // C-S chain: S is rare.
  Graph g2(1);
  g2.AddVertex(0);
  g2.AddVertex(3);
  g2.AddEdge(0, 1, 0);
  db.Add(g2);
  return db;
}

TEST(FeatureSpaceTest, ChemicalRecipeIncludesAllAtomsAndTopKEdges) {
  GraphDatabase db = ToyChemDb();
  FeatureSpace fs = FeatureSpace::ForChemicalDatabase(db, /*top_k_atoms=*/2);
  // 4 atom types.
  EXPECT_EQ(fs.num_vertex_features(), 4u);
  // Top-2 atoms are C (3 occurrences) and N or O (1 each; N=1 wins by
  // label order). Edge types among {C, N}: C-C single, C-N single.
  EXPECT_GE(fs.num_edge_features(), 2u);
  EXPECT_GE(fs.VertexFeature(0), 0);
  EXPECT_GE(fs.VertexFeature(3), 0);
  EXPECT_EQ(fs.VertexFeature(99), -1);
  EXPECT_GE(fs.EdgeFeature(0, 0, 0), 0);
  EXPECT_GE(fs.EdgeFeature(1, 0, 0), 0);  // order-insensitive
  EXPECT_EQ(fs.EdgeFeature(0, 3, 0), -1);  // S not in top-2
}

TEST(FeatureSpaceTest, SlotLayoutIsStable) {
  GraphDatabase db = ToyChemDb();
  FeatureSpace fs = FeatureSpace::ForChemicalDatabase(db, 2);
  // Vertex features occupy [0, num_vertex); edge features after.
  for (Label l : {0, 1, 2, 3}) {
    int slot = fs.VertexFeature(l);
    ASSERT_GE(slot, 0);
    EXPECT_LT(slot, static_cast<int>(fs.num_vertex_features()));
  }
  int eslot = fs.EdgeFeature(0, 0, 0);
  EXPECT_GE(eslot, static_cast<int>(fs.num_vertex_features()));
  EXPECT_LT(eslot, static_cast<int>(fs.size()));
}

TEST(FeatureSpaceTest, FeatureNamesAreReadable) {
  GraphDatabase db = ToyChemDb();
  FeatureSpace fs = FeatureSpace::ForChemicalDatabase(db, 2);
  bool saw_atom = false, saw_edge = false;
  for (size_t s = 0; s < fs.size(); ++s) {
    std::string name = fs.FeatureName(s);
    saw_atom |= name.rfind("atom:", 0) == 0;
    saw_edge |= name.rfind("edge:", 0) == 0;
  }
  EXPECT_TRUE(saw_atom);
  EXPECT_TRUE(saw_edge);
}

TEST(FeatureVectorTest, SubVectorDefinition) {
  FeatureVec x = {1, 0, 2};
  FeatureVec y = {1, 1, 2};
  EXPECT_TRUE(IsSubVector(x, y));
  EXPECT_FALSE(IsSubVector(y, x));
  EXPECT_TRUE(IsSubVector(x, x));
}

TEST(FeatureVectorTest, PaperTableIExamples) {
  // Table I: v4 ⊆ v3 but v2 ⊄ v3.
  FeatureVec v2 = {1, 1, 0, 2};
  FeatureVec v3 = {2, 0, 1, 2};
  FeatureVec v4 = {1, 0, 1, 0};
  EXPECT_TRUE(IsSubVector(v4, v3));
  EXPECT_FALSE(IsSubVector(v2, v3));
}

TEST(FeatureVectorTest, FloorAndCeiling) {
  std::vector<FeatureVec> vs = {{1, 4, 0}, {2, 1, 3}};
  std::vector<int32_t> both = {0, 1};
  FeatureVec floor, ceiling;
  FloorInto(vs.data(), both, &floor);
  CeilingInto(vs.data(), both, &ceiling);
  EXPECT_EQ(floor, (FeatureVec{1, 1, 0}));
  EXPECT_EQ(ceiling, (FeatureVec{2, 4, 3}));
}

// ---------------------------------------------------------------------------
// PackedVectorSet: the word-parallel kernels must agree with the scalar
// reference (IsSubVector / FloorInto / CeilingInto) on every input.
// ---------------------------------------------------------------------------

std::vector<FeatureVec> RandomVectors(uint64_t seed, size_t n, size_t width,
                                      int max_value) {
  util::Rng rng(seed);
  std::vector<FeatureVec> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    FeatureVec v(width);
    for (auto& x : v) {
      x = static_cast<int16_t>(rng.NextBounded(max_value + 1));
    }
    out.push_back(std::move(v));
  }
  return out;
}

TEST(PackedVectorSetTest, RoundTripPreservesValues) {
  for (size_t width : {1u, 5u, 15u, 16u, 17u, 31u, 32u, 48u}) {
    auto vs = RandomVectors(100 + width, 20, width, 15);
    auto packed = PackedVectorSet::FromVectors(vs);
    ASSERT_EQ(packed.size(), vs.size());
    ASSERT_EQ(packed.width(), width);
    for (size_t i = 0; i < vs.size(); ++i) {
      EXPECT_EQ(packed.Unpack(static_cast<int32_t>(i)), vs[i])
          << "width=" << width << " i=" << i;
      for (size_t s = 0; s < width; ++s) {
        EXPECT_EQ(packed.at(static_cast<int32_t>(i), s), vs[i][s]);
      }
    }
  }
}

TEST(PackedVectorSetTest, DominatesMatchesScalarReference) {
  // 1k seeded random pairs across widths, plus the degenerate extremes.
  for (size_t width : {1u, 7u, 16u, 23u, 48u}) {
    auto vs = RandomVectors(200 + width, 200, width, 3);
    vs.push_back(FeatureVec(width, 0));   // all-zero dominates everything
    vs.push_back(FeatureVec(width, 15));  // all-max dominated by nothing else
    auto packed = PackedVectorSet::FromVectors(vs);
    PackedOpStats stats;
    for (size_t i = 0; i < vs.size(); ++i) {
      for (size_t j = 0; j < vs.size(); ++j) {
        const bool expected = IsSubVector(vs[i], vs[j]);
        const bool got = packed.Dominates(
            packed.row(static_cast<int32_t>(i)), static_cast<int32_t>(j),
            &stats);
        ASSERT_EQ(got, expected)
            << "width=" << width << " i=" << i << " j=" << j;
      }
    }
    EXPECT_GT(stats.words_compared, 0u);
  }
}

TEST(PackedVectorSetTest, FloorCeilingMatchScalarReference) {
  util::Rng rng(77);
  for (int trial = 0; trial < 1000; ++trial) {
    const size_t width = 1 + rng.NextBounded(40);
    const size_t n = 2 + rng.NextBounded(10);
    auto vs = RandomVectors(3000 + trial, n, width, 15);
    auto packed = PackedVectorSet::FromVectors(vs);

    std::vector<int32_t> indices;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBernoulli(0.6)) indices.push_back(static_cast<int32_t>(i));
    }
    if (indices.empty()) indices.push_back(0);

    FeatureVec want_floor, want_ceiling;
    FloorInto(vs.data(), indices, &want_floor);
    CeilingInto(vs.data(), indices, &want_ceiling);

    PackedOpStats stats;
    std::vector<uint64_t> floor_words(packed.words_per_vector());
    std::vector<uint64_t> ceiling_words(packed.words_per_vector());
    packed.FloorInto(indices, floor_words.data(), &stats);
    packed.CeilingInto(indices, ceiling_words.data(), &stats);
    EXPECT_EQ(UnpackWords(floor_words.data(), width), want_floor)
        << "trial=" << trial;
    EXPECT_EQ(UnpackWords(ceiling_words.data(), width), want_ceiling)
        << "trial=" << trial;
  }
}

TEST(PackedVectorSetTest, AllZeroAndAllMaxExtremes) {
  for (size_t width : {1u, 15u, 16u, 17u}) {
    std::vector<FeatureVec> vs = {FeatureVec(width, 0),
                                  FeatureVec(width, 15)};
    auto packed = PackedVectorSet::FromVectors(vs);
    PackedOpStats stats;
    EXPECT_TRUE(packed.Dominates(packed.row(0), 1, &stats));
    EXPECT_TRUE(packed.Dominates(packed.row(0), 0, &stats));
    EXPECT_TRUE(packed.Dominates(packed.row(1), 1, &stats));
    if (width > 0) {
      EXPECT_FALSE(packed.Dominates(packed.row(1), 0, &stats));
    }
    std::vector<int32_t> both = {0, 1};
    std::vector<uint64_t> floor_words(packed.words_per_vector());
    std::vector<uint64_t> ceiling_words(packed.words_per_vector());
    packed.FloorInto(both, floor_words.data(), &stats);
    packed.CeilingInto(both, ceiling_words.data(), &stats);
    EXPECT_EQ(UnpackWords(floor_words.data(), width), FeatureVec(width, 0));
    EXPECT_EQ(UnpackWords(ceiling_words.data(), width),
              FeatureVec(width, 15));
  }
}

TEST(PackedVectorSetTest, WordwisePruneCounterFires) {
  // Vectors that differ in the first word prune before later words are
  // touched; the counter must record it.
  const size_t width = 48;  // 3 words
  std::vector<FeatureVec> vs = {FeatureVec(width, 0), FeatureVec(width, 0)};
  vs[0][0] = 5;  // first slot of row 0 exceeds row 1
  auto packed = PackedVectorSet::FromVectors(vs);
  PackedOpStats stats;
  EXPECT_FALSE(packed.Dominates(packed.row(0), 1, &stats));
  EXPECT_EQ(stats.words_compared, 1u);
  EXPECT_EQ(stats.vectors_pruned_wordwise, 1u);
}

TEST(RwrTest, StationaryDistributionIsProbability) {
  GraphDatabase db = ToyChemDb();
  RwrConfig config;
  auto p = RwrStationaryDistribution(db.graph(0), 1, config);
  double sum = std::accumulate(p.begin(), p.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (double v : p) EXPECT_GE(v, 0.0);
  // The source holds the largest share.
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[1], p[3]);
}

TEST(RwrTest, SymmetricNeighborsGetEqualMass) {
  // Star: center 0, leaves 1..3, all same labels/edges.
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  g.AddEdge(0, 2, 0);
  g.AddEdge(0, 3, 0);
  RwrConfig config;
  auto p = RwrStationaryDistribution(g, 0, config);
  EXPECT_NEAR(p[1], p[2], 1e-9);
  EXPECT_NEAR(p[2], p[3], 1e-9);
}

TEST(RwrTest, RadiusConfinesTheWalk) {
  // Path 0-1-2-3; radius 1 from node 0 must leave nodes 2,3 untouched.
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 0);
  RwrConfig config;
  config.radius = 1;
  auto p = RwrStationaryDistribution(g, 0, config);
  EXPECT_GT(p[0], 0.0);
  EXPECT_GT(p[1], 0.0);
  EXPECT_EQ(p[2], 0.0);
  EXPECT_EQ(p[3], 0.0);
}

TEST(RwrTest, IsolatedNodeKeepsAllMass) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(1);  // no edges
  RwrConfig config;
  auto p = RwrStationaryDistribution(g, 0, config);
  EXPECT_NEAR(p[0], 1.0, 1e-9);
  EXPECT_EQ(p[1], 0.0);
}

TEST(RwrTest, CloserFeaturesGetMoreMass) {
  // Path: source C(0) - N(1) - ... - N(5): the near N arrival mass must
  // exceed the far one; RWR preserves proximity (Section II-C).
  Graph g;
  g.AddVertex(0);
  for (int i = 1; i <= 5; ++i) g.AddVertex(1);
  for (int i = 0; i < 5; ++i) g.AddEdge(i, i + 1, 0);
  GraphDatabase db;
  db.Add(g);
  FeatureSpace fs = FeatureSpace::VertexLabelsOnly(db);
  RwrConfig config;
  // Compare against a modified graph where the N chain is pushed one hop
  // further (insert a C): total N mass must drop.
  auto near_dist = RwrFeatureDistribution(g, 0, fs, config);

  Graph far;
  far.AddVertex(0);
  far.AddVertex(0);
  for (int i = 2; i <= 6; ++i) far.AddVertex(1);
  for (int i = 0; i < 6; ++i) far.AddEdge(i, i + 1, 0);
  auto far_dist = RwrFeatureDistribution(far, 0, fs, config);
  int n_slot = fs.VertexFeature(1);
  ASSERT_GE(n_slot, 0);
  EXPECT_GT(near_dist[n_slot], far_dist[n_slot]);
}

TEST(RwrTest, EdgeFeatureAbsorbsMassFromAtomFeature) {
  // With the C-C edge type as a feature, traversals of C-C edges must
  // feed the edge slot, not the C atom slot.
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  GraphDatabase db;
  db.Add(g);
  FeatureSpace with_edge = FeatureSpace::ForChemicalDatabase(db, 2);
  RwrConfig config;
  auto dist = RwrFeatureDistribution(g, 0, with_edge, config);
  int c_slot = with_edge.VertexFeature(0);
  int e_slot = with_edge.EdgeFeature(0, 0, 0);
  ASSERT_GE(c_slot, 0);
  ASSERT_GE(e_slot, 0);
  EXPECT_EQ(dist[c_slot], 0.0);
  EXPECT_NEAR(dist[e_slot], 1.0, 1e-9);
}

TEST(RwrTest, DiscretizeMatchesPaperExamples) {
  // Paper: 0.07 -> 1 and 0.34 -> 3 with 10 bins.
  FeatureVec v = Discretize({0.07, 0.34, 0.0, 1.0, 0.96}, 10);
  EXPECT_EQ(v, (FeatureVec{1, 3, 0, 10, 10}));
}

TEST(RwrTest, DatabaseToVectorsProvenance) {
  GraphDatabase db = ToyChemDb();
  FeatureSpace fs = FeatureSpace::ForChemicalDatabase(db, 2);
  RwrConfig config;
  auto vectors = DatabaseToVectors(db, fs, config);
  ASSERT_EQ(vectors.size(), 6u);  // 4 + 2 nodes
  EXPECT_EQ(vectors[0].graph_index, 0);
  EXPECT_EQ(vectors[5].graph_index, 1);
  EXPECT_EQ(vectors[5].node, 1);
  EXPECT_EQ(vectors[5].node_label, 3);
  for (const NodeVector& nv : vectors) {
    EXPECT_EQ(nv.values.size(), fs.size());
  }
}

TEST(RwrTest, CountFeaturizerIgnoresProximity) {
  // The count featurizer gives near and far N chains identical mass —
  // exactly the structure loss RWR avoids (compare with
  // CloserFeaturesGetMoreMass above).
  Graph g;
  g.AddVertex(0);
  for (int i = 1; i <= 3; ++i) g.AddVertex(1);
  for (int i = 0; i < 3; ++i) g.AddEdge(i, i + 1, 0);
  GraphDatabase db;
  db.Add(g);
  FeatureSpace fs = FeatureSpace::VertexLabelsOnly(db);
  auto from0 = CountFeatureDistribution(g, 0, fs, 0);
  auto from3 = CountFeatureDistribution(g, 3, fs, 0);
  EXPECT_EQ(from0, from3);  // whole-graph counts are source-independent
}

// Only the RWR featurizer walks a CSR, so only it builds one per graph.
TEST(RwrTest, OnlyRwrFeaturizerBuildsACsr) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddVertex(i % 2);
  for (int i = 0; i < 3; ++i) g.AddEdge(i, i + 1, 0);
  GraphDatabase db;
  db.Add(g);
  const FeatureSpace fs = FeatureSpace::VertexLabelsOnly(db);
  obs::Counter* const builds =
      obs::MetricsRegistry::Global().GetCounter("graph/csr_builds");
  for (Featurizer featurizer : {Featurizer::kRwr, Featurizer::kWindowCount}) {
    RwrConfig config;
    config.featurizer = featurizer;
    const uint64_t before = builds->value();
    EXPECT_EQ(GraphToVectors(g, 0, fs, config).size(), 4u);
    EXPECT_EQ(builds->value() - before,
              featurizer == Featurizer::kRwr ? 1u : 0u);
  }
}

// ---------------------------------------------------------------------
// Block RWR: every column of the block kernel must reproduce the
// one-source power iteration bit for bit, counters included.

// The one-source unconfined power iteration, written out as the walk was
// before sources were iterated in blocks: the reference the block kernel
// must reproduce bit for bit, with its rwr/* tallies.
struct ReferenceWalk {
  std::vector<double> p;
  uint64_t iterations = 0;
  uint64_t float_ops = 0;
};

ReferenceWalk ReferenceRwr(const Graph& g, VertexId source,
                           const RwrConfig& config) {
  const double alpha = config.restart_prob;
  ReferenceWalk out;
  out.p.assign(g.num_vertices(), 0.0);
  out.p[source] = 1.0;
  std::vector<double> next(g.num_vertices(), 0.0);
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    ++out.iterations;
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (out.p[v] == 0.0) continue;
      const int degree = g.degree(v);
      if (degree == 0) {
        dangling += out.p[v];
        ++out.float_ops;
        continue;
      }
      const double share = (1.0 - alpha) * out.p[v] / degree;
      out.float_ops += 2 + static_cast<uint64_t>(degree);
      for (const graph::AdjEntry& adj : g.neighbors(v)) {
        next[adj.to] += share;
      }
    }
    next[source] += alpha * (1.0 - dangling) + dangling;
    double delta = 0.0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      delta += std::abs(next[v] - out.p[v]);
    }
    out.float_ops += 2 * static_cast<uint64_t>(g.num_vertices());
    out.p.swap(next);
    if (delta < config.epsilon) break;
  }
  return out;
}

struct RwrCounters {
  uint64_t sources = 0;
  uint64_t iterations = 0;
  uint64_t float_ops = 0;

  static RwrCounters Now() {
    auto& registry = obs::MetricsRegistry::Global();
    return {registry.GetCounter("rwr/sources")->value(),
            registry.GetCounter("rwr/power_iterations")->value(),
            registry.GetCounter("rwr/float_ops")->value()};
  }
  RwrCounters Since(const RwrCounters& start) const {
    return {sources - start.sources, iterations - start.iterations,
            float_ops - start.float_ops};
  }
  bool operator==(const RwrCounters&) const = default;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Checks RwrAllSources and both single-source overloads against the
// reference on every source of `g`: memcmp-equal distributions and equal
// rwr/* deltas.
void ExpectBlockMatchesReference(const Graph& g, const RwrConfig& config) {
  RwrCounters expected;
  std::vector<ReferenceWalk> reference;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    reference.push_back(ReferenceRwr(g, v, config));
    ++expected.sources;
    expected.iterations += reference.back().iterations;
    expected.float_ops += reference.back().float_ops;
  }
  const graph::CsrGraph csr(g);

  RwrCounters start = RwrCounters::Now();
  std::vector<std::vector<double>> block(g.num_vertices());
  std::vector<int> emitted(g.num_vertices(), 0);
  RwrAllSources(csr, config, [&](VertexId v, const std::vector<double>& p) {
    ++emitted[v];
    block[v] = p;
  });
  EXPECT_EQ(RwrCounters::Now().Since(start), expected);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(emitted[v], 1) << "source " << v;
    EXPECT_TRUE(SameBits(block[v], reference[v].p)) << "source " << v;
  }

  start = RwrCounters::Now();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(
        SameBits(RwrStationaryDistribution(g, v, config), reference[v].p))
        << "Graph overload, source " << v;
    EXPECT_TRUE(
        SameBits(RwrStationaryDistribution(csr, v, config), reference[v].p))
        << "CsrGraph overload, source " << v;
  }
  const RwrCounters twice = RwrCounters::Now().Since(start);
  EXPECT_EQ(twice.sources, 2 * expected.sources);
  EXPECT_EQ(twice.iterations, 2 * expected.iterations);
  EXPECT_EQ(twice.float_ops, 2 * expected.float_ops);
}

Graph RandomLabeledGraph(uint64_t seed, int n, int extra_edges) {
  util::Rng rng(seed);
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(static_cast<Label>(rng.NextBounded(4)));
  }
  for (int i = 1; i < n; ++i) {
    g.AddEdge(static_cast<VertexId>(rng.NextBounded(i)), i,
              static_cast<Label>(rng.NextBounded(2)));
  }
  for (int k = 0; k < extra_edges; ++k) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v, static_cast<Label>(rng.NextBounded(2)));
  }
  return g;
}

// A 3-path plus a vertex with no edges.
Graph PathWithIsolatedVertex() {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddVertex(i % 2);
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 1);  // vertex 3 has no edges
  return g;
}

// A triangle, a 5-path and an isolated vertex: columns of one block
// walk different components.
Graph ThreeComponents() {
  Graph g;
  for (int i = 0; i < 9; ++i) g.AddVertex(i % 3);
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 0, 1);
  for (int i = 3; i < 7; ++i) g.AddEdge(i, i + 1, 0);
  return g;
}

Graph SingleVertex() {
  Graph g;
  g.AddVertex(2);
  return g;
}

TEST(RwrBlockTest, IsolatedVertexMatchesReference) {
  ExpectBlockMatchesReference(PathWithIsolatedVertex(), RwrConfig{});
}

TEST(RwrBlockTest, DisconnectedGraphMatchesReference) {
  ExpectBlockMatchesReference(ThreeComponents(), RwrConfig{});
}

TEST(RwrBlockTest, SingleVertexGraphMatchesReference) {
  ExpectBlockMatchesReference(SingleVertex(), RwrConfig{});
}

TEST(RwrBlockTest, GraphWiderThanOneBlockMatchesReference) {
  // More sources than one block holds, so columns are refilled as they
  // converge; varied degrees make columns converge at different steps.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectBlockMatchesReference(RandomLabeledGraph(seed, 37, 12),
                                RwrConfig{});
  }
}

TEST(RwrBlockTest, IterationCapBeforeConvergenceMatchesReference) {
  const Graph g = RandomLabeledGraph(9, 21, 6);
  for (int cap : {0, 1, 3, 17}) {
    SCOPED_TRACE("max_iterations " + std::to_string(cap));
    RwrConfig config;
    config.max_iterations = cap;
    ExpectBlockMatchesReference(g, config);
  }
  // The cap must actually cut the walk short of convergence.
  RwrConfig capped;
  capped.max_iterations = 3;
  EXPECT_EQ(ReferenceRwr(g, 0, capped).iterations, 3u);
  EXPECT_GT(ReferenceRwr(g, 0, RwrConfig{}).iterations, 3u);
}

// FNV-1a over every node vector's provenance and slot values.
uint64_t HashVectors(const std::vector<NodeVector>& vectors) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](int64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<uint8_t>(x >> (8 * b));
      h *= 0x100000001b3ull;
    }
  };
  for (const NodeVector& nv : vectors) {
    mix(nv.graph_index);
    mix(nv.node);
    mix(nv.node_label);
    for (int16_t v : nv.values) mix(v);
  }
  return h;
}

// Featurization of two seeded screens, pinned to hashes recorded with
// the one-source power iteration (radius 0 runs the block kernel, radius
// 3 the confined walk).
TEST(RwrBlockTest, DatabaseToVectorsIsPinned) {
  struct Case {
    const char* screen;
    int radius;
    uint64_t hash;
  };
  const Case kCases[] = {
      {"MCF-7", 0, 0x7806bb976ee3beebull},
      {"MCF-7", 3, 0xdfb3c7f6026fa1e1ull},
      {"UACC-257", 0, 0x21d965d355aa697aull},
      {"UACC-257", 3, 0x15921efd69e59256ull},
  };
  for (const Case& c : kCases) {
    data::DatasetOptions options;
    options.size = 60;
    options.seed = 3;
    options.active_fraction = 0.3;
    const GraphDatabase db = data::MakeCancerScreen(c.screen, options);
    const FeatureSpace space = FeatureSpace::ForChemicalDatabase(db, 5);
    RwrConfig config;
    config.radius = c.radius;
    for (int threads : {1, 4}) {
      const uint64_t h =
          HashVectors(DatabaseToVectors(db, space, config, threads));
      EXPECT_EQ(h, c.hash) << c.screen << " radius " << c.radius
                           << " threads " << threads << ": 0x" << std::hex
                           << h;
    }
  }
}

// ---------------------------------------------------------------------
// Certified early stop: GraphToVectors may stop a source's walk once its
// bins are proven final, so its vectors must equal the discretized mass
// of the fully iterated walk, whatever the config.

// Feature mass of a stationary distribution, the per-edge definition of
// Section II-B in edge order, normalized to sum 1.
std::vector<double> ReferenceMass(const Graph& g, const std::vector<double>& p,
                                  const FeatureSpace& features) {
  std::vector<double> mass(features.size(), 0.0);
  for (const graph::EdgeRecord& e : g.edges()) {
    const double rate_uv = p[e.u] / g.degree(e.u);
    const double rate_vu = p[e.v] / g.degree(e.v);
    const Label lu = g.vertex_label(e.u);
    const Label lv = g.vertex_label(e.v);
    const int edge_slot = features.EdgeFeature(lu, lv, e.label);
    if (edge_slot >= 0) {
      mass[edge_slot] += rate_uv + rate_vu;
    } else {
      const int slot_v = features.VertexFeature(lv);
      if (slot_v >= 0) mass[slot_v] += rate_uv;
      const int slot_u = features.VertexFeature(lu);
      if (slot_u >= 0) mass[slot_u] += rate_vu;
    }
  }
  double total = 0.0;
  for (double m : mass) total += m;
  if (total > 0.0) {
    for (double& m : mass) m /= total;
  }
  return mass;
}

// Checks GraphToVectors on `g` against the full walk of every source;
// returns the power iterations it saved.
uint64_t ExpectCertifiedMatchesFullWalk(const Graph& g,
                                        const FeatureSpace& features,
                                        const RwrConfig& config) {
  uint64_t full_iterations = 0;
  std::vector<FeatureVec> expected;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const ReferenceWalk walk = ReferenceRwr(g, v, config);
    full_iterations += walk.iterations;
    expected.push_back(
        Discretize(ReferenceMass(g, walk.p, features), config.bins));
  }
  const RwrCounters start = RwrCounters::Now();
  const std::vector<NodeVector> vectors =
      GraphToVectors(g, /*graph_index=*/7, features, config);
  const RwrCounters used = RwrCounters::Now().Since(start);
  EXPECT_EQ(used.sources, static_cast<uint64_t>(g.num_vertices()));
  EXPECT_LE(used.iterations, full_iterations);
  EXPECT_EQ(vectors.size(), static_cast<size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(vectors[v].values, expected[v]) << "source " << v;
  }
  return full_iterations - used.iterations;
}

TEST(RwrCertifiedTest, MatchesFullWalkOnSeededScreens) {
  uint64_t saved = 0;
  for (const char* screen : {"MCF-7", "UACC-257"}) {
    data::DatasetOptions options;
    options.size = 8;
    options.seed = 17;
    options.active_fraction = 0.5;
    const GraphDatabase db = data::MakeCancerScreen(screen, options);
    const FeatureSpace space = FeatureSpace::ForChemicalDatabase(db, 5);
    for (int bins : {1, 3, 10, 15}) {
      for (double restart : {0.05, 0.25, 0.6}) {
        for (int cap : {1, 3, 1000}) {
          SCOPED_TRACE(std::string(screen) + " bins " +
                       std::to_string(bins) + " restart " +
                       std::to_string(restart) + " cap " +
                       std::to_string(cap));
          RwrConfig config;
          config.bins = bins;
          config.restart_prob = restart;
          config.max_iterations = cap;
          for (size_t i = 0; i < db.size(); ++i) {
            saved += ExpectCertifiedMatchesFullWalk(db.graph(i), space,
                                                    config);
          }
        }
      }
    }
  }
  EXPECT_GT(saved, 0u);  // the early stop actually fired
}

TEST(RwrCertifiedTest, MatchesFullWalkOnIsolatedDisconnectedAndTinyGraphs) {
  std::vector<Graph> graphs = {PathWithIsolatedVertex(), ThreeComponents(),
                               SingleVertex()};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    graphs.push_back(RandomLabeledGraph(seed, 37, 12));
  }
  GraphDatabase db;
  for (const Graph& g : graphs) db.Add(g);
  const FeatureSpace space = FeatureSpace::ForChemicalDatabase(db, 3);
  for (int bins : {1, 3, 10, 15}) {
    for (double restart : {0.05, 0.25, 0.6}) {
      for (int cap : {1, 3, 1000}) {
        RwrConfig config;
        config.bins = bins;
        config.restart_prob = restart;
        config.max_iterations = cap;
        for (size_t i = 0; i < graphs.size(); ++i) {
          SCOPED_TRACE("graph " + std::to_string(i) + " bins " +
                       std::to_string(bins) + " restart " +
                       std::to_string(restart) + " cap " +
                       std::to_string(cap));
          ExpectCertifiedMatchesFullWalk(graphs[i], space, config);
        }
      }
    }
  }
}

// Cliques with the given vertex labels, each joined to the next by one
// edge (last vertex of one to the first of the next).
Graph CliqueChain(const std::vector<std::vector<Label>>& cliques) {
  Graph g;
  VertexId last = -1;
  for (const std::vector<Label>& labels : cliques) {
    const VertexId first = g.num_vertices();
    for (Label l : labels) g.AddVertex(l);
    for (VertexId i = first; i < g.num_vertices(); ++i) {
      for (VertexId j = i + 1; j < g.num_vertices(); ++j) g.AddEdge(i, j, 0);
    }
    if (last >= 0) g.AddEdge(last, first, 0);
    last = g.num_vertices() - 1;
  }
  return g;
}

// Every bins in 1..15 for one (graph, restart): vectors equal the full
// walk's. Returns the number of sources that differ.
int CountBinsMismatches(const Graph& g, const FeatureSpace& features,
                        double restart) {
  RwrConfig config;
  config.restart_prob = restart;
  std::vector<std::vector<double>> mass;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mass.push_back(ReferenceMass(g, ReferenceRwr(g, v, config).p, features));
  }
  int mismatches = 0;
  for (int bins = 1; bins <= 15; ++bins) {
    config.bins = bins;
    const std::vector<NodeVector> vectors =
        GraphToVectors(g, 0, features, config);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      mismatches += vectors[v].values != Discretize(mass[v], bins);
    }
  }
  return mismatches;
}

// Slowly mixing graphs, where the certification bound is nearly tight:
// mass drifts through a bottleneck at close to the contraction rate, so
// a bound weaker than the proof's lets a slot cross a boundary after its
// column stopped.
TEST(RwrCertifiedTest, MatchesFullWalkOnSlowMixingCliqueChains) {
  // Two cliques (labels 0 and 2) joined by a 0-2 vertex path of label 1,
  // at low restart: the L1 bound δ(1-α)/α is nearly attained.
  FeatureSpace all;
  for (Label l : {0, 1, 2}) all.AddVertexFeature(l);
  for (int a = 3; a <= 8; ++a) {
    for (int b = 3; b <= 8; ++b) {
      for (int bridge = 0; bridge <= 2; ++bridge) {
        std::vector<std::vector<Label>> cliques = {std::vector<Label>(a, 0)};
        for (int i = 0; i < bridge; ++i) cliques.push_back({1});
        cliques.push_back(std::vector<Label>(b, 2));
        const Graph g = CliqueChain(cliques);
        for (double restart : {0.02, 0.05, 0.1, 0.2}) {
          EXPECT_EQ(CountBinsMismatches(g, all, restart), 0)
              << "cliques " << a << ", " << b << " bridge " << bridge
              << " restart " << restart;
        }
      }
    }
  }
  // A non-feature source clique (label 5) with one feature vertex, a
  // non-feature bottleneck clique, and a feature clique of label 0: the
  // feature mass total T is small, so the 2/T normalization term is
  // nearly attained too.
  FeatureSpace sparse;
  sparse.AddVertexFeature(0);
  sparse.AddVertexFeature(2);
  for (int a = 6; a <= 14; a += 2) {
    for (int b = 2; b <= 6; b += 2) {
      for (int c = 4; c <= 10; c += 2) {
        std::vector<Label> source(a, 5);
        source[0] = 2;
        const Graph g = CliqueChain(
            {source, std::vector<Label>(b, 5), std::vector<Label>(c, 0)});
        for (double restart : {0.1, 0.2, 0.3}) {
          EXPECT_EQ(CountBinsMismatches(g, sparse, restart), 0)
              << "cliques " << a << ", " << b << ", " << c << " restart "
              << restart;
        }
      }
    }
  }
}

// A star whose center has one leaf labeled 1 and `others` leaves labeled
// 2, with only the leaf labels as features: from every source the leaf-1
// slot gets exactly 1 / (1 + others) of the mass.
Graph LeafStar(int others, FeatureSpace* features) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddEdge(0, 1, 0);
  for (int i = 0; i < others; ++i) g.AddEdge(0, g.AddVertex(2), 0);
  features->AddVertexFeature(1);
  features->AddVertexFeature(2);
  return g;
}

TEST(RwrCertifiedTest, MassOnARoundingBoundaryNeverStopsEarly) {
  struct Case {
    int others;
    int bins;
  };
  // Slot masses 0.25 / 0.75 at bins 10 (2.5, 7.5) and bins 2 (0.5, 1.5);
  // 0.5 / 0.5 at bins 1 and 3 (0.5, 1.5).
  for (const Case c : {Case{3, 10}, Case{3, 2}, Case{1, 1}, Case{1, 3}}) {
    SCOPED_TRACE("others " + std::to_string(c.others) + " bins " +
                 std::to_string(c.bins));
    FeatureSpace features;
    const Graph g = LeafStar(c.others, &features);
    RwrConfig config;
    config.bins = c.bins;
    EXPECT_EQ(ExpectCertifiedMatchesFullWalk(g, features, config), 0u);
  }
}

TEST(RwrCertifiedTest, MassAwayFromBoundariesStopsEarly) {
  // The same stars at bins where no slot is near a boundary: every
  // source certifies at its first check.
  for (const int others : {1, 3}) {
    FeatureSpace features;
    const Graph g = LeafStar(others, &features);
    RwrConfig config;
    config.bins = others == 1 ? 10 : 4;  // 5 / 5 and 1 / 3
    EXPECT_GT(ExpectCertifiedMatchesFullWalk(g, features, config), 0u);
  }
}

TEST(SelectionTest, CumulativeCoverageEndsAtHundred) {
  GraphDatabase db = ToyChemDb();
  auto coverage = CumulativeAtomCoverage(db);
  ASSERT_EQ(coverage.size(), 4u);
  EXPECT_EQ(coverage[0].label, 0);  // C most frequent
  EXPECT_NEAR(coverage.back().cumulative_percent, 100.0, 1e-9);
  for (size_t i = 1; i < coverage.size(); ++i) {
    EXPECT_GE(coverage[i].cumulative_percent,
              coverage[i - 1].cumulative_percent);
    EXPECT_GE(coverage[i - 1].count, coverage[i].count);
  }
}

TEST(SelectionTest, TopKAtoms) {
  GraphDatabase db = ToyChemDb();
  auto top1 = TopKAtoms(db, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0], 0);
  EXPECT_EQ(TopKAtoms(db, 100).size(), 4u);
}

TEST(SelectionTest, GreedyImportanceOnly) {
  std::vector<double> imp = {0.1, 0.9, 0.5};
  auto chosen = GreedySelect(
      3, 2, [&](size_t i) { return imp[i]; },
      [](size_t, size_t) { return 0.0; });
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], 1u);
  EXPECT_EQ(chosen[1], 2u);
}

TEST(SelectionTest, GreedyPenalizesRedundancy) {
  // Items 0 and 1 are near-duplicates with top importance; item 2 is
  // slightly worse but dissimilar — Eq. 2 must pick {0 or 1} then 2.
  std::vector<double> imp = {1.0, 0.99, 0.8};
  auto sim = [](size_t a, size_t b) {
    if ((a == 0 && b == 1) || (a == 1 && b == 0)) return 1.0;
    return 0.0;
  };
  auto chosen = GreedySelect(3, 2, [&](size_t i) { return imp[i]; }, sim,
                             1.0, 1.0);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], 0u);
  EXPECT_EQ(chosen[1], 2u);
}

}  // namespace
}  // namespace graphsig::features
