#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "classify/auc.h"
#include "classify/evaluation.h"
#include "classify/hungarian.h"
#include "classify/leap.h"
#include "classify/oa_kernel.h"
#include "classify/sig_knn.h"
#include "classify/svm.h"
#include "data/datasets.h"
#include "features/feature_space.h"
#include "features/rwr.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace graphsig::classify {
namespace {

TEST(AucTest, PerfectAndInvertedRanking) {
  std::vector<ScoredExample> perfect = {
      {0.9, true}, {0.8, true}, {0.2, false}, {0.1, false}};
  EXPECT_DOUBLE_EQ(AreaUnderRoc(perfect), 1.0);
  std::vector<ScoredExample> inverted = {
      {0.9, false}, {0.8, false}, {0.2, true}, {0.1, true}};
  EXPECT_DOUBLE_EQ(AreaUnderRoc(inverted), 0.0);
}

TEST(AucTest, AllTiedScoresGiveHalf) {
  std::vector<ScoredExample> tied = {
      {0.5, true}, {0.5, false}, {0.5, true}, {0.5, false}};
  EXPECT_DOUBLE_EQ(AreaUnderRoc(tied), 0.5);
}

TEST(AucTest, HandComputedMixedCase) {
  // Positives at 0.8, 0.4; negatives at 0.6, 0.2.
  // Pairs won: (0.8 vs both) = 2, (0.4 vs 0.2) = 1 -> 3/4.
  std::vector<ScoredExample> mixed = {
      {0.8, true}, {0.6, false}, {0.4, true}, {0.2, false}};
  EXPECT_DOUBLE_EQ(AreaUnderRoc(mixed), 0.75);
}

TEST(AucTest, RandomScoresNearHalf) {
  util::Rng rng(77);
  std::vector<ScoredExample> examples;
  for (int i = 0; i < 4000; ++i) {
    examples.push_back({rng.NextDouble(), rng.NextBernoulli(0.3)});
  }
  EXPECT_NEAR(AreaUnderRoc(examples), 0.5, 0.03);
}

TEST(AucTest, RocCurveEndpoints) {
  std::vector<ScoredExample> examples = {
      {0.9, true}, {0.7, false}, {0.5, true}, {0.1, false}};
  auto curve = RocCurve(examples);
  ASSERT_GE(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.front().false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.front().true_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().false_positive_rate, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().true_positive_rate, 1.0);
  // Monotone non-decreasing in both axes.
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].false_positive_rate,
              curve[i - 1].false_positive_rate);
    EXPECT_GE(curve[i].true_positive_rate, curve[i - 1].true_positive_rate);
  }
}

TEST(HungarianTest, KnownOptimum) {
  // Max-weight assignment must pick the anti-diagonal here.
  std::vector<std::vector<double>> scores = {
      {1.0, 5.0},
      {5.0, 1.0},
  };
  auto assignment = MaxWeightAssignment(scores);
  EXPECT_EQ(assignment[0], 1);
  EXPECT_EQ(assignment[1], 0);
  EXPECT_DOUBLE_EQ(AssignmentValue(scores, assignment), 10.0);
}

TEST(HungarianTest, MatchesBruteForceOnRandomMatrices) {
  util::Rng rng(88);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(5));
    std::vector<std::vector<double>> scores(n, std::vector<double>(n));
    for (auto& row : scores) {
      for (double& x : row) x = rng.NextDouble();
    }
    auto assignment = MaxWeightAssignment(scores);
    const double got = AssignmentValue(scores, assignment);
    // Brute force over all permutations.
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    double best = -1.0;
    do {
      double value = 0.0;
      for (int i = 0; i < n; ++i) value += scores[i][perm[i]];
      best = std::max(best, value);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(got, best, 1e-9) << "n=" << n << " trial=" << trial;
  }
}

TEST(SvmTest, SeparatesLinearlySeparableData) {
  // Points on a line: x > 0 positive, x < 0 negative.
  std::vector<std::vector<double>> examples;
  std::vector<int> labels;
  util::Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    const double x = rng.NextDouble() * 2.0 - 1.0;
    const double y = rng.NextDouble();
    if (std::fabs(x) < 0.1) continue;  // margin gap
    examples.push_back({x, y});
    labels.push_back(x > 0 ? 1 : -1);
  }
  LinearSvm svm;
  svm.Train(examples, labels);
  int correct = 0;
  for (size_t i = 0; i < examples.size(); ++i) {
    correct += (svm.Decision(examples[i]) > 0) == (labels[i] > 0);
  }
  EXPECT_GE(static_cast<double>(correct) / examples.size(), 0.95);
}

TEST(SvmTest, KernelSvmWithPrecomputedGram) {
  // 1-D separable data through an explicit linear gram matrix.
  std::vector<double> xs = {-2.0, -1.5, -1.0, 1.0, 1.5, 2.0};
  std::vector<int> labels = {-1, -1, -1, 1, 1, 1};
  const size_t n = xs.size();
  std::vector<std::vector<double>> gram(n, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) gram[i][j] = xs[i] * xs[j];
  }
  KernelSvm svm;
  svm.Train(gram, labels);
  for (size_t q = 0; q < n; ++q) {
    std::vector<double> row(n);
    for (size_t i = 0; i < n; ++i) row[i] = xs[q] * xs[i];
    EXPECT_EQ(svm.Decision(row) > 0, labels[q] > 0) << q;
  }
}

TEST(GTestScoreTest, ZeroWhenRatesEqualAndGrowsWithGap) {
  EXPECT_NEAR(GTestScore(0.3, 0.3, 100), 0.0, 1e-9);
  const double small_gap = GTestScore(0.4, 0.3, 100);
  const double large_gap = GTestScore(0.8, 0.1, 100);
  EXPECT_GT(small_gap, 0.0);
  EXPECT_GT(large_gap, small_gap);
  // Symmetric-ish in direction: discriminative either way scores > 0.
  EXPECT_GT(GTestScore(0.1, 0.8, 100), 0.0);
}

TEST(MinDistTest, PaperWorkedExample) {
  // Table I query vectors vs Table III training vectors.
  features::FeatureVec v1 = {1, 0, 0, 2};
  features::FeatureVec v2 = {1, 1, 0, 2};
  features::FeatureVec v3 = {2, 0, 1, 2};
  features::FeatureVec v4 = {1, 0, 1, 0};
  std::vector<features::FeatureVec> neg = {
      {0, 0, 1, 1}, {0, 1, 0, 0}, {1, 1, 0, 1}};
  std::vector<features::FeatureVec> pos = {
      {2, 0, 1, 3}, {1, 0, 0, 0}, {0, 0, 0, 1}};
  // v1: no negative is a sub-vector; P2 and P3 are both at distance 2.
  EXPECT_TRUE(std::isinf(MinDistToSubVector(v1, neg)));
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v1, pos), 2.0);
  // v2: N3 is a sub-vector at distance 1 (the paper's closest).
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v2, neg), 1.0);
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v2, pos), 3.0);
  // v4: P2 at distance 1; no negative applies.
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v4, pos), 1.0);
  EXPECT_TRUE(std::isinf(MinDistToSubVector(v4, neg)));
  // v3: N1 at distance 3 beats the positives at 4.
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v3, neg), 3.0);
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v3, pos), 4.0);
}

// --- End-to-end classifier quality on a planted dataset.

graph::GraphDatabase SmallScreen(uint64_t seed, size_t size) {
  data::DatasetOptions options;
  options.size = size;
  options.seed = seed;
  options.active_fraction = 0.20;  // denser actives keep the test small
  options.molecule.min_atoms = 8;
  options.molecule.max_atoms = 16;
  return data::MakeCancerScreen("MCF-7", options);
}

SigKnnConfig FastSigConfig() {
  SigKnnConfig config;
  config.mining.cutoff_radius = 4;
  config.mining.min_freq_percent = 2.0;
  config.mining.max_pvalue = 0.1;
  return config;
}

TEST(GraphSigClassifierTest, LearnsPlantedSignal) {
  graph::GraphDatabase db = SmallScreen(321, 240);
  graph::GraphDatabase train = BalancedTrainingSample(db, 0.5, 9);
  GraphSigClassifier classifier(FastSigConfig());
  classifier.Train(train);
  EXPECT_FALSE(classifier.positive_vectors().empty());

  std::vector<ScoredExample> scored;
  for (const graph::Graph& g : db.graphs()) {
    scored.push_back({classifier.Score(g), g.tag() == 1});
  }
  EXPECT_GT(AreaUnderRoc(scored), 0.70);
}

TEST(LeapClassifierTest, LearnsPlantedSignal) {
  graph::GraphDatabase db = SmallScreen(322, 200);
  graph::GraphDatabase train = BalancedTrainingSample(db, 0.5, 10);
  LeapConfig config;
  config.min_support_percent = 10.0;
  config.max_edges = 6;
  LeapClassifier classifier(config);
  classifier.Train(train);
  EXPECT_FALSE(classifier.patterns().empty());
  EXPECT_LE(classifier.patterns().size(), config.top_k_patterns);

  std::vector<ScoredExample> scored;
  for (const graph::Graph& g : db.graphs()) {
    scored.push_back({classifier.Score(g), g.tag() == 1});
  }
  EXPECT_GT(AreaUnderRoc(scored), 0.65);
}

TEST(OaKernelClassifierTest, LearnsPlantedSignal) {
  graph::GraphDatabase db = SmallScreen(323, 120);
  graph::GraphDatabase train = BalancedTrainingSample(db, 0.4, 11);
  OaKernelClassifier classifier;
  classifier.Train(train);

  std::vector<ScoredExample> scored;
  for (const graph::Graph& g : db.graphs()) {
    scored.push_back({classifier.Score(g), g.tag() == 1});
  }
  EXPECT_GT(AreaUnderRoc(scored), 0.60);
}

TEST(OaKernelTest, KernelProperties) {
  graph::GraphDatabase db = SmallScreen(324, 20);
  auto space = features::FeatureSpace::ForChemicalDatabase(db, 5);
  features::RwrConfig rwr;
  auto describe = [&](const graph::Graph& g) {
    GraphDescriptor d;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      d.push_back({g.vertex_label(v),
                   features::RwrFeatureDistribution(g, v, space, rwr)});
    }
    return d;
  };
  auto a = describe(db.graph(0));
  auto b = describe(db.graph(1));
  const double kab = OaKernelValue(a, b, 8.0);
  const double kba = OaKernelValue(b, a, 8.0);
  EXPECT_NEAR(kab, kba, 1e-9);  // symmetry
  const double kaa = OaKernelValue(a, a, 8.0);
  // Self-assignment is ideal: every node matches itself with score 1.
  EXPECT_NEAR(kaa, static_cast<double>(a.size()) / a.size(), 1e-9);
  EXPECT_LE(kab, 1.0 + 1e-9);
  EXPECT_GE(kab, 0.0);
}

TEST(EvaluationTest, CrossValidateShapesAndDeterminism) {
  graph::GraphDatabase db = SmallScreen(325, 150);
  EvalOptions options;
  options.folds = 3;
  options.active_train_fraction = 0.5;
  options.seed = 5;
  auto factory = [] {
    return std::make_unique<GraphSigClassifier>(FastSigConfig());
  };
  EvalSummary a = CrossValidate(db, factory, options);
  ASSERT_EQ(a.folds.size(), 3u);
  for (const FoldOutcome& f : a.folds) {
    EXPECT_GT(f.train_size, 0u);
    EXPECT_GT(f.test_size, 0u);
    EXPECT_GE(f.auc, 0.0);
    EXPECT_LE(f.auc, 1.0);
  }
  EXPECT_GE(a.mean_auc, 0.5);  // planted signal, should beat chance
  EvalSummary b = CrossValidate(db, factory, options);
  EXPECT_DOUBLE_EQ(a.mean_auc, b.mean_auc);  // same seed, same folds
}

TEST(EvaluationTest, BalancedSampleIsBalanced) {
  graph::GraphDatabase db = SmallScreen(326, 200);
  graph::GraphDatabase sample = BalancedTrainingSample(db, 0.3, 17);
  size_t pos = 0, neg = 0;
  for (const graph::Graph& g : sample.graphs()) {
    (g.tag() == 1 ? pos : neg) += 1;
  }
  EXPECT_EQ(pos, neg);
  EXPECT_GT(pos, 0u);
}

// --- The packed k-NN scan against Algorithm 3 over the reference
// Algorithm 4 (MinDistToSubVector).

// Algorithm 3 by brute force: each node vector votes for its nearer
// class (ties go to the positive class), and the k smallest (distance,
// class) pairs are summed largest first, the order Score pops its heap
// in, so equal inputs give bit-identical sums.
double OracleScore(const SigKnnModel& model, const graph::Graph& query,
                   int* finite_nodes, int* infinite_nodes) {
  std::vector<std::pair<double, int>> entries;
  for (const features::NodeVector& nv :
       features::GraphToVectors(query, -1, model.space, model.rwr)) {
    const double pos = MinDistToSubVector(nv.values, model.positive);
    const double neg = MinDistToSubVector(nv.values, model.negative);
    if (std::isinf(pos) && std::isinf(neg)) {
      ++*infinite_nodes;
      continue;
    }
    ++*finite_nodes;
    entries.push_back(neg < pos ? std::pair{neg, -1} : std::pair{pos, +1});
  }
  std::sort(entries.begin(), entries.end());
  entries.resize(std::min(entries.size(), static_cast<size_t>(model.k)));
  double score = 0.0;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    score += static_cast<double>(it->second) / (it->first + model.delta);
  }
  return score;
}

// A random tree whose vertex labels all lie in the feature space.
graph::Graph RandomLabeledTree(util::Rng* rng, int num_labels) {
  graph::Graph g;
  const int n = static_cast<int>(rng->NextInt(1, 14));
  for (int v = 0; v < n; ++v) {
    g.AddVertex(static_cast<graph::Label>(rng->NextInt(0, num_labels - 1)));
  }
  for (int v = 1; v < n; ++v) {
    g.AddEdge(static_cast<graph::VertexId>(rng->NextInt(0, v - 1)), v, 1);
  }
  return g;
}

SigKnnModel VertexLabelModel(size_t width) {
  SigKnnModel model;
  for (size_t label = 0; label < width; ++label) {
    model.space.AddVertexFeature(static_cast<graph::Label>(label));
  }
  return model;
}

// A class vector set: lowered copies of real node vectors (so scans
// hit), their slot rotations (equal sums), exact duplicates, and sparse
// random vectors (mostly misses).
std::vector<features::FeatureVec> RandomClassVectors(
    util::Rng* rng, const std::vector<features::FeatureVec>& pool,
    size_t count, size_t width, int bins) {
  std::vector<features::FeatureVec> out;
  while (out.size() < count) {
    features::FeatureVec v(width, 0);
    const int64_t kind = rng->NextInt(0, 3);
    if (kind == 0 && !out.empty()) {
      v = out[rng->NextBounded(out.size())];
      std::rotate(v.begin(), v.begin() + 1, v.end());
    } else if (kind == 1 && !out.empty()) {
      v = out[rng->NextBounded(out.size())];
    } else if (kind == 2) {
      v = pool[rng->NextBounded(pool.size())];
      for (int16_t& slot : v) {
        if (slot > 0 && rng->NextBernoulli(0.5)) {
          slot = static_cast<int16_t>(rng->NextInt(0, slot));
        }
      }
    } else {
      for (int16_t& slot : v) {
        if (rng->NextBernoulli(3.0 / static_cast<double>(width))) {
          slot = static_cast<int16_t>(rng->NextInt(1, bins));
        }
      }
    }
    out.push_back(std::move(v));
  }
  return out;
}

TEST(SigKnnScanTest, PackedScanMatchesBruteForceAlgorithm3) {
  int finite_nodes = 0, infinite_nodes = 0, empty_classes = 0;
  for (const size_t width : {1, 15, 16, 17, 78}) {
    util::Rng rng(0x5C4Aull + width);
    const int num_labels = static_cast<int>(width);
    for (int trial = 0; trial < 40; ++trial) {
      SigKnnModel model = VertexLabelModel(width);
      model.k = static_cast<int32_t>(rng.NextInt(1, 9));
      std::vector<features::FeatureVec> pool;
      for (int g = 0; g < 4; ++g) {
        for (const features::NodeVector& nv : features::GraphToVectors(
                 RandomLabeledTree(&rng, num_labels), -1, model.space,
                 model.rwr)) {
          pool.push_back(nv.values);
        }
      }
      // Every fifth trial leaves one class (or both) without vectors.
      const bool no_positive = trial % 5 == 1 || trial % 10 == 4;
      const bool no_negative = trial % 5 == 2 || trial % 10 == 4;
      empty_classes += no_positive + no_negative;
      if (!no_positive) {
        model.positive = RandomClassVectors(
            &rng, pool, static_cast<size_t>(rng.NextInt(1, 40)), width,
            model.rwr.bins);
      }
      if (!no_negative) {
        model.negative = RandomClassVectors(
            &rng, pool, static_cast<size_t>(rng.NextInt(1, 40)), width,
            model.rwr.bins);
      }
      const GraphSigClassifier classifier =
          GraphSigClassifier::FromModel(model);
      for (int q = 0; q < 6; ++q) {
        const graph::Graph query = RandomLabeledTree(&rng, num_labels);
        EXPECT_EQ(classifier.Score(query),
                  OracleScore(model, query, &finite_nodes, &infinite_nodes))
            << "width " << width << " trial " << trial << " query " << q;
      }
    }
  }
  // The sweep must exercise hits, whole-set misses and empty classes.
  EXPECT_GT(finite_nodes, 1000);
  EXPECT_GT(infinite_nodes, 100);
  EXPECT_GT(empty_classes, 0);
}

TEST(SigKnnScanTest, NoSubVectorAnywhereScoresZero) {
  // Every stored vector is full in every slot, so no node vector of a
  // query (slot sum ~bins) contains one: all distances are infinite.
  for (const size_t width : {15, 16, 17, 78}) {
    SigKnnModel model = VertexLabelModel(width);
    const features::FeatureVec full(width, 10);
    model.positive = {full};
    model.negative = {full, features::FeatureVec(width, 9)};
    const GraphSigClassifier classifier = GraphSigClassifier::FromModel(model);
    util::Rng rng(width);
    for (int q = 0; q < 10; ++q) {
      const graph::Graph query =
          RandomLabeledTree(&rng, static_cast<int>(width));
      int finite_nodes = 0, infinite_nodes = 0;
      EXPECT_EQ(OracleScore(model, query, &finite_nodes, &infinite_nodes),
                0.0);
      EXPECT_EQ(finite_nodes, 0);
      EXPECT_EQ(infinite_nodes, query.num_vertices());
      EXPECT_EQ(classifier.Score(query), 0.0) << "width " << width;
    }
  }
}

TEST(SigKnnScanTest, ScoresOnSeededScreenArePinned) {
  // Recorded on the slot-by-slot scan that preceded the packed index;
  // the packed scan must reproduce every bit.
  const graph::GraphDatabase db = SmallScreen(321, 80);
  GraphSigClassifier classifier(FastSigConfig());
  classifier.Train(BalancedTrainingSample(db, 0.5, 9));
  const GraphSigClassifier imported =
      GraphSigClassifier::FromModel(classifier.ExportModel());
  const double expected[] = {
      1.4495643013602484, 6000.0001249063043, 2.5825766150931448,
      -0.11903458170007897, -1.4992503748125938, 0.99962515617972059,
      1.2925693004689978, 6000.7498125468628, 1.8661545889766145,
      2004.0800378031131, 6000.9990009990015, 0.049810979757003659,
      0.61753491888536827, 1.8161077028378383, 0.94964764855702621,
      0.31674630019811101,
  };
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(classifier.Score(db.graph(i)), expected[i]) << "graph " << i;
    EXPECT_EQ(imported.Score(db.graph(i)), expected[i]) << "graph " << i;
  }
}

}  // namespace
}  // namespace graphsig::classify
