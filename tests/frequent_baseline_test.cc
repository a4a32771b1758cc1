#include <gtest/gtest.h>

#include "classify/auc.h"
#include "classify/evaluation.h"
#include "classify/frequent_baseline.h"
#include "classify/sig_knn.h"
#include "data/datasets.h"
#include "graph/isomorphism.h"

namespace graphsig {
namespace {

using graph::Graph;
using graph::GraphDatabase;

TEST(FrequentBaselineTest, TrainsAndScores) {
  data::DatasetOptions options;
  options.size = 160;
  options.seed = 92;
  options.active_fraction = 0.25;
  GraphDatabase db = data::MakeCancerScreen("MCF-7", options);
  GraphDatabase train = classify::BalancedTrainingSample(db, 0.5, 4);
  classify::FrequentPatternClassifier freq;
  freq.Train(train);
  EXPECT_FALSE(freq.patterns().empty());
  // Frequent patterns are frequent: each occurs in a healthy share of
  // the training set.
  for (const Graph& p : freq.patterns()) {
    int64_t support = 0;
    for (const Graph& g : train.graphs()) {
      support += graph::IsSubgraphIsomorphic(p, g);
    }
    EXPECT_GE(support, static_cast<int64_t>(train.size()) / 10);
  }
}

TEST(FrequentBaselineTest, SignificantPatternsBeatFrequentOnes) {
  // The paper's Section V claim: frequency is not discriminativeness.
  data::DatasetOptions options;
  options.size = 260;
  options.seed = 93;
  options.active_fraction = 0.20;
  options.molecule.min_atoms = 8;
  options.molecule.max_atoms = 16;
  GraphDatabase db = data::MakeCancerScreen("SW-620", options);
  GraphDatabase train = classify::BalancedTrainingSample(db, 0.5, 5);

  classify::SigKnnConfig sig_config;
  sig_config.mining.cutoff_radius = 4;
  sig_config.mining.min_freq_percent = 2.0;
  classify::GraphSigClassifier sig(sig_config);
  sig.Train(train);

  classify::FrequentPatternClassifier freq;
  freq.Train(train);

  std::vector<classify::ScoredExample> sig_scored, freq_scored;
  for (const Graph& g : db.graphs()) {
    sig_scored.push_back({sig.Score(g), g.tag() == 1});
    freq_scored.push_back({freq.Score(g), g.tag() == 1});
  }
  const double sig_auc = classify::AreaUnderRoc(sig_scored);
  const double freq_auc = classify::AreaUnderRoc(freq_scored);
  EXPECT_GT(sig_auc, freq_auc);
  EXPECT_GT(sig_auc, 0.7);
}

}  // namespace
}  // namespace graphsig
