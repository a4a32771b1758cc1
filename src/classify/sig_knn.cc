#include "classify/sig_knn.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

#include "features/rwr.h"
#include "util/check.h"

namespace graphsig::classify {
namespace {

int32_t SlotSum(const features::FeatureVec& v) {
  int32_t sum = 0;
  for (int16_t x : v) sum += x;
  return sum;
}

// Bit s % 64 is set for every nonzero slot s. v ⊆ x needs each nonzero
// slot of v to be nonzero in x, so SupportMask(v) & ~SupportMask(x) != 0
// rules v out (folding slots 64+ onto low bits only lets more rows
// through to the exact test).
uint64_t SupportMask(const features::FeatureVec& v) {
  uint64_t mask = 0;
  for (size_t s = 0; s < v.size(); ++s) {
    if (v[s] != 0) mask |= 1ull << (s % 64);
  }
  return mask;
}

}  // namespace

double MinDistToSubVector(const features::FeatureVec& x,
                          const std::vector<features::FeatureVec>& set) {
  double best = std::numeric_limits<double>::infinity();
  for (const features::FeatureVec& v : set) {
    GS_CHECK_EQ(v.size(), x.size());
    double dist = 0.0;
    bool sub = true;
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] > x[i]) {
        sub = false;
        break;
      }
      dist += static_cast<double>(x[i] - v[i]);
    }
    if (sub && dist < best) best = dist;
  }
  return best;
}

void GraphSigClassifier::Train(const graph::GraphDatabase& training) {
  graph::GraphDatabase positives = training.FilterByTag(1);
  graph::GraphDatabase negatives = training.FilterByTag(0);
  GS_CHECK(!positives.empty());
  GS_CHECK(!negatives.empty());

  // One shared feature space so class vectors and queries line up.
  space_ = features::FeatureSpace::ForChemicalDatabase(
      training, config_.mining.top_k_atoms);

  core::GraphSig miner(config_.mining);
  positive_.clear();
  negative_.clear();
  for (const auto& [label, sv] :
       miner.MineSignificantVectors(positives, nullptr, &space_)) {
    positive_.push_back(sv.vector);
  }
  for (const auto& [label, sv] :
       miner.MineSignificantVectors(negatives, nullptr, &space_)) {
    negative_.push_back(sv.vector);
  }
  positive_index_ = BuildIndex(positive_, space_.size());
  negative_index_ = BuildIndex(negative_, space_.size());
}

SigKnnModel GraphSigClassifier::ExportModel() const {
  GS_CHECK_GT(space_.size(), 0u);  // must be trained
  SigKnnModel model;
  model.k = config_.k;
  model.delta = config_.delta;
  model.rwr = config_.mining.rwr;
  model.space = space_;
  model.positive = positive_;
  model.negative = negative_;
  return model;
}

GraphSigClassifier GraphSigClassifier::FromModel(const SigKnnModel& model) {
  SigKnnConfig config;
  config.k = model.k;
  config.delta = model.delta;
  config.mining.rwr = model.rwr;
  GraphSigClassifier classifier(config);
  classifier.space_ = model.space;
  classifier.positive_ = model.positive;
  classifier.negative_ = model.negative;
  classifier.positive_index_ =
      BuildIndex(model.positive, model.space.size());
  classifier.negative_index_ =
      BuildIndex(model.negative, model.space.size());
  return classifier;
}

GraphSigClassifier::VectorIndex GraphSigClassifier::BuildIndex(
    std::vector<features::FeatureVec> vectors, size_t width) {
  std::sort(vectors.begin(), vectors.end());
  vectors.erase(std::unique(vectors.begin(), vectors.end()), vectors.end());
  std::stable_sort(vectors.begin(), vectors.end(),
                   [](const features::FeatureVec& a,
                      const features::FeatureVec& b) {
                     return SlotSum(a) > SlotSum(b);
                   });
  VectorIndex index;
  index.vectors = features::PackedVectorSet(width);
  index.vectors.Reserve(vectors.size());
  index.sums.reserve(vectors.size());
  index.supports.reserve(vectors.size());
  for (const features::FeatureVec& v : vectors) {
    index.vectors.Add(v);
    index.sums.push_back(SlotSum(v));
    index.supports.push_back(SupportMask(v));
  }
  return index;
}

double GraphSigClassifier::MinDistIndexed(const PackedQuery& x,
                                          const VectorIndex& index) {
  const size_t words = index.vectors.words_per_vector();
  const size_t n = index.sums.size();
  // Rows with a larger sum cannot be sub-vectors of x.
  size_t i = std::lower_bound(index.sums.begin(), index.sums.end(), x.sum,
                              std::greater<int32_t>()) -
             index.sums.begin();
  for (; i < n; ++i) {
    if ((index.supports[i] & ~x.support) != 0) continue;
    const uint64_t* v = index.vectors.row(static_cast<int32_t>(i));
    size_t w = 0;
    while (w < words && features::PackedGtMask(v[w], x.words[w]) == 0) ++w;
    if (w == words) return static_cast<double>(x.sum - index.sums[i]);
  }
  return std::numeric_limits<double>::infinity();
}

double GraphSigClassifier::Score(const graph::Graph& query) const {
  GS_CHECK_GT(space_.size(), 0u);  // must be trained
  auto node_vectors = features::GraphToVectors(query, /*graph_index=*/-1,
                                               space_, config_.mining.rwr);
  // Pack every node vector once; both class scans read the same words.
  features::PackedVectorSet packed(space_.size());
  packed.Reserve(node_vectors.size());
  for (const features::NodeVector& nv : node_vectors) packed.Add(nv.values);
  // Keep the k globally smallest (distance, class) pairs (Algorithm 3's
  // priority queue): a max-heap holding at most k entries.
  using Entry = std::pair<double, int>;  // distance, +1 / -1
  std::priority_queue<Entry> heap;
  for (size_t n = 0; n < node_vectors.size(); ++n) {
    const features::FeatureVec& values = node_vectors[n].values;
    const PackedQuery x{packed.row(static_cast<int32_t>(n)), SlotSum(values),
                        SupportMask(values)};
    const double pos_dist = MinDistIndexed(x, positive_index_);
    const double neg_dist = MinDistIndexed(x, negative_index_);
    if (std::isinf(pos_dist) && std::isinf(neg_dist)) continue;
    Entry entry = neg_dist < pos_dist ? Entry{neg_dist, -1}
                                      : Entry{pos_dist, +1};
    heap.push(entry);
    if (heap.size() > static_cast<size_t>(config_.k)) heap.pop();
  }
  double score = 0.0;
  while (!heap.empty()) {
    const auto& [dist, cls] = heap.top();
    score += static_cast<double>(cls) / (dist + config_.delta);
    heap.pop();
  }
  return score;
}

}  // namespace graphsig::classify
