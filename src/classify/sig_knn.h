#ifndef GRAPHSIG_CLASSIFY_SIG_KNN_H_
#define GRAPHSIG_CLASSIFY_SIG_KNN_H_

#include <cstdint>
#include <vector>

#include "classify/classifier.h"
#include "core/graphsig.h"
#include "features/feature_space.h"
#include "features/feature_vector.h"
#include "features/packed_vector_set.h"

namespace graphsig::classify {

// Algorithm 4: distance from vector x to the closest sub-feature vector
// in `set`. A member v contributes sum_i (x_i - v_i) if v ⊆ x, else
// infinity. Returns infinity when no member is a sub-vector of x. This
// is the scalar reference: GraphSigClassifier::Score scans a packed
// index instead, and tests check the two agree bit for bit.
double MinDistToSubVector(const features::FeatureVec& x,
                          const std::vector<features::FeatureVec>& set);

struct SigKnnConfig {
  // Feature-phase thresholds used to mine the significant vectors from
  // each training class.
  core::GraphSigConfig mining;
  int k = 9;            // paper's value in Section VI-D
  double delta = 1e-3;  // the small additive before inverting distances
};

// The trained state of GraphSigClassifier, detached from the class so it
// can be serialized into a model artifact (src/model/) and rebuilt in a
// query-serving process without re-mining. Everything Score() depends on
// is here: the k-NN parameters, the RWR featurization config that query
// vectors must be computed with, the shared feature space, and the
// significant sub-feature vectors of both classes.
struct SigKnnModel {
  int32_t k = 9;
  double delta = 1e-3;
  features::RwrConfig rwr;
  features::FeatureSpace space;
  std::vector<features::FeatureVec> positive;
  std::vector<features::FeatureVec> negative;

  // A model with no feature space cannot score anything.
  bool empty() const { return space.size() == 0; }
};

// The classifier of Section V (Algorithm 3): mine significant
// sub-feature vectors from the positive and the negative training
// graphs, then classify a query by a distance-weighted vote of the k
// globally closest significant vectors over the query's node vectors.
class GraphSigClassifier : public GraphClassifier {
 public:
  explicit GraphSigClassifier(SigKnnConfig config = {}) : config_(config) {}

  void Train(const graph::GraphDatabase& training) override;
  double Score(const graph::Graph& query) const override;
  std::string name() const override { return "GraphSig"; }

  // Snapshot of the trained state for serialization. Requires a trained
  // (or imported) classifier.
  SigKnnModel ExportModel() const;
  // Rebuilds a ready-to-score classifier from a snapshot; the scan
  // indexes are reconstructed, so FromModel(ExportModel()) scores
  // identically to the original.
  static GraphSigClassifier FromModel(const SigKnnModel& model);

  const features::FeatureSpace& feature_space() const { return space_; }
  const std::vector<features::FeatureVec>& positive_vectors() const {
    return positive_;
  }
  const std::vector<features::FeatureVec>& negative_vectors() const {
    return negative_;
  }

 private:
  // Distinct vectors sorted by slot-sum descending, packed 16 four-bit
  // slots per word (features::PackedVectorSet, DESIGN.md §14), with
  // each row's slot sum and support mask. For any sub-vector v of x,
  // dist(x, v) = sum(x) - sum(v), so the first sub-vector found in
  // descending-sum order is the closest. A scan binary-searches past the
  // rows whose sum exceeds sum(x) (they cannot be sub-vectors), rejects
  // a row whose support mask has a bit outside x's, tests "v ⊆ x" word
  // by word with PackedGtMask, and exits at the first hit.
  //
  // Packing needs every slot in [0, kPackedMaxSlotValue = 15]. Slots lie
  // in [0, rwr.bins]: query vectors by Discretize, stored vectors because
  // model::DecodeArtifact rejects a classifier whose bins lie outside
  // [1, 15] or whose vectors are not space.size() slots wide with slots
  // in [0, bins].
  struct VectorIndex {
    features::PackedVectorSet vectors;  // rows sum-descending
    std::vector<int32_t> sums;          // slot sum of each row
    std::vector<uint64_t> supports;     // SupportMask of each row
  };
  // One query node vector as a scan reads it.
  struct PackedQuery {
    const uint64_t* words = nullptr;  // words_per_vector() packed words
    int32_t sum = 0;
    uint64_t support = 0;
  };
  static VectorIndex BuildIndex(std::vector<features::FeatureVec> vectors,
                                size_t width);
  // Algorithm 4 over an index; bit-identical to MinDistToSubVector.
  static double MinDistIndexed(const PackedQuery& x,
                               const VectorIndex& index);

  SigKnnConfig config_;
  features::FeatureSpace space_;
  std::vector<features::FeatureVec> positive_;
  std::vector<features::FeatureVec> negative_;
  VectorIndex positive_index_;
  VectorIndex negative_index_;
};

}  // namespace graphsig::classify

#endif  // GRAPHSIG_CLASSIFY_SIG_KNN_H_
