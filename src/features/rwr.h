#ifndef GRAPHSIG_FEATURES_RWR_H_
#define GRAPHSIG_FEATURES_RWR_H_

#include <functional>
#include <vector>

#include "features/feature_space.h"
#include "features/feature_vector.h"
#include "graph/csr.h"
#include "graph/graph_database.h"

namespace graphsig::features {

// Random Walk with Restart featurization (Section II-C): the "sliding
// window" of GraphSig. The walker starts at a source node; each step it
// restarts to the source with probability `restart_prob`, otherwise it
// moves to a uniformly random neighbor. The stationary visit distribution
// is computed by deterministic power iteration, then converted to a mass
// over features: each edge feature receives the stationary rate at which
// that edge is traversed; each vertex-label feature receives the rate of
// arrivals at such a vertex over edges whose type is NOT a feature. The
// distribution is normalized and discretized into `bins` bins by
// round(bins * value) — paper: 0.07 -> 1, 0.34 -> 3 at bins = 10.
// Which featurizer GraphToVectors applies. kRwr is the paper's method;
// kWindowCount is the ablation it argues against (plain occurrence
// counts, no proximity information).
enum class Featurizer { kRwr, kWindowCount };

struct RwrConfig {
  double restart_prob = 0.25;  // alpha; ~1/alpha jumps per excursion
  double epsilon = 1e-9;       // L1 convergence threshold
  int max_iterations = 1000;   // safety cap for power iteration
  int bins = 10;
  // If > 0, the walk is confined to the BFS ball of this radius around
  // the source (a hard window). 0 lets the restart do the localizing,
  // which is the paper's configuration. For the kWindowCount featurizer
  // this is the counting window (0 = whole graph).
  int radius = 0;
  Featurizer featurizer = Featurizer::kRwr;
};

// Stationary node-visit distribution of RWR from `source`. Entry v is the
// stationary probability of the walker standing at v.
std::vector<double> RwrStationaryDistribution(const graph::Graph& g,
                                              graph::VertexId source,
                                              const RwrConfig& config);

// CSR overload: same values, same rwr/* work counters, byte for byte —
// the power iteration visits neighbors in the same order. For
// radius <= 0 both overloads run RwrAllSources' block kernel with a
// one-source block.
std::vector<double> RwrStationaryDistribution(const graph::CsrGraph& g,
                                              graph::VertexId source,
                                              const RwrConfig& config);

// Stationary distribution of every vertex of `g` as the source, each
// handed once to `emit(source, distribution)`. Values and rwr/* counters
// equal a per-source RwrStationaryDistribution call, byte for byte. The
// unconfined walk (radius <= 0) power-iterates a fixed-width block of
// sources together (scratch O(num_vertices * block)), so sources are
// emitted in convergence order, not source order; rwr/* counters are
// flushed per source, in source order, after the last emit. The
// radius-confined walk runs and emits one source at a time, in order.
using RwrEmit =
    std::function<void(graph::VertexId, const std::vector<double>&)>;
void RwrAllSources(const graph::CsrGraph& g, const RwrConfig& config,
                   const RwrEmit& emit);

// Continuous feature-mass distribution (one slot per feature of
// `features`), normalized to sum 1 when any mass exists.
std::vector<double> RwrFeatureDistribution(const graph::Graph& g,
                                           graph::VertexId source,
                                           const FeatureSpace& features,
                                           const RwrConfig& config);

// Ablation featurizer (Table II discussion): plain occurrence counts of
// features inside the radius window (radius <= 0 means the whole graph),
// normalized the same way. Preserves strictly less structure than RWR.
std::vector<double> CountFeatureDistribution(const graph::Graph& g,
                                             graph::VertexId source,
                                             const FeatureSpace& features,
                                             int radius);

// round(bins * value) per slot, clamped to [0, bins].
FeatureVec Discretize(const std::vector<double>& distribution, int bins);

// One NodeVector per node of `g` (RWR featurizer: the RwrAllSources walk
// over one CSR build of `g`). An unconfined walk stops a source early
// once its discretized vectors are certified to equal those of the fully
// iterated walk (DESIGN.md §14), so the vectors are identical but
// rwr/power_iterations and rwr/float_ops count only the steps run.
std::vector<NodeVector> GraphToVectors(const graph::Graph& g,
                                       int32_t graph_index,
                                       const FeatureSpace& features,
                                       const RwrConfig& config);

// One NodeVector per node of every graph of `db` — the D of Algorithm 2.
// With num_threads > 1 the graphs are featurized in parallel; the output
// order (graph 0's nodes, graph 1's nodes, ...) and every value are
// identical to the single-threaded run.
std::vector<NodeVector> DatabaseToVectors(const graph::GraphDatabase& db,
                                          const FeatureSpace& features,
                                          const RwrConfig& config,
                                          int num_threads = 1);

}  // namespace graphsig::features

#endif  // GRAPHSIG_FEATURES_RWR_H_
