#include "features/rwr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "graph/csr.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace graphsig::features {
namespace {

// Work counters for the power iteration (DESIGN.md §12). All three are
// deterministic: iteration counts and the float-op tally depend only on
// the graph and the config, never on scheduling. Hot loops accumulate
// into locals and flush once per source to keep the per-step cost zero.
struct RwrMetrics {
  obs::Counter* sources;
  obs::Counter* iterations;
  obs::Counter* float_ops;

  static const RwrMetrics& Get() {
    static const RwrMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("rwr/sources"),
        obs::MetricsRegistry::Global().GetCounter("rwr/power_iterations"),
        obs::MetricsRegistry::Global().GetCounter("rwr/float_ops")};
    return m;
  }

  void Flush(uint64_t iters, uint64_t flops) const {
    sources->Increment();
    iterations->Add(iters);
    float_ops->Add(flops);
  }
};

// Per-feature mass of a stationary node distribution, with every feature
// lookup done once per graph: one entry per edge that feeds any slot, in
// edge order. Each pass adds the same terms to the same slots in the same
// order (the float-add order is part of the byte-identical output
// contract). An edge feeds its edge-feature slot from traversals in both
// directions; a non-feature edge feeds the destination's atom slot
// instead (Section II-B: "an atom-based feature is updated only when the
// edge-type traversed is not in F"). The stationary rate of traversing
// u -> v is p[u] / degree(u).
class FeatureMass {
 public:
  FeatureMass(const graph::Graph& g, const FeatureSpace& features)
      : num_slots_(features.size()) {
    for (const graph::EdgeRecord& e : g.edges()) {
      const graph::Label lu = g.vertex_label(e.u);
      const graph::Label lv = g.vertex_label(e.v);
      const Entry entry = {static_cast<size_t>(e.u),
                           static_cast<size_t>(e.v),
                           g.degree(e.u),
                           g.degree(e.v),
                           features.EdgeFeature(lu, lv, e.label),
                           features.VertexFeature(lu),
                           features.VertexFeature(lv)};
      if (entry.edge_slot >= 0 || entry.slot_u >= 0 || entry.slot_v >= 0) {
        entries_.push_back(entry);
      }
    }
  }

  size_t num_slots() const { return num_slots_; }
  size_t num_entries() const { return entries_.size(); }

  // Writes the feature mass of the node distribution p (entry v at
  // p[v * stride]) to *mass, normalized to sum 1 when any mass exists,
  // and returns the total before normalization.
  double Accumulate(const double* p, size_t stride,
                    std::vector<double>* mass) const {
    mass->assign(num_slots_, 0.0);
    double* m = mass->data();
    for (const Entry& e : entries_) {
      const double rate_uv = p[e.u * stride] / e.degree_u;
      const double rate_vu = p[e.v * stride] / e.degree_v;
      if (e.edge_slot >= 0) {
        m[e.edge_slot] += rate_uv + rate_vu;
      } else {
        if (e.slot_v >= 0) m[e.slot_v] += rate_uv;
        if (e.slot_u >= 0) m[e.slot_u] += rate_vu;
      }
    }
    double total = 0.0;
    for (double x : *mass) total += x;
    if (total > 0.0) {
      for (double& x : *mass) x /= total;
    }
    return total;
  }

 private:
  struct Entry {
    size_t u;
    size_t v;
    int32_t degree_u;  // >= 1: the edge itself
    int32_t degree_v;
    int edge_slot;
    int slot_u;
    int slot_v;
  };
  size_t num_slots_;
  std::vector<Entry> entries_;
};

// Sources the unconfined walk power-iterates together: one column per
// source in a row-major n x kRwrBlock buffer, so one pass over the
// adjacency serves the whole block and scratch stays O(n * kRwrBlock).
constexpr int kRwrBlock = 8;

// The block kernel's default early-stop hook: every column runs to
// convergence or max_iterations.
struct NeverStop {
  bool operator()(size_t, uint64_t, double, const double*, size_t) const {
    return false;
  }
};

// Unconfined walk (radius <= 0): no window bookkeeping, effective
// out-degree is the plain degree. This is the hot loop of both GraphSig
// featurization and query-time classification. It runs the power
// iteration of every source in `sources`, kWidth columns at a time; a
// column that converges (or hits max_iterations) is handed to
// `emit(k, distribution)` — k indexes `sources` — then zeroed and
// refilled with the next pending source.
//
// `stop(k, iteration, delta, cell, stride)` is asked after every step a
// column has not converged: column k's distribution is at cell[v * stride]
// and delta is its L1 step. Returning true retires the column without an
// emit (the hook has recorded what it needs); NeverStop keeps the plain
// walk.
//
// Each column does exactly the float ops of a one-source iteration, in
// the same order: (1-α)·p/deg per vertex, neighbor adds in (v ascending,
// adjacency) order, the restart term, then the delta sum in v order.
// Where a column's p[v] is zero the block adds +0.0, which is exact on
// these non-negative values, so every column is bit-identical to the
// one-source walk; rwr/float_ops counts only its nonzero p[v], as that
// walk did. Templated over the graph representation (Graph and CsrGraph
// list neighbors in the same order).
template <int kWidth, typename GraphT, typename Emit,
          typename Stop = NeverStop>
void RwrBlock(const GraphT& g, std::span<const graph::VertexId> sources,
              const RwrConfig& config, Emit&& emit, Stop&& stop = {}) {
  const double alpha = config.restart_prob;
  const graph::VertexId n = g.num_vertices();
  const size_t cells = static_cast<size_t>(n) * kWidth;
  std::vector<double> p(cells, 0.0);
  std::vector<double> next(cells, 0.0);
  std::vector<double> column(static_cast<size_t>(n));
  std::vector<uint64_t> iters(sources.size(), 0);
  std::vector<uint64_t> flops(sources.size(), 0);
  // slot[j]: the index into `sources` column j iterates, -1 when idle.
  std::array<int64_t, kWidth> slot;
  size_t pending = 0;
  int active = 0;
  auto load = [&](int j) {
    slot[j] = -1;
    while (pending < sources.size()) {
      const size_t k = pending++;
      if (config.max_iterations <= 0) {
        // No step runs: the walker stays at its source.
        std::fill(column.begin(), column.end(), 0.0);
        column[sources[k]] = 1.0;
        emit(k, column);
        continue;
      }
      slot[j] = static_cast<int64_t>(k);
      p[static_cast<size_t>(sources[k]) * kWidth + j] = 1.0;
      ++active;
      return;
    }
  };
  for (int j = 0; j < kWidth; ++j) load(j);

  while (active > 0) {
    std::fill(next.begin(), next.end(), 0.0);
    std::array<double, kWidth> dangling{};
    std::array<uint64_t, kWidth> step_flops{};
    for (graph::VertexId v = 0; v < n; ++v) {
      const double* pv = &p[static_cast<size_t>(v) * kWidth];
      bool any = false;
      for (int j = 0; j < kWidth; ++j) any |= pv[j] != 0.0;
      if (!any) continue;
      const int degree = g.degree(v);
      if (degree == 0) {
        for (int j = 0; j < kWidth; ++j) {
          dangling[j] += pv[j];
          step_flops[j] += pv[j] != 0.0 ? 1 : 0;
        }
        continue;
      }
      std::array<double, kWidth> share;
      for (int j = 0; j < kWidth; ++j) {
        share[j] = (1.0 - alpha) * pv[j] / degree;
        step_flops[j] +=
            pv[j] != 0.0 ? 2 + static_cast<uint64_t>(degree) : 0;
      }
      for (const graph::AdjEntry& adj : g.neighbors(v)) {
        double* out = &next[static_cast<size_t>(adj.to) * kWidth];
        for (int j = 0; j < kWidth; ++j) out[j] += share[j];
      }
    }
    for (int j = 0; j < kWidth; ++j) {
      if (slot[j] < 0) continue;
      next[static_cast<size_t>(sources[slot[j]]) * kWidth + j] +=
          alpha * (1.0 - dangling[j]) + dangling[j];
    }
    std::array<double, kWidth> delta{};
    for (size_t cell = 0; cell < cells; cell += kWidth) {
      for (int j = 0; j < kWidth; ++j) {
        delta[j] += std::abs(next[cell + j] - p[cell + j]);
      }
    }
    p.swap(next);
    for (int j = 0; j < kWidth; ++j) {
      if (slot[j] < 0) continue;
      const size_t k = static_cast<size_t>(slot[j]);
      ++iters[k];
      flops[k] += step_flops[j] + 2 * static_cast<uint64_t>(n);
      const bool converged =
          delta[j] < config.epsilon ||
          iters[k] >= static_cast<uint64_t>(config.max_iterations);
      if (!converged && !stop(k, iters[k], delta[j], &p[j], kWidth)) {
        continue;
      }
      for (graph::VertexId v = 0; v < n; ++v) {
        double& cell = p[static_cast<size_t>(v) * kWidth + j];
        column[v] = cell;
        cell = 0.0;
      }
      if (converged) emit(k, column);
      --active;
      load(j);
    }
  }
  for (size_t k = 0; k < sources.size(); ++k) {
    RwrMetrics::Get().Flush(iters[k], flops[k]);
  }
}

// Radius-confined walk (radius > 0), one source at a time; templated
// over the graph representation like RwrBlock.
template <typename GraphT>
std::vector<double> RwrConfined(const GraphT& g, graph::VertexId source,
                                const RwrConfig& config) {
  std::vector<bool> in_window(g.num_vertices(), false);
  for (graph::VertexId v : g.VerticesWithinRadius(source, config.radius)) {
    in_window[v] = true;
  }

  // Effective out-degree counts only in-window neighbors; a walker at a
  // node with no usable neighbor restarts deterministically.
  std::vector<int> out_degree(g.num_vertices(), 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!in_window[v]) continue;
    for (const graph::AdjEntry& adj : g.neighbors(v)) {
      if (in_window[adj.to]) ++out_degree[v];
    }
  }

  const double alpha = config.restart_prob;
  std::vector<double> p(g.num_vertices(), 0.0);
  p[source] = 1.0;
  std::vector<double> next(g.num_vertices(), 0.0);
  uint64_t iters = 0, flops = 0;
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    ++iters;
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;  // mass at nodes with no onward move
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (p[v] == 0.0 || !in_window[v]) continue;
      if (out_degree[v] == 0) {
        dangling += p[v];
        ++flops;
        continue;
      }
      const double share = (1.0 - alpha) * p[v] / out_degree[v];
      flops += 2 + static_cast<uint64_t>(out_degree[v]);
      for (const graph::AdjEntry& adj : g.neighbors(v)) {
        if (in_window[adj.to]) next[adj.to] += share;
      }
    }
    next[source] += alpha * (1.0 - dangling) + dangling;
    double delta = 0.0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      delta += std::abs(next[v] - p[v]);
    }
    flops += 2 * static_cast<uint64_t>(g.num_vertices());
    p.swap(next);
    if (delta < config.epsilon) break;
  }
  RwrMetrics::Get().Flush(iters, flops);
  return p;
}

template <typename GraphT>
std::vector<double> RwrStationaryImpl(const GraphT& g,
                                      graph::VertexId source,
                                      const RwrConfig& config) {
  GS_CHECK_GE(source, 0);
  GS_CHECK_LT(source, g.num_vertices());
  GS_CHECK_GT(config.restart_prob, 0.0);
  GS_CHECK_LE(config.restart_prob, 1.0);
  if (config.radius > 0) return RwrConfined(g, source, config);
  std::vector<double> distribution;
  RwrBlock<1>(g, std::span<const graph::VertexId>(&source, 1), config,
              [&](size_t, const std::vector<double>& p) { distribution = p; });
  return distribution;
}

// Every vertex of `g` as a source: the confined walk one at a time in
// order, the unconfined one through the block kernel with `stop`.
template <typename Emit, typename Stop>
void AllSources(const graph::CsrGraph& g, const RwrConfig& config,
                Emit&& emit, Stop&& stop) {
  GS_CHECK_GT(config.restart_prob, 0.0);
  GS_CHECK_LE(config.restart_prob, 1.0);
  if (config.radius > 0) {
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      emit(v, RwrConfined(g, v, config));
    }
    return;
  }
  std::vector<graph::VertexId> sources(static_cast<size_t>(g.num_vertices()));
  for (size_t v = 0; v < sources.size(); ++v) {
    sources[v] = static_cast<graph::VertexId>(v);
  }
  RwrBlock<kRwrBlock>(g, sources, config,
                      [&](size_t v, const std::vector<double>& p) {
                        emit(static_cast<graph::VertexId>(v), p);
                      },
                      stop);
}

// Certified early stop of the block walk for GraphToVectors (DESIGN.md
// §14), which keeps only Discretize(mass) of each source's distribution.
// A column may stop at step k once its bins provably equal those of the
// iterate the plain walk returns (first δ < ε, or max_iterations):
//   - the power step, with dangling mass sent back to the source, is an
//     L1 contraction with factor 1-α, so no later iterate is farther
//     than D = δ_k (1-α)/α from p_k;
//   - the feature mass is linear with column sums <= 1, so normalizing
//     by its total T moves each slot by at most 2D/T.
// A column is certified when every slot's bins·m_i lies farther than
// bins·2(D + slop)/T from a rounding boundary (x.5); slop bounds the
// float rounding of the walk and of both mass passes. A slot exactly on
// a boundary never certifies, so such a column runs to the plain stop.
// After a failed check the next one is scheduled for the step at which
// the contraction bound first clears the closest boundary.
class CertifiedBins {
 public:
  CertifiedBins(const graph::CsrGraph& g, const FeatureMass& mass,
                const RwrConfig& config, std::vector<NodeVector>* out)
      : mass_(mass),
        alpha_(config.restart_prob),
        bins_(config.bins),
        next_check_(static_cast<size_t>(g.num_vertices()), 1),
        out_(out) {
    int max_degree = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      max_degree = std::max(max_degree, g.degree(v));
    }
    // Per-step rounding of the walk is at most (max_degree + n + 3) ulps
    // of its unit mass, and the contraction sums it to at most 1/α per
    // remaining step; each mass pass adds (E + S + n + 4) ulps. Doubled
    // for margin.
    const double n = g.num_vertices();
    const double steps = std::max(config.max_iterations, 1);
    slop_ = 4.0 * std::numeric_limits<double>::epsilon() *
            (steps * (max_degree + n + 3.0) / alpha_ +
             static_cast<double>(mass.num_entries() + mass.num_slots()) +
             n + 4.0);
  }

  bool operator()(size_t v, uint64_t iteration, double delta,
                  const double* p, size_t stride) {
    if (iteration < next_check_[v]) return false;
    const double total = mass_.Accumulate(p, stride, &buffer_);
    // With no room to certify (no mass yet, or a slot near a boundary),
    // back off geometrically.
    next_check_[v] = 2 * iteration;
    if (!(total > 0.0)) return false;
    // bins·m_i moves by at most `scale` per unit of L1 move of p.
    const double scale = 2.0 * bins_ / total;
    // Distance of the nearest bins·m_i to a rounding boundary, less what
    // the float slop may use.
    double closest = 0.5;
    for (double m : buffer_) {
      const double x = m * bins_;
      closest = std::min(closest, std::abs(x - std::floor(x) - 0.5));
    }
    const double room = closest - scale * slop_;
    const double bound = scale * delta * (1.0 - alpha_) / alpha_;
    if (bound < room) {
      (*out_)[v].values = Discretize(buffer_, bins_);
      return true;
    }
    if (room > 0.0) {
      // The first step whose bound, shrinking by 1-α a step, falls
      // below `room`.
      const double steps =
          std::ceil(std::log(room / bound) / std::log1p(-alpha_));
      next_check_[v] =
          iteration + static_cast<uint64_t>(std::clamp(steps, 1.0, 1e9));
    }
    return false;
  }

 private:
  const FeatureMass& mass_;
  const double alpha_;
  const int bins_;
  double slop_ = 0.0;
  std::vector<uint64_t> next_check_;
  std::vector<NodeVector>* out_;
  std::vector<double> buffer_;
};

}  // namespace

std::vector<double> RwrStationaryDistribution(const graph::Graph& g,
                                              graph::VertexId source,
                                              const RwrConfig& config) {
  return RwrStationaryImpl(g, source, config);
}

std::vector<double> RwrStationaryDistribution(const graph::CsrGraph& g,
                                              graph::VertexId source,
                                              const RwrConfig& config) {
  return RwrStationaryImpl(g, source, config);
}

void RwrAllSources(const graph::CsrGraph& g, const RwrConfig& config,
                   const RwrEmit& emit) {
  AllSources(g, config, emit, NeverStop{});
}

std::vector<double> RwrFeatureDistribution(const graph::Graph& g,
                                           graph::VertexId source,
                                           const FeatureSpace& features,
                                           const RwrConfig& config) {
  const std::vector<double> p = RwrStationaryDistribution(g, source, config);
  std::vector<double> mass;
  FeatureMass(g, features).Accumulate(p.data(), 1, &mass);
  return mass;
}

std::vector<double> CountFeatureDistribution(const graph::Graph& g,
                                             graph::VertexId source,
                                             const FeatureSpace& features,
                                             int radius) {
  std::vector<bool> in_window(g.num_vertices(), false);
  if (radius > 0) {
    for (graph::VertexId v : g.VerticesWithinRadius(source, radius)) {
      in_window[v] = true;
    }
  } else {
    in_window.assign(g.num_vertices(), true);
  }
  std::vector<double> mass(features.size(), 0.0);
  for (const graph::EdgeRecord& e : g.edges()) {
    if (!in_window[e.u] || !in_window[e.v]) continue;
    const graph::Label lu = g.vertex_label(e.u);
    const graph::Label lv = g.vertex_label(e.v);
    const int edge_slot = features.EdgeFeature(lu, lv, e.label);
    if (edge_slot >= 0) {
      mass[edge_slot] += 1.0;
    } else {
      const int slot_u = features.VertexFeature(lu);
      if (slot_u >= 0) mass[slot_u] += 1.0;
      const int slot_v = features.VertexFeature(lv);
      if (slot_v >= 0) mass[slot_v] += 1.0;
    }
  }
  double total = 0.0;
  for (double m : mass) total += m;
  if (total > 0.0) {
    for (double& m : mass) m /= total;
  }
  return mass;
}

FeatureVec Discretize(const std::vector<double>& distribution, int bins) {
  GS_CHECK_GT(bins, 0);
  FeatureVec out(distribution.size(), 0);
  for (size_t i = 0; i < distribution.size(); ++i) {
    GS_CHECK_GE(distribution[i], -1e-12);
    int v = static_cast<int>(std::lround(distribution[i] * bins));
    if (v < 0) v = 0;
    if (v > bins) v = bins;
    out[i] = static_cast<int16_t>(v);
  }
  return out;
}

std::vector<NodeVector> GraphToVectors(const graph::Graph& g,
                                       int32_t graph_index,
                                       const FeatureSpace& features,
                                       const RwrConfig& config) {
  std::vector<NodeVector> out(static_cast<size_t>(g.num_vertices()));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    out[v].graph_index = graph_index;
    out[v].node = v;
    out[v].node_label = g.vertex_label(v);
  }
  if (config.featurizer == Featurizer::kRwr) {
    // One CSR build and one edge -> slot table serve every source of this
    // graph.
    const graph::CsrGraph csr(g);
    const FeatureMass mass(g, features);
    std::vector<double> buffer;
    AllSources(
        csr, config,
        [&](graph::VertexId v, const std::vector<double>& p) {
          mass.Accumulate(p.data(), 1, &buffer);
          out[v].values = Discretize(buffer, config.bins);
        },
        CertifiedBins(csr, mass, config, &out));
    return out;
  }
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    out[v].values = Discretize(
        CountFeatureDistribution(g, v, features, config.radius),
        config.bins);
  }
  return out;
}

std::vector<NodeVector> DatabaseToVectors(const graph::GraphDatabase& db,
                                          const FeatureSpace& features,
                                          const RwrConfig& config,
                                          int num_threads) {
  GS_TRACE_SPAN_NAMED(span, "features/vectorize");
  // Pre-size the output so each graph writes a disjoint slice and the
  // result is independent of scheduling.
  std::vector<size_t> offsets(db.size() + 1, 0);
  for (size_t i = 0; i < db.size(); ++i) {
    offsets[i + 1] = offsets[i] + db.graph(i).num_vertices();
  }
  std::vector<NodeVector> out(offsets.back());
  util::ParallelFor(num_threads, db.size(), [&](size_t i) {
    auto vectors = GraphToVectors(db.graph(i), static_cast<int32_t>(i),
                                  features, config);
    for (size_t k = 0; k < vectors.size(); ++k) {
      out[offsets[i] + k] = std::move(vectors[k]);
    }
  });
  span.AddWork(offsets.back());  // one unit per node vector produced
  return out;
}

}  // namespace graphsig::features
