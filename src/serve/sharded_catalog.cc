#include "serve/sharded_catalog.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace graphsig::serve {

ShardedCatalog::ShardedCatalog(
    std::shared_ptr<const PatternCatalog> catalog, int num_shards)
    : catalog_(std::move(catalog)) {
  GS_CHECK(catalog_ != nullptr);
  if (num_shards < 1) num_shards = 1;
  shards_.resize(static_cast<size_t>(num_shards));

  // Deterministic greedy balance: anchors by descending pattern count
  // (ties: ascending label) onto the least-loaded shard (ties: lowest
  // index). Sorting by weight first keeps a heavy-tailed anchor
  // distribution from stacking the big anchors on one shard, and every
  // tie-break is total, so the partition is a pure function of
  // (catalog, num_shards).
  std::vector<std::pair<graph::Label, const std::vector<int32_t>*>> anchors;
  anchors.reserve(catalog_->patterns_by_anchor().size());
  for (const auto& [label, patterns] : catalog_->patterns_by_anchor()) {
    anchors.emplace_back(label, &patterns);
  }
  std::sort(anchors.begin(), anchors.end(),
            [](const auto& a, const auto& b) {
              if (a.second->size() != b.second->size()) {
                return a.second->size() > b.second->size();
              }
              return a.first < b.first;
            });
  for (const auto& [label, patterns] : anchors) {
    size_t target = 0;
    for (size_t s = 1; s < shards_.size(); ++s) {
      if (shards_[s].num_patterns < shards_[target].num_patterns) target = s;
    }
    shards_[target].patterns_by_anchor.emplace(label, *patterns);
    shards_[target].num_patterns += patterns->size();
  }

  // Topology gauge: advisory by construction (its value depends on the
  // deployment's --shards, which must never leak into the
  // byte-compared deterministic sections).
  obs::MetricsRegistry::Global().GetGauge("serve/shards")
      ->Set(static_cast<int64_t>(shards_.size()));
}

QueryResult ShardedCatalog::Query(const graph::Graph& query,
                                  const CatalogQueryConfig& config) const {
  util::WallTimer timer;
  QueryResult result;
  if (config.compute_matches && catalog_->num_patterns() > 0) {
    const PatternCatalog::QueryProfile profile =
        PatternCatalog::BuildProfile(query);
    // One CSR per query, shared read-only by every shard slice, so
    // graph/csr_builds does not depend on the shard count.
    const graph::CsrGraph query_csr(query);
    // Slot-owned slices: shard s writes slices[s] and nothing else, so
    // the fan-out is race-free and the merge below reads a fully
    // deterministic vector whatever the scheduling.
    std::vector<PatternCatalog::AnchorMatches> slices(shards_.size());
    auto run_slice = [&](size_t s) {
      slices[s] = catalog_->MatchAnchors(query_csr, profile,
                                         shards_[s].patterns_by_anchor);
      // Per-shard flush of the per-shard work. The slices partition the
      // pattern set, so these partial sums total exactly what one
      // unsharded pass flushes — the deterministic dump stays
      // byte-identical across shard AND thread counts. The task count
      // itself scales with --shards, so it is advisory.
      auto& registry = obs::MetricsRegistry::Global();
      static obs::Counter* const iso_calls =
          registry.GetCounter("serve/iso_calls");
      static obs::Counter* const matches =
          registry.GetCounter("serve/pattern_matches");
      static obs::Counter* const shard_tasks =
          registry.GetAdvisoryCounter("serve/shard_tasks");
      obs::CounterTally iso_tally(iso_calls);
      obs::CounterTally match_tally(matches);
      iso_tally.Add(static_cast<uint64_t>(slices[s].iso_calls));
      match_tally.Add(slices[s].matched_patterns.size());
      shard_tasks->Increment();
    };
    const int threads =
        config.num_threads == 0 ? util::HardwareThreads()
                                : config.num_threads;
    util::ParallelFor(threads, shards_.size(), run_slice);

    // Merge in shard-index order; the trailing ascending sort makes the
    // reply independent of the partition entirely.
    size_t total = 0;
    for (const auto& slice : slices) total += slice.matched_patterns.size();
    result.matched_patterns.reserve(total);
    for (const auto& slice : slices) {
      result.iso_calls += slice.iso_calls;
      result.matched_patterns.insert(result.matched_patterns.end(),
                                     slice.matched_patterns.begin(),
                                     slice.matched_patterns.end());
    }
    result.pruned = static_cast<int32_t>(catalog_->num_patterns()) -
                    result.iso_calls;
    std::sort(result.matched_patterns.begin(),
              result.matched_patterns.end());
  }
  if (config.compute_score && catalog_->has_classifier()) {
    result.score = catalog_->ClassifierScore(query);
    result.has_score = true;
  }
  result.latency_ms = timer.ElapsedMillis();
  {
    // Per-query totals are pure functions of (query, catalog), so the
    // registry copies are deterministic work counters; the latency
    // histogram is advisory (DESIGN.md §12). The query-level counters
    // flush once at the merge (iso_calls and pattern_matches already
    // flushed per shard), so every total is invariant in the shard
    // count as well as the thread count.
    auto& registry = obs::MetricsRegistry::Global();
    static obs::Counter* const queries =
        registry.GetCounter("serve/queries");
    static obs::Counter* const pruned = registry.GetCounter("serve/pruned");
    static obs::Histogram* const latency_us = registry.GetHistogram(
        "serve/query_latency_us",
        {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
         500000});
    queries->Increment();
    pruned->Add(static_cast<uint64_t>(result.pruned));
    latency_us->Observe(static_cast<uint64_t>(result.latency_ms * 1000.0));
  }
  catalog_->AggregateServingStats(result);
  return result;
}

std::vector<QueryResult> ShardedCatalog::QueryBatch(
    const std::vector<graph::Graph>& queries,
    const CatalogQueryConfig& config) const {
  const int threads =
      config.num_threads == 0 ? util::HardwareThreads() : config.num_threads;
  CatalogQueryConfig per_query = config;
  per_query.num_threads = 1;  // concurrency across queries, not shards
  std::vector<QueryResult> results(queries.size());
  util::ParallelFor(threads, queries.size(), [&](size_t i) {
    results[i] = Query(queries[i], per_query);
  });
  return results;
}

}  // namespace graphsig::serve
