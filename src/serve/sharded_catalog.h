#ifndef GRAPHSIG_SERVE_SHARDED_CATALOG_H_
#define GRAPHSIG_SERVE_SHARDED_CATALOG_H_

// Anchor-sharded view over one immutable PatternCatalog: the serving
// unit the server actually holds (DESIGN.md §17).
//
// The catalog's inverted index assigns every pattern to exactly ONE
// anchor label (its rarest vertex label in the indexed database), so
// partitioning anchors partitions patterns — no pattern is tested
// twice, none is missed, and per-shard match sets are disjoint. A
// query fans out to one MatchAnchors() slice per shard and the merge
// concatenates in shard-index order before the final ascending sort,
// so the reply is byte-identical to the one-shard answer for any
// shard count and any fan-out width (tests/sharded_catalog_test.cc
// asserts this against shards ∈ {1,2,4,8} × threads ∈ {1,4}). It is
// the only exact-query path: an unpartitioned catalog is one shard.
//
// The partition itself is deterministic: anchors sorted by descending
// pattern count (ties: ascending label) are greedily assigned to the
// least-loaded shard (ties: lowest index). Nothing here assumes the
// chemistry database's label skew — a heavy-tailed anchor
// distribution just lands the heavy anchors on distinct shards first.
//
// Shards hold only index slices; the artifact, signatures, pattern
// CSRs, and classifier live once in the shared PatternCatalog. That is what
// makes hot reload generation-coherent for free: a new ShardedCatalog
// wraps a new PatternCatalog, and CatalogHandle swaps the whole shard
// set as one shared_ptr — no query can observe shards from two
// generations.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "serve/pattern_catalog.h"
#include "util/status.h"

namespace graphsig::serve {

class ShardedCatalog {
 public:
  // Wraps `catalog` (non-null) into `num_shards` anchor slices;
  // num_shards is clamped to >= 1. Shards may be empty when the
  // catalog has fewer anchors than shards.
  ShardedCatalog(std::shared_ptr<const PatternCatalog> catalog,
                 int num_shards);

  // Answers one query by fanning the shard slices out and merging in
  // shard-index order. config.num_threads > 1 runs slices on the
  // global pool; <= 1 (and the one-shard case) runs them serially on
  // the caller. Replies are byte-identical either way. Thread-safe.
  QueryResult Query(const graph::Graph& query,
                    const CatalogQueryConfig& config = {}) const;

  // Batch counterpart: parallelism is spent across queries (each query
  // walks its shards serially and writes only its own result slot), so
  // results are identical to serial Query() calls.
  std::vector<QueryResult> QueryBatch(
      const std::vector<graph::Graph>& queries,
      const CatalogQueryConfig& config = {}) const;

  // The approx tier estimates over the indexed database, not the
  // pattern index, so it has no shard dimension: straight delegation.
  util::Result<ApproxResult> ApproxQuery(
      const graph::Graph& pattern, const ApproxQueryConfig& config) const {
    return catalog_->ApproxQuery(pattern, config);
  }

  ServingStats Snapshot() const { return catalog_->Snapshot(); }
  void ResetStats() const { catalog_->ResetStats(); }

  size_t num_patterns() const { return catalog_->num_patterns(); }
  bool has_classifier() const { return catalog_->has_classifier(); }
  uint64_t generation() const { return catalog_->generation(); }
  const PatternCatalog& catalog() const { return *catalog_; }

  size_t num_shards() const { return shards_.size(); }
  // Patterns assigned to shard `s` (its anchor slices' total size).
  size_t shard_num_patterns(size_t s) const {
    return shards_[s].num_patterns;
  }
  const std::map<graph::Label, std::vector<int32_t>>& shard_anchors(
      size_t s) const {
    return shards_[s].patterns_by_anchor;
  }

 private:
  struct Shard {
    std::map<graph::Label, std::vector<int32_t>> patterns_by_anchor;
    size_t num_patterns = 0;
  };

  std::shared_ptr<const PatternCatalog> catalog_;
  std::vector<Shard> shards_;
};

}  // namespace graphsig::serve

#endif  // GRAPHSIG_SERVE_SHARDED_CATALOG_H_
