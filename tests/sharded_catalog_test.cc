// ShardedCatalog is a pure re-partitioning of PatternCatalog's anchor
// index: for every shard count and fan-out width the wire-encoded reply
// must be byte-identical to the one-shard answer (which serve_test.cc
// pins against brute-force VF2), and the deterministic serving counters
// must land on the same totals. These tests pin that contract at shard
// counts {1, 2, 4, 8} x threads {1, 4}.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/graphsig.h"
#include "data/datasets.h"
#include "model/artifact.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/pattern_catalog.h"
#include "serve/sharded_catalog.h"
#include "util/check.h"

namespace graphsig::serve {
namespace {

namespace wire = net::wire;

core::GraphSigConfig FastMiningConfig() {
  core::GraphSigConfig config;
  config.cutoff_radius = 3;
  config.min_freq_percent = 3.0;
  config.fsm_max_edges = 12;
  return config;
}

graph::GraphDatabase TestScreen(uint64_t seed, size_t size) {
  data::DatasetOptions options;
  options.size = size;
  options.seed = seed;
  options.active_fraction = 0.25;
  options.molecule.min_atoms = 8;
  options.molecule.max_atoms = 16;
  return data::MakeCancerScreen("MCF-7", options);
}

struct Fixture {
  graph::GraphDatabase db;
  graph::GraphDatabase holdout;
  std::shared_ptr<const PatternCatalog> catalog;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    f->db = TestScreen(4242, 80);
    f->holdout = TestScreen(911, 24);

    core::GraphSig miner(FastMiningConfig());
    core::GraphSigResult mined = miner.Mine(f->db.FilterByTag(1));
    model::ModelArtifact artifact;
    artifact.feature_space = std::move(mined.feature_space);
    artifact.catalog = std::move(mined.subgraphs);
    artifact.database = f->db;
    auto built = PatternCatalog::FromArtifact(std::move(artifact));
    GS_CHECK(built.ok());
    f->catalog = std::make_shared<const PatternCatalog>(
        std::move(built).value());
    return f;
  }();
  return *fixture;
}

wire::QueryReply ToWire(const QueryResult& result) {
  wire::QueryReply reply;
  reply.matched_patterns = result.matched_patterns;
  reply.has_score = result.has_score;
  reply.score = result.score;
  reply.iso_calls = result.iso_calls;
  reply.pruned = result.pruned;
  return reply;
}

TEST(ShardedCatalogTest, PartitionCoversEveryAnchorExactlyOnce) {
  const Fixture& f = SharedFixture();
  for (int shards : {1, 2, 4, 8}) {
    ShardedCatalog sharded(f.catalog, shards);
    ASSERT_EQ(sharded.num_shards(), static_cast<size_t>(shards));
    std::map<graph::Label, std::vector<int32_t>> merged;
    size_t total_patterns = 0;
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      total_patterns += sharded.shard_num_patterns(s);
      for (const auto& [label, patterns] : sharded.shard_anchors(s)) {
        // No anchor label may appear in two shards.
        ASSERT_TRUE(merged.emplace(label, patterns).second)
            << "anchor label " << label << " split across shards";
      }
    }
    EXPECT_EQ(merged, f.catalog->patterns_by_anchor())
        << shards << " shards";
    EXPECT_EQ(total_patterns, f.catalog->num_patterns());
  }
}

TEST(ShardedCatalogTest, RepliesByteIdenticalToUnshardedAcrossShardCounts) {
  const Fixture& f = SharedFixture();
  CatalogQueryConfig config;
  config.compute_score = false;

  const ShardedCatalog unsharded(f.catalog, 1);
  std::vector<std::string> baseline;
  for (const graph::Graph& g : f.holdout.graphs()) {
    baseline.push_back(
        wire::EncodeQueryReply(ToWire(unsharded.Query(g, config))));
  }

  for (int shards : {1, 2, 4, 8}) {
    ShardedCatalog sharded(f.catalog, shards);
    for (int threads : {1, 4}) {
      CatalogQueryConfig sharded_config = config;
      sharded_config.num_threads = threads;
      for (size_t i = 0; i < f.holdout.size(); ++i) {
        const QueryResult r =
            sharded.Query(f.holdout.graph(i), sharded_config);
        EXPECT_EQ(wire::EncodeQueryReply(ToWire(r)), baseline[i])
            << "query " << i << ", " << shards << " shards, " << threads
            << " threads";
        // The pruning identity survives sharding: every pattern either
        // reached the matcher in some shard or was pruned.
        EXPECT_EQ(r.iso_calls + r.pruned,
                  static_cast<int32_t>(f.catalog->num_patterns()));
      }
    }
  }
}

TEST(ShardedCatalogTest, ServingStatsTotalsMatchUnsharded) {
  const Fixture& f = SharedFixture();
  CatalogQueryConfig config;
  config.compute_score = false;

  const ShardedCatalog one_shard(f.catalog, 1);
  one_shard.ResetStats();
  for (const graph::Graph& g : f.holdout.graphs()) {
    (void)one_shard.Query(g, config);
  }
  const ServingStats unsharded = one_shard.Snapshot();

  for (int shards : {2, 8}) {
    ShardedCatalog sharded(f.catalog, shards);
    sharded.ResetStats();
    CatalogQueryConfig sharded_config = config;
    sharded_config.num_threads = 4;
    for (const graph::Graph& g : f.holdout.graphs()) {
      (void)sharded.Query(g, sharded_config);
    }
    const ServingStats stats = sharded.Snapshot();
    EXPECT_EQ(stats.queries, unsharded.queries) << shards << " shards";
    EXPECT_EQ(stats.iso_calls, unsharded.iso_calls) << shards << " shards";
    EXPECT_EQ(stats.pruned, unsharded.pruned) << shards << " shards";
    EXPECT_EQ(stats.pattern_matches, unsharded.pattern_matches)
        << shards << " shards";
  }
}

TEST(ShardedCatalogTest, OneQueryCsrBuildAtAnyShardCount) {
  // The query's CSR is built once before the fan-out and the pattern
  // CSRs at load, so one query's graph/csr_builds delta is the
  // unsharded one (a single build: this catalog has no classifier)
  // whatever the shard count.
  const Fixture& f = SharedFixture();
  obs::Counter* const builds =
      obs::MetricsRegistry::Global().GetCounter("graph/csr_builds");
  const ShardedCatalog one_shard(f.catalog, 1);
  CatalogQueryConfig config;
  config.num_threads = 2;
  for (const graph::Graph& g : f.holdout.graphs()) {
    uint64_t before = builds->value();
    (void)one_shard.Query(g, config);
    const uint64_t unsharded = builds->value() - before;
    EXPECT_EQ(unsharded, 1u);
    for (int shards : {1, 2, 4}) {
      const ShardedCatalog sharded(f.catalog, shards);
      before = builds->value();
      (void)sharded.Query(g, config);
      EXPECT_EQ(builds->value() - before, unsharded) << shards << " shards";
    }
  }
}

TEST(ShardedCatalogTest, QueryBatchMatchesPerQueryAcrossThreadCounts) {
  const Fixture& f = SharedFixture();
  ShardedCatalog sharded(f.catalog, 4);

  CatalogQueryConfig config;
  config.compute_score = false;
  config.num_threads = 1;
  std::vector<std::string> serial;
  for (const graph::Graph& g : f.holdout.graphs()) {
    serial.push_back(
        wire::EncodeQueryReply(ToWire(sharded.Query(g, config))));
  }
  for (int threads : {1, 4}) {
    CatalogQueryConfig batch_config = config;
    batch_config.num_threads = threads;
    const std::vector<QueryResult> batch =
        sharded.QueryBatch(f.holdout.graphs(), batch_config);
    ASSERT_EQ(batch.size(), f.holdout.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(wire::EncodeQueryReply(ToWire(batch[i])), serial[i])
          << "query " << i << " at " << threads << " threads";
    }
  }
}

TEST(ShardedCatalogTest, DelegatesCatalogMetadata) {
  const Fixture& f = SharedFixture();
  ShardedCatalog sharded(f.catalog, 3);
  EXPECT_EQ(sharded.num_patterns(), f.catalog->num_patterns());
  EXPECT_EQ(sharded.generation(), f.catalog->generation());
  EXPECT_EQ(sharded.has_classifier(), f.catalog->has_classifier());
  EXPECT_EQ(&sharded.catalog(), f.catalog.get());
}

TEST(ShardedCatalogTest, ShardCountClampedToAtLeastOne) {
  const Fixture& f = SharedFixture();
  ShardedCatalog sharded(f.catalog, 0);
  EXPECT_EQ(sharded.num_shards(), 1u);
}

TEST(ShardedCatalogTest, MoreShardsThanAnchorsLeavesEmptyShards) {
  const Fixture& f = SharedFixture();
  const size_t anchors = f.catalog->patterns_by_anchor().size();
  const int shards = static_cast<int>(anchors) + 5;
  ShardedCatalog sharded(f.catalog, shards);
  ASSERT_EQ(sharded.num_shards(), static_cast<size_t>(shards));
  size_t total = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    total += sharded.shard_num_patterns(s);
  }
  EXPECT_EQ(total, f.catalog->num_patterns());

  // Queries still answer correctly through the padding shards.
  CatalogQueryConfig config;
  config.compute_score = false;
  const QueryResult direct =
      ShardedCatalog(f.catalog, 1).Query(f.holdout.graph(0), config);
  const QueryResult shardy = sharded.Query(f.holdout.graph(0), config);
  EXPECT_EQ(wire::EncodeQueryReply(ToWire(shardy)),
            wire::EncodeQueryReply(ToWire(direct)));
}

}  // namespace
}  // namespace graphsig::serve
