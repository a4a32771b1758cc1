#ifndef GRAPHSIG_STREAM_MINE_STATE_H_
#define GRAPHSIG_STREAM_MINE_STATE_H_

// The incremental miner's durable cache: everything IncrementalMiner
// (stream/incremental.h) carries between mines, serializable as the
// checkpoint payload of an ingest-log record (DESIGN.md §16).
//
// Each cached unit pairs its *output* with the work-counter delta
// (obs/work_capture.h) its computation emitted. Re-using the unit means
// replaying the delta, which is what keeps an incremental mine's
// counter dump byte-identical to a cold full re-mine.
//
// The state is only valid for one config: `config_fingerprint` encodes
// every GraphSigConfig field that influences output (not num_threads —
// output is thread-invariant by design). A fingerprint mismatch on
// restore discards the state.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/graphsig.h"
#include "features/feature_space.h"
#include "features/feature_vector.h"
#include "fvmine/fvmine.h"
#include "obs/work_capture.h"
#include "util/status.h"

namespace graphsig::stream {

// Checkpoints persist per-unit work-counter deltas, so they are only
// valid for the build whose mining code produced them: a restored delta
// replays the work counts of that code. Bump this whenever a change
// alters what a unit counts (v2: CSR-sharing VF2 and support-before-
// allocation gSpan changed graph/csr_builds and
// gspan/embeddings_arena_bytes; v3: region CSRs are built once per
// distinct cut outside any capture, so region-FSM deltas no longer
// carry graph/csr_builds). DecodeMineState rejects every other version
// as kFailedPrecondition, and Restore then starts cold.
inline constexpr uint32_t kMineStateVersion = 3;

// Cached graph-space mining of one feature-vector candidate (the
// pipeline::MineRegionTask output for candidate `i` of a group).
// Entries are filled lazily — a candidate filtered by delta* in every
// mine so far has never been region-mined — hence the present flag.
struct GroupFsmEntry {
  bool present = false;
  bool filtered = false;  // no common structure (line-13 pruning)
  std::map<std::string, core::SignificantSubgraph> dedup;
  obs::WorkDelta delta;
};

// Cached FVMine of one anchor-label group. Valid while the group's
// member list (node-vector indices) is unchanged — appends that add
// vectors to the group change `members` and invalidate the entry.
struct GroupCacheEntry {
  graph::Label label = -1;
  std::vector<int32_t> members;  // ascending node-vector indices
  // MineLabelGroup output: candidates (supporting lists re-based to
  // node-vector indices) and, in Tarone mode, the psi family.
  std::vector<fvmine::SignificantVector> vectors;
  std::vector<double> psis;
  obs::WorkDelta delta;
  std::vector<GroupFsmEntry> fsm;  // parallel to `vectors`
};

struct MineState {
  std::string config_fingerprint;
  uint64_t generation = 0;
  features::FeatureSpace feature_space;
  // One NodeVector per node of every featurized graph, in database
  // order — indices are stable under append, which is what makes every
  // cache below reusable.
  std::vector<features::NodeVector> node_vectors;
  // Per-graph featurization deltas (rwr/* and csr counters), parallel
  // to the database prefix already featurized.
  std::vector<obs::WorkDelta> featurize_deltas;
  // The ingest generation that introduced each graph (region-cut cache
  // keys, stream/region_cut_cache.h); parallel to featurize_deltas.
  std::vector<uint64_t> graph_generations;
  std::vector<GroupCacheEntry> groups;  // ascending label order
};

// Every output-affecting config field, pipe-separated. Two configs with
// equal fingerprints mine identical artifacts from identical databases.
std::string ConfigFingerprint(const core::GraphSigConfig& config);

std::string EncodeMineState(const MineState& state);

// Hostile-input safe (fuzzed alongside the log decoder): corrupt or
// truncated state comes back as a clean error.
util::Result<MineState> DecodeMineState(std::string_view bytes);

}  // namespace graphsig::stream

#endif  // GRAPHSIG_STREAM_MINE_STATE_H_
