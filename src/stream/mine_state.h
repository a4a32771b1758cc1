#ifndef GRAPHSIG_STREAM_MINE_STATE_H_
#define GRAPHSIG_STREAM_MINE_STATE_H_

// The incremental miner's durable cache: the core::MineCache units
// (core/mine_cache.h) IncrementalMiner (stream/incremental.h) carries
// between mines, serializable as the checkpoint payload of an
// ingest-log record (DESIGN.md §16).
//
// The state is only valid for one config: `config_fingerprint` encodes
// every GraphSigConfig field that influences output (not num_threads —
// output is thread-invariant by design). A fingerprint mismatch on
// restore discards the state.

#include <cstdint>
#include <string>
#include <string_view>

#include "core/graphsig.h"
#include "core/mine_cache.h"
#include "util/status.h"

namespace graphsig::stream {

// Checkpoints persist per-unit work-counter deltas, so they are only
// valid for the build whose mining code produced them: a restored delta
// replays the work counts of that code. Bump this whenever a change
// alters what a unit counts (v2: CSR-sharing VF2 and support-before-
// allocation gSpan changed graph/csr_builds and
// gspan/embeddings_arena_bytes; v3: region CSRs are built once per
// distinct cut outside any capture, so region-FSM deltas no longer
// carry graph/csr_builds; v4: featurization stops a source's walk once
// its bins are certified, so featurize deltas carry fewer
// rwr/power_iterations and rwr/float_ops). DecodeMineState rejects every
// other version as kFailedPrecondition, and Restore then starts cold.
inline constexpr uint32_t kMineStateVersion = 4;

// The checkpointed cache of an IncrementalMiner: the reusable units of
// its last mine (every core::MineCache field but the in-memory region
// cuts) plus what identifies the mine they came from.
struct MineState : core::MineCache {
  std::string config_fingerprint;
  uint64_t generation = 0;
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
