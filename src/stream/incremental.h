#ifndef GRAPHSIG_STREAM_INCREMENTAL_H_
#define GRAPHSIG_STREAM_INCREMENTAL_H_

// Incremental GraphSig mining over an append-only database
// (DESIGN.md §16).
//
// The miner owns a MineState — a core::MineCache (core/mine_cache.h)
// plus checkpoint identity — and hands it to core::GraphSig::Mine, the
// one mining orchestration, so each mine reuses the units of the last:
//
//   * featurization — RWR vectors are computed only for graphs appended
//     since the last mine; earlier graphs replay their captured
//     work-counter deltas,
//   * FVMine — only anchor-label groups whose member lists (and hence
//     priors) changed are re-mined; unchanged groups reuse their cached
//     candidates, psi family, and delta,
//   * region mining — per-candidate FSM outputs are cached keyed by
//     (group, candidate index); region cuts are cached keyed by
//     (generation, graph, node).
//
// The headline guarantee, asserted by tests/stream_test.cc: a mine
// after N appends produces an artifact AND a deterministic work-counter
// dump byte-identical to a cold core::GraphSig::Mine of the final
// database, at any thread count. Counter transparency comes from
// obs/work_capture.h — every cached unit replays the exact metric
// contributions its original computation made. The stream/* counters
// this module bumps for its own accounting (cache hits, graphs
// featurized, ...) are ingest-side observability and are the one
// documented exception to that equivalence.
//
// Invalidation: a changed config fingerprint or per-graph generation
// stamps that stop extending the cached ones discard everything; a
// changed feature space (appends shifted the top-k atom set) discards
// vectors and groups but keeps region cuts, which depend only on graph
// content.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/graphsig.h"
#include "core/mine_cache.h"
#include "graph/graph_database.h"
#include "stream/mine_state.h"
#include "util/status.h"

namespace graphsig::stream {

// Per-mine reuse accounting (also exported as stream/* counters).
using IncrementalMineStats = core::MineCacheStats;

class IncrementalMiner {
 public:
  explicit IncrementalMiner(core::GraphSigConfig config);

  // Restores cached state from a checkpoint (mine_state.h). Returns
  // false — with the miner left cold — when the checkpoint was written
  // under a different config fingerprint or an unsupported version;
  // errors only on corrupt bytes.
  util::Result<bool> Restore(std::string_view checkpoint);

  // Serializes the current state for IngestLog::AppendCheckpoint.
  std::string Checkpoint() const { return EncodeMineState(state_); }

  // Mines the full current database. `graph_generations[i]` is the
  // ingest generation that introduced db graph i (parallel to db);
  // `generation` is the log's last generation and is recorded in the
  // state. The database must extend the one previously mined — same
  // graphs, same order, new ones appended. `mine_stats`, if given, is
  // overwritten with this mine's reuse accounting.
  core::GraphSigResult Mine(const graph::GraphDatabase& db,
                            const std::vector<uint64_t>& graph_generations,
                            uint64_t generation,
                            IncrementalMineStats* mine_stats = nullptr);

  const MineState& state() const { return state_; }
  const core::GraphSigConfig& config() const { return config_; }

 private:
  core::GraphSigConfig config_;
  MineState state_;
};

}  // namespace graphsig::stream

#endif  // GRAPHSIG_STREAM_INCREMENTAL_H_
