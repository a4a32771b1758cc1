#ifndef GRAPHSIG_FSM_MAXIMAL_H_
#define GRAPHSIG_FSM_MAXIMAL_H_

#include <vector>

#include "fsm/miner.h"

namespace graphsig::fsm {

// Keeps only the maximal patterns of a frequent-pattern set: those not
// subgraph-isomorphic to any other pattern in the set. Supports are
// preserved. Quadratic in the set size, but a pair runs VF2 only when
// the smaller pattern's containment signature (graph/signature.h) is
// dominated by the larger one's.
std::vector<Pattern> FilterMaximal(std::vector<Pattern> patterns);

// Keeps only the closed patterns: those with no super-pattern in the set
// of EQUAL support (CloseGraph's notion, the graph-space analogue of
// FVMine's closed vectors). Lossless: every frequent pattern's support
// is recoverable from the closed set.
std::vector<Pattern> FilterClosed(std::vector<Pattern> patterns);

// GraphSig's last stage (Algorithm 2, line 13): gSpan mining followed by
// the maximality filter, with the same result set as
// FilterMaximal(MineFrequentGSpan(db, config).patterns). The search
// skips materializing a pattern once its own scan finds a frequent
// rightmost extension (a frequent super-pattern), so the filter only
// sees patterns with no frequent rightmost child. A run stopped by
// max_patterns or the time budget filters every pattern it found, as
// the plain enumeration would. Output order is the filter's (edges,
// then vertices, descending); gspan/* counters match MineFrequentGSpan.
// The GraphDatabase overload flattens `db` first.
MineResult MineMaximalGSpan(CsrDatabase db, const MinerConfig& config);
MineResult MineMaximalGSpan(const graph::GraphDatabase& db,
                            const MinerConfig& config);

// Complete gSpan mining followed by the closedness filter.
MineResult MineClosedGSpan(const graph::GraphDatabase& db,
                           const MinerConfig& config);

}  // namespace graphsig::fsm

#endif  // GRAPHSIG_FSM_MAXIMAL_H_
