#include "stream/mine_state.h"

#include <utility>

#include "graph/serialize.h"
#include "util/binary.h"
#include "util/strings.h"

namespace graphsig::stream {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::Result;
using util::Status;

Status CountError(const ByteReader& r, const char* what, uint64_t count) {
  return Status::ParseError(util::StrPrintf(
      "implausible %s count %llu in %s at offset %zu", what,
      static_cast<unsigned long long>(count), r.section().c_str(),
      r.position()));
}

// --- field codecs (mirror the model-artifact encodings) ---------------

void EncodeFeatureVec(const features::FeatureVec& vec, ByteWriter* w) {
  w->WriteU32(static_cast<uint32_t>(vec.size()));
  for (int16_t v : vec) w->WriteI16(v);
}

Status DecodeFeatureVec(ByteReader* r, features::FeatureVec* out) {
  uint32_t size;
  GS_RETURN_IF_ERROR(r->ReadU32(&size));
  if (size > r->remaining() / 2) {
    return CountError(*r, "feature-vector", size);
  }
  out->clear();
  out->reserve(size);
  for (uint32_t i = 0; i < size; ++i) {
    int16_t v;
    GS_RETURN_IF_ERROR(r->ReadI16(&v));
    out->push_back(v);
  }
  return Status::Ok();
}

void EncodeFeatureSpace(const features::FeatureSpace& space, ByteWriter* w) {
  w->WriteU32(static_cast<uint32_t>(space.num_vertex_features()));
  for (graph::Label label : space.vertex_features()) w->WriteI32(label);
  w->WriteU32(static_cast<uint32_t>(space.num_edge_features()));
  for (const features::EdgeType& e : space.edge_features()) {
    w->WriteI32(e.a);
    w->WriteI32(e.b);
    w->WriteI32(e.edge_label);
  }
}

Status DecodeFeatureSpace(ByteReader* r, features::FeatureSpace* out) {
  uint32_t num_vertex;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_vertex));
  if (num_vertex > r->remaining() / 4) {
    return CountError(*r, "vertex-feature", num_vertex);
  }
  features::FeatureSpace space;
  for (uint32_t i = 0; i < num_vertex; ++i) {
    int32_t label;
    GS_RETURN_IF_ERROR(r->ReadI32(&label));
    space.AddVertexFeature(label);
  }
  uint32_t num_edge;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_edge));
  if (num_edge > r->remaining() / 12) {
    return CountError(*r, "edge-feature", num_edge);
  }
  for (uint32_t i = 0; i < num_edge; ++i) {
    int32_t a, b, edge_label;
    GS_RETURN_IF_ERROR(r->ReadI32(&a));
    GS_RETURN_IF_ERROR(r->ReadI32(&b));
    GS_RETURN_IF_ERROR(r->ReadI32(&edge_label));
    space.AddEdgeFeature(a, b, edge_label);
  }
  if (space.num_vertex_features() != num_vertex ||
      space.num_edge_features() != num_edge) {
    return Status::ParseError("duplicate features in feature space");
  }
  *out = std::move(space);
  return Status::Ok();
}

void EncodeWorkDelta(const obs::WorkDelta& delta, ByteWriter* w) {
  w->WriteU32(static_cast<uint32_t>(delta.counters.size()));
  for (const auto& [name, value] : delta.counters) {
    w->WriteString(name);
    w->WriteU64(value);
  }
  w->WriteU32(static_cast<uint32_t>(delta.spans.size()));
  for (const auto& [path, d] : delta.spans) {
    w->WriteString(path);
    w->WriteU64(d.calls);
    w->WriteU64(d.work);
  }
}

Status DecodeWorkDelta(ByteReader* r, obs::WorkDelta* out) {
  uint32_t num_counters;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_counters));
  if (num_counters > r->remaining() / 16) {
    return CountError(*r, "delta counter", num_counters);
  }
  out->counters.clear();
  out->spans.clear();
  for (uint32_t i = 0; i < num_counters; ++i) {
    std::string name;
    uint64_t value;
    GS_RETURN_IF_ERROR(r->ReadString(&name));
    GS_RETURN_IF_ERROR(r->ReadU64(&value));
    if (!out->counters.emplace(std::move(name), value).second) {
      return Status::ParseError("duplicate counter in work delta");
    }
  }
  uint32_t num_spans;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_spans));
  if (num_spans > r->remaining() / 24) {
    return CountError(*r, "delta span", num_spans);
  }
  for (uint32_t i = 0; i < num_spans; ++i) {
    std::string path;
    obs::SpanDelta d;
    GS_RETURN_IF_ERROR(r->ReadString(&path));
    GS_RETURN_IF_ERROR(r->ReadU64(&d.calls));
    GS_RETURN_IF_ERROR(r->ReadU64(&d.work));
    if (!out->spans.emplace(std::move(path), d).second) {
      return Status::ParseError("duplicate span in work delta");
    }
  }
  return Status::Ok();
}

void EncodeNodeVector(const features::NodeVector& nv, ByteWriter* w) {
  w->WriteI32(nv.graph_index);
  w->WriteI32(nv.node);
  w->WriteI32(nv.node_label);
  EncodeFeatureVec(nv.values, w);
}

Status DecodeNodeVector(ByteReader* r, features::NodeVector* out) {
  GS_RETURN_IF_ERROR(r->ReadI32(&out->graph_index));
  GS_RETURN_IF_ERROR(r->ReadI32(&out->node));
  GS_RETURN_IF_ERROR(r->ReadI32(&out->node_label));
  return DecodeFeatureVec(r, &out->values);
}

void EncodeSignificantVector(const fvmine::SignificantVector& sv,
                             ByteWriter* w) {
  EncodeFeatureVec(sv.vector, w);
  w->WriteU32(static_cast<uint32_t>(sv.supporting.size()));
  for (int32_t idx : sv.supporting) w->WriteI32(idx);
  w->WriteI64(sv.support);
  w->WriteF64(sv.p_value);
}

Status DecodeSignificantVector(ByteReader* r,
                               fvmine::SignificantVector* out) {
  GS_RETURN_IF_ERROR(DecodeFeatureVec(r, &out->vector));
  uint32_t num_supporting;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_supporting));
  if (num_supporting > r->remaining() / 4) {
    return CountError(*r, "supporting-index", num_supporting);
  }
  out->supporting.clear();
  out->supporting.reserve(num_supporting);
  for (uint32_t i = 0; i < num_supporting; ++i) {
    int32_t idx;
    GS_RETURN_IF_ERROR(r->ReadI32(&idx));
    out->supporting.push_back(idx);
  }
  GS_RETURN_IF_ERROR(r->ReadI64(&out->support));
  GS_RETURN_IF_ERROR(r->ReadF64(&out->p_value));
  return Status::Ok();
}

void EncodeSubgraph(const core::SignificantSubgraph& sg, ByteWriter* w) {
  graph::EncodeGraph(sg.subgraph, w);
  EncodeFeatureVec(sg.vector, w);
  w->WriteF64(sg.vector_pvalue);
  w->WriteI64(sg.vector_support);
  w->WriteI32(sg.anchor_label);
  w->WriteI64(sg.set_size);
  w->WriteI64(sg.set_support);
  w->WriteI64(sg.db_frequency);
}

Status DecodeSubgraph(ByteReader* r, core::SignificantSubgraph* out) {
  GS_ASSIGN_OR_RETURN(out->subgraph, graph::DecodeGraph(r));
  GS_RETURN_IF_ERROR(DecodeFeatureVec(r, &out->vector));
  GS_RETURN_IF_ERROR(r->ReadF64(&out->vector_pvalue));
  GS_RETURN_IF_ERROR(r->ReadI64(&out->vector_support));
  GS_RETURN_IF_ERROR(r->ReadI32(&out->anchor_label));
  GS_RETURN_IF_ERROR(r->ReadI64(&out->set_size));
  GS_RETURN_IF_ERROR(r->ReadI64(&out->set_support));
  GS_RETURN_IF_ERROR(r->ReadI64(&out->db_frequency));
  return Status::Ok();
}

void EncodeFsmEntry(const core::GroupFsmEntry& entry, ByteWriter* w) {
  w->WriteU8(entry.present ? 1 : 0);
  if (!entry.present) return;
  w->WriteU8(entry.filtered ? 1 : 0);
  w->WriteU32(static_cast<uint32_t>(entry.dedup.size()));
  for (const auto& [canonical, sg] : entry.dedup) {
    w->WriteString(canonical);
    EncodeSubgraph(sg, w);
  }
  EncodeWorkDelta(entry.delta, w);
}

Status DecodeFsmEntry(ByteReader* r, core::GroupFsmEntry* out) {
  uint8_t present;
  GS_RETURN_IF_ERROR(r->ReadU8(&present));
  if (present > 1) return Status::ParseError("bad fsm presence flag");
  out->present = present == 1;
  if (!out->present) return Status::Ok();
  uint8_t filtered;
  GS_RETURN_IF_ERROR(r->ReadU8(&filtered));
  if (filtered > 1) return Status::ParseError("bad fsm filtered flag");
  out->filtered = filtered == 1;
  uint32_t num_patterns;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_patterns));
  if (num_patterns > r->remaining() / 60) {
    return CountError(*r, "fsm pattern", num_patterns);
  }
  for (uint32_t i = 0; i < num_patterns; ++i) {
    std::string canonical;
    core::SignificantSubgraph sg;
    GS_RETURN_IF_ERROR(r->ReadString(&canonical));
    GS_RETURN_IF_ERROR(DecodeSubgraph(r, &sg));
    if (!out->dedup.emplace(std::move(canonical), std::move(sg)).second) {
      return Status::ParseError("duplicate canonical code in fsm entry");
    }
  }
  return DecodeWorkDelta(r, &out->delta);
}

void EncodeGroup(const core::GroupCacheEntry& group, ByteWriter* w) {
  w->WriteI32(group.label);
  w->WriteU32(static_cast<uint32_t>(group.members.size()));
  for (int32_t idx : group.members) w->WriteI32(idx);
  w->WriteU32(static_cast<uint32_t>(group.vectors.size()));
  for (const fvmine::SignificantVector& sv : group.vectors) {
    EncodeSignificantVector(sv, w);
  }
  w->WriteU32(static_cast<uint32_t>(group.psis.size()));
  for (double psi : group.psis) w->WriteF64(psi);
  EncodeWorkDelta(group.delta, w);
  for (const core::GroupFsmEntry& entry : group.fsm) EncodeFsmEntry(entry, w);
}

Status DecodeGroup(ByteReader* r, core::GroupCacheEntry* out) {
  GS_RETURN_IF_ERROR(r->ReadI32(&out->label));
  uint32_t num_members;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_members));
  if (num_members > r->remaining() / 4) {
    return CountError(*r, "group-member", num_members);
  }
  out->members.reserve(num_members);
  for (uint32_t i = 0; i < num_members; ++i) {
    int32_t idx;
    GS_RETURN_IF_ERROR(r->ReadI32(&idx));
    out->members.push_back(idx);
  }
  uint32_t num_vectors;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_vectors));
  if (num_vectors > r->remaining() / 24) {
    return CountError(*r, "group-candidate", num_vectors);
  }
  out->vectors.resize(num_vectors);
  for (uint32_t i = 0; i < num_vectors; ++i) {
    GS_RETURN_IF_ERROR(DecodeSignificantVector(r, &out->vectors[i]));
  }
  uint32_t num_psis;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_psis));
  if (num_psis > r->remaining() / 8) {
    return CountError(*r, "group-psi", num_psis);
  }
  out->psis.resize(num_psis);
  for (uint32_t i = 0; i < num_psis; ++i) {
    GS_RETURN_IF_ERROR(r->ReadF64(&out->psis[i]));
  }
  GS_RETURN_IF_ERROR(DecodeWorkDelta(r, &out->delta));
  out->fsm.resize(num_vectors);
  for (uint32_t i = 0; i < num_vectors; ++i) {
    GS_RETURN_IF_ERROR(DecodeFsmEntry(r, &out->fsm[i]));
  }
  return Status::Ok();
}

}  // namespace

std::string ConfigFingerprint(const core::GraphSigConfig& config) {
  // num_threads is deliberately absent: output is thread-invariant, so
  // a checkpoint mined at one thread count restores at any other. The
  // floor/minset/maxr constants and the fixed cap/budget slots (FVMine's
  // former, never-set caps) print as the retired config fields did, so
  // checkpoints written before they became constants still restore warm.
  return util::StrPrintf(
      "v1|rwr=%.17g,%.17g,%d,%d,%d,%d|topk=%d|pv=%.17g|freq=%.17g|"
      "floor=%lld|radius=%d|fsg=%.17g|minset=%zu|maxe=%d|maxp=%zu|"
      "maxr=%zu|cap=18446744073709551615|budget=inf|ceil=%d|tarone=%.17g|"
      "dbfreq=%d",
      config.rwr.restart_prob, config.rwr.epsilon,
      config.rwr.max_iterations, config.rwr.bins, config.rwr.radius,
      static_cast<int>(config.rwr.featurizer), config.top_k_atoms,
      config.max_pvalue, config.min_freq_percent,
      static_cast<long long>(core::kMinSupportFloor), config.cutoff_radius,
      config.fsg_freq_percent, core::kMinSetSize, config.fsm_max_edges,
      config.fsm_max_patterns, core::kMaxRegionsPerSet,
      config.use_ceiling_prune ? 1 : 0, config.tarone_alpha,
      config.compute_db_frequency ? 1 : 0);
}

std::string EncodeMineState(const MineState& state) {
  ByteWriter w;
  w.WriteU32(kMineStateVersion);
  w.WriteString(state.config_fingerprint);
  w.WriteU64(state.generation);
  EncodeFeatureSpace(state.feature_space, &w);
  w.WriteU64(state.node_vectors.size());
  for (const features::NodeVector& nv : state.node_vectors) {
    EncodeNodeVector(nv, &w);
  }
  w.WriteU64(state.featurize_deltas.size());
  for (const obs::WorkDelta& delta : state.featurize_deltas) {
    EncodeWorkDelta(delta, &w);
  }
  for (uint64_t g : state.graph_generations) w.WriteU64(g);
  w.WriteU64(state.groups.size());
  for (const core::GroupCacheEntry& group : state.groups) {
    EncodeGroup(group, &w);
  }
  return std::move(w.TakeBuffer());
}

util::Result<MineState> DecodeMineState(std::string_view bytes) {
  ByteReader r(bytes, "mine state");
  uint32_t version;
  GS_RETURN_IF_ERROR(r.ReadU32(&version));
  if (version != kMineStateVersion) {
    // An older checkpoint's work deltas would replay stale counts.
    return Status::FailedPrecondition(util::StrPrintf(
        "mine-state version %u unsupported (want %u)", version,
        kMineStateVersion));
  }
  MineState state;
  GS_RETURN_IF_ERROR(r.ReadString(&state.config_fingerprint));
  GS_RETURN_IF_ERROR(r.ReadU64(&state.generation));
  GS_RETURN_IF_ERROR(DecodeFeatureSpace(&r, &state.feature_space));
  uint64_t num_vectors;
  GS_RETURN_IF_ERROR(r.ReadU64(&num_vectors));
  if (num_vectors > r.remaining() / 16) {
    return CountError(r, "node-vector", num_vectors);
  }
  state.node_vectors.resize(static_cast<size_t>(num_vectors));
  for (uint64_t i = 0; i < num_vectors; ++i) {
    GS_RETURN_IF_ERROR(DecodeNodeVector(&r, &state.node_vectors[i]));
  }
  uint64_t num_graphs;
  GS_RETURN_IF_ERROR(r.ReadU64(&num_graphs));
  if (num_graphs > r.remaining() / 16) {
    return CountError(r, "graph-delta", num_graphs);
  }
  state.featurize_deltas.resize(static_cast<size_t>(num_graphs));
  for (uint64_t i = 0; i < num_graphs; ++i) {
    GS_RETURN_IF_ERROR(DecodeWorkDelta(&r, &state.featurize_deltas[i]));
  }
  state.graph_generations.resize(static_cast<size_t>(num_graphs));
  for (uint64_t i = 0; i < num_graphs; ++i) {
    GS_RETURN_IF_ERROR(r.ReadU64(&state.graph_generations[i]));
  }
  uint64_t num_groups;
  GS_RETURN_IF_ERROR(r.ReadU64(&num_groups));
  if (num_groups > r.remaining() / 24) {
    return CountError(r, "group", num_groups);
  }
  state.groups.resize(static_cast<size_t>(num_groups));
  graph::Label previous_label = -1;
  for (uint64_t i = 0; i < num_groups; ++i) {
    GS_RETURN_IF_ERROR(DecodeGroup(&r, &state.groups[i]));
    if (i > 0 && state.groups[i].label <= previous_label) {
      return Status::ParseError("group labels out of order");
    }
    previous_label = state.groups[i].label;
  }
  if (!r.exhausted()) {
    return Status::ParseError(util::StrPrintf(
        "mine state has %zu trailing bytes", r.remaining()));
  }
  return state;
}

}  // namespace graphsig::stream
