#ifndef GRAPHSIG_OBS_TRACE_H_
#define GRAPHSIG_OBS_TRACE_H_

// Scoped trace spans over the obs::MetricsRegistry.
//
//   void MinePhase() {
//     GS_TRACE_SPAN("mine/fvmine");           // counts the call + wall ns
//     ...
//   }
//
//   util::Result<...> Expand() {
//     GS_TRACE_SPAN_NAMED(span, "fvmine/search");
//     ...
//     span.AddWork(states_explored);          // deterministic work units
//   }
//
// The string literal is the span's full path — '/'-separated components
// form the per-phase tree ("mine" is the parent of "mine/fvmine") in the
// DumpJson "spans" section, which sorts by path so parents precede
// children. Paths are deliberately NOT derived from runtime nesting:
// ParallelFor bodies run inline on the caller at --threads=1 but on
// pool workers otherwise, so a nesting-derived path would depend on the
// thread count and break the determinism contract for {calls, work}.
//
// Per-span accounting is {calls, work} (deterministic — asserted by CI)
// and wall_ns (advisory; timing is allowed to vary run to run). The
// span pointer is resolved once per call site via a function-local
// static, so steady-state cost is one clock read at entry/exit and one
// relaxed atomic flush in the destructor.

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace graphsig::obs {

// RAII span instance. Work accumulates locally and flushes to the
// shared SpanStats once, in the destructor, together with the call
// count and elapsed wall time.
class TraceSpan {
 public:
  explicit TraceSpan(SpanStats* stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    stats_->RecordCall(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        work_);
  }

  // Attributes deterministic work units to this span.
  void AddWork(uint64_t n) { work_ += n; }

  // Wall time since the span opened; never more than the wall_ns the
  // destructor will record.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  SpanStats* const stats_;
  uint64_t work_ = 0;
  const std::chrono::steady_clock::time_point start_;
};

}  // namespace graphsig::obs

#define GS_OBS_CONCAT_INNER(a, b) a##b
#define GS_OBS_CONCAT(a, b) GS_OBS_CONCAT_INNER(a, b)

// Anonymous scoped span: counts one call + wall time for this scope.
#define GS_TRACE_SPAN(path) \
  GS_TRACE_SPAN_NAMED(GS_OBS_CONCAT(gs_trace_span_, __LINE__), path)

// Named scoped span; call `var.AddWork(n)` to attribute work units.
#define GS_TRACE_SPAN_NAMED(var, path)                               \
  static ::graphsig::obs::SpanStats* GS_OBS_CONCAT(var, _stats) =    \
      ::graphsig::obs::MetricsRegistry::Global().GetSpan(path);      \
  ::graphsig::obs::TraceSpan var(GS_OBS_CONCAT(var, _stats))

#endif  // GRAPHSIG_OBS_TRACE_H_
