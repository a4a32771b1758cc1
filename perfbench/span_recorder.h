#ifndef PERFBENCH_SPAN_RECORDER_H_
#define PERFBENCH_SPAN_RECORDER_H_

// In-memory span recorder for the traced benchmark run. The benchmark
// opens a span around each call it makes into a library layer; each
// span records its name, start, end, parent span and request id. Spans
// stay in memory until the run ends, when WriteJsonLines() writes them
// out. Self time is a span's duration minus the part of it that its
// children cover (the union of their intervals, so children running in
// parallel on pool threads are not double-counted).
//
// The untraced run never constructs a recorder: ScopedSpan on a null
// recorder is a no-op.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the recorder's spans, -1 = root
  int64_t request_id = -1;
};

class SpanRecorder {
 public:
  // Opens a span; `parent` is the id of the enclosing span (-1 for a
  // root). Thread-safe. Returns the span id.
  int64_t Begin(const std::string& name, int64_t parent,
                int64_t request_id = -1);
  void End(int64_t id);

  // Self time of one span.
  double SelfSeconds(int64_t id) const;
  double DurationSeconds(int64_t id) const;

  // One JSON object per line; false on a write error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  static int64_t NowNs();
  double SelfSecondsLocked(int64_t id,
                           const std::vector<std::vector<int64_t>>& children)
      const;
  std::vector<std::vector<int64_t>> ChildrenLocked() const;

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             int64_t parent = -1, int64_t request_id = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent, request_id)
                                : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_RECORDER_H_
