#include "span_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanRecorder::Begin(const std::string& name, int64_t parent,
                            int64_t request_id) {
  SpanRecord span;
  span.name = name;
  span.parent = parent;
  span.request_id = request_id;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<std::vector<int64_t>> SpanRecorder::ChildrenLocked() const {
  std::vector<std::vector<int64_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int64_t>(i));
    }
  }
  return children;
}

double SpanRecorder::SelfSecondsLocked(
    int64_t id, const std::vector<std::vector<int64_t>>& children) const {
  const SpanRecord& span = spans_[static_cast<size_t>(id)];
  // Union of the children's intervals, clipped to the parent's.
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (int64_t child : children[static_cast<size_t>(id)]) {
    const SpanRecord& c = spans_[static_cast<size_t>(child)];
    const int64_t lo = std::max(c.start_ns, span.start_ns);
    const int64_t hi = std::min(c.end_ns, span.end_ns);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_lo = 0, run_hi = -1;
  for (const auto& [lo, hi] : intervals) {
    if (lo > run_hi) {
      if (run_hi > run_lo) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
    } else {
      run_hi = std::max(run_hi, hi);
    }
  }
  if (run_hi > run_lo) covered += run_hi - run_lo;
  return static_cast<double>(span.end_ns - span.start_ns - covered) / 1e9;
}

double SpanRecorder::SelfSeconds(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SelfSecondsLocked(id, ChildrenLocked());
}

double SpanRecorder::DurationSeconds(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const SpanRecord& span = spans_[static_cast<size_t>(id)];
  return static_cast<double>(span.end_ns - span.start_ns) / 1e9;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto children = ChildrenLocked();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"request_id\": %lld, "
                 "\"self_s\": %.9f}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request_id),
                 SelfSecondsLocked(static_cast<int64_t>(i), children));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
