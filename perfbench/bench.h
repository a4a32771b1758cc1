#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the benchmark binary: options, the result a
// workload returns, the seeded inputs, and small statistics helpers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/graphsig.h"
#include "graph/graph_database.h"
#include "span_recorder.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test scale: a small screen, shallow radius, short phases.
  bool tiny = false;
  // Self-test only: names one correctness check whose expected output
  // is deliberately corrupted, so the check must fail.
  std::string perturb;
  // Where spans and scratch files go (inside the checkout).
  std::string out_dir;
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Correctness checks that failed, with a reason each.
  std::vector<std::string> check_failures;
  // Every metric the workload measured, keyed by its name in NOTES.md.
  std::map<std::string, MetricValue> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = MetricValue{value, unit};
  }
  void CheckFailed(const std::string& check, const std::string& why) {
    check_failures.push_back(check + ": " + why);
  }
};

Outcome RunMineScreen(const Options& options, SpanRecorder* spans);
Outcome RunServeMixed(const Options& options, SpanRecorder* spans);
Outcome RunIngestStream(const Options& options, SpanRecorder* spans);

// The UACC-257 screen every workload starts from. Its contents are the
// documented baseline screen (see NOTES.md: the dataset seed moves a
// 4-thread mine by up to 4x, which would swamp any code change); the
// run seed permutes graph order and drives everything else.
graphsig::graph::GraphDatabase BaseScreen(size_t size, double active_fraction);
// `db` with its graphs in a seeded random order.
graphsig::graph::GraphDatabase Permuted(const graphsig::graph::GraphDatabase& db,
                                        uint64_t seed);

// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

double Median(std::vector<double> values);
// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);
double Max(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

// Work-counter deltas around a phase, read from the library's metrics
// registry.
class CounterDelta {
 public:
  CounterDelta();
  uint64_t Get(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> start_;
};

// Byte encoding (as a model artifact) of everything a mine of `db`
// returns; the byte-identity checks compare these.
std::string EncodeResult(const graphsig::graph::GraphDatabase& db,
                         const graphsig::core::GraphSigResult& result);

// Unit of a per-layer metric, as BENCHMARK.json lists it.
std::string PerLayerUnit(const std::string& name);

// Corrupts a byte string when `perturb` names `check` (self-test only).
std::string MaybePerturb(std::string bytes, const Options& options,
                         const std::string& check);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
