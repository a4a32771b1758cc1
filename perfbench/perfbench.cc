// The GraphSig benchmark binary. One process runs one workload (or
// `all` of them) and prints a human-readable report followed, as its
// last line, by one JSON object:
//
//   perfbench --workload mine_screen|serve_mixed|ingest_stream|all
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--tiny] [--perturb CHECK]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// is the separate traced run that reports the per-layer metrics (and
// writes its spans to DIR). The exit code is non-zero when any
// correctness check fails. NOTES.md documents every metric.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "data/datasets.h"
#include "model/artifact.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace perfbench {

graphsig::graph::GraphDatabase BaseScreen(size_t size,
                                          double active_fraction) {
  graphsig::data::DatasetOptions options;
  options.size = size;
  options.active_fraction = active_fraction;
  options.seed = 1;
  return graphsig::data::MakeCancerScreen("UACC-257", options);
}

graphsig::graph::GraphDatabase Permuted(const graphsig::graph::GraphDatabase& db,
                                        uint64_t seed) {
  std::vector<size_t> order(db.size());
  std::iota(order.begin(), order.end(), 0);
  graphsig::util::Rng rng(seed);
  for (size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.NextBounded(k)]);
  }
  return db.Subset(order);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::max_element(values.begin(), values.end());
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

CounterDelta::CounterDelta()
    : start_(graphsig::obs::MetricsRegistry::Global().WorkValues()) {}

uint64_t CounterDelta::Get(const std::string& name) const {
  const auto now = graphsig::obs::MetricsRegistry::Global().WorkValues();
  const auto end = now.find(name);
  const auto begin = start_.find(name);
  const uint64_t a = begin == start_.end() ? 0 : begin->second;
  return end == now.end() ? 0 : end->second - a;
}

std::string EncodeResult(const graphsig::graph::GraphDatabase& db,
                         const graphsig::core::GraphSigResult& result) {
  graphsig::model::ModelArtifact artifact;
  artifact.database = db;
  artifact.feature_space = result.feature_space;
  artifact.catalog = result.subgraphs;
  return graphsig::model::EncodeArtifact(artifact);
}

std::string MaybePerturb(std::string bytes, const Options& options,
                         const std::string& check) {
  if (options.perturb == check) {
    if (bytes.empty()) return "x";
    bytes[bytes.size() / 2] ^= 0x01;
  }
  return bytes;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics of BENCHMARK.json, in its order. Every --trace 0 run
// prints every end-to-end metric; every --trace 1 run prints every
// per-layer metric, as 0 where the workload does not exercise that
// layer.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"primary_p50_ms", "ms"},
    {"secondary_p50_ms", "ms"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"features.vectorize_s", "s"},
    {"rwr.power_iterations", "count"},
    {"fvmine.groups_s", "s"},
    {"fvmine.expansions", "count"},
    {"fvmine.yield", "ratio"},
    {"core.plan_s", "s"},
    {"core.region_cache_hit_ratio", "ratio"},
    {"core.cut_s", "s"},
    {"fsm.region_tasks_s", "s"},
    {"fsm.region_tasks_s.t4", "s"},
    {"gspan.candidates", "count"},
    {"graph.csr_builds", "count"},
    {"fsm.pattern_yield", "ratio"},
    {"fsm.filtered_set_ratio", "ratio"},
    {"core.merge_s", "s"},
    {"core.db_frequency_s", "s"},
    {"graph.vf2_feasibility_checks", "count"},
    {"fsm.task_p99_ms", "ms"},
    {"fsm.task_max_ms", "ms"},
    {"util.pool_busy_frac", "ratio"},
    {"mine.uncovered_s", "s"},
    {"mine.traced_s", "s"},
    {"serve.profile_us", "us"},
    {"serve.match_us", "us"},
    {"serve.iso_calls_per_query", "count"},
    {"serve.prune_ratio", "ratio"},
    {"serve.match_yield", "ratio"},
    {"features.query_rwr_us", "us"},
    {"classify.knn_us", "us"},
    {"net.codec_us", "us"},
    {"net.rtt_overhead_us.q0200", "us"},
    {"net.rtt_overhead_us.q0400", "us"},
    {"net.rtt_overhead_us.q0600", "us"},
    {"net.rtt_overhead_us.q0800", "us"},
    {"net.rtt_overhead_us.q1000", "us"},
    {"net.rtt_overhead_us.q1200", "us"},
    {"net.rtt_overhead_us.q1600", "us"},
    {"serve.max_qps_at_p99", "1/s"},
    {"approx.query_us", "us"},
    {"net.retry_later", "count"},
    {"net.protocol_errors", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"stream.open_ms", "ms"},
    {"stream.restore_ms", "ms"},
    {"stream.mine_s", "s"},
    {"stream.checkpoint_ms", "ms"},
    {"stream.graph_reuse_ratio", "ratio"},
    {"stream.group_reuse_ratio", "ratio"},
    {"stream.fsm_replay_ratio", "ratio"},
    {"stream.cut_reuse_ratio", "ratio"},
    {"stream.feature_space_invalidations", "count"},
    {"stream.append_ms", "ms"},
    {"stream.log_bytes", "bytes"},
    {"stream.write_amp", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

}  // namespace

std::string PerLayerUnit(const std::string& name) {
  for (const MetricSpec& spec : kPerLayer) {
    if (name == spec.name) return spec.unit;
  }
  return "";
}

namespace {

const std::vector<std::string> kWorkloads = {"mine_screen", "serve_mixed",
                                             "ingest_stream"};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "mine_screen|serve_mixed|ingest_stream|all --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--tiny] "
               "[--perturb CHECK]\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  options.out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value());
    } else if (flag == "--trace") {
      options.trace = value() != "0";
    } else if (flag == "--out-dir") {
      options.out_dir = value();
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--perturb") {
      options.perturb = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!(options.seconds > 0)) Usage("--seconds must be positive");
  return options;
}

Outcome RunWorkload(const std::string& workload, const Options& options,
                    SpanRecorder* spans) {
  if (workload == "mine_screen") return RunMineScreen(options, spans);
  if (workload == "serve_mixed") return RunServeMixed(options, spans);
  if (workload == "ingest_stream") return RunIngestStream(options, spans);
  Usage(("unknown workload " + workload).c_str());
}

void PrintReport(const std::string& workload, const Options& options,
                 const Outcome& outcome) {
  std::printf("== %s seed=%llu trace=%d: %lld attempted, %lld failed\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  std::printf("  %-36s %.6g ratio\n", "failed_frac",
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 0.0);
  for (const auto& [name, metric] : outcome.metrics) {
    std::printf("  %-36s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& failure : outcome.check_failures) {
    std::printf("  CHECK FAILED %s\n", failure.c_str());
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = ParseOptions(argc, argv);
  std::filesystem::create_directories(options.out_dir);
  const std::vector<std::string> workloads =
      options.workload == "all" ? kWorkloads
                                : std::vector<std::string>{options.workload};

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  // Metric name -> value in the final line; with `all`, names are
  // prefixed by the workload.
  std::vector<std::pair<std::string, MetricValue>> final_metrics;
  for (const std::string& workload : workloads) {
    SpanRecorder recorder;
    const Outcome outcome =
        RunWorkload(workload, options, options.trace ? &recorder : nullptr);
    PrintReport(workload, options, outcome);
    if (options.trace) {
      const std::string path = options.out_dir + "/spans-" + workload +
                               "-" + std::to_string(options.seed) + ".jsonl";
      if (!recorder.WriteJsonLines(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("  spans written to %s\n", path.c_str());
    }
    correct = correct && outcome.check_failures.empty() && outcome.failed == 0;
    attempted += outcome.attempted;
    failed += outcome.failed;
    const std::string prefix = workloads.size() > 1 ? workload + "/" : "";
    for (const MetricSpec& spec : options.trace ? kPerLayer : kEndToEnd) {
      const auto found = outcome.metrics.find(spec.name);
      if (found == outcome.metrics.end() && !options.trace) {
        std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                     workload.c_str(), spec.name);
        return 1;
      }
      const double value =
          found == outcome.metrics.end() ? 0.0 : found->second.value;
      final_metrics.emplace_back(prefix + spec.name,
                                 MetricValue{value, spec.unit});
    }
  }

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < final_metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + final_metrics[i].first + "\": {\"value\": " +
            JsonNumber(final_metrics[i].second.value) + ", \"unit\": \"" +
            final_metrics[i].second.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
