// ingest_stream: a 336-graph UACC-257 base log, then 21-graph batches.
// Each batch makes the library calls `graphsig_ingest --append --mine`
// makes, in its order: open the log, append, replay, a fresh
// IncrementalMiner, Restore, Mine, Checkpoint, then append the
// checkpoint. Flush policy: IngestLog's stream flush after each record,
// without fsync. A run holds as many episodes (a fresh base log, then
// the batches) as fit in its window.

#include <filesystem>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/graphsig.h"
#include "model/artifact.h"
#include "stream/incremental.h"
#include "stream/ingest_log.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace stream = graphsig::stream;
using graphsig::core::GraphSigConfig;
using graphsig::graph::Graph;
using graphsig::graph::GraphDatabase;

constexpr size_t kBaseGraphs = 336;
constexpr size_t kBatchGraphs = 21;
constexpr size_t kBatches = 4;

GraphSigConfig IngestConfig(const Options& options) {
  GraphSigConfig config;
  config.cutoff_radius = options.tiny ? 3 : 4;
  config.num_threads = 4;
  return config;
}


// One batch's timings and reuse figures.
struct BatchRecord {
  double open_ms = 0, append_ms = 0, restore_ms = 0, mine_s = 0,
         checkpoint_ms = 0, batch_s = 0, wall_s = 0;
  stream::IncrementalMineStats inc;
};

class IngestRun {
 public:
  IngestRun(const Options& options, SpanRecorder* spans, Outcome* outcome)
      : options_(options), spans_(spans), outcome_(outcome) {
    log_path_ = options.out_dir + "/ingest-" + std::to_string(::getpid()) +
                ".log";
  }
  ~IngestRun() { std::filesystem::remove(log_path_); }
  IngestRun(const IngestRun&) = delete;
  IngestRun& operator=(const IngestRun&) = delete;

  void Run() {
    const size_t total =
        options_.tiny ? 60 : kBaseGraphs + kBatches * kBatchGraphs;
    const GraphDatabase screen = BaseScreen(total, 0.05);
    graphsig::util::Rng rng(options_.seed);
    const double start = NowSeconds();
    double episode_s = 0.0;
    int episode = 0;
    // Each episode takes a fresh seeded order of the screen, so a run
    // spans several base/batch splits. The traced run alternates bare
    // and traced episodes; the difference between them is the tracing
    // overhead.
    while (episode < (spans_ != nullptr ? 2 : 1) ||
           NowSeconds() - start + episode_s <= options_.seconds) {
      const double t = NowSeconds();
      SetUp(Permuted(screen, rng.NextU64()));
      const bool traced = spans_ != nullptr && episode % 2 == 1;
      RunEpisode(traced ? spans_ : nullptr, episode == 0);
      episode_s = NowSeconds() - t;
      ++episode;
    }
    outcome_->Set("setup_s", Median(setup_s_), "s");
    Report();
  }

 private:
  // Set-up of one episode: the base log holds the first graphs of
  // `screen` as one batch, mined cold and checkpointed.
  void SetUp(const GraphDatabase& screen) {
    const double t = NowSeconds();
    const size_t base = options_.tiny ? 39 : kBaseGraphs;
    base_.assign(screen.graphs().begin(), screen.graphs().begin() + base);
    batches_.clear();
    for (size_t b = base; b < screen.size(); b += kBatchGraphs) {
      batches_.emplace_back(
          screen.graphs().begin() + b,
          screen.graphs().begin() + std::min(screen.size(), b + kBatchGraphs));
    }
    std::filesystem::remove(log_path_);
    auto log = stream::IngestLog::Open(log_path_);
    GS_CHECK(log.ok());
    GS_CHECK(log.value().AppendBatch(base_).ok());
    stream::IncrementalMiner miner(IngestConfig(options_));
    const GraphDatabase db = log.value().ReplayDatabase();
    miner.Mine(db, std::vector<uint64_t>(db.size(), 1), 1);
    GS_CHECK(log.value().AppendCheckpoint(1, miner.Checkpoint()).ok());
    base_log_bytes_ =
        static_cast<double>(std::filesystem::file_size(log_path_));
    setup_s_.push_back(NowSeconds() - t);
  }

  void RunEpisode(SpanRecorder* spans, bool verify) {
    size_t batch_record_bytes = 0;
    graphsig::core::GraphSigResult last;
    GraphDatabase last_db;
    for (const std::vector<Graph>& batch : batches_) {
      BatchRecord rec;
      const int64_t request = outcome_->attempted;
      ScopedSpan root(spans, "ingest.batch", -1, request);
      const auto layer = [&](const char* name) {
        return ScopedSpan(spans, name, root.id(), request);
      };
      const double t_open = NowSeconds();
      auto opened = [&] {
        auto span = layer("stream.open");
        return stream::IngestLog::Open(log_path_);
      }();
      GS_CHECK(opened.ok());
      stream::IngestLog log = std::move(opened).value();
      const double t_append = NowSeconds();
      rec.open_ms = (t_append - t_open) * 1e3;
      {
        auto span = layer("stream.append");
        GS_CHECK(log.AppendBatch(batch).ok());
      }
      rec.append_ms = (NowSeconds() - t_append) * 1e3;
      batch_record_bytes +=
          stream::EncodeBatchRecord(log.last_generation(), batch).size();

      GraphDatabase db;
      std::vector<uint64_t> generations;
      {
        auto span = layer("stream.replay");
        db = log.ReplayDatabase();
        for (const stream::LogBatch& b : log.contents().batches) {
          generations.insert(generations.end(), b.graphs.size(),
                             b.generation);
        }
      }
      stream::IncrementalMiner miner(IngestConfig(options_));
      double t = NowSeconds();
      {
        auto span = layer("stream.restore");
        auto restored = miner.Restore(log.contents().checkpoint);
        GS_CHECK(restored.ok() && restored.value());
      }
      rec.restore_ms = (NowSeconds() - t) * 1e3;
      t = NowSeconds();
      graphsig::core::GraphSigResult result;
      {
        auto span = layer("stream.mine");
        result = miner.Mine(db, generations, log.last_generation(), &rec.inc);
      }
      const double mined = NowSeconds();
      rec.mine_s = mined - t;
      rec.batch_s = mined - t_append;
      {
        auto span = layer("stream.checkpoint");
        GS_CHECK(log.AppendCheckpoint(log.last_generation(),
                                      miner.Checkpoint())
                     .ok());
      }
      rec.checkpoint_ms = (NowSeconds() - mined) * 1e3;
      rec.wall_s = NowSeconds() - t_open;
      ++outcome_->attempted;
      (spans != nullptr ? traced_ : bare_).push_back(rec);
      last = std::move(result);
      last_db = std::move(db);
    }
    const double log_bytes =
        static_cast<double>(std::filesystem::file_size(log_path_));
    log_bytes_.push_back(log_bytes);
    write_amp_.push_back((log_bytes - base_log_bytes_) /
                         static_cast<double>(batch_record_bytes));
    if (verify) {
      // The final incremental result must equal a cold mine of the
      // replayed database.
      const graphsig::core::GraphSigResult cold =
          graphsig::core::GraphSig(IngestConfig(options_)).Mine(last_db);
      const std::string want = MaybePerturb(EncodeResult(last_db, cold),
                                            options_, "ingest_cold");
      if (EncodeResult(last_db, last) != want) {
        ++outcome_->failed;
        outcome_->CheckFailed("ingest_cold",
                              "incremental result differs from a cold mine");
      }
    }
  }

  void Report() {
    std::vector<double> batch_ms, append_ms;
    for (const BatchRecord& r : bare_) {
      batch_ms.push_back(r.batch_s * 1e3);
      append_ms.push_back(r.append_ms);
    }
    outcome_->Set("ingest.batch_p50_s", Median(batch_ms) / 1e3, "s");
    outcome_->Set("ingest.batch_max_s", Max(batch_ms) / 1e3, "s");
    outcome_->Set("ingest.append_p50_ms", Median(append_ms), "ms");
    outcome_->Set("ingest.batches", static_cast<double>(batch_ms.size()),
                  "count");
    outcome_->Set("primary_p50_ms", Median(batch_ms), "ms");
    outcome_->Set("secondary_p50_ms", Median(append_ms), "ms");
    if (spans_ == nullptr) return;

    std::vector<double> open, restore, mine, checkpoint, append, wall;
    double reused[4] = {0, 0, 0, 0}, total[4] = {0, 0, 0, 0};
    double invalidations = 0;
    for (const BatchRecord& r : traced_) {
      open.push_back(r.open_ms);
      restore.push_back(r.restore_ms);
      mine.push_back(r.mine_s);
      checkpoint.push_back(r.checkpoint_ms);
      append.push_back(r.append_ms);
      wall.push_back(r.wall_s);
      const int64_t used[4][2] = {
          {r.inc.graphs_reused, r.inc.graphs_featurized},
          {r.inc.groups_reused, r.inc.groups_mined},
          {r.inc.fsm_tasks_replayed, r.inc.fsm_tasks_mined},
          {r.inc.cuts_reused, r.inc.cuts_computed}};
      for (int i = 0; i < 4; ++i) {
        reused[i] += static_cast<double>(used[i][0]);
        total[i] += static_cast<double>(used[i][0] + used[i][1]);
      }
      if (r.inc.invalidated_feature_space) ++invalidations;
    }
    std::vector<double> bare_wall;
    for (const BatchRecord& r : bare_) bare_wall.push_back(r.wall_s);
    const auto ratio = [&](int i) {
      return total[i] > 0 ? reused[i] / total[i] : 0.0;
    };
    const double episodes = static_cast<double>(traced_.size()) /
                            static_cast<double>(batches_.size());
    outcome_->Set("stream.open_ms", Median(open), "ms");
    outcome_->Set("stream.restore_ms", Median(restore), "ms");
    outcome_->Set("stream.mine_s", Median(mine), "s");
    outcome_->Set("stream.checkpoint_ms", Median(checkpoint), "ms");
    outcome_->Set("stream.append_ms", Median(append), "ms");
    outcome_->Set("stream.graph_reuse_ratio", ratio(0), "ratio");
    outcome_->Set("stream.group_reuse_ratio", ratio(1), "ratio");
    outcome_->Set("stream.fsm_replay_ratio", ratio(2), "ratio");
    outcome_->Set("stream.cut_reuse_ratio", ratio(3), "ratio");
    outcome_->Set("stream.feature_space_invalidations",
                  invalidations / episodes, "count");
    outcome_->Set("stream.log_bytes", Median(log_bytes_), "bytes");
    outcome_->Set("stream.write_amp", Median(write_amp_), "ratio");
    outcome_->Set("trace.overhead_frac",
                  (Median(wall) - Median(bare_wall)) / Median(bare_wall),
                  "ratio");
  }

  const Options& options_;
  SpanRecorder* spans_;
  Outcome* outcome_;
  std::string log_path_;
  double base_log_bytes_ = 0.0;
  std::vector<Graph> base_;
  std::vector<std::vector<Graph>> batches_;
  std::vector<BatchRecord> bare_, traced_;
  std::vector<double> log_bytes_, write_amp_, setup_s_;
};

}  // namespace

Outcome RunIngestStream(const Options& options, SpanRecorder* spans) {
  Outcome outcome;
  IngestRun run(options, spans, &outcome);
  run.Run();
  return outcome;
}

}  // namespace perfbench
