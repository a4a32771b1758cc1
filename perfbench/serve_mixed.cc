// serve_mixed: an index built from the UACC-257 screen, served by an
// in-process net::Server (1 event loop, 1 shard) to an open-loop
// stream of 75% exact and 25% approximate (support, 32 samples)
// queries over at most 4 connections. The untraced run offers a fixed
// sub-saturation rate; the traced run times each serving layer
// in-process and then climbs a rate ladder that crosses saturation.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "classify/sig_knn.h"
#include "core/graphsig.h"
#include "features/rwr.h"
#include "model/artifact.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "open_loop.h"
#include "serve/catalog_handle.h"
#include "serve/pattern_catalog.h"
#include "serve/sharded_catalog.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace net = graphsig::net;
namespace serve = graphsig::serve;
namespace wire = graphsig::net::wire;
using graphsig::graph::GraphDatabase;

constexpr double kApproxShare = 0.25;
constexpr int32_t kApproxSamples = 32;
constexpr size_t kApproxPool = 256;   // distinct approx requests
constexpr double kLatencyLimitMs = 10.0;
constexpr int kConnections = 4;

// The offered rates. The fixed rate sits well below saturation; the
// ladder starts there and ends past it.
constexpr double kFixedRate = 200.0;
const std::vector<double>& LadderRates() {
  static const std::vector<double> rates = {200, 400, 600, 800, 1000,
                                            1200, 1600};
  return rates;
}

struct Request {
  size_t graph = 0;
  bool approx = false;
  size_t approx_slot = 0;  // index into the approx pool
};

struct ApproxEntry {
  size_t graph = 0;
  uint64_t seed = 0;
};

wire::ApproxRequest MakeApproxRequest(const GraphDatabase& db,
                                      const ApproxEntry& entry) {
  wire::ApproxRequest request;
  request.mode = 0;  // support
  request.seed = entry.seed;
  request.samples = kApproxSamples;
  request.confidence = 0.95;
  request.pattern = db.graph(entry.graph);
  return request;
}

serve::ApproxQueryConfig ApproxConfig(const wire::ApproxRequest& request) {
  serve::ApproxQueryConfig config;
  config.mode = static_cast<graphsig::approx::ApproxMode>(request.mode);
  config.seed = request.seed;
  config.samples = static_cast<int32_t>(request.samples);
  config.confidence = request.confidence;
  config.num_threads = 1;
  return config;
}

// What graphsig_index builds: the catalog mined from the actives plus
// the k-NN classifier trained on both classes.
graphsig::model::ModelArtifact BuildArtifact(const Options& options,
                                             const GraphDatabase& db) {
  graphsig::core::GraphSigConfig config;
  config.cutoff_radius = options.tiny ? 3 : 4;
  config.num_threads = 4;
  const GraphDatabase actives = db.FilterByTag(1);
  graphsig::core::GraphSigResult mined =
      graphsig::core::GraphSig(config).Mine(actives);
  graphsig::model::ModelArtifact artifact;
  artifact.database = db;
  artifact.feature_space = std::move(mined.feature_space);
  artifact.catalog = std::move(mined.subgraphs);
  graphsig::classify::SigKnnConfig knn;
  knn.mining = config;
  graphsig::classify::GraphSigClassifier classifier(knn);
  classifier.Train(db);
  artifact.classifier = classifier.ExportModel();
  return artifact;
}

// The served index and the server thread; stops and joins on
// destruction.
class Fixture {
 public:
  explicit Fixture(graphsig::model::ModelArtifact artifact) {
    auto catalog = serve::PatternCatalog::FromArtifact(std::move(artifact));
    GS_CHECK(catalog.ok());
    served_ = std::make_shared<const serve::ShardedCatalog>(
        std::make_shared<const serve::PatternCatalog>(
            std::move(catalog).value()),
        1);
    handle_ = std::make_unique<serve::CatalogHandle>(served_);
    net::ServerConfig config;
    config.num_loops = 1;
    config.query_threads = 1;
    server_ = std::make_unique<net::Server>(handle_.get(), config);
    const graphsig::util::Status started = server_->Start();
    GS_CHECK(started.ok());
    thread_ = std::thread([this] { served_status_ = server_->Serve(); });
  }
  ~Fixture() {
    server_->RequestShutdown();
    thread_.join();
    GS_CHECK(served_status_.ok());
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  uint16_t port() const { return server_->port(); }

 private:
  std::shared_ptr<const serve::ShardedCatalog> served_;
  std::unique_ptr<serve::CatalogHandle> handle_;
  std::unique_ptr<net::Server> server_;
  graphsig::util::Status served_status_ = graphsig::util::Status::Ok();
  std::thread thread_;
};

std::vector<Request> MakeStream(uint64_t seed, size_t db_size,
                                size_t length) {
  graphsig::util::Rng rng(seed);
  std::vector<Request> stream(length);
  for (Request& r : stream) {
    r.graph = static_cast<size_t>(rng.NextBounded(db_size));
    r.approx = rng.NextBernoulli(kApproxShare);
    r.approx_slot = static_cast<size_t>(rng.NextBounded(kApproxPool));
  }
  return stream;
}

struct Stats {
  int64_t queries = 0;
  uint64_t requests_served = 0;
  uint64_t retries = 0;
  uint64_t protocol_errors = 0;
};

bool ReadStats(uint16_t port, Stats* out) {
  net::ClientConfig config;
  config.port = port;
  net::Client client(config);
  if (!client.Connect().ok()) return false;
  auto reply = client.Stats(wire::kBaseWireVersion);
  if (!reply.ok()) return false;
  out->queries = reply.value().serving.queries;
  out->requests_served = reply.value().requests_served;
  out->retries = reply.value().retries_sent;
  out->protocol_errors = reply.value().protocol_errors;
  return true;
}

class ServeRun {
 public:
  ServeRun(const Options& options, SpanRecorder* spans, Outcome* outcome)
      : options_(options), spans_(spans), outcome_(outcome) {}

  void Run() {
    SetUp();
    stream_ = MakeStream(options_.seed, db_.size(), 1 << 16);
    ExpectReplies();
    if (spans_ == nullptr) {
      RunFixedRate();
    } else {
      RunLayers();
      RunLadder();
    }
  }

 private:
  void SetUp() {
    std::vector<double> setup_s;
    const size_t size = options_.tiny ? 60 : 418;
    // Set-up is index build plus server start; repeated for a median.
    const int repeats = options_.tiny ? 1 : 3;
    graphsig::model::ModelArtifact artifact;
    for (int i = 0; i < repeats; ++i) {
      fixture_.reset();
      const double t = NowSeconds();
      // The index is the same for every seed; the seed drives the
      // request stream.
      db_ = BaseScreen(size, 0.3);
      artifact = BuildArtifact(options_, db_);
      fixture_ = std::make_unique<Fixture>(artifact);
      setup_s.push_back(NowSeconds() - t);
    }
    outcome_->Set("setup_s", Median(setup_s), "s");
    // A second catalog instance over the same artifact computes the
    // expected replies, so its serving counters stay apart from the
    // served catalog's.
    auto reference = serve::PatternCatalog::FromArtifact(std::move(artifact));
    GS_CHECK(reference.ok());
    reference_ = std::make_shared<const serve::ShardedCatalog>(
        std::make_shared<const serve::PatternCatalog>(
            std::move(reference).value()),
        1);
    graphsig::util::Rng rng(options_.seed ^ 0x9e3779b97f4a7c15ULL);
    for (size_t i = 0; i < kApproxPool; ++i) {
      approx_pool_.push_back(
          {static_cast<size_t>(rng.NextBounded(db_.size())), rng.NextU64()});
    }
  }

  // In-process reference encodings: ShardedCatalog::Query per graph,
  // ApproxQuery per approx pool entry.
  void ExpectReplies() {
    serve::CatalogQueryConfig config;
    config.num_threads = 1;
    for (size_t g = 0; g < db_.size(); ++g) {
      const serve::QueryResult result = reference_->Query(db_.graph(g), config);
      expected_.push_back(
          wire::EncodeQueryReply(wire::ReplyFromResult(result)));
    }
    for (const ApproxEntry& entry : approx_pool_) {
      const wire::ApproxRequest request = MakeApproxRequest(db_, entry);
      auto result =
          reference_->ApproxQuery(request.pattern, ApproxConfig(request));
      GS_CHECK(result.ok());
      expected_approx_.push_back(
          wire::EncodeApproxReply(wire::ReplyFromApprox(result.value())));
    }
    const auto first_exact = std::find_if(
        stream_.begin(), stream_.end(), [](const Request& r) { return !r.approx; });
    std::string& target = expected_[first_exact->graph];
    target = MaybePerturb(target, options_, "serve_reply");
  }

  const Request& At(int64_t k) const {
    return stream_[static_cast<size_t>(k) % stream_.size()];
  }

  RequestOutcome Send(net::Client& client, int64_t k) const {
    const Request& r = At(k);
    auto classify = [](const graphsig::util::Status& status) {
      return status.code() == graphsig::util::StatusCode::kUnavailable
                 ? RequestOutcome::kRefused
                 : RequestOutcome::kError;
    };
    if (r.approx) {
      auto reply = client.Approx(
          MakeApproxRequest(db_, approx_pool_[r.approx_slot]));
      if (!reply.ok()) return classify(reply.status());
      return wire::EncodeApproxReply(reply.value()) ==
                     expected_approx_[r.approx_slot]
                 ? RequestOutcome::kOk
                 : RequestOutcome::kMismatch;
    }
    auto reply = client.Query(db_.graph(r.graph));
    if (!reply.ok()) return classify(reply.status());
    return wire::EncodeQueryReply(reply.value()) == expected_[r.graph]
               ? RequestOutcome::kOk
               : RequestOutcome::kMismatch;
  }

  // One open-loop phase, with the reply and Stats-RPC checks.
  PhaseReport Phase(double rate, double duration_s, SpanRecorder* spans) {
    OpenLoopConfig config;
    config.client.port = fixture_->port();
    config.connections = kConnections;
    config.rate = rate;
    config.duration_s = duration_s;
    config.first_request = next_request_;
    Stats before, after;
    const bool stats_before = ReadStats(fixture_->port(), &before);
    PhaseReport report;
    {
      IdleSpinners keep_awake(kConnections);
      report = RunOpenLoop(
          config,
          [this](net::Client& c, int64_t k) { return Send(c, k); },
          [this](int64_t k) { return At(k).approx; }, spans);
    }
    const bool stats_after = ReadStats(fixture_->port(), &after);
    next_request_ += report.sent();

    outcome_->attempted += report.sent();
    outcome_->failed += report.failed();
    int64_t mismatches = 0, errors = 0, exact_replies = 0;
    for (const RequestSample& s : report.samples) {
      const bool replied = s.outcome == RequestOutcome::kOk ||
                           s.outcome == RequestOutcome::kMismatch;
      if (s.outcome == RequestOutcome::kMismatch) ++mismatches;
      if (!replied) ++errors;
      if (replied && !s.is_approx) ++exact_replies;
    }
    if (mismatches > 0) {
      outcome_->CheckFailed(
          "serve_reply", std::to_string(mismatches) +
                             " replies differ from the in-process encoding");
    }
    // The server's counts must match the replies the client received:
    // exact queries answered (catalog stats) and requests served (every
    // query reply; Stats RPCs are not counted). A request that got no
    // reply has already failed, and then the counts cannot be matched.
    const int64_t want_queries = std::stoll(MaybePerturb(
        std::to_string(exact_replies), options_, "serve_stats"));
    const int64_t got_queries = after.queries - before.queries;
    const int64_t got_served =
        static_cast<int64_t>(after.requests_served - before.requests_served);
    if (!stats_before || !stats_after ||
        (errors == 0 && (got_queries != want_queries ||
                         got_served != report.ok() + mismatches))) {
      outcome_->CheckFailed(
          "serve_stats",
          "server counted " + std::to_string(got_queries) +
              " exact queries and " + std::to_string(got_served) +
              " requests, client got " + std::to_string(report.ok_of(false)) +
              " exact and " + std::to_string(report.ok()) + " total ok");
    }
    retries_ += after.retries - before.retries;
    protocol_errors_ += after.protocol_errors - before.protocol_errors;
    // Exact latency from due time, and (as graphsig_loadgen times it)
    // from send time, which hides the wait of a late generator.
    const std::vector<double> exact = report.Latencies(false);
    std::vector<double> from_send;
    for (const RequestSample& s : report.samples) {
      if (!s.is_approx) from_send.push_back(s.rtt_ms);
    }
    std::printf(
        "rate %.0f/s: sent %lld, ok %lld, failed %lld; exact p50 %.3f ms, "
        "p99 %.3f ms (from send: p99 %.3f ms); lateness p99 %.3f ms%s%s\n",
        rate, static_cast<long long>(report.sent()),
        static_cast<long long>(report.ok()),
        static_cast<long long>(report.failed()), Median(exact),
        Percentile(exact, 99), Percentile(from_send, 99),
        Percentile(report.Lateness(), 99),
        report.first_error.empty() ? "" : "; first error: ",
        report.first_error.c_str());
    return report;
  }

  void RunFixedRate() {
    const double duration = options_.tiny ? 0.5 : options_.seconds;
    const PhaseReport report = Phase(kFixedRate, duration, nullptr);
    const std::vector<double> exact = report.Latencies(false);
    const std::vector<double> approx = report.Latencies(true);
    outcome_->Set("serve.exact_p50_ms", Median(exact), "ms");
    outcome_->Set("serve.exact_p99_ms", Percentile(exact, 99), "ms");
    outcome_->Set("serve.approx_p50_ms", Median(approx), "ms");
    outcome_->Set("serve.approx_p99_ms", Percentile(approx, 99), "ms");
    outcome_->Set("serve.exact_samples", static_cast<double>(exact.size()),
                  "count");
    outcome_->Set("serve.approx_samples", static_cast<double>(approx.size()),
                  "count");
    outcome_->Set("primary_p50_ms", Median(exact), "ms");
    outcome_->Set("secondary_p50_ms", Median(approx), "ms");
  }

  // In-process pass over the stream, one span per layer call.
  void RunLayers() {
    const serve::PatternCatalog& catalog = reference_->catalog();
    const graphsig::classify::SigKnnModel& knn = catalog.artifact().classifier;
    std::vector<double> profile_us, match_us, rwr_us, knn_us, codec_us,
        approx_us, plain_us, spanned_us;
    double iso_calls = 0, candidates = 0, matches = 0;
    int64_t exact_count = 0;
    const double budget = options_.tiny ? 0.3 : options_.seconds / 3;
    const double start = NowSeconds();
    auto us_since = [](double t) { return (NowSeconds() - t) * 1e6; };
    for (int64_t k = 0; k < 64 || NowSeconds() - start < budget; ++k) {
      const Request& r = At(k);
      if (r.approx) {
        const wire::ApproxRequest request =
            MakeApproxRequest(db_, approx_pool_[r.approx_slot]);
        ScopedSpan span(spans_, "approx.query", -1, k);
        const double t = NowSeconds();
        auto result =
            reference_->ApproxQuery(request.pattern, ApproxConfig(request));
        approx_us.push_back(us_since(t));
        GS_CHECK(result.ok());
        continue;
      }
      ++exact_count;
      const graphsig::graph::Graph& query = db_.graph(r.graph);
      ScopedSpan root(spans_, "serve.query", -1, k);
      double t = NowSeconds();
      serve::PatternCatalog::QueryProfile profile;
      {
        ScopedSpan span(spans_, "serve.profile", root.id(), k);
        profile = serve::PatternCatalog::BuildProfile(query);
      }
      profile_us.push_back(us_since(t));
      t = NowSeconds();
      serve::QueryResult result;
      {
        ScopedSpan span(spans_, "serve.match", root.id(), k);
        for (size_t s = 0; s < reference_->num_shards(); ++s) {
          serve::PatternCatalog::AnchorMatches m = catalog.MatchAnchors(
              query, profile, reference_->shard_anchors(s));
          result.iso_calls += m.iso_calls;
          result.matched_patterns.insert(result.matched_patterns.end(),
                                         m.matched_patterns.begin(),
                                         m.matched_patterns.end());
        }
      }
      match_us.push_back(us_since(t));
      iso_calls += result.iso_calls;
      candidates += static_cast<double>(catalog.num_patterns());
      matches += static_cast<double>(result.matched_patterns.size());
      t = NowSeconds();
      {
        ScopedSpan span(spans_, "features.query_rwr", root.id(), k);
        const auto vectors =
            graphsig::features::GraphToVectors(query, -1, knn.space, knn.rwr);
        GS_CHECK(!vectors.empty() || query.num_vertices() == 0);
      }
      const double rwr = us_since(t);
      rwr_us.push_back(rwr);
      t = NowSeconds();
      {
        ScopedSpan span(spans_, "classify.score", root.id(), k);
        result.score = catalog.ClassifierScore(query);
        result.has_score = true;
      }
      knn_us.push_back(us_since(t) - rwr);
      t = NowSeconds();
      {
        ScopedSpan span(spans_, "net.codec", root.id(), k);
        wire::QueryRequest request;
        request.query = query;
        auto decoded = wire::DecodeQueryRequest(
            wire::EncodeQueryRequest(request));
        GS_CHECK(decoded.ok());
        auto reply = wire::DecodeQueryReply(
            wire::EncodeQueryReply(wire::ReplyFromResult(result)));
        GS_CHECK(reply.ok());
      }
      codec_us.push_back(us_since(t));
    }
    // Tracing overhead: every graph through ShardedCatalog::Query, bare
    // and inside a span. The bare times are also the in-process query
    // time the loopback round trips are compared with.
    serve::CatalogQueryConfig config;
    config.num_threads = 1;
    for (int rep = 0; rep < 3; ++rep) {
      for (bool traced : {false, true}) {
        for (size_t g = 0; g < db_.size(); ++g) {
          const double t = NowSeconds();
          ScopedSpan span(traced ? spans_ : nullptr, "serve.query_whole");
          reference_->Query(db_.graph(g), config);
          (traced ? spanned_us : plain_us).push_back(us_since(t));
        }
      }
    }
    inproc_query_us_ = Median(plain_us);
    outcome_->Set("serve.profile_us", Median(profile_us), "us");
    outcome_->Set("serve.match_us", Median(match_us), "us");
    outcome_->Set("serve.iso_calls_per_query",
                  iso_calls / static_cast<double>(exact_count), "count");
    outcome_->Set("serve.prune_ratio",
                  candidates > 0 ? (candidates - iso_calls) / candidates : 0,
                  "ratio");
    outcome_->Set("serve.match_yield",
                  iso_calls > 0 ? matches / iso_calls : 0, "ratio");
    outcome_->Set("features.query_rwr_us", Median(rwr_us), "us");
    outcome_->Set("classify.knn_us", Median(knn_us), "us");
    outcome_->Set("net.codec_us", Median(codec_us), "us");
    outcome_->Set("approx.query_us", Median(approx_us), "us");
    outcome_->Set("trace.overhead_frac",
                  (Sum(spanned_us) - Sum(plain_us)) / Sum(plain_us),
                  "ratio");
  }

  void RunLadder() {
    const double rung_s = options_.tiny ? 0.3 : options_.seconds / 12;
    double max_ok_rate = 0.0;
    bool limit_missed = false;
    for (double rate : LadderRates()) {
      const PhaseReport report = Phase(rate, rung_s, spans_);
      // Median loopback round trip of the exact queries minus the
      // median in-process query time.
      std::vector<double> rtt_us;
      for (const RequestSample& s : report.samples) {
        if (!s.is_approx && s.outcome == RequestOutcome::kOk) {
          rtt_us.push_back(s.rtt_ms * 1e3);
        }
      }
      char name[64];
      std::snprintf(name, sizeof(name), "net.rtt_overhead_us.q%04d",
                    static_cast<int>(rate));
      outcome_->Set(name, Median(rtt_us) - inproc_query_us_, "us");
      if (rate == LadderRates().front()) {
        outcome_->Set("loadgen.late_p99_ms",
                      Percentile(report.Lateness(), 99), "ms");
      }
      const bool meets = report.failed() == 0 &&
                         Percentile(report.Latencies(false), 99) <=
                             kLatencyLimitMs &&
                         !report.LagGrows(1.0);
      if (meets && !limit_missed) max_ok_rate = rate;
      if (!meets) limit_missed = true;
    }
    outcome_->Set("serve.max_qps_at_p99", max_ok_rate, "1/s");
    outcome_->Set("net.retry_later", static_cast<double>(retries_), "count");
    outcome_->Set("net.protocol_errors", static_cast<double>(protocol_errors_),
                  "count");
  }

  const Options& options_;
  SpanRecorder* spans_;
  Outcome* outcome_;
  GraphDatabase db_;
  std::unique_ptr<Fixture> fixture_;
  std::shared_ptr<const serve::ShardedCatalog> reference_;
  std::vector<ApproxEntry> approx_pool_;
  std::vector<Request> stream_;
  std::vector<std::string> expected_;
  std::vector<std::string> expected_approx_;
  double inproc_query_us_ = 0.0;
  int64_t next_request_ = 0;
  uint64_t retries_ = 0;
  uint64_t protocol_errors_ = 0;
};

}  // namespace

Outcome RunServeMixed(const Options& options, SpanRecorder* spans) {
  Outcome outcome;
  ServeRun run(options, spans, &outcome);
  run.Run();
  return outcome;
}

}  // namespace perfbench
