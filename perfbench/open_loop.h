#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

// Open-loop load generator: request k of a phase is due at k / rate
// seconds after the phase starts, whatever happened to earlier
// requests. Requests are spread round-robin over a few blocking
// net::Client connections, one thread each; a connection that is still
// waiting on a reply sends its next request late, and that lateness is
// part of the next request's latency, because every latency is timed
// from the request's due time, not from when it was sent.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "span_recorder.h"

namespace perfbench {

enum class RequestOutcome { kOk, kMismatch, kRefused, kError };

struct RequestSample {
  int64_t request = 0;  // index into the workload's request stream
  bool is_approx = false;
  RequestOutcome outcome = RequestOutcome::kError;
  double late_ms = 0.0;     // send time minus due time
  double latency_ms = 0.0;  // reply time minus due time
  double rtt_ms = 0.0;      // reply time minus send time
};

struct PhaseReport {
  double rate = 0.0;  // offered requests per second
  double duration_s = 0.0;
  std::vector<RequestSample> samples;  // request order
  std::string first_error;

  int64_t sent() const { return static_cast<int64_t>(samples.size()); }
  int64_t ok() const;
  int64_t failed() const { return sent() - ok(); }
  int64_t ok_of(bool approx) const;
  // Latencies (ms, from due time) of one request class; a failed or
  // refused request counts as +infinity, so it misses any limit.
  std::vector<double> Latencies(bool approx) const;
  std::vector<double> Lateness() const;
  // Whether the generator fell further behind over the phase: median
  // lateness of the last quarter exceeds the first quarter's by more
  // than `slack_ms`.
  bool LagGrows(double slack_ms) const;
};

// Keeps every CPU busy with SCHED_IDLE spinner threads while it lives.
// They run only when nothing else is runnable, so they take no time
// from the server or the generator; they stop idle vCPUs from halting,
// which on a VM makes each wake-up cost a trip through the host. That
// cost swings with the host's load, by about 1 ms per request.
class IdleSpinners {
 public:
  explicit IdleSpinners(int count);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Sends one request over `client` and checks its reply; returns the
// outcome. Called concurrently from the connection threads.
using SendFn = std::function<RequestOutcome(graphsig::net::Client& client,
                                            int64_t request)>;
using IsApproxFn = std::function<bool(int64_t request)>;

struct OpenLoopConfig {
  graphsig::net::ClientConfig client;
  int connections = 4;
  double rate = 100.0;
  double duration_s = 1.0;
  int64_t first_request = 0;  // stream index of the phase's request 0
};

// Runs one phase. With a recorder, each request gets an "rpc" span
// carrying its stream index as the request id.
PhaseReport RunOpenLoop(const OpenLoopConfig& config, const SendFn& send,
                        const IsApproxFn& is_approx, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
