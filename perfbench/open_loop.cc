#include "open_loop.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

constexpr double kSpinSeconds = 300e-6;

}  // namespace

IdleSpinners::IdleSpinners(int count) {
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      // Lowering one's own policy needs no privilege; if it fails the
      // spinner would compete with real work, so it does not spin.
      if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

int64_t PhaseReport::ok() const {
  return ok_of(false) + ok_of(true);
}

int64_t PhaseReport::ok_of(bool approx) const {
  int64_t n = 0;
  for (const RequestSample& s : samples) {
    if (s.is_approx == approx && s.outcome == RequestOutcome::kOk) ++n;
  }
  return n;
}

std::vector<double> PhaseReport::Latencies(bool approx) const {
  std::vector<double> out;
  for (const RequestSample& s : samples) {
    if (s.is_approx != approx) continue;
    out.push_back(s.outcome == RequestOutcome::kOk
                      ? s.latency_ms
                      : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> PhaseReport::Lateness() const {
  std::vector<double> out;
  for (const RequestSample& s : samples) out.push_back(s.late_ms);
  return out;
}

bool PhaseReport::LagGrows(double slack_ms) const {
  const size_t quarter = samples.size() / 4;
  if (quarter == 0) return false;
  std::vector<double> first, last;
  for (size_t i = 0; i < quarter; ++i) {
    first.push_back(samples[i].late_ms);
    last.push_back(samples[samples.size() - 1 - i].late_ms);
  }
  return Median(last) - Median(first) > slack_ms;
}

PhaseReport RunOpenLoop(const OpenLoopConfig& config, const SendFn& send,
                        const IsApproxFn& is_approx, SpanRecorder* spans) {
  PhaseReport report;
  report.rate = config.rate;
  report.duration_s = config.duration_s;
  const int64_t total = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(config.rate * config.duration_s)));
  report.samples.resize(static_cast<size_t>(total));

  std::vector<std::string> errors(static_cast<size_t>(config.connections));
  std::vector<std::thread> threads;
  // Connect every client before the clock starts, so connection set-up
  // is not charged to the first requests.
  std::vector<graphsig::net::Client> clients;
  clients.reserve(static_cast<size_t>(config.connections));
  for (int c = 0; c < config.connections; ++c) {
    clients.emplace_back(config.client);
    const graphsig::util::Status connected = clients.back().Connect();
    if (!connected.ok()) errors[static_cast<size_t>(c)] = connected.ToString();
  }
  const double start = NowSeconds();
  for (int c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      graphsig::net::Client& client = clients[static_cast<size_t>(c)];
      for (int64_t k = c; k < total; k += config.connections) {
        RequestSample& sample = report.samples[static_cast<size_t>(k)];
        sample.request = config.first_request + k;
        sample.is_approx = is_approx(sample.request);
        const double due = start + static_cast<double>(k) / config.rate;
        // Sleep to just short of the due time, then spin the rest, so
        // the generator's own wake-up delay is not charged to the
        // system under test.
        const double wait = due - kSpinSeconds - NowSeconds();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        while (NowSeconds() < due) {
        }
        const double sent = NowSeconds();
        {
          ScopedSpan span(spans, "rpc", -1, sample.request);
          if (!client.connected()) {
            sample.outcome = RequestOutcome::kError;
          } else {
            sample.outcome = send(client, sample.request);
          }
        }
        const double done = NowSeconds();
        sample.late_ms = (sent - due) * 1e3;
        sample.latency_ms = (done - due) * 1e3;
        sample.rtt_ms = (done - sent) * 1e3;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty() && report.first_error.empty()) report.first_error = e;
  }
  return report;
}

}  // namespace perfbench
