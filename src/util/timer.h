#ifndef GRAPHSIG_UTIL_TIMER_H_
#define GRAPHSIG_UTIL_TIMER_H_

#include <chrono>

namespace graphsig::util {

// Monotonic wall-clock timer for tool and bench timings, server
// deadlines and miner time budgets. GraphSig's stage profile (Fig. 10)
// reads its trace spans instead (obs/trace.h).
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_TIMER_H_
