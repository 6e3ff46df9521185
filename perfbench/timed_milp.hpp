// Control-plane timing from outside the program: a decorator around
// serving::MilpAllocator, registered in serving::StrategyRegistry under its
// own key, that times every plan() call and keeps the call's SolverStats and
// StepSolve accounting. It is the only instrumentation of an untraced run:
// four clock reads and one small copy per plan() call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "serving/types.hpp"

namespace loki::perf {

using Clock = std::chrono::steady_clock;

/// Registry key of the decorated allocator (also its name()).
inline constexpr const char* kTimedMilpKey = "loki-milp-timed";

/// Registers kTimedMilpKey with serving::StrategyRegistry::global().
/// Idempotent.
void register_timed_milp();

/// CPU time of the whole process (all threads), in seconds.
double process_cpu_s();

/// One plan() call as seen from outside.
struct PlanCall {
  double wall_s = 0.0;
  /// Process CPU time across the call: the split-parallel solve's pool
  /// threads included.
  double cpu_s = 0.0;
  std::vector<serving::StepSolve> steps;
  serving::SolverStats solver;
};

/// Process-wide record of the decorated plan() calls. plan() may run on a
/// coordinated-mode barrier thread, so appends are locked; the running total
/// is atomic so traced spans can subtract nested plan time cheaply.
class PlanLog {
 public:
  /// Forgets every call; the next plan() return becomes first_return().
  void reset();
  void record(Clock::time_point begin, Clock::time_point end, double cpu_s,
              const serving::PlanResult& result);

  std::vector<PlanCall> calls() const;
  /// End of the first plan() call since reset(), if any.
  std::optional<Clock::time_point> first_return() const;
  /// Wall time of every plan() call since reset(), in nanoseconds.
  std::int64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::vector<PlanCall> calls_;
  std::optional<Clock::time_point> first_return_;
  std::atomic<std::int64_t> total_ns_{0};
};

/// The log every decorated allocator writes to.
PlanLog& plan_log();

}  // namespace loki::perf
