#include "timed_milp.hpp"

#include <time.h>

#include <memory>
#include <string>

#include "serving/allocation.hpp"
#include "serving/strategy_registry.hpp"

namespace loki::perf {

namespace {

class TimedMilpAllocator final : public serving::AllocationStrategy {
 public:
  TimedMilpAllocator(const serving::AllocatorConfig& cfg,
                     const pipeline::PipelineGraph* graph,
                     const serving::ProfileTable& profiles)
      : inner_(cfg, graph, profiles) {}

  serving::PlanResult plan(const serving::PlanRequest& request) override {
    const double cpu0 = process_cpu_s();
    const Clock::time_point begin = Clock::now();
    serving::PlanResult result = inner_.plan(request);
    const Clock::time_point end = Clock::now();
    plan_log().record(begin, end, process_cpu_s() - cpu0, result);
    return result;
  }

  std::string name() const override { return kTimedMilpKey; }

 private:
  serving::MilpAllocator inner_;
};

}  // namespace

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void register_timed_milp() {
  serving::StrategyRegistry::global().add(
      kTimedMilpKey, [](const serving::AllocatorConfig& cfg,
                        const pipeline::PipelineGraph* graph,
                        const serving::ProfileTable& profiles) {
        return std::make_unique<TimedMilpAllocator>(cfg, graph, profiles);
      });
}

void PlanLog::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.clear();
  first_return_.reset();
  total_ns_.store(0, std::memory_order_relaxed);
}

void PlanLog::record(Clock::time_point begin, Clock::time_point end,
                     double cpu_s, const serving::PlanResult& result) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin);
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(PlanCall{std::chrono::duration<double>(end - begin).count(),
                            cpu_s, result.steps, result.solver});
  if (!first_return_) first_return_ = end;
  total_ns_.fetch_add(ns.count(), std::memory_order_relaxed);
}

std::vector<PlanCall> PlanLog::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

std::optional<Clock::time_point> PlanLog::first_return() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_return_;
}

PlanLog& plan_log() {
  static PlanLog log;
  return log;
}

}  // namespace loki::perf
