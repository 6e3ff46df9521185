#include "traced_run.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "common/check.hpp"
#include "profile/profiler.hpp"
#include "serving/allocation.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/arrivals.hpp"

namespace loki::perf {

namespace {

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

TracedRun run_traced_sequential(const Workload& w) {
  const exp::ExperimentConfig& cfg = w.cfg;
  LOKI_CHECK_MSG(cfg.replay.empty(), "traced run has no replay feed");
  PlanLog& log = plan_log();
  log.reset();
  TracedRun out;
  const double cpu0 = process_cpu_s();
  const Clock::time_point begin = Clock::now();

  const profile::ModelProfiler profiler(profile::default_batch_set(),
                                        /*repetitions=*/5,
                                        cfg.profiler_noise_frac,
                                        cfg.profiler_seed);
  const serving::ProfileTable profiles =
      serving::build_profile_table(w.graph, profiler);
  out.profile_build_s = seconds(Clock::now() - begin);

  obs::Registry registry;
  auto strategy = exp::make_strategy(cfg.system, cfg.system_cfg.allocator,
                                     &w.graph, profiles);
  sim::Simulation sim;
  serving::SystemConfig scfg = cfg.system_cfg;
  scfg.registry = &registry;
  scfg.trace = cfg.obs_trace;
  if (!cfg.fault_plan.empty()) scfg.fault_plan = cfg.fault_plan;
  if (cfg.detector.enabled) scfg.detector = cfg.detector;
  scfg.tiers = cfg.tiers;
  scfg.fallback = cfg.fallback;
  // The fallback rungs run_experiment builds when the chain is on and the
  // config leaves them unset; they must outlive the system.
  std::unique_ptr<serving::AllocationStrategy> near_warm, greedy;
  if (scfg.fallback.enabled) {
    if (scfg.fallback.near_warm == nullptr) {
      serving::AllocatorConfig near = scfg.allocator;
      near.near_warm_start = true;
      near_warm = std::make_unique<serving::MilpAllocator>(near, &w.graph,
                                                           profiles);
      scfg.fallback.near_warm = near_warm.get();
    }
    if (scfg.fallback.greedy == nullptr) {
      greedy = std::make_unique<serving::GreedyAllocator>(
          scfg.allocator, &w.graph, profiles);
      scfg.fallback.greedy = greedy.get();
    }
  }
  serving::ServingSystem system(&sim, &w.graph, profiles, strategy.get(),
                                scfg);
  system.start();

  trace::ArrivalStream stream(w.curve, cfg.arrivals);
  trace::TierSampler sampler(cfg.tier_mix, cfg.tier_seed);
  Clock::duration feed{0}, submit{0};
  std::int64_t nested_plan_ns = 0;
  std::function<void()> pump = [&]() {
    const Clock::time_point t0 = Clock::now();
    const int tier = sampler.next();
    const Clock::time_point t1 = Clock::now();
    const std::int64_t plan0 = log.total_ns();
    system.submit(tier);
    const Clock::time_point t2 = Clock::now();
    nested_plan_ns += log.total_ns() - plan0;
    const double next = stream.next();
    const Clock::time_point t3 = Clock::now();
    feed += (t1 - t0) + (t3 - t2);
    submit += t2 - t1;
    ++out.arrivals;
    if (next >= 0.0) sim.schedule_at(next, pump);
  };
  const Clock::time_point f0 = Clock::now();
  const double first = stream.next();
  const Clock::duration first_feed = Clock::now() - f0;
  if (first >= 0.0) sim.schedule_at(first, pump);

  const double t_end =
      std::max(w.curve.duration_s(), cfg.replay.duration_s()) + cfg.drain_s;
  const std::int64_t plan_before_loop = log.total_ns();
  const Clock::time_point loop0 = Clock::now();
  sim.run_until(t_end);
  const Clock::duration loop = Clock::now() - loop0;
  const double loop_plan_s =
      static_cast<double>(log.total_ns() - plan_before_loop) * 1e-9;
  system.finish(t_end);

  const serving::Metrics& m = system.metrics();
  exp::ExperimentResult& r = out.result;
  r.system_name = strategy->name();
  r.slo_violation_ratio = m.slo_violation_ratio();
  r.mean_accuracy = m.mean_accuracy();
  r.mean_latency_s = m.mean_latency_s();
  r.p99_latency_s = m.p99_latency_s();
  r.mean_servers_used = m.mean_servers_used();
  r.arrivals = m.arrivals();
  r.drops = m.drops();
  r.total_solve_time_s = system.total_solve_time_s();
  r.allocations = system.allocations_performed();
  r.metrics = m;
  const Clock::time_point s0 = Clock::now();
  r.obs = registry.snapshot();
  const Clock::time_point end = Clock::now();

  out.snapshot_s = seconds(end - s0);
  out.wall_s = seconds(end - begin);
  out.cpu_s = process_cpu_s() - cpu0;
  out.submit_s = seconds(submit) - static_cast<double>(nested_plan_ns) * 1e-9;
  out.loop_self_s =
      seconds(loop) - seconds(feed) - out.submit_s - loop_plan_s;
  out.feed_s = seconds(feed + first_feed);
  out.events = sim.processed();
  out.plans = log.calls();
  out.plan_s = static_cast<double>(log.total_ns()) * 1e-9;
  return out;
}

}  // namespace loki::perf
