// The traced sequential run: run_experiment's sequential path rebuilt from
// public calls (build_profile_table, ServingSystem::start/submit/finish,
// ArrivalStream::next, TierSampler::next, Simulation::run_until/processed,
// Registry::snapshot) with a span around each call into a layer. It
// schedules exactly the events run_experiment schedules, in the same order,
// so its simulated outcome is bit-identical to the untraced call — main.cpp
// checks that on every traced run.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/experiment.hpp"
#include "timed_milp.hpp"
#include "workloads.hpp"

namespace loki::perf {

/// Host time of one traced run, split at the layer boundaries. Plan time is
/// read from plan_log() and subtracted from the spans it nests in.
struct TracedRun {
  exp::ExperimentResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time, all threads
  double profile_build_s = 0.0;
  /// ArrivalStream::next + TierSampler::next.
  double feed_s = 0.0;
  /// ServingSystem::submit minus any plan() it triggered.
  double submit_s = 0.0;
  /// Simulation::run_until minus the feed, submit and plan spans inside it.
  double loop_self_s = 0.0;
  double snapshot_s = 0.0;
  std::uint64_t arrivals = 0;  // submit() calls, warm-up included
  std::uint64_t events = 0;    // Simulation::processed()
  std::vector<PlanCall> plans;
  double plan_s = 0.0;  // wall time of every plan() call
};

/// Runs `w` sequentially with tracing spans. `w` must not use sharding or
/// replay arrivals. Resets plan_log().
TracedRun run_traced_sequential(const Workload& w);

}  // namespace loki::perf
