#include "exp/experiment.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/inferline.hpp"
#include "baselines/proteus.hpp"
#include "common/check.hpp"
#include "common/padded.hpp"
#include "profile/profiler.hpp"
#include "serving/strategy_registry.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"

namespace loki::exp {

namespace {

template <typename Strategy>
void add_builtin(const std::string& name) {
  // add() is a no-op when the key exists, so repeat calls are harmless.
  serving::StrategyRegistry::global().add(
      name, [](const serving::AllocatorConfig& cfg,
               const pipeline::PipelineGraph* graph,
               const serving::ProfileTable& profiles) {
        return std::make_unique<Strategy>(cfg, graph, profiles);
      });
}

}  // namespace

void register_builtin_strategies() {
  add_builtin<serving::MilpAllocator>("loki-milp");
  add_builtin<serving::GreedyAllocator>("greedy");
  add_builtin<baselines::InferLineStrategy>("inferline");
  add_builtin<baselines::ProteusStrategy>("proteus");
}

std::unique_ptr<serving::AllocationStrategy> make_strategy(
    const std::string& name, const serving::AllocatorConfig& cfg,
    const pipeline::PipelineGraph* graph,
    const serving::ProfileTable& profiles) {
  register_builtin_strategies();
  return serving::StrategyRegistry::global().create(name, cfg, graph,
                                                    profiles);
}

WeightedInterleave::WeightedInterleave(std::vector<double> weights)
    : weights_(std::move(weights)), assigned_(weights_.size(), 0.0) {
  LOKI_CHECK(!weights_.empty());
  double total = 0.0;
  for (double w : weights_) {
    LOKI_CHECK_MSG(w >= 0.0, "interleave weights must be non-negative");
    total += w;
  }
  LOKI_CHECK_MSG(total > 0.0, "interleave weights must sum to > 0");
  for (double& w : weights_) w /= total;
}

std::size_t WeightedInterleave::next() {
  ++step_;
  const double t = static_cast<double>(step_);
  std::size_t best = 0;
  double best_deficit = weights_[0] * t - assigned_[0];
  for (std::size_t i = 1; i < weights_.size(); ++i) {
    const double deficit = weights_[i] * t - assigned_[i];
    if (deficit > best_deficit) {
      best_deficit = deficit;
      best = i;
    }
  }
  assigned_[best] += 1.0;
  return best;
}

namespace {

/// Per-shard worker counts: floor(cluster / K) plus one for the first
/// cluster % K shards.
std::vector<int> shard_shares(int cluster, std::size_t shards) {
  const int k = static_cast<int>(shards);
  std::vector<int> share(shards, cluster / k);
  for (int s = 0; s < cluster % k; ++s) ++share[static_cast<std::size_t>(s)];
  return share;
}

/// The global (timestamp, tier) arrival sequence every feed mode consumes,
/// produced one arrival at a time: the replay verbatim when one is
/// configured, else the sampled arrival stream with tiers drawn in global
/// arrival order (TierSampler draws nothing without a tier mix, so tier-less
/// runs are bit-identical). O(1) memory beyond the caller-owned replay.
class ArrivalSource {
 public:
  ArrivalSource(const trace::DemandCurve& curve, const ExperimentConfig& cfg)
      : replay_(cfg.replay),
        stream_(curve, cfg.arrivals),
        sampler_(cfg.tier_mix, cfg.tier_seed) {
    if (replay_.empty()) head_ = stream_.next();
  }

  /// True once every arrival has been consumed.
  bool done() const {
    return replay_.empty() ? head_ < 0.0 : row_ == replay_.rows.size();
  }
  /// Timestamp of the next arrival (requires !done()).
  double head() const {
    return replay_.empty() ? head_ : replay_.rows[row_].t_s;
  }
  /// Consumes the next arrival and returns its tier.
  int pop() {
    if (!replay_.empty()) return replay_.rows[row_++].tier;
    const int tier = sampler_.next();
    head_ = stream_.next();
    return tier;
  }

 private:
  const trace::QueryReplay& replay_;
  trace::ArrivalStream stream_;
  trace::TierSampler sampler_;
  double head_ = -1.0;  // sampled stream: next timestamp, < 0 when done
  std::size_t row_ = 0;  // replay: next row
};

/// Simulation end time: past the curve AND any replay tail, plus drain.
/// Without a replay this is exactly the pre-replay horizon.
double run_horizon(const trace::DemandCurve& curve,
                   const ExperimentConfig& cfg) {
  return std::max(curve.duration_s(), cfg.replay.duration_s()) + cfg.drain_s;
}

/// Driver-owned fallback rung strategies: when the chain is enabled but the
/// caller left a rung pointer unset, build the standard rung for it — a
/// near-warm MILP resolve and a greedy allocator — sized for this system's
/// cluster slice. Instances must outlive the serving systems that hold the
/// pointers (declare before the systems vector).
struct FallbackRungs {
  std::unique_ptr<serving::AllocationStrategy> near_warm;
  std::unique_ptr<serving::AllocationStrategy> greedy;

  void fill(serving::FallbackConfig& fb, const serving::AllocatorConfig& alloc,
            const pipeline::PipelineGraph* graph,
            const serving::ProfileTable& profiles) {
    if (!fb.enabled) return;
    if (fb.near_warm == nullptr) {
      serving::AllocatorConfig near = alloc;
      near.near_warm_start = true;
      near_warm =
          std::make_unique<serving::MilpAllocator>(near, graph, profiles);
      fb.near_warm = near_warm.get();
    }
    if (fb.greedy == nullptr) {
      greedy =
          std::make_unique<serving::GreedyAllocator>(alloc, graph, profiles);
      fb.greedy = greedy.get();
    }
  }
};

/// The serving-system config of one simulated system (the whole cluster, or
/// one shard's slice of it): cfg.system_cfg with this system's cluster size,
/// seed and fault plan, plus the run's registry, trace options, detector,
/// SLO tiers and fallback chain. validate() rejects system_cfg values this
/// overwrites.
serving::SystemConfig system_config(const ExperimentConfig& cfg,
                                    obs::Registry* registry, int cluster,
                                    std::uint64_t seed,
                                    fault::FaultPlan fault_plan) {
  serving::SystemConfig scfg = cfg.system_cfg;
  scfg.allocator.cluster_size = cluster;
  scfg.seed = seed;
  scfg.registry = registry;
  scfg.trace = cfg.obs_trace;
  scfg.fault_plan = std::move(fault_plan);
  scfg.detector = cfg.detector;
  scfg.tiers = cfg.tiers;
  scfg.fallback = cfg.fallback;
  return scfg;
}

using Systems = std::vector<std::unique_ptr<serving::ServingSystem>>;

/// Streams the global arrival sequence into the shard systems one window
/// at a time. At arm() and at every window barrier it deals the arrivals
/// with t <= barrier + window_s (the next barrier) through a
/// WeightedInterleave over each shard's surviving workers, so a shard that
/// loses workers sheds its proportional load to its peers from the next
/// window on. The interleave is rebuilt only when the weights change; with
/// equal shares and no crash it is exactly round-robin. The bound is
/// inclusive like Simulation::run_until, so an arrival on a barrier fires
/// before any replan that barrier triggers. Each shard's chained pump walks
/// its reused window buffer, so feed memory is O(arrivals per window).
///
/// Construct before the shard systems (it registers the
/// exp.shard<k>.arrivals counters first); arm() after they have started.
class ShardArrivalFeeder {
 public:
  ShardArrivalFeeder(const trace::DemandCurve& curve,
                     const ExperimentConfig& cfg, std::vector<int> share,
                     sim::ParallelSimulation* psim, obs::Registry* registry)
      : source_(curve, cfg),
        psim_(psim),
        share_(std::move(share)),
        window_s_(cfg.sim_window_s),
        feeds_(share_.size()),
        weights_(share_.begin(), share_.end()),
        interleave_(weights_) {
    for (std::size_t s = 0; s < feeds_.size(); ++s) {
      feeds_[s].arrivals =
          registry->counter("exp.shard" + std::to_string(s) + ".arrivals");
    }
  }

  void arm(const Systems& systems) {
    for (std::size_t s = 0; s < feeds_.size(); ++s) {
      ShardFeed& f = feeds_[s];
      serving::ServingSystem* sys = systems[s].get();
      sim::Simulation* sim = &psim_->shard(s);
      f.system = sys;
      f.pump = [&f, sys, sim]() {
        sys->submit(f.window[f.next].tier);
        if (++f.next < f.window.size()) {
          sim->schedule_at(f.window[f.next].t, [&pump = f.pump]() { pump(); });
        }
      };
    }
    on_barrier(psim_->now());
  }

  /// Barrier hook: refreshes the weights from the current crash state, then
  /// deals the next window.
  void on_barrier(double now) {
    refresh_weights();
    for (ShardFeed& f : feeds_) {
      // The last deal's bound was this barrier, and every arrival lies
      // within the run horizon, so each pump has fired its whole buffer.
      LOKI_CHECK(f.next == f.window.size());
      f.window.clear();
      f.next = 0;
    }
    const double bound = now + window_s_;
    while (!source_.done() && source_.head() <= bound) {
      const double t = source_.head();
      const int tier = source_.pop();
      feeds_[interleave_.next()].window.push_back(Arrival{t, tier});
    }
    for (std::size_t s = 0; s < feeds_.size(); ++s) {
      ShardFeed& f = feeds_[s];
      f.arrivals.add(f.window.size());
      if (!f.window.empty()) {
        psim_->shard(s).schedule_at(f.window[0].t,
                                    [&pump = f.pump]() { pump(); });
      }
    }
  }

  /// Fraction of the arrivals the current weights deal to shard `s`
  /// (share / cluster until a crash).
  double fraction(std::size_t s) const {
    double total = 0.0;
    for (double w : weights_) total += w;
    return weights_[s] / total;
  }

 private:
  struct Arrival {
    double t;
    int tier;
  };
  // One cache line apart: each shard's pump advances `next` on its own
  // pool thread.
  struct alignas(kCacheLineBytes) ShardFeed {
    std::vector<Arrival> window;  // this window's arrivals, ascending
    std::size_t next = 0;         // next arrival the pump submits
    serving::ServingSystem* system = nullptr;
    std::function<void()> pump;
    obs::Counter arrivals;
  };

  void refresh_weights() {
    std::vector<double> w(share_.size());
    double total = 0.0;
    for (std::size_t s = 0; s < share_.size(); ++s) {
      w[s] = static_cast<double>(
          std::max(0, share_[s] - feeds_[s].system->crashed_workers()));
      total += w[s];
    }
    if (total <= 0.0) {
      // Every worker everywhere is down: keep dealing by share so arrivals
      // still land somewhere deterministic (and get accounted as sheds).
      w.assign(share_.begin(), share_.end());
    }
    if (w != weights_) {
      weights_ = std::move(w);
      interleave_ = WeightedInterleave(weights_);
    }
  }

  ArrivalSource source_;
  sim::ParallelSimulation* psim_;
  std::vector<int> share_;
  double window_s_;
  std::vector<ShardFeed> feeds_;  // never resized: pumps hold references
  std::vector<double> weights_;   // unnormalized, for change detection
  WeightedInterleave interleave_;
};

ExperimentResult result_from_metrics(const std::string& name,
                                     serving::Metrics m,
                                     double total_solve_time_s,
                                     int allocations) {
  ExperimentResult out;
  out.system_name = name;
  out.slo_violation_ratio = m.slo_violation_ratio();
  out.mean_accuracy = m.mean_accuracy();
  out.mean_latency_s = m.mean_latency_s();
  out.p99_latency_s = m.p99_latency_s();
  out.mean_servers_used = m.mean_servers_used();
  out.arrivals = m.arrivals();
  out.drops = m.drops();
  out.total_solve_time_s = total_solve_time_s;
  out.allocations = allocations;
  out.metrics = std::move(m);
  return out;
}

/// Coordinated mode's control plane: ONE planner for the whole cluster,
/// solving at window barriers from merged shard observations (summed demand
/// estimate and per-task arrival rates, averaged multiplicative factors).
/// It plans once per distinct worker share (at most two: the floor and ceil
/// of cluster / K) for the demand slice the feeder deals that share, and
/// installs the plan on every shard of that share. Splitting one
/// full-cluster plan was measured strictly worse: dealing its replicas
/// across equal-demand shards starves one (e.g. 3 replicas over 2 shards).
/// Fault mode (a fault plan or an enabled detector) plans per shard, over
/// the survivors it has detected: equal shares can lose different workers.
/// Shard systems are external: they detect locally but never replan. The
/// coordinator owns the fallback chain around its plan() calls.
///
/// Construct before the shard systems (its counters register first);
/// start() once they exist.
class BarrierCoordinator {
 public:
  BarrierCoordinator(const pipeline::PipelineGraph& graph,
                     const ExperimentConfig& cfg,
                     const serving::ProfileTable& profiles,
                     std::vector<int> share, const Systems& systems,
                     const ShardArrivalFeeder& feeder, obs::Registry* registry)
      : graph_(graph),
        cfg_(cfg),
        share_(std::move(share)),
        systems_(systems),
        feeder_(feeder),
        fault_mode_(!cfg.fault_plan.empty() || cfg.detector.enabled) {
    for (std::size_t s = 0; s < share_.size(); ++s) {
      std::size_t p = 0;
      while (p < plan_shard_.size() &&
             (fault_mode_ || share_[plan_shard_[p]] != share_[s])) {
        ++p;
      }
      shard_plan_.push_back(p);
      if (p < plan_shard_.size()) continue;
      plan_shard_.push_back(s);
      serving::AllocatorConfig alloc = cfg.system_cfg.allocator;
      alloc.cluster_size = share_[s];
      strategies_.push_back(make_strategy(cfg.system, alloc, &graph, profiles));
      if (cfg.fallback.enabled) {
        serving::FallbackConfig fb = cfg.fallback;
        rungs_.emplace_back().fill(fb, alloc, &graph, profiles);
        chains_.push_back(std::make_unique<serving::PlanFallbackChain>(
            strategies_.back().get(), fb, &graph, alloc.cluster_size));
      }
    }
    if (cfg.fallback.enabled) {
      c_plan_fallbacks_ = registry->counter("exp.coord.plan_fallbacks");
      c_plan_rejects_ = registry->counter("exp.coord.plan_rejects");
      c_plan_retained_ = registry->counter("exp.coord.plan_retained");
    }
    plans_.resize(plan_shard_.size());
  }

  /// Starts the shards and installs the initial plans, before any arrival.
  void start() {
    for (auto& system : systems_) system->start_external();
    replan(0.0, /*force=*/true);
    next_replan_ = cfg_.system_cfg.rm_period_s;
  }

  /// Barrier hook, after the feeder's deal. Replans every rm_period_s, on a
  /// merged-demand surge or collapse (the in-process Resource Manager's
  /// triggers), or at once when a shard's detected-dead set has changed.
  void on_barrier(double now) {
    const bool fault_due =
        fault_mode_ && std::any_of(systems_.begin(), systems_.end(),
                                   [](const auto& system) {
                                     return system->fault_replan_pending();
                                   });
    bool due = fault_due || now + 1e-9 >= next_replan_;
    if (!due && have_plan_) {
      double est = 0.0;
      for (auto& system : systems_) est += system->demand_estimate_now();
      due = est > last_demand_ * 1.25 + 1.0 || est < last_demand_ * 0.5 - 1.0;
    }
    if (!due) return;
    replan(now, /*force=*/fault_due);
    while (next_replan_ <= now + 1e-9) {
      next_replan_ += cfg_.system_cfg.rm_period_s;
    }
  }

  double solve_s() const { return solve_s_; }
  int allocations() const { return allocations_; }

 private:
  void replan(double now, bool force) {
    double demand = 0.0;
    for (auto& system : systems_) demand += system->demand_estimate_now();
    if (have_plan_ && !force) {
      double min_served = 1.0;
      for (const auto& p : plans_) {
        min_served = std::min(min_served, p.served_fraction);
      }
      const double rel = std::abs(demand - last_demand_) /
                         std::max(last_demand_, 10.0);
      if (rel < cfg_.system_cfg.realloc_threshold && min_served >= 1.0) {
        return;
      }
    }
    const std::size_t shards = systems_.size();
    const double inv_shards = 1.0 / static_cast<double>(shards);
    // Merge multiplicative-factor estimates: shards observe the same
    // underlying pipeline, so the mean is the natural pooled estimate.
    pipeline::MultFactorTable mult = systems_[0]->mult_estimates();
    for (std::size_t s = 1; s < shards; ++s) {
      const auto& m = systems_[s]->mult_estimates();
      for (std::size_t t = 0; t < mult.size(); ++t) {
        for (std::size_t k = 0; k < mult[t].size(); ++k) mult[t][k] += m[t][k];
      }
    }
    for (auto& row : mult) {
      for (auto& v : row) v *= inv_shards;
    }
    // Drain each shard's per-task arrival-rate window exactly once per
    // epoch (draining resets it), then build every plan's request from the
    // same observations.
    std::vector<std::vector<double>> sys_rates;
    sys_rates.reserve(shards);
    for (auto& system : systems_) {
      sys_rates.push_back(system->drain_task_arrivals_now());
    }
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const std::size_t s = plan_shard_[p];
      const double frac = feeder_.fraction(s);
      serving::PlanRequest req;
      req.demand_qps = demand * frac;
      req.mult = mult;
      req.task_arrivals_qps.assign(
          static_cast<std::size_t>(graph_.num_tasks()), 0.0);
      for (const auto& rates : sys_rates) {
        for (std::size_t t = 0; t < rates.size(); ++t) {
          req.task_arrivals_qps[t] += rates[t] * frac;
        }
      }
      req.sim_time_s = now;
      req.epoch = allocations_;
      req.previous_plan = have_plan_ ? &plans_[p] : nullptr;
      if (fault_mode_) {
        // Plan over the survivors the controller has *detected*; the
        // allocator clamps internally so it never plans below one worker
        // per task.
        req.available_workers =
            share_[s] - systems_[s]->detector_dead_workers();
      }
      serving::PlanResult result;
      if (!chains_.empty()) {
        serving::FallbackOutcome fo = chains_[p]->plan(req);
        result = std::move(fo.result);
        c_plan_fallbacks_.add(static_cast<std::uint64_t>(fo.fallbacks));
        c_plan_rejects_.add(static_cast<std::uint64_t>(fo.rejects));
        if (fo.retained_previous) c_plan_retained_.add(1);
      } else {
        result = strategies_[p]->plan(req);
      }
      plans_[p] = std::move(result.plan);
      solve_s_ += plans_[p].solve_time_s;
      ++allocations_;
    }
    have_plan_ = true;
    last_demand_ = demand;
    for (std::size_t s = 0; s < shards; ++s) {
      serving::AllocationPlan sub = plans_[shard_plan_[s]];
      sub.solve_time_s = 0.0;  // the coordinator accounts the solve once
      systems_[s]->install_plan(std::move(sub));
    }
  }

  const pipeline::PipelineGraph& graph_;
  const ExperimentConfig& cfg_;
  std::vector<int> share_;
  const Systems& systems_;
  const ShardArrivalFeeder& feeder_;
  bool fault_mode_;
  std::vector<std::size_t> plan_shard_;  // plan -> the shard it is sized for
  std::vector<std::size_t> shard_plan_;  // shard -> the plan it installs
  std::vector<FallbackRungs> rungs_;  // outlive the chains using them
  std::vector<std::unique_ptr<serving::AllocationStrategy>> strategies_;
  std::vector<std::unique_ptr<serving::PlanFallbackChain>> chains_;
  obs::Counter c_plan_fallbacks_, c_plan_rejects_, c_plan_retained_;
  std::vector<serving::AllocationPlan> plans_;
  double solve_s_ = 0.0;
  int allocations_ = 0;
  double last_demand_ = 0.0;
  bool have_plan_ = false;
  double next_replan_ = 0.0;
};

/// Parallel simulation modes: K shards, each a contiguous slice of the
/// cluster (remainder to the first shards) with its own serving system and
/// decorrelated RNG streams, advanced in conservative lockstep windows and
/// fed one arrival sequence by ShardArrivalFeeder (so the arrival total is
/// exactly the sequential run's); metrics merge at the end. Plain sharded
/// mode gives every shard its own strategy, sized for its slice, which plans
/// on the shard's own clock; coordinated mode plans for all of them through
/// one BarrierCoordinator.
ExperimentResult run_experiment_parallel(const pipeline::PipelineGraph& graph,
                                         const trace::DemandCurve& curve,
                                         const ExperimentConfig& cfg,
                                         const serving::ProfileTable& profiles,
                                         std::size_t shards,
                                         obs::Registry* registry) {
  const std::vector<int> share =
      shard_shares(cfg.system_cfg.allocator.cluster_size, shards);

  sim::ParallelSimulation::Config pcfg;
  pcfg.shards = shards;
  pcfg.window_s = cfg.sim_window_s;
  pcfg.threads = cfg.sim_threads;
  sim::ParallelSimulation psim(pcfg);

  ShardArrivalFeeder feeder(curve, cfg, share, &psim, registry);
  // Plain sharded mode's per-shard strategies and fallback rungs, declared
  // first so they outlive the systems holding their pointers.
  std::vector<FallbackRungs> rungs(shards);
  std::vector<std::unique_ptr<serving::AllocationStrategy>> strategies;
  Systems systems;
  std::unique_ptr<BarrierCoordinator> coordinator;
  if (cfg.sim_coordinated) {
    coordinator = std::make_unique<BarrierCoordinator>(
        graph, cfg, profiles, share, systems, feeder, registry);
  }

  // The global-id fault plan splits along the same contiguous worker-share
  // ranges as the cluster itself; each shard arms only its own slice
  // (cluster-wide network events are broadcast to every shard).
  std::vector<fault::FaultPlan> shard_faults =
      fault::split_by_shares(cfg.fault_plan, share);
  for (std::size_t s = 0; s < shards; ++s) {
    serving::SystemConfig scfg =
        system_config(cfg, registry, share[s],
                      cfg.system_cfg.seed + 1000003 * (s + 1),
                      std::move(shard_faults[s]));
    serving::AllocationStrategy* strategy = nullptr;
    if (coordinator != nullptr) {
      scfg.fallback.enabled = false;  // the coordinator chains its plans
    } else {
      rungs[s].fill(scfg.fallback, scfg.allocator, &graph, profiles);
      strategies.push_back(
          make_strategy(cfg.system, scfg.allocator, &graph, profiles));
      strategy = strategies.back().get();
    }
    systems.push_back(std::make_unique<serving::ServingSystem>(
        &psim.shard(s), &graph, profiles, strategy, scfg));
  }

  // The initial allocation (solver work) runs on the calling thread, before
  // any arrival.
  if (coordinator != nullptr) {
    coordinator->start();
    psim.set_barrier_callback([&](sim::Time now) {
      feeder.on_barrier(now);
      coordinator->on_barrier(now);
    });
  } else {
    for (auto& system : systems) system->start();
    psim.set_barrier_callback(
        [&feeder](sim::Time now) { feeder.on_barrier(now); });
  }
  feeder.arm(systems);

  const double t_end = run_horizon(curve, cfg);
  psim.run_until(t_end);

  // Finish every shard at t_end and fold their metrics into one, the
  // latency store pre-sized to the summed sample count. The coordinator
  // accounts each of its solves once; the plans it installs count none.
  std::size_t samples = 0;
  double solve_s = coordinator != nullptr ? coordinator->solve_s() : 0.0;
  int allocations = coordinator != nullptr ? coordinator->allocations() : 0;
  for (auto& system : systems) {
    system->finish(t_end);
    samples += system->metrics().latency().count();
    if (coordinator != nullptr) continue;
    solve_s += system->total_solve_time_s();
    allocations += system->allocations_performed();
  }
  serving::Metrics merged(cfg.system_cfg.metrics_window_s);
  merged.reserve_latency(samples);
  for (const auto& system : systems) merged.merge(system->metrics());
  return result_from_metrics(cfg.system, std::move(merged), solve_s,
                             allocations);
}

}  // namespace

void ExperimentConfig::validate() const {
  LOKI_CHECK_MSG(tier_mix.empty() || replay.empty(),
                 "tier_mix has no effect under a replay, whose rows carry "
                 "each arrival's tier");
  LOKI_CHECK_MSG(!sim_coordinated || sim_shards > 1,
                 "sim_coordinated needs sim_shards > 1");
  LOKI_CHECK_MSG(sim_threads <= 1 || sim_shards > 1,
                 "sim_threads > 1 needs sim_shards > 1");
  // run_experiment sets these per system from the top-level fields.
  LOKI_CHECK_MSG(system_cfg.fault_plan.empty(),
                 "set ExperimentConfig::fault_plan, not system_cfg's");
  LOKI_CHECK_MSG(!system_cfg.detector.enabled,
                 "set ExperimentConfig::detector, not system_cfg's");
  LOKI_CHECK_MSG(!system_cfg.tiers.enabled,
                 "set ExperimentConfig::tiers, not system_cfg's");
  LOKI_CHECK_MSG(!system_cfg.fallback.enabled,
                 "set ExperimentConfig::fallback, not system_cfg's");
}

ExperimentResult run_experiment(const pipeline::PipelineGraph& graph,
                                const trace::DemandCurve& curve,
                                const ExperimentConfig& cfg) {
  cfg.validate();
  profile::ModelProfiler profiler(profile::default_batch_set(),
                                  /*repetitions=*/5, cfg.profiler_noise_frac,
                                  cfg.profiler_seed);
  serving::ProfileTable profiles =
      serving::build_profile_table(graph, profiler);

  // Every shard's allocator needs at least one worker per task, so the
  // shard count is bounded by cluster_size / num_tasks.
  const std::size_t max_shards = static_cast<std::size_t>(
      std::max(1, cfg.system_cfg.allocator.cluster_size /
                      std::max(1, graph.num_tasks())));
  const std::size_t shards =
      std::min(std::max<std::size_t>(1, cfg.sim_shards), max_shards);

  // One registry per run: concurrent run_experiment calls (e.g. the fig5
  // bench runs three systems on a thread pool) must not mix series. All of
  // a run's shard systems share it, so stage histograms and counters merge
  // cluster-wide.
  obs::Registry registry;
  ExperimentResult out;
  if (shards > 1) {
    out = run_experiment_parallel(graph, curve, cfg, profiles, shards,
                                  &registry);
  } else {
    // The sequential reference: one system serves the whole cluster, so the
    // global-id fault plan applies verbatim.
    serving::SystemConfig scfg =
        system_config(cfg, &registry, cfg.system_cfg.allocator.cluster_size,
                      cfg.system_cfg.seed, cfg.fault_plan);
    auto strategy = make_strategy(cfg.system, scfg.allocator, &graph,
                                  profiles);
    FallbackRungs rungs;  // outlives the system holding the rung pointers
    rungs.fill(scfg.fallback, scfg.allocator, &graph, profiles);
    sim::Simulation sim;
    serving::ServingSystem system(&sim, &graph, profiles, strategy.get(),
                                  scfg);
    system.start();

    // Stream arrivals: each arrival event submits and schedules the next
    // one, keeping the event queue O(in-flight) instead of O(trace).
    ArrivalSource source(curve, cfg);
    std::function<void()> pump = [&]() {
      system.submit(source.pop());
      if (!source.done()) {
        sim.schedule_at(source.head(), [&pump]() { pump(); });
      }
    };
    if (!source.done()) sim.schedule_at(source.head(), [&pump]() { pump(); });

    const double t_end = run_horizon(curve, cfg);
    sim.run_until(t_end);
    system.finish(t_end);

    out = result_from_metrics(cfg.system, std::move(system.metrics()),
                              system.total_solve_time_s(),
                              system.allocations_performed());
  }
  out.obs = registry.snapshot();
  if (!cfg.obs_csv_path.empty()) out.obs.write_csv(cfg.obs_csv_path);
  return out;
}

PlanProbe probe_plan(serving::AllocationStrategy& strategy,
                     const pipeline::PipelineGraph& graph, double demand_qps) {
  // Pure planner probe: a fresh single-epoch request with no previous plan,
  // so probes are independent of each other and of prior probes on the same
  // strategy.
  serving::PlanRequest req;
  req.demand_qps = demand_qps;
  req.mult = pipeline::default_mult_factors(graph);
  const auto plan = strategy.plan(req).plan;
  PlanProbe probe;
  probe.demand_qps = demand_qps;
  probe.mode = plan.mode;
  probe.expected_accuracy = plan.expected_accuracy;
  probe.served_fraction = plan.served_fraction;
  probe.servers_used = plan.servers_used;

  // Flow-weighted mean variant accuracy per task.
  probe.task_accuracy.assign(static_cast<std::size_t>(graph.num_tasks()), 0.0);
  std::vector<double> weight(static_cast<std::size_t>(graph.num_tasks()), 0.0);
  for (const auto& flow : plan.flows) {
    for (std::size_t i = 0; i < flow.path.tasks.size(); ++i) {
      const int t = flow.path.tasks[i];
      const double a =
          graph.task(t).catalog.at(flow.path.variants[i]).accuracy;
      probe.task_accuracy[static_cast<std::size_t>(t)] += flow.fraction * a;
      weight[static_cast<std::size_t>(t)] += flow.fraction;
    }
  }
  for (std::size_t t = 0; t < probe.task_accuracy.size(); ++t) {
    if (weight[t] > 1e-12) probe.task_accuracy[t] /= weight[t];
    else probe.task_accuracy[t] = 1.0;
  }
  return probe;
}

double find_capacity(serving::AllocationStrategy& strategy, double lo,
                     double hi, const pipeline::MultFactorTable& mult,
                     double tol_qps) {
  LOKI_CHECK(lo >= 0.0 && hi > lo && tol_qps > 0.0);
  auto servable = [&](double qps) {
    serving::PlanRequest req;
    req.demand_qps = qps;
    req.mult = mult;
    return strategy.plan(req).plan.served_fraction >= 1.0 - 1e-9;
  };
  if (!servable(lo)) return 0.0;
  if (servable(hi)) return hi;
  while (hi - lo > tol_qps) {
    const double mid = 0.5 * (lo + hi);
    if (servable(mid)) lo = mid;
    else hi = mid;
  }
  return lo;
}

}  // namespace loki::exp
