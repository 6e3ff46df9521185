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

void register_builtin_strategies() {
  auto& registry = serving::StrategyRegistry::global();
  // add() is a no-op when the key exists, so repeat calls are harmless.
  registry.add("loki-milp",
               [](const serving::AllocatorConfig& cfg,
                  const pipeline::PipelineGraph* graph,
                  const serving::ProfileTable& profiles) {
                 return std::make_unique<serving::MilpAllocator>(cfg, graph,
                                                                 profiles);
               });
  registry.add("greedy",
               [](const serving::AllocatorConfig& cfg,
                  const pipeline::PipelineGraph* graph,
                  const serving::ProfileTable& profiles) {
                 return std::make_unique<serving::GreedyAllocator>(cfg, graph,
                                                                   profiles);
               });
  registry.add("inferline",
               [](const serving::AllocatorConfig& cfg,
                  const pipeline::PipelineGraph* graph,
                  const serving::ProfileTable& profiles) {
                 return std::make_unique<baselines::InferLineStrategy>(
                     cfg, graph, profiles);
               });
  registry.add("proteus",
               [](const serving::AllocatorConfig& cfg,
                  const pipeline::PipelineGraph* graph,
                  const serving::ProfileTable& profiles) {
                 return std::make_unique<baselines::ProteusStrategy>(
                     cfg, graph, profiles);
               });
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
/// cluster % K shards — the same split both parallel modes already used.
std::vector<int> shard_shares(int cluster, std::size_t shards) {
  std::vector<int> share(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    share[s] = cluster / static_cast<int>(shards) +
               (static_cast<int>(s) < cluster % static_cast<int>(shards) ? 1
                                                                         : 0);
  }
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

/// Streams the global arrival sequence into the shard systems one window
/// at a time. At arm() and at every window barrier it deals the arrivals
/// with t <= barrier + window_s (the next barrier) to the shards:
/// round-robin by global arrival index (the bit-reproducible reference), or
/// share-weighted interleave under sim_weighted_split / sim_reweight. The
/// bound is inclusive like Simulation::run_until, so an arrival exactly on
/// a barrier fires inside the window that barrier closes — before any
/// replan the barrier triggers. Each shard's chained pump walks its reused
/// window buffer, so the event heap holds one arrival per shard and feed
/// memory is O(arrivals per window), not O(trace).
///
/// Under sim_reweight the weights are re-derived at every barrier from each
/// shard's surviving worker count (share minus crashed workers), so a
/// mid-run crash shifts the following windows' load onto the survivors.
/// The interleave persists across windows and is rebuilt only when the
/// weights change, so with constant weights the assignment matches the
/// plain weighted split exactly (differential-tested).
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
        reweight_(cfg.sim_reweight),
        feeds_(share_.size()) {
    for (std::size_t s = 0; s < feeds_.size(); ++s) {
      feeds_[s].arrivals =
          registry->counter("exp.shard" + std::to_string(s) + ".arrivals");
    }
    if (cfg.sim_weighted_split || reweight_) {
      weights_.assign(share_.begin(), share_.end());
      interleave_ = std::make_unique<WeightedInterleave>(weights_);
    }
  }

  void arm(
      const std::vector<std::unique_ptr<serving::ServingSystem>>& systems) {
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

  /// Barrier hook: deals the next window (after refreshing the weights
  /// from the current crash state under sim_reweight).
  void on_barrier(double now) {
    if (reweight_) refresh_weights();
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
      const std::size_t s = interleave_ != nullptr
                                ? interleave_->next()
                                : static_cast<std::size_t>(dealt_++ %
                                                           feeds_.size());
      feeds_[s].window.push_back(Arrival{t, tier});
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
      interleave_ = std::make_unique<WeightedInterleave>(weights_);
    }
  }

  ArrivalSource source_;
  sim::ParallelSimulation* psim_;
  std::vector<int> share_;
  double window_s_;
  bool reweight_;
  std::vector<ShardFeed> feeds_;  // never resized: pumps hold references
  std::uint64_t dealt_ = 0;       // round-robin: global arrival index
  std::vector<double> weights_;   // unnormalized, for change detection
  std::unique_ptr<WeightedInterleave> interleave_;
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

/// Finishes every shard system at t_end and folds their metrics into one,
/// the latency store pre-sized to the summed sample count.
serving::Metrics finish_and_merge(
    std::vector<std::unique_ptr<serving::ServingSystem>>& systems,
    double t_end, double metrics_window_s) {
  std::size_t samples = 0;
  for (auto& system : systems) {
    system->finish(t_end);
    samples += system->metrics().latency().count();
  }
  serving::Metrics merged(metrics_window_s);
  merged.reserve_latency(samples);
  for (const auto& system : systems) merged.merge(system->metrics());
  return merged;
}

/// Parallel simulation mode: K independent (cluster slice, arrival slice)
/// shards advanced in conservative lockstep windows, metrics merged.
ExperimentResult run_experiment_sharded(const pipeline::PipelineGraph& graph,
                                        const trace::DemandCurve& curve,
                                        const ExperimentConfig& cfg,
                                        const serving::ProfileTable& profiles,
                                        std::size_t shards,
                                        obs::Registry* registry) {
  // The feeder deals the *same* arrival sequence the sequential reference
  // consumes (round-robin, or share-weighted with sim_weighted_split), so
  // the total arrival count matches the sequential run exactly.
  const int cluster = cfg.system_cfg.allocator.cluster_size;
  const std::vector<int> share = shard_shares(cluster, shards);

  sim::ParallelSimulation::Config pcfg;
  pcfg.shards = shards;
  pcfg.window_s = cfg.sim_window_s;
  pcfg.threads = cfg.sim_threads;
  sim::ParallelSimulation psim(pcfg);

  ShardArrivalFeeder feeder(curve, cfg, share, &psim, registry);

  // The global-id fault plan splits along the same contiguous worker-share
  // ranges as the cluster itself; each shard arms only its own slice
  // (cluster-wide network events are broadcast to every shard).
  std::vector<fault::FaultPlan> shard_faults;
  if (!cfg.fault_plan.empty()) {
    shard_faults = fault::split_by_shares(cfg.fault_plan, share);
  }

  // Each shard gets a proportional slice of the cluster (remainder to the
  // first shards) and its own strategy + serving system + RNG streams
  // (decorrelated seeds: shards model disjoint replica groups). Fallback
  // rung strategies are per shard too (sized for its slice) and must
  // outlive the systems holding the pointers.
  std::vector<FallbackRungs> rungs(shards);
  std::vector<std::unique_ptr<serving::AllocationStrategy>> strategies;
  std::vector<std::unique_ptr<serving::ServingSystem>> systems;
  for (std::size_t s = 0; s < shards; ++s) {
    serving::SystemConfig scfg = cfg.system_cfg;
    scfg.allocator.cluster_size = share[s];
    scfg.seed = cfg.system_cfg.seed + 1000003 * (s + 1);
    scfg.registry = registry;
    scfg.trace = cfg.obs_trace;
    if (!shard_faults.empty()) scfg.fault_plan = shard_faults[s];
    scfg.detector = cfg.detector;
    scfg.tiers = cfg.tiers;
    scfg.fallback = cfg.fallback;
    rungs[s].fill(scfg.fallback, scfg.allocator, &graph, profiles);
    strategies.push_back(
        make_strategy(cfg.system, scfg.allocator, &graph, profiles));
    systems.push_back(std::make_unique<serving::ServingSystem>(
        &psim.shard(s), &graph, profiles, strategies.back().get(), scfg));
  }
  // start() performs the initial allocation (solver work): sequential, so
  // strategy construction stays off the worker threads.
  for (auto& system : systems) system->start();

  feeder.arm(systems);
  psim.set_barrier_callback(
      [&feeder](sim::Time now) { feeder.on_barrier(now); });

  const double t_end = run_horizon(curve, cfg);
  psim.run_until(t_end);

  serving::Metrics merged =
      finish_and_merge(systems, t_end, cfg.system_cfg.metrics_window_s);
  double solve_s = 0.0;
  int allocations = 0;
  for (const auto& system : systems) {
    solve_s += system->total_solve_time_s();
    allocations += system->allocations_performed();
  }
  return result_from_metrics(strategies.front()->name(), std::move(merged),
                             solve_s, allocations);
}

/// Coordinated parallel mode: ONE strategy, solving once per control epoch
/// at a window barrier from globally merged shard observations (summed
/// demand, summed per-task arrival rates, averaged multiplicative factors).
/// The arrival stream is round-robined, so every shard serves the same 1/K
/// demand slice — the representative-slice plan (demand/K over one shard's
/// workers) is installed on every shard. An integral split of one
/// full-cluster plan was measured strictly worse here: equal-demand slices
/// need equal capacity, and dealing a full-cluster plan's replicas across
/// shards necessarily starves one of them (e.g. 3 detection replicas over 2
/// shards), which turns into forward-time drops on the short side.
ExperimentResult run_experiment_coordinated(
    const pipeline::PipelineGraph& graph, const trace::DemandCurve& curve,
    const ExperimentConfig& cfg, const serving::ProfileTable& profiles,
    std::size_t shards, obs::Registry* registry) {
  const int cluster = cfg.system_cfg.allocator.cluster_size;
  const std::vector<int> share = shard_shares(cluster, shards);

  sim::ParallelSimulation::Config pcfg;
  pcfg.shards = shards;
  pcfg.window_s = cfg.sim_window_s;
  pcfg.threads = cfg.sim_threads;
  sim::ParallelSimulation psim(pcfg);

  ShardArrivalFeeder feeder(curve, cfg, share, &psim, registry);

  // Fault mode: shard systems arm their slice of the plan and run detection
  // locally (they are external systems, so they never replan on their own);
  // the coordinator observes fault_replan_pending() at barriers and replans
  // over the survivors. Plans must then be per *shard*, not per distinct
  // share: two shards with equal shares can lose different workers.
  const bool fault_mode = !cfg.fault_plan.empty() || cfg.detector.enabled;
  std::vector<fault::FaultPlan> shard_faults;
  if (!cfg.fault_plan.empty()) {
    shard_faults = fault::split_by_shares(cfg.fault_plan, share);
  }

  // One strategy per *distinct worker share* — at most two exist (floor and
  // ceil of cluster / K), so a control epoch costs one or two solves for the
  // whole cluster: still K× fewer than plain sharded mode, where every shard
  // runs its own allocator. Round-robin split: every shard serves the same
  // 1/K demand slice, so the representative floor-share plan is installed
  // everywhere (a bigger shard's extra worker idles — the skew gap).
  // Weighted split: a shard's arrival slice is proportional to its share,
  // so each distinct share gets a plan sized for exactly the demand it
  // receives (share / cluster of the total). Shard systems carry no
  // strategy of their own.
  std::vector<int> plan_shares;    // distinct shares, one plan each
  std::vector<double> plan_fracs;  // demand fraction that share serves
  if (fault_mode) {
    // One plan per shard: each tracks its own survivor set. The demand
    // fraction follows the arrival split (share-weighted or 1/K).
    for (std::size_t s = 0; s < shards; ++s) {
      plan_shares.push_back(share[s]);
      plan_fracs.push_back(
          cfg.sim_weighted_split || cfg.sim_reweight
              ? static_cast<double>(share[s]) / static_cast<double>(cluster)
              : 1.0 / static_cast<double>(shards));
    }
  } else if (cfg.sim_weighted_split) {
    for (int s : share) {
      if (std::find(plan_shares.begin(), plan_shares.end(), s) ==
          plan_shares.end()) {
        plan_shares.push_back(s);
        plan_fracs.push_back(static_cast<double>(s) /
                             static_cast<double>(cluster));
      }
    }
  } else {
    plan_shares.push_back(cluster / static_cast<int>(shards));
    plan_fracs.push_back(1.0 / static_cast<double>(shards));
  }
  // The coordinator owns the fallback chain here (one per planned share):
  // shard systems carry no strategy, so chaining happens around the
  // barrier-time plan() calls below rather than inside the systems.
  std::vector<FallbackRungs> rungs(plan_shares.size());
  std::vector<std::unique_ptr<serving::AllocationStrategy>> strategies;
  std::vector<std::unique_ptr<serving::PlanFallbackChain>> chains;
  for (std::size_t pi = 0; pi < plan_shares.size(); ++pi) {
    serving::AllocatorConfig alloc = cfg.system_cfg.allocator;
    alloc.cluster_size = plan_shares[pi];
    strategies.push_back(make_strategy(cfg.system, alloc, &graph, profiles));
    if (cfg.fallback.enabled) {
      serving::FallbackConfig fb = cfg.fallback;
      rungs[pi].fill(fb, alloc, &graph, profiles);
      chains.push_back(std::make_unique<serving::PlanFallbackChain>(
          strategies.back().get(), fb, &graph, plan_shares[pi]));
    }
  }
  obs::Counter c_plan_fallbacks, c_plan_rejects, c_plan_retained;
  if (cfg.fallback.enabled) {
    c_plan_fallbacks = registry->counter("exp.coord.plan_fallbacks");
    c_plan_rejects = registry->counter("exp.coord.plan_rejects");
    c_plan_retained = registry->counter("exp.coord.plan_retained");
  }
  // Shard -> plan index (0 everywhere in round-robin mode).
  std::vector<std::size_t> shard_plan(shards, 0);
  if (fault_mode) {
    for (std::size_t s = 0; s < shards; ++s) shard_plan[s] = s;
  } else if (cfg.sim_weighted_split) {
    for (std::size_t s = 0; s < shards; ++s) {
      shard_plan[s] = static_cast<std::size_t>(
          std::find(plan_shares.begin(), plan_shares.end(), share[s]) -
          plan_shares.begin());
    }
  }

  std::vector<std::unique_ptr<serving::ServingSystem>> systems;
  for (std::size_t s = 0; s < shards; ++s) {
    serving::SystemConfig scfg = cfg.system_cfg;
    scfg.allocator.cluster_size = share[s];
    scfg.seed = cfg.system_cfg.seed + 1000003 * (s + 1);
    scfg.registry = registry;
    scfg.trace = cfg.obs_trace;
    if (!shard_faults.empty()) scfg.fault_plan = shard_faults[s];
    scfg.detector = cfg.detector;
    scfg.tiers = cfg.tiers;  // data-plane tiering runs inside each shard
    systems.push_back(std::make_unique<serving::ServingSystem>(
        &psim.shard(s), &graph, profiles, /*strategy=*/nullptr, scfg));
  }
  for (auto& system : systems) system->start_external();

  // Coordinator state: replans every rm_period_s (at the first barrier at
  // or past the deadline) or when the merged demand estimate surges or
  // collapses — the same triggers the in-process Resource Manager uses.
  double solve_s = 0.0;
  int allocations = 0;
  double last_demand = 0.0;
  bool have_plan = false;
  double next_replan = 0.0;
  std::vector<serving::AllocationPlan> plans(plan_shares.size());

  auto replan = [&](double now, bool force) {
    double demand = 0.0;
    for (auto& system : systems) demand += system->demand_estimate_now();
    if (have_plan && !force) {
      double min_served = 1.0;
      for (const auto& p : plans) {
        min_served = std::min(min_served, p.served_fraction);
      }
      const double rel = std::abs(demand - last_demand) /
                         std::max(last_demand, 10.0);
      if (rel < cfg.system_cfg.realloc_threshold && min_served >= 1.0) {
        return;
      }
    }
    const double inv_shards = 1.0 / static_cast<double>(shards);
    // Merge multiplicative-factor estimates: shards observe the same
    // underlying pipeline, so the mean is the natural pooled estimate.
    pipeline::MultFactorTable mult = systems[0]->mult_estimates();
    for (std::size_t s = 1; s < shards; ++s) {
      const auto& m = systems[s]->mult_estimates();
      for (std::size_t t = 0; t < mult.size(); ++t) {
        for (std::size_t k = 0; k < mult[t].size(); ++k) {
          mult[t][k] += m[t][k];
        }
      }
    }
    for (auto& row : mult) {
      for (auto& v : row) v *= inv_shards;
    }
    // Drain each shard's per-task arrival-rate window exactly once per
    // epoch (draining resets it), then build every share's request from the
    // same observations.
    std::vector<std::vector<double>> sys_rates;
    sys_rates.reserve(shards);
    for (auto& system : systems) {
      sys_rates.push_back(system->drain_task_arrivals_now());
    }
    // Demand fractions: static by default; under reweighted fault mode the
    // arrival split follows the survivors, so the planned slices must too.
    std::vector<double> fracs = plan_fracs;
    if (fault_mode && cfg.sim_reweight) {
      double surviving_total = 0.0;
      std::vector<double> surviving(shards, 0.0);
      for (std::size_t s = 0; s < shards; ++s) {
        surviving[s] = static_cast<double>(
            std::max(0, share[s] - systems[s]->crashed_workers()));
        surviving_total += surviving[s];
      }
      if (surviving_total > 0.0) {
        for (std::size_t s = 0; s < shards; ++s) {
          fracs[s] = surviving[s] / surviving_total;
        }
      }
    }
    for (std::size_t pi = 0; pi < plan_shares.size(); ++pi) {
      serving::PlanRequest req;
      req.demand_qps = demand * fracs[pi];
      req.mult = mult;
      req.task_arrivals_qps.assign(
          static_cast<std::size_t>(graph.num_tasks()), 0.0);
      for (const auto& rates : sys_rates) {
        for (std::size_t t = 0; t < rates.size(); ++t) {
          req.task_arrivals_qps[t] += rates[t] * fracs[pi];
        }
      }
      req.sim_time_s = now;
      req.epoch = allocations;
      req.previous_plan = have_plan ? &plans[pi] : nullptr;
      if (fault_mode) {
        // Plan over the survivors the controller has *detected* (plan index
        // == shard index in fault mode); the allocator clamps internally so
        // it never plans below one worker per task.
        req.available_workers =
            share[pi] - systems[pi]->detector_dead_workers();
      }
      serving::PlanResult result;
      if (!chains.empty()) {
        serving::FallbackOutcome fo = chains[pi]->plan(req);
        result = std::move(fo.result);
        c_plan_fallbacks.add(static_cast<std::uint64_t>(fo.fallbacks));
        c_plan_rejects.add(static_cast<std::uint64_t>(fo.rejects));
        if (fo.retained_previous) c_plan_retained.add(1);
      } else {
        result = strategies[pi]->plan(req);
      }
      plans[pi] = std::move(result.plan);
      solve_s += plans[pi].solve_time_s;
      ++allocations;
    }
    have_plan = true;
    last_demand = demand;
    for (std::size_t s = 0; s < shards; ++s) {
      serving::AllocationPlan sub = plans[shard_plan[s]];
      sub.solve_time_s = 0.0;  // the coordinator accounts the solve once
      systems[s]->install_plan(std::move(sub));
    }
  };

  replan(0.0, /*force=*/true);  // initial allocation before arrivals
  next_replan = cfg.system_cfg.rm_period_s;

  psim.set_barrier_callback([&](sim::Time now) {
    feeder.on_barrier(now);
    // A shard whose detected-dead set changed since its plan was installed
    // forces an immediate survivor replan (the event-driven trigger of
    // ROADMAP item 4); otherwise the usual period/demand-surge triggers.
    bool fault_due = false;
    if (fault_mode) {
      for (auto& system : systems) {
        fault_due = fault_due || system->fault_replan_pending();
      }
    }
    bool due = fault_due || now + 1e-9 >= next_replan;
    if (!due && have_plan) {
      double est = 0.0;
      for (auto& system : systems) est += system->demand_estimate_now();
      due = est > last_demand * 1.25 + 1.0 || est < last_demand * 0.5 - 1.0;
    }
    if (!due) return;
    replan(now, /*force=*/fault_due);
    while (next_replan <= now + 1e-9) next_replan += cfg.system_cfg.rm_period_s;
  });

  feeder.arm(systems);

  const double t_end = run_horizon(curve, cfg);
  psim.run_until(t_end);

  return result_from_metrics(
      strategies.front()->name(),
      finish_and_merge(systems, t_end, cfg.system_cfg.metrics_window_s),
      solve_s, allocations);
}

}  // namespace

ExperimentResult run_experiment(const pipeline::PipelineGraph& graph,
                                const trace::DemandCurve& curve,
                                const ExperimentConfig& cfg) {
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
    out = cfg.sim_coordinated
              ? run_experiment_coordinated(graph, curve, cfg, profiles,
                                           shards, &registry)
              : run_experiment_sharded(graph, curve, cfg, profiles, shards,
                                       &registry);
  } else {
    auto strategy = make_strategy(cfg.system, cfg.system_cfg.allocator,
                                  &graph, profiles);

    sim::Simulation sim;
    serving::SystemConfig scfg = cfg.system_cfg;
    scfg.registry = &registry;
    scfg.trace = cfg.obs_trace;
    // Sequential mode serves the whole cluster, so the global-id fault plan
    // applies verbatim (no split needed).
    if (!cfg.fault_plan.empty()) scfg.fault_plan = cfg.fault_plan;
    if (cfg.detector.enabled) scfg.detector = cfg.detector;
    scfg.tiers = cfg.tiers;
    scfg.fallback = cfg.fallback;
    FallbackRungs rungs;  // outlives the system holding the rung pointers
    rungs.fill(scfg.fallback, scfg.allocator, &graph, profiles);
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

    out = result_from_metrics(strategy->name(), std::move(system.metrics()),
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
  // so probes are independent of each other and of any prior probes on the
  // same strategy (the old API threaded hidden continuity state through
  // them).
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
