// End-to-end experiment driver: wires a pipeline, an allocation strategy, a
// demand trace, and the discrete-event simulator into one run, producing the
// summary numbers and timeseries the benches print. Also provides the
// planner-level capacity search used by the Fig. 1 reproduction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/detector.hpp"
#include "fault/plan.hpp"
#include "obs/registry.hpp"
#include "pipeline/graph.hpp"
#include "serving/degrade.hpp"
#include "serving/system.hpp"
#include "trace/arrivals.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"

namespace loki::exp {

/// Registers the built-in strategies ("loki-milp", "greedy", "inferline",
/// "proteus") with serving::StrategyRegistry::global(). Idempotent; called
/// automatically by make_strategy / run_experiment, and explicitly by code
/// that wants to enumerate or extend the registry.
void register_builtin_strategies();

/// Builds the strategy registered under `name` (see strategy_registry.hpp);
/// registers the built-ins first. The returned strategy reports
/// name() == `name`.
std::unique_ptr<serving::AllocationStrategy> make_strategy(
    const std::string& name, const serving::AllocatorConfig& cfg,
    const pipeline::PipelineGraph* graph,
    const serving::ProfileTable& profiles);

struct ExperimentConfig {
  /// Registry key of the strategy to run (serving/strategy_registry.hpp).
  std::string system = "loki-milp";
  /// Per-system settings. run_experiment sets the fault plan, detector,
  /// SLO tiers and fallback chain of every system from the top-level fields
  /// below, so validate() rejects them here.
  serving::SystemConfig system_cfg;
  trace::ArrivalConfig arrivals;
  /// Extra simulated time after the last arrival to drain in-flight queries.
  double drain_s = 5.0;
  /// Profiler measurement noise (0 = ideal profiles).
  double profiler_noise_frac = 0.0;
  std::uint64_t profiler_seed = 1;
  /// Opt-in parallel simulation mode: split the run across this many event
  /// shards (1 = the sequential, bit-reproducible reference), each a
  /// contiguous slice of the cluster (clamped so every shard keeps one
  /// worker per task). Shards are dealt the global arrival sequence in
  /// proportion to their surviving workers (WeightedInterleave below; plain
  /// round-robin with equal shares and no crash), so arrival totals equal
  /// the sequential run's; per-shard metrics merge exactly at the end.
  /// See README "Data-plane architecture".
  std::size_t sim_shards = 1;
  /// Conservative synchronization window for parallel mode (seconds).
  double sim_window_s = 0.25;
  /// Coordinated parallel mode (requires sim_shards > 1): ONE control plane
  /// plans at window barriers from merged shard observations, instead of an
  /// allocator per shard on its own clock, solving once per distinct worker
  /// share (at most two) for that share's slice of the demand — once per
  /// shard, over its detected survivors, with a fault plan or detector.
  /// Deterministic for a fixed shard count regardless of sim_threads.
  bool sim_coordinated = false;
  /// Threads simulating shards in parallel mode, the calling thread
  /// included (0 = min(shards, hw concurrency); capped at the shard count;
  /// > 1 requires sim_shards > 1). Shard i always runs on thread
  /// i mod sim_threads; 1 runs every shard on the calling thread.
  std::size_t sim_threads = 0;
  /// Deterministic fault schedule, armed as simulation events. Worker ids
  /// are global; the parallel modes split the plan along the shards'
  /// worker ranges. An empty plan arms nothing and is bit-identical to a run
  /// without the fault subsystem (differential-tested in all three modes).
  fault::FaultPlan fault_plan;
  /// Failure-detector configuration (phi-style heartbeat suspicion).
  /// Disabled by default; enabling it turns on detection/quarantine/replan
  /// even with an empty fault plan.
  fault::DetectorConfig detector;
  /// Observability (src/obs): per-request trace sampling forwarded to every
  /// serving system (always-on by default; the registry itself is created
  /// per run), and an optional path to CSV-export the final snapshot.
  obs::TraceOptions obs_trace;
  std::string obs_csv_path;
  /// SLO-tier policy, forwarded to every serving system. Disabled by
  /// default; disabled, or enabled over all-tier-0 traffic, runs are
  /// bit-identical to the untiered system (differential-tested).
  serving::TierPolicy tiers;
  /// Per-tier arrival mix, e.g. {0.2, 0.4, 0.4}: each arrival's tier is
  /// drawn from these weights on a dedicated RNG substream, in global
  /// arrival order (the same tier sequence regardless of sim mode or shard
  /// count). Empty = every arrival is tier 0 and NO randomness is drawn —
  /// tier-less experiments stay bit-identical (passivity).
  std::vector<double> tier_mix;
  std::uint64_t tier_seed = 99;
  /// Control-plane fallback chain around every epoch plan(): MILP within
  /// the deadline -> near-warm resolve -> greedy -> retain previous plan,
  /// each gated by plan validation. Disabled by default. Null rung pointers
  /// get a near-warm MILP and a greedy allocator per planner, sized for its
  /// cluster slice and owned by run_experiment.
  serving::FallbackConfig fallback;
  /// Replay-driven arrivals: when non-empty, the experiment ignores the
  /// demand curve's arrival sampling and feeds the replay's exact
  /// (timestamp, tier) sequence instead (so tier_mix must stay empty) — the
  /// curve still drives the controllers' demand view, so pass
  /// trace::replay_demand_curve(replay).
  trace::QueryReplay replay;

  /// Throws CheckFailure on contradictory settings: a tier_mix with a
  /// replay, sim_coordinated or sim_threads > 1 without sim_shards > 1, or
  /// a system_cfg fault plan, detector, tier policy or fallback chain.
  /// run_experiment calls it first.
  void validate() const;
};

struct ExperimentResult {
  std::string system_name;
  double slo_violation_ratio = 0.0;
  double mean_accuracy = 0.0;
  double mean_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double mean_servers_used = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
  double total_solve_time_s = 0.0;
  int allocations = 0;
  serving::Metrics metrics;  // full timeseries for figure output
  /// Final snapshot of the run's metric registry: cluster-wide stage
  /// counters (serving.stage.*), per-request stage latency histograms
  /// (serving.lat.*), per-shard observed demand (exp.shard<k>.arrivals) and
  /// the registry's self-measured snapshot cost (obs.self.*).
  obs::Snapshot obs;
};

/// Runs one system against one demand curve.
ExperimentResult run_experiment(const pipeline::PipelineGraph& graph,
                                const trace::DemandCurve& curve,
                                const ExperimentConfig& cfg);

/// Deterministic weighted interleave: item j (1-based) goes to the shard
/// with the largest weighted deficit w_i * j - n_i, ties to the lowest
/// index, where n_i counts items already assigned to shard i. Every prefix
/// of the assignment tracks the weights to within one item per shard, and
/// equal weights reduce exactly to round-robin (0, 1, ..., K-1, 0, ...),
/// which keeps equal-share parallel runs identical to a round-robin deal.
class WeightedInterleave {
 public:
  /// `weights` must be non-negative with a positive sum (a zero-weight shard
  /// simply receives no items — e.g. every worker on it has crashed); they
  /// are normalized internally.
  explicit WeightedInterleave(std::vector<double> weights);
  /// Shard index for the next item.
  std::size_t next();

 private:
  std::vector<double> weights_;   // normalized to sum 1
  std::vector<double> assigned_;  // items handed to each shard so far
  std::uint64_t step_ = 0;
};

/// Planner-level capacity probe: the allocation plan Loki would produce for
/// a constant demand (no simulation). Used by the Fig. 1 sweep.
struct PlanProbe {
  double demand_qps = 0.0;
  serving::ScalingMode mode = serving::ScalingMode::kHardware;
  double expected_accuracy = 1.0;
  double served_fraction = 1.0;
  int servers_used = 0;
  /// Accuracy of the plan's per-task mix, split by task (diagnostics for
  /// the phase-2/phase-3 distinction of Fig. 1): mean variant accuracy
  /// weighted by planned flow, one entry per task.
  std::vector<double> task_accuracy;
};

PlanProbe probe_plan(serving::AllocationStrategy& strategy,
                     const pipeline::PipelineGraph& graph, double demand_qps);

/// Largest constant demand (QPS) the strategy can serve with
/// served_fraction == 1, found by bisection within [lo, hi].
double find_capacity(serving::AllocationStrategy& strategy, double lo,
                     double hi, const pipeline::MultFactorTable& mult,
                     double tol_qps = 1.0);

}  // namespace loki::exp
