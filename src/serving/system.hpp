// The serving system runtime: composes the Frontend, Controller (Resource
// Manager + Load Balancer + Metadata Store state), and the simulated worker
// cluster into the full query-processing loop of §3:
//
//   client -> Frontend -> first-task workers -> ... -> sinks -> Frontend
//
// with periodic control events: Resource Manager re-allocation (10 s in the
// paper), Load Balancer routing refresh, and worker heartbeats that report
// observed multiplicative factors. The runtime also implements the §5.2
// early-dropping policies (none / last-task / per-task / opportunistic
// rerouting), selected per experiment for the Fig. 7 ablation.
//
// The same runtime hosts Loki and both baselines: the allocation strategy is
// injected (MilpAllocator, baselines::InferLineStrategy,
// baselines::ProteusStrategy).
//
// Hot-path discipline (per arrival / per forwarded item): routing draws go
// through RoutingPlan::DrawTable (flat cumulative thresholds, branchless
// binary search — bit-identical to the linear scan); replica selection scans
// the packed per-worker load-cell array instead of dereferencing Worker
// objects; latency budgets read a dense per-(task, variant) LUT rebuilt at
// plan install (AllocationPlan keeps the map as its serialization form);
// fan-out bookkeeping reuses member scratch buffers. Steady-state query flow
// performs no heap allocation outside pool growth.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/worker.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "fault/detector.hpp"
#include "serving/degrade.hpp"
#include "fault/plan.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pipeline/graph.hpp"
#include "serving/allocation.hpp"
#include "serving/load_balancer.hpp"
#include "serving/metadata_store.hpp"
#include "serving/metrics.hpp"
#include "serving/types.hpp"
#include "sim/simulation.hpp"
#include "trace/demand_estimator.hpp"

namespace loki::serving {

/// Early-dropping policy (§5.2, ablated in Fig. 7).
enum class DropPolicy { kNone, kLastTask, kPerTask, kOpportunisticReroute };

std::string to_string(DropPolicy p);

struct SystemConfig {
  AllocatorConfig allocator;
  /// Resource Manager invocation period (§4.2 uses 10 s).
  double rm_period_s = 10.0;
  /// Load Balancer refresh period between RM runs (§5.1).
  double lb_period_s = 2.0;
  /// Worker heartbeat period (multiplicative-factor reports, §3).
  double heartbeat_period_s = 1.0;
  double metrics_window_s = 10.0;
  DropPolicy drop_policy = DropPolicy::kOpportunisticReroute;
  /// Relative jitter on worker execution times (0 = deterministic; the
  /// simulator-validation bench uses this to model the prototype gap).
  double exec_noise_frac = 0.0;
  /// Relative jitter on network hops.
  double comm_jitter_frac = 0.0;
  /// Straggler batches: with this probability a batch runs 1.5x..scale
  /// slower (models contention/throttling on a physical cluster).
  double straggler_prob = 0.0;
  double straggler_scale = 3.0;
  /// Pay model-load latency when a worker changes variant.
  bool model_swap_cost = true;
  /// Rolling-update bound: at most this many *serving* workers swap their
  /// variant concurrently after a plan change. The rest keep serving their
  /// old variant (same task, different accuracy point) until their turn, so
  /// a re-allocation never craters cluster capacity.
  int max_concurrent_swaps = 5;
  /// EWMA weight for observed multiplicative factors.
  double mult_ewma_alpha = 0.3;
  /// Re-allocation hysteresis: the Resource Manager keeps the current plan
  /// when the demand estimate moved less than this relative amount since the
  /// last allocation. Prevents variant-flapping (and the model-swap storms
  /// it causes) when demand is merely noisy.
  double realloc_threshold = 0.06;
  /// Queries arriving before this time are served but not counted in the
  /// metrics (deployment warm-up; the cluster starts empty).
  double metrics_warmup_s = 0.0;
  /// Worker micro-batching wait (0 = serve immediately).
  double batch_wait_s = 0.0;
  trace::DemandEstimatorConfig demand;
  std::uint64_t seed = 1234;
  /// Observability (src/obs): registry receiving this system's counters and
  /// histograms (nullptr = obs::Registry::global(); experiment drivers pass
  /// a per-run registry so concurrent runs never mix series), the metric
  /// name prefix, and sampled per-request stage attribution. Tracing
  /// defaults ON — the always-on discipline of ROADMAP item 5 — and is
  /// differential-tested to leave every simulation metric bit-identical.
  obs::Registry* registry = nullptr;
  std::string metric_prefix = "serving";
  obs::TraceOptions trace;
  /// Fault injection schedule (src/fault). An *empty* plan with the detector
  /// disabled keeps the whole fault subsystem inert: no counters registered,
  /// no RNG drawn, no events armed — differential-tested bit-identical to a
  /// build without it. A non-empty plan auto-enables the failure detector.
  fault::FaultPlan fault_plan;
  /// Heartbeat-timeout failure detection (phi thresholds / report period).
  /// detector.enabled turns the subsystem on even with an empty plan (e.g.
  /// when faults are injected via the inject_* entry points directly).
  fault::DetectorConfig detector;
  /// Bounded retry for queries stranded on a dead worker: re-dispatched at
  /// detection time while their deadline still stands and they have retries
  /// left; shed-by-failure otherwise. When tiers are enabled the TierPolicy
  /// backoff schedule replaces this fixed budget.
  int fault_max_retries = 2;
  /// Graceful degradation (src/serving/degrade.hpp). Tiers off keeps the
  /// data plane bit-identical to the untiered system; fallback off keeps
  /// plan() a direct strategy call. Differential-tested inert.
  TierPolicy tiers;
  FallbackConfig fallback;
};

class ServingSystem {
 public:
  /// `graph` and `strategy` must outlive the system. `profiles` is the
  /// Metadata Store's profiled q(i,k,b) table shared with the strategy.
  /// `strategy` may be nullptr only for externally-planned systems (see
  /// start_external): such a system never runs its own Resource Manager.
  ServingSystem(sim::Simulation* sim, const pipeline::PipelineGraph* graph,
                ProfileTable profiles, AllocationStrategy* strategy,
                SystemConfig cfg);
  ~ServingSystem();

  ServingSystem(const ServingSystem&) = delete;
  ServingSystem& operator=(const ServingSystem&) = delete;

  /// Performs the initial allocation and schedules the periodic control
  /// events. Call once before submitting queries.
  void start();

  /// Externally-planned (coordinated) mode: schedules only the Load
  /// Balancer and heartbeat loops — no Resource Manager. A coordinator
  /// (e.g. the intra-cluster-sharded experiment driver) pushes plans via
  /// install_plan() at parallel-simulation window barriers. Call once,
  /// instead of start().
  void start_external();

  /// Applies a plan produced outside this system (coordinated mode): worker
  /// placement, routing refresh, allocation metrics. The plan's
  /// solve_time_s is NOT added to total_solve_time_s() — the coordinator
  /// accounts the (shared) solve once.
  void install_plan(AllocationPlan plan);

  /// Client query arriving now (drives one end-to-end pipeline execution).
  /// Equivalent to submit(0): untiered callers produce strict-tier traffic.
  void submit();
  /// Tiered submission (0 = strict, 1 = standard, 2 = best-effort; clamped).
  /// With cfg.tiers.enabled this runs priority-aware admission control and
  /// shedding; otherwise the tier only labels the per-tier accounting.
  void submit(int tier);

  /// Stops periodic events and flushes metrics windows at `t_end`.
  void finish(double t_end);

  /// Attaches a Metadata Store (§3) that records demand estimates, plan
  /// history and multiplicative-factor estimates as the controller works.
  void attach_metadata_store(MetadataStore* store);

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const AllocationPlan& current_plan() const { return plan_; }
  const RoutingPlan& current_routing() const { return routing_; }
  const pipeline::MultFactorTable& mult_estimates() const {
    return mult_estimates_;
  }
  /// Workers currently hosting an instance.
  int active_workers() const;
  /// Total allocation-solve wall time spent so far (RM overhead, §6.5).
  double total_solve_time_s() const { return total_solve_time_s_; }
  int allocations_performed() const { return allocations_; }

  /// Current frontend demand estimate (coordinated-mode input merging).
  double demand_estimate_now() { return demand_.estimate(sim_->now()); }
  /// Drains the per-task arrival-rate window (coordinated-mode input
  /// merging; the in-process Resource Manager calls the private form).
  std::vector<double> drain_task_arrivals_now() {
    return drain_task_arrivals(sim_->now());
  }

  /// Aggregated per-stage hot-path counters across the whole cluster
  /// (queue wait / batching / execute / swap stalls). Semantics: monotonic
  /// since system construction — apply_plan / install_plan re-installs,
  /// worker reassignments and deactivations never reset them, so two
  /// snapshots straddling any number of plan changes subtract into the
  /// exact work done in between. Deltas are also published into the
  /// registry (<prefix>.stage.*) at every heartbeat and at finish().
  cluster::StageCounters stage_counters() const;

  /// The sampled per-request tracer (for tests and coordinators).
  const obs::QueryTracer& tracer() const { return tracer_; }

  // --- Fault subsystem (src/fault) -------------------------------------
  // Entry points invoked by the armed FaultPlan; tests and chaos drivers
  // may also call them directly (requires fault_active()).

  /// Worker dies now: queue + in-flight batch are stranded (held until the
  /// detector declares the worker dead, or recovery — whichever first).
  void inject_worker_crash(int worker);
  /// Crashed worker returns empty with a bumped incarnation.
  void inject_worker_recover(int worker);
  /// Execute-time multiplier for batches started from now on (1 = healthy).
  void inject_straggler(int worker, double mult);
  /// Suppress (lost = true) or restore this worker's heartbeat reports; the
  /// worker keeps serving (failure-detector false-positive material).
  void inject_heartbeat_loss(int worker, bool lost);
  /// Cluster-wide network degradation: extra forward delay + drop prob.
  void inject_network_degrade(double extra_delay_s, double drop_prob);

  /// True when the fault subsystem is armed (non-empty plan or detector
  /// explicitly enabled). False = all fault state is inert (passivity).
  bool fault_active() const { return fault_active_; }
  int crashed_workers() const;
  /// Workers the failure detector currently believes dead (0 if inert).
  int detector_dead_workers() const {
    return fault_active_ ? detector_.dead_count() : 0;
  }
  /// True when the detector's view of the dead set changed since the last
  /// plan was produced — coordinators poll this at window barriers to
  /// trigger event-driven re-planning.
  bool fault_replan_pending() const {
    return fault_active_ && fault_epoch_ != planned_fault_epoch_;
  }
  /// Degraded overload mode: dead capacity not yet re-planned around.
  bool degraded() const { return degraded_; }
  const fault::FailureDetector& failure_detector() const { return detector_; }

  // --- Graceful degradation (src/serving/degrade.hpp) -------------------

  /// True when tiered admission/shedding runs (cfg.tiers.enabled).
  bool tiers_active() const { return tiers_active_; }
  /// Current per-tier serve probabilities under overload ({1,1,1} at full
  /// service). Diagnostics/tests.
  const std::array<double, kNumTiers>& tier_serve_probabilities() const {
    return tier_serve_probs_;
  }

 private:
  struct QueryState {
    double arrival = 0.0;
    double deadline = 0.0;
    int outstanding = 0;
    bool dropped = false;
    bool metered = true;  // false during the warm-up window
    /// Why the query was lost (first drop wins; kCapacity when not fault-
    /// related — the pre-fault-subsystem behavior).
    LossCause cause = LossCause::kCapacity;
    double accuracy_sum = 0.0;
    int sink_completions = 0;
    /// SLO tier (0 strict .. 2 best-effort); drives per-tier accounting.
    int tier = 0;
  };

  /// One committed fan-out decision awaiting dispatch (scratch-pooled).
  struct PendingForward {
    int group;
    int count;
    int child_task;
  };

  void on_batch_done(cluster::Worker& w, std::vector<cluster::WorkItem>& items,
                     const cluster::Worker::BatchContext& ctx);
  void on_dropped_items(cluster::Worker& w,
                        std::vector<cluster::WorkItem>& items);
  bool last_task_filter(const cluster::Worker& w,
                        const cluster::WorkItem& item) const;

  /// `force` skips the demand hysteresis (failure re-plans must always
  /// produce a fresh plan over the surviving workers).
  void run_resource_manager(bool force = false);
  void run_load_balancer();
  void run_heartbeat();
  /// Folds heartbeat reports into the failure detector and handles health
  /// transitions (quarantine, stranded-query resolution, re-planning).
  void run_failure_detection(double now);
  /// Retries or sheds the items stranded on a crashed worker.
  void resolve_stranded(int worker, double now);
  /// Recomputes degraded-mode state from the detector's dead count and the
  /// pending-re-plan flag.
  void update_degraded();
  /// Folds the per-tier arrival window into the EWMA tier shares (no RNG;
  /// no-op when tiers are off) and refreshes the shed probabilities.
  void refresh_tier_shares();
  /// Rebuilds the per-tier serve/shed probability fills from the plan's
  /// served fraction, the degraded shed fraction and the current shares.
  void recompute_tier_probs();
  /// Arms cfg_.fault_plan as simulation events (no-op when empty).
  void arm_configured_faults();
  /// Schedules the periodic control loops (RM only when `with_rm`).
  void schedule_control_loops(bool with_rm);

  void apply_plan(AllocationPlan plan);
  void redistribute(std::vector<cluster::WorkItem>&& items);
  /// Starts deferred swaps while under the concurrency bound.
  void kick_pending_swaps();

  /// Picks a group from a flattened route table; -1 when the draw lands in
  /// the unplaced remainder (shed/drop). Empty tables short-circuit before
  /// drawing (the routing RNG stream must advance exactly as often as the
  /// pre-table runtime did — bit-reproducibility).
  int pick_group(const RoutingPlan::DrawTable& table);
  /// Least-loaded active worker of a group; -1 if the group has none.
  /// When the fault subsystem is active, quarantined (suspect/dead) workers
  /// are skipped first and reconsidered only if nothing else is available.
  int pick_worker(int group) const;
  /// Least-loaded active worker hosting `task` (any variant).
  int pick_worker_for_task(int task) const;
  int scan_group(int group, bool skip_quarantined) const;
  int scan_task(int task, bool skip_quarantined) const;
  /// A worker's load cell for the replica scans, reading inactive for a
  /// quarantined worker when `skip_quarantined` is set.
  std::uint32_t effective_cell(std::size_t wid, bool skip_quarantined) const {
    return skip_quarantined && worker_quarantined_[wid]
               ? cluster::Worker::kLoadCellInactive
               : worker_load_[wid];
  }
  /// True while any worker is crashed. Routing-gap losses (no staffed
  /// group / no worker for a task) during an outage are crash collateral
  /// and attributed to kWorkerFailure, not to shedding policy; only the
  /// loss paths call this, so the O(workers) scan is off the hot path.
  bool any_worker_crashed() const;

  void forward_item(cluster::WorkItem item, int group);
  /// Expected remaining time budget below `task` (mean per-task budgets of
  /// the plan plus per-hop comm), for the rerouting feasibility test.
  double descendant_budget(int task) const {
    return desc_budget_[static_cast<std::size_t>(task)];
  }
  void recompute_descendant_budgets();
  /// Rebuilds the dense per-(task, variant) latency-budget LUT from the
  /// freshly installed plan's map.
  void rebuild_budget_lut();
  void drop_query_part(std::uint64_t query_id, double now,
                       LossCause cause = LossCause::kCapacity);
  void complete_part(std::uint64_t query_id, double now);
  double runtime_budget(int task, int variant, int batch) const;
  double comm_delay();
  /// Publishes the delta of the aggregate stage counters since the last
  /// publication into the registry (pull model: workers bump plain members
  /// on the hot path; only this cold path touches atomics).
  void publish_stage_counters();

  sim::Simulation* sim_;
  const pipeline::PipelineGraph* graph_;
  ProfileTable profiles_;
  AllocationStrategy* strategy_;
  SystemConfig cfg_;

  LoadBalancer lb_;
  Metrics metrics_;
  trace::DemandEstimator demand_;

  AllocationPlan plan_;
  RoutingPlan routing_;
  std::vector<double> desc_budget_;  // per task
  pipeline::MultFactorTable mult_estimates_;

  // Pipeline-graph lookups cached at construction: root() and
  // branch_ratio() are linear scans inside the graph, and the completion
  // path consults them per arrival / per detected object.
  int root_task_ = 0;
  std::vector<std::vector<double>> branch_ratios_;  // [task][child index]

  // Dense latency-budget LUT: budget_lut_[budget_off_[task] + variant],
  // -1 when the current plan has no (task, variant) entry (fall back to the
  // profiled-latency rule). Rebuilt by rebuild_budget_lut() at plan install;
  // AllocationPlan::latency_budget_s (std::map) stays the authoring and
  // serialization form (plan_io).
  std::vector<std::size_t> budget_off_;  // per task, catalog-size prefix sums
  std::vector<double> budget_lut_;

  std::vector<std::unique_ptr<cluster::Worker>> workers_;
  /// Packed per-worker load cells published by the workers themselves
  /// (cluster::Worker::bind_load_cell): replica selection reads 4 bytes per
  /// candidate instead of chasing a unique_ptr and three flags. Parallel
  /// array worker_task_ mirrors each worker's hosted task (-1 inactive) for
  /// the any-worker-of-task fallback scan.
  std::vector<std::uint32_t> worker_load_;
  std::vector<int> worker_task_;
  std::vector<std::vector<int>> group_workers_;  // plan group -> worker ids
  std::vector<int> worker_group_;                // worker id -> group (-1)
  std::deque<std::pair<int, int>> pending_swaps_;  // (worker id, group)
  int swaps_in_flight_ = 0;

  /// Per-query state in a generation-checked slab pool: the query id carried
  /// by WorkItems *is* the pool handle, so the completion path resolves it
  /// with an index + generation check instead of hashing, and finalized
  /// queries recycle their slot in O(1). Stale ids (parts arriving after the
  /// query finalized) resolve to nullptr, same as the old map-miss path.
  HandlePool<QueryState> queries_;

  /// Observed per-task arrival rates since the last plan request, handed to
  /// the strategy inside PlanRequest::task_arrivals_qps (pipeline-agnostic
  /// strategies consume these instead of propagating demand). Resets the
  /// accumulation window and returns empty when no time has elapsed.
  std::vector<double> drain_task_arrivals(double now);

  // Observed multiplicative factors since the last heartbeat.
  std::vector<std::vector<double>> obs_in_;   // [task][variant]
  std::vector<std::vector<double>> obs_out_;  // [task][variant]
  std::vector<double> task_window_arrivals_;  // per task, since last plan
  double arrivals_window_start_ = 0.0;

  // Fan-out scratch reused across items (capacity survives; the completion
  // path never allocates in steady state).
  std::vector<int> scratch_child_counts_;
  std::vector<PendingForward> scratch_forwards_;

  Rng rng_routing_;
  Rng rng_mult_;
  Rng rng_jitter_;
  Rng rng_shed_;
  /// Fault-path randomness (degraded shedding, network drops). A dedicated
  /// substream: drawing here never perturbs the four streams above, and it
  /// is only drawn when the fault subsystem is active (passivity).
  Rng rng_fault_;

  // --- Fault subsystem state (all inert when fault_active_ is false) ----
  bool fault_active_ = false;
  fault::FailureDetector detector_;
  std::vector<char> worker_quarantined_;  // suspect/dead: no new routing
  std::vector<char> hb_suppressed_;       // heartbeat-loss injection
  std::vector<double> crash_time_;        // -1 = not crashed (latency attr.)
  std::vector<double> dead_since_;        // -1 = not declared dead
  /// Items stranded per crashed worker, held until the detector declares
  /// the worker dead (retry/shed) or the worker recovers first.
  std::vector<std::vector<cluster::WorkItem>> stranded_;
  double net_extra_delay_s_ = 0.0;
  double net_drop_prob_ = 0.0;
  bool degraded_ = false;
  double degraded_shed_frac_ = 0.0;
  /// Bumped whenever the detector's dead set changes; a plan produced at
  /// epoch e records planned_fault_epoch_ = e. Mismatch = re-plan pending.
  int fault_epoch_ = 0;
  int planned_fault_epoch_ = 0;
  obs::Counter c_fault_crashes_;
  obs::Counter c_fault_recoveries_;
  obs::Counter c_fault_suspects_;
  obs::Counter c_fault_dead_;
  obs::Counter c_fault_stranded_retried_;
  obs::Counter c_fault_stranded_dropped_;
  obs::Counter c_fault_degraded_shed_;
  obs::Counter c_fault_net_drops_;
  obs::Counter c_fault_replans_;
  obs::Counter c_fault_stale_heartbeats_;
  obs::Histogram h_fault_detect_ns_;
  obs::Histogram h_fault_recovery_ns_;

  // --- Graceful degradation (inert unless tiers/fallback enabled) -------
  bool tiers_active_ = false;
  /// EWMA per-tier arrival shares driving the shed-probability fills. The
  /// first non-empty window seeds them exactly, and a bit-identical window
  /// skips the blend — single-tier traffic stays at exactly {1, 0, 0} so
  /// the tiered shed comparisons reproduce the untiered ones bit-for-bit.
  std::array<double, kNumTiers> tier_shares_ = {1.0, 0.0, 0.0};
  bool tier_shares_seeded_ = false;
  std::array<double, kNumTiers> tier_window_arrivals_{};
  /// In-flight admitted queries per tier (watermark admission control).
  std::array<std::int64_t, kNumTiers> tier_inflight_{};
  std::array<double, kNumTiers> tier_serve_probs_ = {1.0, 1.0, 1.0};
  std::array<double, kNumTiers> tier_degraded_shed_{};
  /// Deadline-enforced plan() fallback chain (built when cfg.fallback is
  /// enabled and the system owns its Resource Manager).
  std::unique_ptr<PlanFallbackChain> fallback_chain_;
  obs::Counter c_degrade_admission_shed_;
  obs::Counter c_degrade_overload_shed_;
  obs::Counter c_degrade_remainder_rescued_;
  obs::Counter c_degrade_retries_;
  obs::Counter c_degrade_retry_given_up_;
  obs::Counter c_degrade_plan_fallbacks_;
  obs::Counter c_degrade_plan_rejects_;
  obs::Counter c_degrade_plan_retained_;

  /// Per-request stage attribution; shared with every worker via
  /// set_tracer(). Histograms land in the configured registry under
  /// cfg_.metric_prefix.
  obs::QueryTracer tracer_;
  /// Stage totals already pushed to the registry (delta publication).
  cluster::StageCounters published_stage_;
  obs::Counter c_admitted_;
  obs::Counter c_stage_enqueued_;
  obs::Counter c_stage_queue_ns_;
  obs::Counter c_stage_batches_;
  obs::Counter c_stage_batch_items_;
  obs::Counter c_stage_execute_ns_;
  obs::Counter c_stage_swaps_;
  obs::Counter c_stage_swap_ns_;

  MetadataStore* metadata_ = nullptr;
  /// Owners of the self-rescheduling control-loop callbacks. The scheduled
  /// lambdas hold weak_ptrs into these, so destroying the system breaks the
  /// reschedule cycle instead of leaking it.
  std::vector<std::shared_ptr<std::function<void()>>> periodic_;
  bool started_ = false;
  bool stopped_ = false;
  bool external_ = false;
  bool has_plan_ = false;
  double last_alloc_demand_ = 0.0;
  double total_solve_time_s_ = 0.0;
  int allocations_ = 0;
};

}  // namespace loki::serving
