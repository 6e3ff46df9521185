#include "workloads.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "timed_milp.hpp"

namespace loki::perf {

namespace {

constexpr int kWorkers = 96;

/// One independent seed per random stream of the workload.
std::uint64_t derive(std::uint64_t seed, const char* stream) {
  return Rng(seed).stream(stream)();
}

Workload base(std::uint64_t seed, const trace::TraceConfig& tcfg) {
  Workload w{pipeline::traffic_analysis_pipeline(),
             trace::generate_trace(tcfg), exp::ExperimentConfig{}};
  w.cfg.system = kTimedMilpKey;
  w.cfg.system_cfg.allocator.cluster_size = kWorkers;
  w.cfg.system_cfg.seed = derive(seed, "serving");
  w.cfg.arrivals.seed = derive(seed, "arrivals");
  w.cfg.tier_seed = derive(seed, "tiers");
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  trace::TraceConfig tcfg;
  if (name == "diurnal-seq") {
    // Azure-diurnal day compressed into 120 s, peaking at ~0.91x the
    // planner's capacity: hardware -> accuracy -> near-overload scaling with
    // a re-plan almost every epoch.
    tcfg.shape = trace::TraceShape::kAzureDiurnal;
    tcfg.duration_s = 120.0;
    tcfg.peak_qps = 6000.0;
    return base(seed, tcfg);
  }
  if (name == "steady-coord") {
    // Constant demand inside the re-allocation hysteresis, coordinated
    // parallel mode: the data plane and the shard barriers carry the run.
    // 5600 qps (0.85x the planner's capacity): from 3000 to 5200 qps the
    // plan the coordinator locks in while the demand estimator warms up
    // depends on the arrival draw, and per-seed SLO violation falls into
    // modes up to 10x apart (0.4% vs 4.5% at 3600 qps); at 5600 qps it is
    // one mode (1.1-1.2%), so a run's outcome does not hang on the seed.
    // Two simulation threads: with four on a four-vCPU host, any slowed
    // vCPU stalls every window barrier, and host throughput spread 42%
    // between runs (3% with two).
    tcfg.shape = trace::TraceShape::kConstant;
    tcfg.duration_s = 300.0;
    tcfg.peak_qps = 5600.0;
    tcfg.noise_frac = 0.0;
    Workload w = base(seed, tcfg);
    w.cfg.sim_shards = 4;
    w.cfg.sim_coordinated = true;
    w.cfg.sim_threads = 2;
    return w;
  }
  if (name == "flash-tiered") {
    // 2x flash crowd at the midpoint under SLO tiers with the fig10
    // watermarks, the plan fallback chain, and an 8-worker crash late in
    // the burst: the shed, stranded-query and survivor re-plan paths.
    tcfg.shape = trace::TraceShape::kStep;
    tcfg.duration_s = 300.0;
    tcfg.peak_qps = 3300.0;
    tcfg.base_fraction = 0.5;
    tcfg.noise_frac = 0.0;
    Workload w = base(seed, tcfg);
    w.cfg.system_cfg.rm_period_s = 5.0;
    w.cfg.system_cfg.metrics_warmup_s = 30.0;
    w.cfg.tiers.enabled = true;
    w.cfg.tiers.depth_watermark = {1024.0, 2.0, 0.5};
    w.cfg.tiers.remainder_priority = true;
    w.cfg.tier_mix = {0.2, 0.4, 0.4};
    w.cfg.fallback.enabled = true;
    for (int worker = 0; worker < 8; ++worker) {
      fault::append(w.cfg.fault_plan,
                    fault::crash_plan(worker, 0.625 * tcfg.duration_s,
                                      0.875 * tcfg.duration_s));
    }
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t repeat_seed(std::uint64_t seed, int j) {
  return Rng(seed).stream("repeat" + std::to_string(j))();
}

Workload sequential_twin(const Workload& w) {
  Workload seq = w;
  seq.cfg.sim_shards = 1;
  seq.cfg.sim_coordinated = false;
  seq.cfg.sim_threads = 0;
  return seq;
}

}  // namespace loki::perf
