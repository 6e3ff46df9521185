// Experiment-driver tests: strategy factory, plan probing, capacity search,
// a full run_experiment smoke test, and config validation.
#include <gtest/gtest.h>

#include "baselines/inferline.hpp"
#include "common/check.hpp"
#include "exp/experiment.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"

namespace loki::exp {
namespace {

TEST(MakeStrategy, AllRegisteredNamesConstructible) {
  const auto graph = pipeline::traffic_analysis_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  serving::AllocatorConfig cfg;
  for (const char* name : {"loki-milp", "inferline", "proteus", "greedy"}) {
    auto s = make_strategy(name, cfg, &graph, profiles);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
  }
}

TEST(ProbePlan, ReportsModeAndTaskAccuracy) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  serving::AllocatorConfig cfg;
  serving::MilpAllocator alloc(cfg, &graph, profiles);
  const auto low = probe_plan(alloc, graph, 100.0);
  EXPECT_EQ(low.mode, serving::ScalingMode::kHardware);
  ASSERT_EQ(low.task_accuracy.size(), 2u);
  EXPECT_NEAR(low.task_accuracy[0], 1.0, 1e-9);
  EXPECT_NEAR(low.task_accuracy[1], 1.0, 1e-9);

  const auto high = probe_plan(alloc, graph, 1400.0);
  EXPECT_EQ(high.mode, serving::ScalingMode::kAccuracy);
  EXPECT_LT(high.task_accuracy[1], 1.0);  // classification degraded first
}

TEST(FindCapacity, BisectsServableBoundary) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  serving::AllocatorConfig cfg;
  serving::MilpAllocator alloc(cfg, &graph, profiles);
  const auto mult = pipeline::default_mult_factors(graph);
  const double cap = find_capacity(alloc, 10.0, 20000.0, mult, 20.0);
  EXPECT_GT(cap, 500.0);
  EXPECT_LT(cap, 20000.0);
  // The boundary is genuine: capacity+10% is not servable in full.
  const auto over = probe_plan(alloc, graph, cap * 1.15);
  EXPECT_LT(over.served_fraction, 1.0);
}

TEST(FindCapacity, InferLineCapacityBelowLoki) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  serving::AllocatorConfig cfg;
  const auto mult = pipeline::default_mult_factors(graph);
  serving::MilpAllocator loki(cfg, &graph, profiles);
  baselines::InferLineStrategy inferline(cfg, &graph, profiles);
  const double cap_loki = find_capacity(loki, 10.0, 20000.0, mult, 20.0);
  const double cap_il = find_capacity(inferline, 10.0, 20000.0, mult, 20.0);
  // The 2.7x-style effective-capacity gain of the paper: at least 2x here.
  EXPECT_GT(cap_loki, cap_il * 2.0);
}

TEST(RunExperiment, SmokeAllSystems) {
  const auto graph = pipeline::social_media_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kSine;
  tcfg.duration_s = 30.0;
  tcfg.peak_qps = 200.0;
  const auto curve = trace::generate_trace(tcfg);
  for (const char* system : {"loki-milp", "inferline", "proteus"}) {
    ExperimentConfig cfg;
    cfg.system = system;
    cfg.system_cfg.allocator.cluster_size = 20;
    const auto result = run_experiment(graph, curve, cfg);
    EXPECT_EQ(result.system_name, system);
    EXPECT_GT(result.arrivals, 1000u) << system;
    EXPECT_GE(result.mean_accuracy, 0.5) << system;
    EXPECT_GE(result.allocations, 1) << system;
  }
}

TEST(RunExperiment, MetricsTimeseriesPopulated) {
  const auto graph = pipeline::traffic_analysis_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kConstant;
  tcfg.duration_s = 40.0;
  tcfg.peak_qps = 150.0;
  const auto curve = trace::generate_trace(tcfg);
  ExperimentConfig cfg;
  cfg.system_cfg.metrics_window_s = 5.0;
  const auto result = run_experiment(graph, curve, cfg);
  EXPECT_GE(result.metrics.demand_series().size(), 7u);
  EXPECT_GE(result.metrics.utilization_series().size(), 30u);
}

/// A one-second run of `cfg`: validate() comes first, so a rejected config
/// throws before anything is simulated.
ExperimentResult tiny_run(const ExperimentConfig& cfg) {
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kConstant;
  tcfg.duration_s = 1.0;
  tcfg.peak_qps = 10.0;
  return run_experiment(pipeline::traffic_analysis_two_task_pipeline(),
                        trace::generate_trace(tcfg), cfg);
}

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.system = "greedy";
  cfg.system_cfg.allocator.cluster_size = 8;
  return cfg;
}

TEST(ValidateConfig, AcceptsTheDefaults) {
  EXPECT_NO_THROW(tiny_run(tiny_config()));
}

TEST(ValidateConfig, RejectsTierMixWithReplay) {
  auto cfg = tiny_config();
  cfg.tier_mix = {0.5, 0.5};
  cfg.replay.rows.push_back({0.5, 0, 1});
  EXPECT_THROW(tiny_run(cfg), CheckFailure);
}

TEST(ValidateConfig, RejectsCoordinatedWithoutShards) {
  auto cfg = tiny_config();
  cfg.sim_coordinated = true;
  EXPECT_THROW(tiny_run(cfg), CheckFailure);
}

TEST(ValidateConfig, RejectsThreadsWithoutShards) {
  auto cfg = tiny_config();
  cfg.sim_threads = 2;
  EXPECT_THROW(tiny_run(cfg), CheckFailure);
}

TEST(ValidateConfig, RejectsSystemCfgFaultPlan) {
  auto cfg = tiny_config();
  cfg.system_cfg.fault_plan = fault::crash_plan(0, 0.5, 0.0);
  EXPECT_THROW(tiny_run(cfg), CheckFailure);
}

TEST(ValidateConfig, RejectsSystemCfgDetector) {
  auto cfg = tiny_config();
  cfg.system_cfg.detector.enabled = true;
  EXPECT_THROW(tiny_run(cfg), CheckFailure);
}

TEST(ValidateConfig, RejectsSystemCfgTiers) {
  auto cfg = tiny_config();
  cfg.system_cfg.tiers.enabled = true;
  EXPECT_THROW(tiny_run(cfg), CheckFailure);
}

TEST(ValidateConfig, RejectsSystemCfgFallback) {
  auto cfg = tiny_config();
  cfg.system_cfg.fallback.enabled = true;
  EXPECT_THROW(tiny_run(cfg), CheckFailure);
}

TEST(BaselinesHeader, IncludedTransitively) {
  // exp_test reaches baselines through experiment.hpp's factory; this
  // guards the public include surface.
  SUCCEED();
}

}  // namespace
}  // namespace loki::exp
