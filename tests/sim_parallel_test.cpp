// Differential suite for the opt-in parallel simulation mode (tentpole 4):
//
//  1. ParallelSimulation primitives: lockstep windows, deterministic
//     cross-shard post merging, conservative-lookahead enforcement.
//  2. Experiment-level differential checks: a K-shard run against the
//     sequential reference — the total arrival count must match *exactly*
//     (share-weighted partition of one arrival sequence), aggregate accounting
//     must hold in both modes, and the sharded run must be deterministic.
//  3. Sequential bit-identity goldens: the one-shard path is the
//     bit-reproducible reference, pinned to full-precision metrics captured
//     before the data-plane overhaul (pooled events / indexed heap /
//     SmallFunction callbacks must not perturb a single event ordering),
//     and before the forward lane, with forward delays that break its
//     monotone tail (the heap-fallback path).
//  4. Parallel-mode goldens: plain and coordinated runs with equal and
//     skewed shares, crashes, tiers and replay feeds, pinned to
//     full-precision outcomes, so the window-by-window streamed arrival feed
//     replays the same deal.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "sim/parallel.hpp"
#include "tests/test_support.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"

namespace loki {
namespace {

// ---------------------------------------------------------------------------
// ParallelSimulation primitives
// ---------------------------------------------------------------------------

TEST(ParallelSim, SingleShardRunsLikeSequential) {
  sim::ParallelSimulation::Config cfg;
  cfg.shards = 1;
  cfg.window_s = 0.1;
  sim::ParallelSimulation psim(cfg);
  std::vector<int> order;
  psim.shard(0).schedule_at(0.35, [&]() { order.push_back(2); });
  psim.shard(0).schedule_at(0.05, [&]() { order.push_back(1); });
  psim.run_until(1.0);
  EXPECT_DOUBLE_EQ(psim.now(), 1.0);
  EXPECT_DOUBLE_EQ(psim.shard(0).now(), 1.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(ParallelSim, CrossShardPostsArriveAtTargetTime) {
  sim::ParallelSimulation::Config cfg;
  cfg.shards = 2;
  cfg.window_s = 0.25;
  sim::ParallelSimulation psim(cfg);
  double fired_at = -1.0;
  // From shard 0's first window, post into shard 1 beyond the barrier.
  psim.shard(0).schedule_at(0.1, [&]() {
    psim.post(0, 1, 0.6, [&]() { fired_at = psim.shard(1).now(); });
  });
  psim.run_until(1.0);
  EXPECT_DOUBLE_EQ(fired_at, 0.6);
}

TEST(ParallelSim, PostMergeOrderIsDeterministic) {
  // Posts issued from different source shards at equal target times must
  // apply in (t, dst, src, issue-order) order regardless of which shard's
  // window happened to run first. Two runs must agree exactly.
  auto run_once = [](std::vector<int>& order) {
    sim::ParallelSimulation::Config cfg;
    cfg.shards = 2;
    cfg.window_s = 0.25;
    sim::ParallelSimulation psim(cfg);
    for (std::size_t src = 0; src < 2; ++src) {
      psim.shard(src).schedule_at(0.1, [&psim, &order, src]() {
        // Same destination, same time: merge key falls through to (src,
        // issue-order).
        psim.post(src, 0, 0.5,
                  [&order, src]() { order.push_back(static_cast<int>(src)); });
        psim.post(src, 0, 0.5, [&order, src]() {
          order.push_back(10 + static_cast<int>(src));
        });
      });
    }
    psim.run_until(1.0);
  };
  std::vector<int> a, b;
  run_once(a);
  run_once(b);
  const std::vector<int> want = {0, 10, 1, 11};
  EXPECT_EQ(a, want);
  EXPECT_EQ(b, want);
}

TEST(ParallelSim, PostBeforeBarrierIsRejected) {
  // Conservative lookahead: a post targeting a time inside the current
  // window could land in a shard's past. Must fail loudly, not corrupt.
  sim::ParallelSimulation::Config cfg;
  cfg.shards = 1;  // single shard runs inline, so the throw propagates
  cfg.window_s = 0.25;
  sim::ParallelSimulation psim(cfg);
  bool threw = false;
  psim.shard(0).schedule_at(0.05, [&]() {
    try {
      psim.post(0, 0, 0.1, []() {});  // 0.1 < window barrier 0.25
    } catch (const CheckFailure&) {
      threw = true;
    }
  });
  psim.run_until(0.5);
  EXPECT_TRUE(threw);
}

// ---------------------------------------------------------------------------
// Shard team: failure paths and a many-window stress
// ---------------------------------------------------------------------------

// Every shard sleeps mid-window, so the thread that finishes first has to
// wait for the others; the shards in `throwers` then throw CheckFailure
// later in the same window, the rest finish it. With threads = 2, even
// shards run on the calling thread and odd shards on the worker.
void expect_rethrow_after_window(std::size_t threads,
                                 const std::vector<std::size_t>& throwers) {
  constexpr std::size_t kShards = 4;
  std::array<bool, kShards> slept{};
  std::array<bool, kShards> finished{};
  std::string what;
  {
    sim::ParallelSimulation::Config cfg;
    cfg.shards = kShards;
    cfg.window_s = 0.25;
    cfg.threads = threads;
    sim::ParallelSimulation psim(cfg);
    for (std::size_t i = 0; i < kShards; ++i) {
      const bool throws =
          std::find(throwers.begin(), throwers.end(), i) != throwers.end();
      psim.shard(i).schedule_at(0.1, [&slept, i]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        slept[i] = true;
      });
      psim.shard(i).schedule_at(0.2, [&finished, i, throws]() {
        if (throws) throw CheckFailure("shard " + std::to_string(i));
        finished[i] = true;
      });
    }
    try {
      psim.run_until(1.0);
    } catch (const CheckFailure& e) {
      what = e.what();
    }
    // The rethrow waited for the whole first window.
    for (std::size_t i = 0; i < kShards; ++i) {
      EXPECT_TRUE(slept[i]) << "shard " << i;
      const bool throws =
          std::find(throwers.begin(), throwers.end(), i) != throwers.end();
      EXPECT_EQ(finished[i], !throws) << "shard " << i;
      if (!throws) {
        EXPECT_DOUBLE_EQ(psim.shard(i).now(), 0.25) << "shard " << i;
      }
    }
    EXPECT_DOUBLE_EQ(psim.now(), 0.0);
  }  // destroying the team after a failed window must return, not hang
  EXPECT_EQ(what, "shard " + std::to_string(throwers.front()));
}

TEST(ShardTeam, CallerShardThrowRethrownAfterWindow) {
  for (std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    expect_rethrow_after_window(threads, {0});
  }
}

TEST(ShardTeam, WorkerShardThrowRethrownAfterWindow) {
  // Two worker-owned shards throw: the lowest index wins.
  for (std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    expect_rethrow_after_window(threads, {1, 3});
  }
}

struct FiringLogEntry {
  double t = 0.0;
  int from = -1;          // -1: the shard's own tick; else the posting shard
  std::uint64_t tag = 0;  // own tick: RNG state; post: sender's log length
  bool operator==(const FiringLogEntry& o) const {
    return t == o.t && from == o.from && tag == o.tag;
  }
};

// 5 shards, 2,000 windows of 1 ms: each shard ticks at seeded random gaps
// and, on about a quarter of its ticks, posts to a random shard at two
// windows out, so posts from several sources often share a target time and
// the merge order decides their firing order.
std::vector<std::vector<FiringLogEntry>> stress_logs(std::size_t threads) {
  constexpr std::size_t kShards = 5;
  constexpr double kWindow = 0.001;
  sim::ParallelSimulation::Config cfg;
  cfg.shards = kShards;
  cfg.window_s = kWindow;
  cfg.threads = threads;
  sim::ParallelSimulation psim(cfg);
  std::vector<std::vector<FiringLogEntry>> logs(kShards);
  std::vector<std::uint64_t> rng(kShards);
  struct Tick {
    sim::ParallelSimulation* psim;
    std::vector<std::vector<FiringLogEntry>>* logs;
    std::vector<std::uint64_t>* rng;
    std::size_t s;
    void operator()() const {
      sim::Simulation& shard = psim->shard(s);
      std::uint64_t& r = (*rng)[s];
      (*logs)[s].push_back({shard.now(), -1, r});
      r = r * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((r >> 62) == 0) {
        const std::size_t dst = (r >> 32) % kShards;
        const int from = static_cast<int>(s);
        const std::uint64_t tag = (*logs)[s].size();
        auto* dst_logs = &(*logs)[dst];
        sim::Simulation* dst_shard = &psim->shard(dst);
        psim->post(s, dst, psim->now() + 2 * kWindow,
                   [dst_shard, dst_logs, from, tag]() {
                     dst_logs->push_back({dst_shard->now(), from, tag});
                   });
      }
      const double gap =
          2e-5 + static_cast<double>(r >> 40) * 0x1.0p-24 * 8e-4;
      shard.schedule_at(shard.now() + gap, *this);
    }
  };
  for (std::size_t s = 0; s < kShards; ++s) {
    rng[s] = 0x9E3779B97F4A7C15ULL * (s + 1);
    psim.shard(s).schedule_at(0.0, Tick{&psim, &logs, &rng, s});
  }
  psim.run_until(2000 * kWindow);
  return logs;
}

TEST(ShardTeam, ManyWindowsMatchSingleThreadExactly) {
  const auto want = stress_logs(1);
  std::size_t posts = 0;
  for (const auto& log : want) {
    ASSERT_GT(log.size(), 2000u);
    for (const auto& e : log) posts += e.from >= 0 ? 1 : 0;
  }
  ASSERT_GT(posts, 1000u);
  for (std::size_t threads : {2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    EXPECT_TRUE(stress_logs(threads) == want);
  }
}

// ---------------------------------------------------------------------------
// Experiment-level differential checks (sequential vs. sharded)
// ---------------------------------------------------------------------------

trace::DemandCurve diff_curve() {
  trace::TraceConfig cfg;
  cfg.shape = trace::TraceShape::kAzureDiurnal;
  cfg.duration_s = 60.0;
  cfg.peak_qps = 120.0;
  cfg.seed = test::test_seed("sim_parallel_curve");
  return trace::generate_trace(cfg);
}

exp::ExperimentConfig diff_config(std::size_t shards) {
  exp::ExperimentConfig cfg;
  cfg.system = "greedy";  // fast allocator: keeps the differential runs cheap
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = test::test_seed("sim_parallel_arrivals");
  cfg.sim_shards = shards;
  return cfg;
}

TEST(ParallelExperiment, ShardedRunPreservesArrivalTotalExactly) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto seq = exp::run_experiment(graph, curve, diff_config(1));
  const auto par = exp::run_experiment(graph, curve, diff_config(2));

  // The sharded run deals out the *same* arrival sequence, so the total
  // is exact, not approximate.
  EXPECT_EQ(par.arrivals, seq.arrivals);

  // Both modes satisfy the accounting invariants.
  for (const auto* r : {&seq, &par}) {
    EXPECT_GT(r->arrivals, 0u);
    EXPECT_LE(r->drops, r->arrivals);
    EXPECT_LE(r->metrics.shed(), r->drops);
    EXPECT_EQ(r->metrics.completions() + r->drops, r->arrivals);
    EXPECT_GT(r->mean_latency_s, 0.0);
    EXPECT_GE(r->p99_latency_s, r->mean_latency_s);
    EXPECT_GT(r->allocations, 0);
  }

  // Metric equivalence: the workload is well inside capacity in both modes
  // (8 workers sequentially, 4+4 sharded), so both must essentially meet
  // the SLO; server usage must be in the same ballpark.
  EXPECT_LE(seq.slo_violation_ratio, 0.05);
  EXPECT_LE(par.slo_violation_ratio, 0.05);
  EXPECT_GT(par.mean_servers_used, 0.5 * seq.mean_servers_used);
  EXPECT_LT(par.mean_servers_used, 2.0 * seq.mean_servers_used + 1.0);
}

TEST(ParallelExperiment, ShardedRunIsDeterministic) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto a = exp::run_experiment(graph, curve, diff_config(2));
  const auto b = exp::run_experiment(graph, curve, diff_config(2));

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_DOUBLE_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_servers_used, b.mean_servers_used);
  EXPECT_EQ(a.allocations, b.allocations);
}

TEST(ParallelExperiment, ShardedDeterministicAcrossThreadCounts) {
  // Plain sharded mode honours sim_threads like coordinated mode does, and
  // the result cannot depend on how many pool threads drive the shards.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = diff_config(2);
  cfg.sim_threads = 1;
  const auto a = exp::run_experiment(graph, curve, cfg);
  cfg.sim_threads = 2;
  const auto b = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.metrics.completions(), b.metrics.completions());
  EXPECT_EQ(a.metrics.shed(), b.metrics.shed());
  EXPECT_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
  EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.mean_servers_used, b.mean_servers_used);
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.obs.counter_value("exp.shard0.arrivals"),
            b.obs.counter_value("exp.shard0.arrivals"));
}

// ---------------------------------------------------------------------------
// Coordinated intra-cluster sharding (one allocator, barrier-pushed plans)
// ---------------------------------------------------------------------------

exp::ExperimentConfig coord_config(std::size_t shards, std::size_t threads) {
  auto cfg = diff_config(shards);
  cfg.sim_coordinated = true;
  cfg.sim_threads = threads;
  return cfg;
}

TEST(CoordinatedExperiment, PreservesArrivalTotalAndAccounting) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto seq = exp::run_experiment(graph, curve, diff_config(1));
  const auto coord = exp::run_experiment(graph, curve, coord_config(2, 0));

  // Same partition of one arrival sequence as sharded mode:
  // totals match the sequential reference exactly.
  EXPECT_EQ(coord.arrivals, seq.arrivals);
  EXPECT_GT(coord.arrivals, 0u);
  EXPECT_LE(coord.drops, coord.arrivals);
  EXPECT_EQ(coord.metrics.completions() + coord.drops, coord.arrivals);
  EXPECT_GT(coord.allocations, 0);
  // One allocator for the whole cluster: the coordinated run performs far
  // fewer solves than independent-per-shard mode would (K allocators each
  // replanning on their own period), and both modes stay within SLO on this
  // in-capacity workload.
  EXPECT_LE(coord.slo_violation_ratio, 0.05);
  EXPECT_GT(coord.mean_servers_used, 0.0);
}

TEST(CoordinatedExperiment, DeterministicAcrossThreadCounts) {
  // The coordinator runs at window barriers on the driving thread with
  // merged inputs read in shard order; nothing downstream may depend on how
  // the OS scheduled the shard threads. One worker thread vs. two must
  // produce bit-identical metrics.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto a = exp::run_experiment(graph, curve, coord_config(2, 1));
  const auto b = exp::run_experiment(graph, curve, coord_config(2, 2));

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.metrics.completions(), b.metrics.completions());
  EXPECT_EQ(a.metrics.shed(), b.metrics.shed());
  EXPECT_EQ(a.metrics.late(), b.metrics.late());
  EXPECT_DOUBLE_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_servers_used, b.mean_servers_used);
  EXPECT_EQ(a.allocations, b.allocations);
  // total_solve_time_s is wall-clock measured inside the strategy, so it is
  // deliberately not compared (same solves, different host timings).
}

TEST(CoordinatedExperiment, RepeatRunsAreDeterministic) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto a = exp::run_experiment(graph, curve, coord_config(2, 0));
  const auto b = exp::run_experiment(graph, curve, coord_config(2, 0));

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.allocations, b.allocations);
}

TEST(ParallelExperiment, ShardCountIsClampedToClusterSize) {
  // More shards than the cluster can feed degenerates gracefully: every
  // shard needs at least one worker per task, so a 3-worker cluster on a
  // 2-task pipeline falls back to the sequential path.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();
  auto cfg = diff_config(64);
  cfg.system_cfg.allocator.cluster_size = 3;
  const auto r = exp::run_experiment(graph, curve, cfg);
  EXPECT_GT(r.arrivals, 0u);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
}

// ---------------------------------------------------------------------------
// Share-weighted arrival split (WeightedInterleave over surviving workers)
// ---------------------------------------------------------------------------

TEST(WeightedInterleave, EqualWeightsReduceToRoundRobin) {
  exp::WeightedInterleave wi({1.0, 1.0, 1.0});
  for (int j = 0; j < 300; ++j) {
    EXPECT_EQ(wi.next(), static_cast<std::size_t>(j % 3)) << "item " << j;
  }
}

TEST(WeightedInterleave, SkewedWeightsTrackEveryPrefixWithinOneItem) {
  const std::vector<double> w = {4.0, 3.0, 3.0};  // shares of a 10-worker pool
  exp::WeightedInterleave wi(w);
  std::array<double, 3> n{};
  for (int j = 1; j <= 1000; ++j) {
    n[wi.next()] += 1.0;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(n[i], w[i] / 10.0 * j, 1.0)
          << "shard " << i << " after " << j << " items";
    }
  }
}

TEST(WeightedInterleave, DeterministicAcrossInstances) {
  exp::WeightedInterleave a({2.0, 1.0});
  exp::WeightedInterleave b({2.0, 1.0});
  for (int j = 0; j < 200; ++j) EXPECT_EQ(a.next(), b.next());
}

TEST(WeightedSplit, SkewedSharesSplitArrivalsProportionally) {
  // cluster_size 10 / 3 shards -> shares {4, 3, 3}. The weighted partition
  // must preserve the arrival total exactly and hand each shard a share-
  // proportional slice (within one item per shard at every prefix, so
  // exactly within one at the end). Per-shard observed demand is read back
  // from the run's registry snapshot.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = diff_config(3);
  cfg.system_cfg.allocator.cluster_size = 10;
  auto seqcfg = cfg;
  seqcfg.sim_shards = 1;

  const auto seq = exp::run_experiment(graph, curve, seqcfg);
  const auto w = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(w.arrivals, seq.arrivals);
  EXPECT_LE(w.drops, w.arrivals);
  EXPECT_EQ(w.metrics.completions() + w.drops, w.arrivals);
  EXPECT_GT(w.allocations, 0);

  const double total = static_cast<double>(w.arrivals);
  const std::uint64_t s0 = w.obs.counter_value("exp.shard0.arrivals");
  const std::uint64_t s1 = w.obs.counter_value("exp.shard1.arrivals");
  const std::uint64_t s2 = w.obs.counter_value("exp.shard2.arrivals");
  EXPECT_EQ(s0 + s1 + s2, w.arrivals);
  EXPECT_NEAR(static_cast<double>(s0), 0.4 * total, 1.0);
  EXPECT_NEAR(static_cast<double>(s1), 0.3 * total, 1.0);
  EXPECT_NEAR(static_cast<double>(s2), 0.3 * total, 1.0);
  // The skew is real: the 4-worker shard sees strictly more traffic.
  EXPECT_GT(s0, s1);
}

TEST(WeightedSplit, SkewedCoordinatedRunIsDeterministicAndAccounted) {
  // Coordinated + skewed shares: two distinct plan shares (4 and 3) are
  // solved per epoch. Accounting must hold and repeat runs must be
  // bit-identical regardless of worker-thread count.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = coord_config(3, 1);
  cfg.system_cfg.allocator.cluster_size = 10;
  const auto a = exp::run_experiment(graph, curve, cfg);
  cfg.sim_threads = 2;
  const auto b = exp::run_experiment(graph, curve, cfg);

  EXPECT_GT(a.arrivals, 0u);
  EXPECT_EQ(a.metrics.completions() + a.drops, a.arrivals);
  EXPECT_LE(a.slo_violation_ratio, 0.05);

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.metrics.completions(), b.metrics.completions());
  EXPECT_DOUBLE_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_servers_used, b.mean_servers_used);
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.obs.counter_value("exp.shard0.arrivals"),
            b.obs.counter_value("exp.shard0.arrivals"));
}

TEST(Reweight, CrashShiftsArrivalSplitToSurvivors) {
  // Kill a worker in shard 0 (global id 1, shares {4, 4}) with no recovery:
  // from the next window barrier on, shard 0's weight drops to 3 vs 4, so
  // the surviving shard must end up with strictly more arrivals while the
  // total and the accounting invariant stay exact.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = diff_config(2);
  cfg.fault_plan = fault::crash_plan(1, 10.0, 0.0);
  const auto r = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(r.obs.counter_value("serving.fault.crashes"), 1u);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  const std::uint64_t s0 = r.obs.counter_value("exp.shard0.arrivals");
  const std::uint64_t s1 = r.obs.counter_value("exp.shard1.arrivals");
  EXPECT_EQ(s0 + s1, r.arrivals);
  EXPECT_LT(s0, s1);

  // Deterministic under repeat.
  const auto r2 = exp::run_experiment(graph, curve, cfg);
  EXPECT_EQ(r2.obs.counter_value("exp.shard0.arrivals"), s0);
  EXPECT_EQ(r2.drops, r.drops);
  EXPECT_DOUBLE_EQ(r2.mean_latency_s, r.mean_latency_s);
}

// ---------------------------------------------------------------------------
// Parallel-mode goldens
// ---------------------------------------------------------------------------

// Full-precision outcomes of the parallel feed modes, captured while
// run_experiment still materialized the whole arrival sequence and
// pre-partitioned it across shards, or (ShardedRoundRobin,
// CoordinatedSkewedShares, CoordinatedCrashFollowsSurvivors) while the
// share-weighted split and its survivor re-weighting were still opt-in, with
// both switched on. The streamed, always-weighted feed must deal every
// arrival to the same shard at the same simulated time, so each run stays
// bit-identical. Doubles compare with EXPECT_EQ: exact, not within ULPs.
struct ParallelGolden {
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
  std::uint64_t shed = 0;
  std::uint64_t completions = 0;
  double slo_violation_ratio = 0.0;
  double mean_accuracy = 0.0;
  double mean_latency_s = 0.0;
  double p99_latency_s = 0.0;
  std::vector<std::uint64_t> shard_arrivals;
};

void expect_golden(const exp::ExperimentResult& r, const ParallelGolden& g) {
  EXPECT_EQ(r.arrivals, g.arrivals);
  EXPECT_EQ(r.drops, g.drops);
  EXPECT_EQ(r.metrics.shed(), g.shed);
  EXPECT_EQ(r.metrics.completions(), g.completions);
  EXPECT_EQ(r.slo_violation_ratio, g.slo_violation_ratio);
  EXPECT_EQ(r.mean_accuracy, g.mean_accuracy);
  EXPECT_EQ(r.mean_latency_s, g.mean_latency_s);
  EXPECT_EQ(r.p99_latency_s, g.p99_latency_s);
  for (std::size_t k = 0; k < g.shard_arrivals.size(); ++k) {
    EXPECT_EQ(r.obs.counter_value("exp.shard" + std::to_string(k) +
                                  ".arrivals"),
              g.shard_arrivals[k])
        << "shard " << k;
  }
}

TEST(ParallelGoldens, CoordinatedRoundRobin) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto r = exp::run_experiment(graph, diff_curve(), coord_config(2, 0));
  expect_golden(r, {3180, 39, 0, 3141,
                    0.012264150943396227, 0.99950971028334878,
                    0.092131595595809163, 0.23083910543265201,
                    {1590, 1590}});
}

TEST(ParallelGoldens, ShardedRoundRobin) {
  // Equal shares, no crash: the weighted deal is round-robin.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto r = exp::run_experiment(graph, diff_curve(), diff_config(2));
  expect_golden(r, {3180, 38, 0, 3142,
                    0.011949685534591196, 0.99975047740292777,
                    0.092251549524716508, 0.22941097646271069,
                    {1590, 1590}});
}

TEST(ParallelGoldens, ShardedWeightedSplit) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = diff_config(3);
  cfg.system_cfg.allocator.cluster_size = 10;
  const auto r = exp::run_experiment(graph, diff_curve(), cfg);
  expect_golden(r, {3180, 14, 0, 3166,
                    0.0044025157232704401, 1.0,
                    0.087638297597336073, 0.21792781272143846,
                    {1272, 954, 954}});
}

TEST(ParallelGoldens, CoordinatedSkewedShares) {
  // Shares {4, 3, 3}: one plan per distinct share, each for share / cluster
  // of the merged demand.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = coord_config(3, 0);
  cfg.system_cfg.allocator.cluster_size = 10;
  const auto r = exp::run_experiment(graph, diff_curve(), cfg);
  expect_golden(r, {3180, 14, 0, 3166,
                    0.0044025157232704401, 1.0,
                    0.087638297597336073, 0.21792781272143846,
                    {1272, 954, 954}});
}

TEST(ParallelGoldens, ReweightAfterMidRunCrash) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = diff_config(2);
  cfg.fault_plan = fault::crash_plan(1, 10.0, 0.0);
  const auto r = exp::run_experiment(graph, diff_curve(), cfg);
  expect_golden(r, {3180, 78, 48, 3102,
                    0.024528301886792454, 0.99949226305609307,
                    0.090806514042477582, 0.21592496243661954,
                    {1381, 1799}});
}

TEST(ParallelGoldens, CoordinatedCrashFollowsSurvivors) {
  // Shard 0 loses a worker at 10 s: the deal and shard 0's planned demand
  // slice both drop to 3/7 from the next barrier on.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = coord_config(2, 0);
  cfg.fault_plan = fault::crash_plan(1, 10.0, 0.0);
  const auto r = exp::run_experiment(graph, diff_curve(), cfg);
  expect_golden(r, {3180, 77, 48, 3103,
                    0.024213836477987423, 0.99971801482436373,
                    0.091151440308380002, 0.21570737920164076,
                    {1381, 1799}});
}

TEST(ParallelGoldens, TieredCoordinated) {
  // Half the workers of the differential config: the tier mix meets real
  // queueing, so admission and tier-priority batching both engage.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = coord_config(2, 0);
  cfg.system_cfg.allocator.cluster_size = 4;
  cfg.tiers.enabled = true;
  cfg.tier_mix = {0.2, 0.4, 0.4};
  const auto r = exp::run_experiment(graph, diff_curve(), cfg);
  expect_golden(r, {3180, 111, 0, 3069,
                    0.035534591194968553, 0.93719872010426819,
                    0.080708559298066085, 0.21930405559948973,
                    {1590, 1590}});
}

TEST(ParallelGoldens, ReplayRowsOnBarriersCoordinated) {
  // 32 qps on an exact binary grid, so every 0.25 s window barrier carries
  // a row, plus a 64-row burst exactly on each 10 s control-period barrier.
  // Barrier rows fire inside the window they close, before that barrier's
  // replan (ReplayRowOnFinalBarrierFires pins the bound directly).
  trace::QueryReplay replay;
  for (int i = 0; i < 1920; ++i) {
    const double t = static_cast<double>(i) / 32.0;
    replay.rows.push_back({t, 0, i % 3});
    if (i > 0 && i % 320 == 0) {
      for (int k = 0; k < 64; ++k) replay.rows.push_back({t, 0, k % 3});
    }
  }
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = coord_config(2, 0);
  cfg.replay = replay;
  const auto r = exp::run_experiment(
      graph, trace::replay_demand_curve(replay, 1.0), cfg);
  expect_golden(r, {2240, 269, 0, 1971,
                    0.13526785714285713, 1.0,
                    0.085065719389921357, 0.31844144144146469,
                    {1120, 1120}});
}

TEST(ParallelGoldens, ReplayRowOnFinalBarrierFires) {
  // With no drain the run ends exactly on the 20 s window barrier, where
  // the replay's last two rows sit (the demand curve is binned from the
  // rows before them, so it ends there too). The feed bound is inclusive,
  // like Simulation::run_until, so those rows still fire: every row counts.
  trace::QueryReplay replay;
  for (int i = 0; i < 160; ++i) {
    replay.rows.push_back({static_cast<double>(i) / 8.0, 0, 0});
  }
  const auto curve = trace::replay_demand_curve(replay, 1.0);
  ASSERT_EQ(curve.duration_s(), 20.0);
  replay.rows.push_back({20.0, 0, 0});
  replay.rows.push_back({20.0, 0, 0});
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  for (const bool coordinated : {false, true}) {
    auto cfg = coordinated ? coord_config(2, 0) : diff_config(2);
    cfg.replay = replay;
    cfg.drain_s = 0.0;
    const auto r = exp::run_experiment(graph, curve, cfg);
    EXPECT_EQ(r.arrivals, replay.rows.size()) << "coordinated " << coordinated;
  }
}

// ---------------------------------------------------------------------------
// Sequential bit-identity goldens
// ---------------------------------------------------------------------------

TEST(SequentialGoldens, SmokeWorkloadMetricsAreBitIdentical) {
  // Full-precision goldens for the e2e smoke workload, captured from the
  // pre-overhaul data plane (std::function callbacks, tombstone heap,
  // unordered_map query states). The rebuilt hot path must replay the exact
  // same event sequence. Requires LOKI_MILP_NO_TIME_LIMIT=1 (ctest sets it)
  // so the MILP search is host-speed independent.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = 60.0;
  tcfg.peak_qps = 120.0;
  tcfg.seed = test::test_seed("e2e_smoke_curve");
  const auto curve = trace::generate_trace(tcfg);

  exp::ExperimentConfig cfg;
  cfg.system = "loki-milp";
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = test::test_seed("e2e_smoke_arrivals");

  const auto r = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(r.arrivals, 3070u);
  EXPECT_EQ(r.drops, 84u);
  EXPECT_EQ(r.metrics.completions(), 2986u);
  EXPECT_EQ(r.metrics.shed(), 18u);
  EXPECT_EQ(r.metrics.late(), 0u);
  EXPECT_EQ(r.metrics.violations(), 84u);
  EXPECT_EQ(r.allocations, 18);
  EXPECT_DOUBLE_EQ(r.slo_violation_ratio, 0.02736156351791531);
  EXPECT_DOUBLE_EQ(r.mean_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_latency_s, 0.098174636698791506);
  EXPECT_DOUBLE_EQ(r.p99_latency_s, 0.23212521921268792);
  EXPECT_DOUBLE_EQ(r.mean_servers_used, 3.9692307692307702);
}

TEST(SequentialGoldens, NonMonotoneForwardDelaysAreBitIdentical) {
  // The smoke workload with every source of non-monotone forward delay
  // switched on: 30% comm jitter, a network-degrade window that raises the
  // forward delay by 20 ms and then drops it back, and a crash whose
  // stranded items take the tiered exponential-backoff retry path. Forwards
  // whose target time falls before an already queued forward cannot join
  // the simulation core's FIFO forward lane; they take the event heap, and
  // the run must still fire every event in (t, seq) order. Goldens captured
  // before the lane existed; doubles compare exactly.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = 60.0;
  tcfg.peak_qps = 120.0;
  tcfg.seed = test::test_seed("e2e_smoke_curve");
  const auto curve = trace::generate_trace(tcfg);

  exp::ExperimentConfig cfg;
  cfg.system = "loki-milp";
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.system_cfg.comm_jitter_frac = 0.3;
  cfg.arrivals.seed = test::test_seed("e2e_smoke_arrivals");
  cfg.tiers.enabled = true;
  cfg.tier_mix = {0.2, 0.4, 0.4};
  // Worker 1 recovers before the detector declares it dead, so the items
  // it stranded are re-dispatched with backoff instead of given up.
  cfg.fault_plan = fault::crash_plan(1, 30.0, 30.05);
  cfg.fault_plan.events.push_back(
      {15.0, fault::FaultKind::kNetworkDegradeStart, -1, 0.020, 0.0});
  cfg.fault_plan.events.push_back(
      {25.0, fault::FaultKind::kNetworkDegradeEnd, -1, 0.0, 0.0});
  cfg.fault_plan.normalize();

  const auto r = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(r.obs.counter_value("serving.degrade.retries"), 5u);
  EXPECT_EQ(r.arrivals, 3070u);
  EXPECT_EQ(r.drops, 113u);
  EXPECT_EQ(r.metrics.shed(), 11u);
  EXPECT_EQ(r.metrics.completions(), 2957u);
  EXPECT_EQ(r.slo_violation_ratio, 0.038762214983713357);
  EXPECT_EQ(r.mean_accuracy, 1.0);
  EXPECT_EQ(r.mean_latency_s, 0.10092319593387679);
  EXPECT_EQ(r.p99_latency_s, 0.22944706302328685);
}

}  // namespace
}  // namespace loki
