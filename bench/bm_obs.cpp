// Observability self-measurement suite (BM_Obs*): what does always-on
// metrics + sampled tracing cost, measured by the system on itself.
//
//   BM_ObsCounterAdd / BM_ObsHistogramAdd - hot-path primitive cost: one
//     relaxed padded-atomic add / one count+sum+bucket histogram add.
//   BM_ObsRegistrySnapshot - exporter-side scrape cost over a registry with
//     a realistic series count (the registry self-times this too, into
//     obs.self.*).
//   BM_ObsServingE2EEpoch/{tracing_off,tracing_on} - the 96-worker serving
//     e2e epoch (same shape as BM_ServingE2EEpoch) with tracing disabled vs
//     the always-on default. The on arm exports the per-stage latency
//     attribution (p50/p99 queue / batch / execute / swap-stall, in
//     microseconds) plus the registry's self-measured snapshot cost.
//   BM_ObsOverheadGate - the paired overhead measurement the CI gate reads:
//     each iteration builds one tracing-off and one tracing-on epoch and
//     advances them in alternating 1 s slices on the same wall clock, so
//     host drift hits both arms.
//     Exports overhead_frac (on/off wall-time ratio - 1) and bit_identical
//     (1 when every simulation metric matched across the arms — the
//     passivity invariant). `scripts/bench.py obs` fails when
//     overhead_frac exceeds 3% or bit_identical is not 1.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "exp/experiment.hpp"
#include "obs/registry.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/arrivals.hpp"
#include "trace/generator.hpp"

namespace {

using namespace loki;

// --------------------------------------------------------------------------
// Primitive cost: the adds instrumented code pays on the hot path.
// --------------------------------------------------------------------------
void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.add(1);
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
  state.counters["adds_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramAdd(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("bench.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.add(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG: vary bucket
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["adds_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ObsHistogramAdd);

// --------------------------------------------------------------------------
// Scrape cost: snapshot a registry with `n` counters + n/4 histograms —
// roughly what a metrics exporter pays per scrape.
// --------------------------------------------------------------------------
void BM_ObsRegistrySnapshot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  obs::Registry reg;
  for (int i = 0; i < n; ++i) {
    reg.counter("bench.c" + std::to_string(i)).add(static_cast<uint64_t>(i));
  }
  for (int i = 0; i < n / 4; ++i) {
    reg.histogram("bench.h" + std::to_string(i)).add(1u << (i % 40));
  }
  for (auto _ : state) {
    const obs::Snapshot snap = reg.snapshot();
    benchmark::DoNotOptimize(snap.counters.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["snapshots_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ObsRegistrySnapshot)->Arg(64)->Arg(256);

// --------------------------------------------------------------------------
// The 96-worker serving e2e epoch, tracing off vs on.
// --------------------------------------------------------------------------
struct EpochOutcome {
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t drops = 0;
  std::uint64_t shed = 0;
  std::uint64_t violations = 0;
  double mean_latency_s = 0.0;
  double wall_s = 0.0;

  bool operator==(const EpochOutcome& o) const {
    return arrivals == o.arrivals && completions == o.completions &&
           drops == o.drops && shed == o.shed && violations == o.violations &&
           mean_latency_s == o.mean_latency_s;  // exact: passivity invariant
  }
};

serving::SystemConfig epoch_config(bool tracing, obs::Registry* reg) {
  serving::SystemConfig cfg;
  cfg.allocator.cluster_size = 96;
  cfg.allocator.slo_s = 0.250;
  cfg.registry = reg;
  cfg.trace.enabled = tracing;
  return cfg;
}

trace::DemandCurve epoch_curve() {
  trace::DemandCurve curve;
  curve.interval_s = 1.0;
  curve.qps.assign(20, 6000.0);
  return curve;
}

trace::ArrivalConfig epoch_arrivals() {
  trace::ArrivalConfig acfg;
  acfg.seed = 11;
  return acfg;
}

/// One 20 s / 6000 qps epoch on a 96-worker cluster (the BM_ServingE2EEpoch
/// shape), with the obs wiring routed into `reg`. Constructing it builds
/// and starts the system; the simulation then advances in caller-chosen
/// steps, so two epochs can be interleaved slice by slice.
struct Epoch {
  static constexpr double kEndS = 22.0;  // 20 s of arrivals + 2 s drain

  Epoch(const pipeline::PipelineGraph& graph,
        const serving::ProfileTable& profiles, bool tracing,
        obs::Registry* reg)
      : cfg(epoch_config(tracing, reg)),
        strategy(cfg.allocator, &graph, profiles),
        system(&sim, &graph, profiles, &strategy, cfg),
        stream(curve, epoch_arrivals()) {
    system.start();
    pump = [this]() {
      system.submit();
      const double next = stream.next();
      if (next >= 0.0) sim.schedule_at(next, pump);
    };
    const double first = stream.next();
    if (first >= 0.0) sim.schedule_at(first, pump);
  }
  Epoch(const Epoch&) = delete;  // pump captures this
  Epoch& operator=(const Epoch&) = delete;

  void finish() { system.finish(kEndS); }

  EpochOutcome outcome() const {
    EpochOutcome out;
    const auto& m = system.metrics();
    out.arrivals = m.arrivals();
    out.completions = m.completions();
    out.drops = m.drops();
    out.shed = m.shed();
    out.violations = m.violations();
    out.mean_latency_s = m.mean_latency_s();
    return out;
  }

  sim::Simulation sim;
  serving::SystemConfig cfg;
  serving::MilpAllocator strategy;
  serving::ServingSystem system;
  const trace::DemandCurve curve = epoch_curve();  // stream refers to it
  trace::ArrivalStream stream;
  std::function<void()> pump;
};

/// Wall seconds `fn` takes.
template <typename Fn>
double timed_s(Fn&& fn) {
  const std::uint64_t t0 = steady_now_ns();
  fn();
  return steady_elapsed_s(t0, steady_now_ns());
}

/// One whole epoch, run straight through; wall_s covers build to finish.
EpochOutcome run_epoch(const pipeline::PipelineGraph& graph,
                       const serving::ProfileTable& profiles, bool tracing,
                       obs::Registry* reg) {
  std::unique_ptr<Epoch> epoch;
  const double wall_s = timed_s([&]() {
    epoch = std::make_unique<Epoch>(graph, profiles, tracing, reg);
    epoch->sim.run_until(Epoch::kEndS);
    epoch->finish();
  });
  EpochOutcome out = epoch->outcome();
  out.wall_s = wall_s;
  return out;
}

void export_stage_quantiles(benchmark::State& state,
                            const obs::Snapshot& snap) {
  for (const char* stage : {"queue", "batch", "execute", "swap_stall"}) {
    const obs::HistogramStats* h =
        snap.find_histogram(std::string("serving.lat.") + stage);
    if (h == nullptr) continue;
    // ns -> us: keeps the counters readable next to millisecond run times.
    state.counters[std::string("lat_") + stage + "_p50_us"] =
        h->quantile(0.50) / 1e3;
    state.counters[std::string("lat_") + stage + "_p99_us"] =
        h->quantile(0.99) / 1e3;
  }
}

void BM_ObsServingE2EEpoch(benchmark::State& state) {
  const bool tracing = state.range(0) != 0;
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  std::uint64_t arrivals = 0;
  obs::Snapshot last;
  for (auto _ : state) {
    obs::Registry reg;
    const EpochOutcome out = run_epoch(graph, profiles, tracing, &reg);
    arrivals += out.arrivals;
    // Two snapshots: a snapshot's own cost is recorded *after* its copy, so
    // the second one sees the first's obs.self.* self-measurement.
    benchmark::DoNotOptimize(reg.snapshot().counters.size());
    last = reg.snapshot();
    benchmark::DoNotOptimize(out.completions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
  state.counters["arrivals_per_s"] = benchmark::Counter(
      static_cast<double>(arrivals), benchmark::Counter::kIsRate);
  if (tracing) {
    // Deterministic simulation: the attribution is identical across
    // iterations, so the last snapshot speaks for all of them.
    export_stage_quantiles(state, last);
    state.counters["trace_sampled"] =
        static_cast<double>(last.counter_value("serving.trace.sampled"));
    state.counters["obs_self_snapshot_ns"] =
        static_cast<double>(last.counter_value("obs.self.snapshot_ns"));
  }
}
BENCHMARK(BM_ObsServingE2EEpoch)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"tracing"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// The paired overhead gate.
// --------------------------------------------------------------------------
void BM_ObsOverheadGate(benchmark::State& state) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  double off_wall = 0.0;
  double on_wall = 0.0;
  bool identical = true;
  std::uint64_t arrivals = 0;
  bool on_first = false;
  // Runs one step of each arm back-to-back, alternating which arm goes
  // first: the second step of a pair sees whatever the first left in the
  // caches and whatever load ramp the host is on, so a fixed order would
  // bias the ratio. Alternating cancels the bias instead of attributing it
  // to tracing.
  const auto paired = [&](auto&& off_step, auto&& on_step) {
    if (on_first) {
      on_wall += timed_s(on_step);
      off_wall += timed_s(off_step);
    } else {
      off_wall += timed_s(off_step);
      on_wall += timed_s(on_step);
    }
    on_first = !on_first;
  };
  for (auto _ : state) {
    obs::Registry off_reg;
    obs::Registry on_reg;
    std::unique_ptr<Epoch> off, on;
    paired(
        [&]() {
          off = std::make_unique<Epoch>(graph, profiles, false, &off_reg);
        },
        [&]() {
          on = std::make_unique<Epoch>(graph, profiles, true, &on_reg);
        });
    // The two epochs advance in 1 s simulated slices (~7 ms of wall each),
    // paired slice by slice: the host's speed shifts over tens of
    // milliseconds to seconds on a shared VM, and pairing whole ~150 ms
    // epochs let one shift land on one arm only.
    for (int k = 1; k <= static_cast<int>(Epoch::kEndS); ++k) {
      const double t = static_cast<double>(k);
      paired([&]() { off->sim.run_until(t); },
             [&]() { on->sim.run_until(t); });
    }
    paired([&]() { off->finish(); }, [&]() { on->finish(); });
    const EpochOutcome off_out = off->outcome();
    const EpochOutcome on_out = on->outcome();
    identical = identical && on_out == off_out;
    arrivals += off_out.arrivals + on_out.arrivals;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
  state.counters["overhead_frac"] =
      off_wall > 0.0 ? on_wall / off_wall - 1.0 : 0.0;
  state.counters["bit_identical"] = identical ? 1.0 : 0.0;
}
// The per-benchmark MinTime overrides --benchmark_min_time, so even the
// CI --quick run reads overhead_frac from ~a dozen epoch pairs (~290
// slice pairs): a single ~250 ms pair has a host-noise floor above the 3%
// gate bound.
BENCHMARK(BM_ObsOverheadGate)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MinTime(3.0);

}  // namespace

BENCHMARK_MAIN();
