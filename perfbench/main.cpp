// loki_perf: the end-to-end serving benchmark driver (run through run.py).
//
//   loki_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload's scenario once per repeat seed (kRepeats),
// then reruns them in turn until --seconds have passed, and prints the
// end-to-end metrics: host throughput and set-up time as medians over all
// calls, peak RSS, and the simulated outcome pooled over the repeats.
// --trace 1 runs {untraced run_experiment, traced sequential run} on the
// first repeat seed until --seconds have passed (at least once) and prints
// the per-layer metrics as medians over the iterations. Both modes check the
// outputs (README.md, "Output checks"); the last stdout line is the result
// object, and a failed check exits 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "exp/experiment.hpp"
#include "serving/metrics.hpp"
#include "timed_milp.hpp"
#include "traced_run.hpp"
#include "workloads.hpp"

namespace loki::perf {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: loki_perf --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};
using MetricList = std::vector<Metric>;

/// Output checks: each failure is reported on stderr and fails the run.
struct Checks {
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    if (cond) return;
    ok = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

// ---------------------------------------------------------------------------
// Simulated outcome: everything a run computes in simulated time, flattened
// so two runs can be compared exactly. Host-time fields (solve times, the
// registry's obs.self.* self-measurement) are left out.
// ---------------------------------------------------------------------------
using Fingerprint = std::vector<std::pair<std::string, double>>;

Fingerprint fingerprint(const exp::ExperimentResult& r) {
  const serving::Metrics& m = r.metrics;
  Fingerprint f = {
      {"arrivals", static_cast<double>(m.arrivals())},
      {"completions", static_cast<double>(m.completions())},
      {"violations", static_cast<double>(m.violations())},
      {"drops", static_cast<double>(m.drops())},
      {"shed", static_cast<double>(m.shed())},
      {"late", static_cast<double>(m.late())},
      {"shed_by_failure", static_cast<double>(m.shed_by_failure())},
      {"shed_by_degraded", static_cast<double>(m.shed_by_degraded())},
      {"drops_by_failure", static_cast<double>(m.drops_by_failure())},
      {"forwards", static_cast<double>(m.forwards())},
      {"model_swaps", static_cast<double>(m.model_swaps())},
      {"allocations", static_cast<double>(r.allocations)},
      {"slo_violation_ratio", r.slo_violation_ratio},
      {"mean_accuracy", r.mean_accuracy},
      {"mean_latency_s", r.mean_latency_s},
      {"p50_latency_s", m.latency().p50()},
      {"p99_latency_s", r.p99_latency_s},
      {"latency_samples", static_cast<double>(m.latency().count())},
      {"mean_servers_used", r.mean_servers_used},
  };
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const serving::TierCounts& tc = m.tier(k);
    const std::string p = "tier" + std::to_string(k) + ".";
    f.emplace_back(p + "arrivals", static_cast<double>(tc.arrivals));
    f.emplace_back(p + "completions", static_cast<double>(tc.completions));
    f.emplace_back(p + "on_time", static_cast<double>(tc.on_time));
    f.emplace_back(p + "late", static_cast<double>(tc.late));
    f.emplace_back(p + "drops", static_cast<double>(tc.drops));
    f.emplace_back(p + "shed", static_cast<double>(tc.shed));
    f.emplace_back(p + "shed_failure", static_cast<double>(tc.shed_failure));
  }
  for (const auto& [name, value] : r.obs.counters) {
    if (name.rfind("obs.self.", 0) == 0) continue;
    f.emplace_back("obs:" + name, static_cast<double>(value));
  }
  for (const obs::HistogramStats& h : r.obs.histograms) {
    f.emplace_back("obs:" + h.name + ".count", static_cast<double>(h.count));
    f.emplace_back("obs:" + h.name + ".sum", static_cast<double>(h.sum));
  }
  return f;
}

/// Bit-exact comparison; names the first difference.
void expect_identical(Checks& checks, const Fingerprint& a,
                      const Fingerprint& b, const std::string& what) {
  if (a.size() != b.size()) {
    checks.expect(false, what + ": " + std::to_string(a.size()) + " vs " +
                             std::to_string(b.size()) + " outcome fields");
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: %s = %.17g vs %s = %.17g",
                    what.c_str(), a[i].first.c_str(), a[i].second,
                    b[i].first.c_str(), b[i].second);
      checks.expect(false, buf);
      return;
    }
  }
}

/// Exact per-tier accounting: arrivals == completions + drops, per tier and
/// in aggregate, and tiers partition the arrivals.
void expect_accounting(Checks& checks, const exp::ExperimentResult& r) {
  const serving::Metrics& m = r.metrics;
  checks.expect(m.completions() + m.drops() == m.arrivals(),
                "arrivals != completions + drops");
  std::uint64_t tier_arrivals = 0;
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const serving::TierCounts& tc = m.tier(k);
    checks.expect(tc.arrivals == tc.completions + tc.drops,
                  "tier " + std::to_string(k) +
                      " arrivals != completions + drops");
    tier_arrivals += tc.arrivals;
  }
  checks.expect(tier_arrivals == m.arrivals(),
                "tier arrivals do not sum to the total");
}

std::uint64_t tier0_policy_shed(const exp::ExperimentResult& r) {
  const serving::TierCounts& t0 = r.metrics.tier(0);
  return t0.shed - t0.shed_failure;
}

/// The checks every new outcome gets: exact accounting, and with SLO tiers
/// on, no strict-tier query lost to shedding policy (crash-stranded ones
/// aside).
void expect_valid_outcome(Checks& checks, const Workload& w,
                          const exp::ExperimentResult& r) {
  expect_accounting(checks, r);
  if (w.cfg.tiers.enabled) {
    checks.expect(tier0_policy_shed(r) == 0, "strict tier was policy-shed");
  }
}

// ---------------------------------------------------------------------------
// Untraced run: run_experiment with the timed allocator as the only
// instrumentation.
// ---------------------------------------------------------------------------
struct TimedRun {
  exp::ExperimentResult result;
  double wall_s = 0.0;
  double setup_s = 0.0;  // entry -> first plan() return
  double cpu_s = 0.0;    // process CPU time, all threads
  std::vector<PlanCall> plans;
};

TimedRun timed_run(const Workload& w) {
  plan_log().reset();
  TimedRun out;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  out.result = exp::run_experiment(w.graph, w.curve, w.cfg);
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  const auto first = plan_log().first_return();
  LOKI_CHECK_MSG(first.has_value(), "run_experiment never called plan()");
  out.setup_s = std::chrono::duration<double>(*first - t0).count();
  out.plans = plan_log().calls();
  return out;
}

double arrivals_per_s(const exp::ExperimentResult& r, double wall_s) {
  return static_cast<double>(r.arrivals) / wall_s;
}

// ---------------------------------------------------------------------------
// Metric assembly.
// ---------------------------------------------------------------------------
/// One repeat's simulated outcome, reduced to what the e2e metrics pool.
struct Outcome {
  double arrivals = 0.0;
  double completions = 0.0;
  double drops = 0.0;
  double violations = 0.0;
  double accuracy_sum = 0.0;  // mean accuracy x completions
  double tier0_on_time = 0.0;
  double tier0_terminal = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double servers = 0.0;
};

Outcome outcome(const exp::ExperimentResult& r) {
  const serving::Metrics& m = r.metrics;
  const serving::TierCounts& t0 = m.tier(0);
  return {static_cast<double>(m.arrivals()),
          static_cast<double>(m.completions()),
          static_cast<double>(m.drops()),
          static_cast<double>(m.violations()),
          r.mean_accuracy * static_cast<double>(m.completions()),
          static_cast<double>(t0.on_time),
          static_cast<double>(t0.completions + t0.drops),
          1e3 * m.latency().p50(),
          1e3 * r.p99_latency_s,
          r.mean_servers_used};
}

/// Ratios pool the repeats' counts; latency percentiles are the median over
/// repeats of each repeat's percentile; servers the mean over repeats.
MetricList e2e_metrics(const std::vector<Outcome>& repeats,
                       const std::vector<double>& rates,
                       const std::vector<double>& setups) {
  Outcome sum;
  std::vector<double> p50, p99;
  for (const Outcome& o : repeats) {
    sum.arrivals += o.arrivals;
    sum.completions += o.completions;
    sum.drops += o.drops;
    sum.violations += o.violations;
    sum.accuracy_sum += o.accuracy_sum;
    sum.tier0_on_time += o.tier0_on_time;
    sum.tier0_terminal += o.tier0_terminal;
    sum.servers += o.servers;
    p50.push_back(o.p50_ms);
    p99.push_back(o.p99_ms);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"arrivals_per_s", "queries/s", median(rates)},
      {"setup_s", "s", median(setups)},
      {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"slo_violation_ratio", "ratio",
       ratio(sum.violations, sum.completions + sum.drops)},
      {"mean_accuracy", "ratio", ratio(sum.accuracy_sum, sum.completions)},
      {"p50_latency_ms", "ms", median(p50)},
      {"p99_latency_ms", "ms", median(p99)},
      {"mean_servers_used", "servers",
       sum.servers / static_cast<double>(repeats.size())},
      {"drop_ratio", "ratio", ratio(sum.drops, sum.arrivals)},
      {"strict_tier_attainment", "ratio",
       ratio(sum.tier0_on_time, sum.tier0_terminal)},
  };
}

/// `wall_s` and `cpu_s` are the host wall and process CPU time of the run
/// that made the calls.
void add_plan_metrics(MetricList& out, const std::vector<PlanCall>& calls,
                      double wall_s, double cpu_s) {
  std::vector<double> ms;
  double total = 0.0, cpu = 0.0, hardware = 0.0, accuracy = 0.0;
  double overload = 0.0;
  double attempted = 0.0, feasible = 0.0;
  serving::SolverStats s;
  for (const PlanCall& c : calls) {
    ms.push_back(1e3 * c.wall_s);
    total += c.wall_s;
    cpu += c.cpu_s;
    for (const serving::StepSolve& step : c.steps) {
      if (step.step == "hardware") hardware += step.wall_s;
      if (step.step == "accuracy") accuracy += step.wall_s;
      if (step.step == "overload") overload += step.wall_s;
      attempted += step.splits_attempted;
      feasible += step.splits_feasible;
    }
    s += c.solver;
  }
  const auto count = [](int v) { return static_cast<double>(v); };
  out.insert(out.end(), {
      {"plan.calls", "count", static_cast<double>(calls.size())},
      {"plan.total_s", "s", total},
      {"plan.share", "ratio", ratio(total, wall_s)},
      {"plan.cpu_share", "ratio", ratio(cpu, cpu_s)},
      {"plan.p50_ms", "ms", ms.empty() ? 0.0 : median(ms)},
      {"plan.max_ms", "ms",
       ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end())},
      {"plan.step.hardware_s", "s", hardware},
      {"plan.step.accuracy_s", "s", accuracy},
      {"plan.step.overload_s", "s", overload},
      {"plan.splits_feasible_ratio", "ratio", ratio(feasible, attempted)},
      {"solver.milp_solves", "count", count(s.milp_solves)},
      {"solver.lp_iterations", "count", count(s.lp_iterations)},
      {"solver.phase1_iterations", "count", count(s.lp_phase1_iterations)},
      {"solver.nodes_explored", "count", count(s.nodes_explored)},
      {"solver.nodes_pruned", "count", count(s.nodes_pruned)},
      {"solver.epoch_warm_hits", "count", count(s.epoch_warm_hits)},
      {"solver.epoch_cache_skips", "count", count(s.epoch_cache_skips)},
      {"solver.presolve_rows_removed", "count", count(s.presolve_rows_removed)},
      {"solver.presolve_cols_removed", "count", count(s.presolve_cols_removed)},
      {"solver.devex_resets", "count", count(s.devex_resets)},
      {"solver.node_warm_ratio", "ratio",
       ratio(count(s.warm_start_hits), count(s.nodes_explored))},
      {"solver.max_gap", "objective", s.max_gap},
  });
}

/// Data-plane and degradation outcomes of the run that served the workload.
void add_serving_metrics(MetricList& out, const exp::ExperimentResult& r) {
  const obs::Snapshot& o = r.obs;
  const serving::Metrics& m = r.metrics;
  const auto c = [&o](const char* name) {
    return static_cast<double>(o.counter_value(name));
  };
  const auto p99_ms = [&o](const char* name) {
    const obs::HistogramStats* h = o.find_histogram(name);
    return h == nullptr ? 0.0 : 1e-6 * h->quantile(0.99);
  };
  out.insert(out.end(), {
      {"cluster.batches", "count", c("serving.stage.batches")},
      {"cluster.mean_batch_size", "items",
       ratio(c("serving.stage.batch_items"), c("serving.stage.batches"))},
      {"cluster.queue_wait_ms_per_item", "ms",
       1e-6 * ratio(c("serving.stage.queue_wait_ns"),
                    c("serving.stage.enqueued"))},
      {"cluster.swaps", "count", c("serving.stage.swaps")},
      {"cluster.swap_stall_s", "s", 1e-9 * c("serving.stage.swap_stall_ns")},
      {"serving.forwards", "count", static_cast<double>(m.forwards())},
      {"serving.model_swaps", "count", static_cast<double>(m.model_swaps())},
      {"lat.queue_p99_ms", "ms", p99_ms("serving.lat.queue")},
      {"lat.execute_p99_ms", "ms", p99_ms("serving.lat.execute")},
      {"lat.comm_p99_ms", "ms", p99_ms("serving.lat.comm")},
      {"degrade.admission_shed", "count", c("serving.degrade.admission_shed")},
      {"degrade.remainder_rescued", "count",
       c("serving.degrade.remainder_rescued")},
      {"degrade.retry_given_up", "count", c("serving.degrade.retry_given_up")},
      {"degrade.plan_fallbacks", "count",
       c("serving.degrade.plan_fallbacks") + c("exp.coord.plan_fallbacks")},
      {"fault.stranded_dropped", "count", c("serving.fault.stranded_dropped")},
      {"fault.replans", "count", c("serving.fault.replans")},
      {"tier1_attainment", "ratio", m.tier_attainment(1)},
      {"tier2_attainment", "ratio", m.tier_attainment(2)},
      {"tier0.policy_shed", "count", static_cast<double>(tier0_policy_shed(r))},
      {"obs.trace_sampled", "count", c("serving.trace.sampled")},
  });
}

/// max/mean of the per-shard observed demand (1 for a sequential run).
double shard_arrival_imbalance(const obs::Snapshot& o) {
  std::vector<double> shard;
  for (const auto& [name, value] : o.counters) {
    const std::string suffix = ".arrivals";
    if (name.rfind("exp.shard", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      shard.push_back(static_cast<double>(value));
    }
  }
  if (shard.empty()) return 1.0;
  double sum = 0.0;
  for (double v : shard) sum += v;
  return ratio(*std::max_element(shard.begin(), shard.end()),
               sum / static_cast<double>(shard.size()));
}

/// The traced run's host-time split, plus its throughput against the
/// untraced run of the same inputs (the tracing overhead).
void add_traced_metrics(MetricList& out, const TracedRun& t,
                        const TimedRun& untraced) {
  const double arrivals = static_cast<double>(t.arrivals);
  const double traced_rate = arrivals_per_s(t.result, t.wall_s);
  const double untraced_rate =
      arrivals_per_s(untraced.result, untraced.wall_s);
  out.insert(out.end(), {
      {"exp.traced_wall_s", "s", t.wall_s},
      {"profile.build_s", "s", t.profile_build_s},
      {"trace.feed_s", "s", t.feed_s},
      {"trace.arrivals", "count", arrivals},
      {"serving.submit_s", "s", t.submit_s},
      {"serving.submit_calls", "count", arrivals},
      {"serving.submit_ns_per_call", "ns", 1e9 * ratio(t.submit_s, arrivals)},
      {"sim.events", "count", static_cast<double>(t.events)},
      {"sim.events_per_arrival", "count",
       ratio(static_cast<double>(t.events), arrivals)},
      {"sim.loop_self_s", "s", t.loop_self_s},
      {"obs.snapshot_s", "s", t.snapshot_s},
      {"exp.other_s", "s",
       t.wall_s - t.profile_build_s - t.feed_s - t.submit_s - t.loop_self_s -
           t.plan_s - t.snapshot_s},
      {"exp.untraced_arrivals_per_s", "queries/s", untraced_rate},
      {"exp.traced_arrivals_per_s", "queries/s", traced_rate},
      {"trace.overhead", "ratio", ratio(untraced_rate, traced_rate) - 1.0},
  });
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------
void print_result(bool correct, long attempted, long failed,
                  const MetricList& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_metrics(const MetricList& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int sim_threads(const Workload& w) {
  if (w.cfg.sim_shards <= 1) return 1;
  return static_cast<int>(w.cfg.sim_threads);
}

void print_provenance(const Args& a, const Workload& w) {
  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"sim_threads\": %d, "
              "\"sim_shards\": %zu, \"repeats\": %d}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace, std::thread::hardware_concurrency(),
              "g++ " __VERSION__, LOKI_PERF_BUILD_TYPE, sim_threads(w),
              w.cfg.sim_shards, a.trace == 0 ? kRepeats : 1);
}

void check_metrics_finite(Checks& checks, const MetricList& metrics) {
  for (const Metric& m : metrics) {
    checks.expect(std::isfinite(m.value), m.name + " is not finite");
  }
}

// ---------------------------------------------------------------------------
// The two modes.
// ---------------------------------------------------------------------------
int run_e2e(const Args& a) {
  Checks checks;
  std::vector<Workload> repeats;
  for (int j = 0; j < kRepeats; ++j) {
    repeats.push_back(make_workload(a.workload, repeat_seed(a.seed, j)));
  }
  std::vector<double> rates, setups;
  std::vector<Fingerprint> references;
  std::vector<Outcome> outcomes;
  long attempted = 0;
  const Clock::time_point start = Clock::now();
  // Every repeat once, then round again until --seconds: each rerun of a
  // repeat seed must reproduce its first outcome bit for bit.
  do {
    const std::size_t j = static_cast<std::size_t>(attempted % kRepeats);
    const TimedRun run = timed_run(repeats[j]);
    ++attempted;
    // Hand freed heap back so peak RSS stays the high-water mark of one
    // call, not of the fragmentation earlier calls leave behind.
    malloc_trim(0);
    rates.push_back(arrivals_per_s(run.result, run.wall_s));
    setups.push_back(run.setup_s);
    std::printf("run %ld (repeat %zu): wall %.3f s, setup %.4f s, "
                "%llu arrivals, %zu plans\n",
                attempted, j, run.wall_s, run.setup_s,
                static_cast<unsigned long long>(run.result.arrivals),
                run.plans.size());
    if (references.size() == j) {
      references.push_back(fingerprint(run.result));
      outcomes.push_back(outcome(run.result));
      expect_valid_outcome(checks, repeats[j], run.result);
    } else {
      expect_identical(checks, references[j], fingerprint(run.result),
                       "rerun of repeat " + std::to_string(j));
    }
  } while (checks.ok &&
           (attempted <= kRepeats || seconds_since(start) < a.seconds));

  MetricList metrics;
  if (checks.ok) {
    metrics = e2e_metrics(outcomes, rates, setups);
    check_metrics_finite(checks, metrics);
    double completions = 0.0;
    for (const Outcome& o : outcomes) completions += o.completions;
    std::printf("latency samples (completions over %d repeats): %.0f\n",
                kRepeats, completions);
    print_metrics(metrics);
  }
  print_result(checks.ok, attempted, checks.ok ? 0 : 1, metrics);
  return checks.ok ? 0 : 1;
}

int run_traced(const Args& a) {
  Checks checks;
  // The traced run covers the run's first repeat.
  const Workload w = make_workload(a.workload, repeat_seed(a.seed, 0));
  const bool parallel = w.cfg.sim_shards > 1;
  const Workload seq = parallel ? sequential_twin(w) : w;
  std::vector<MetricList> iterations;
  Fingerprint reference;
  long attempted = 0;
  const Clock::time_point start = Clock::now();
  do {
    // The workload's own (untraced) run, for a parallel workload the same
    // inputs sequentially, and the traced sequential run. The traced run
    // goes first on every other iteration so heap and cache state left by
    // the previous run does not bias the tracing overhead one way.
    const bool traced_first = iterations.size() % 2 == 1;
    TracedRun traced;
    if (traced_first) traced = run_traced_sequential(seq);
    const TimedRun run = timed_run(w);
    const TimedRun seq_run = parallel ? timed_run(seq) : run;
    if (!traced_first) traced = run_traced_sequential(seq);
    attempted += parallel ? 3 : 2;

    const Fingerprint fp = fingerprint(run.result);
    if (iterations.empty()) {
      reference = fp;
      expect_valid_outcome(checks, w, run.result);
    } else {
      expect_identical(checks, reference, fp,
                       "workload run differs across iterations");
    }
    expect_identical(checks, fingerprint(seq_run.result),
                     fingerprint(traced.result),
                     "traced run differs from untraced run");
    checks.expect(seq_run.result.arrivals == run.result.arrivals,
                  "parallel and sequential modes saw different arrivals");

    MetricList m;
    add_traced_metrics(m, traced, seq_run);
    // Control plane and serving outcomes of the workload's own run.
    const bool from_traced = !parallel;
    add_plan_metrics(m, from_traced ? traced.plans : run.plans,
                     from_traced ? traced.wall_s : run.wall_s,
                     from_traced ? traced.cpu_s : run.cpu_s);
    add_serving_metrics(m, from_traced ? traced.result : run.result);
    m.insert(m.end(), {
        {"exp.cpu_per_wall", "ratio", ratio(run.cpu_s, run.wall_s)},
        {"exp.shard_arrival_imbalance", "ratio",
         shard_arrival_imbalance(run.result.obs)},
        {"exp.speedup_vs_seq", "x", ratio(seq_run.wall_s, run.wall_s)},
        {"exp.mode_slo_gap", "pp",
         100.0 * (seq_run.result.slo_violation_ratio -
                  run.result.slo_violation_ratio)},
    });
    iterations.push_back(std::move(m));
    std::printf("iteration %zu: workload run %.3f s, traced %.3f s\n",
                iterations.size(), run.wall_s, traced.wall_s);
  } while (checks.ok && seconds_since(start) < a.seconds);

  MetricList metrics = iterations.front();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::vector<double> v;
    for (const MetricList& it : iterations) v.push_back(it[i].value);
    metrics[i].value = median(v);
  }
  check_metrics_finite(checks, metrics);
  print_metrics(metrics);
  print_result(checks.ok, attempted, checks.ok ? 0 : 1, metrics);
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace loki::perf

int main(int argc, char** argv) {
  using namespace loki::perf;
  try {
    const Args args = parse_args(argc, argv);
    loki::exp::register_builtin_strategies();
    register_timed_milp();
    print_provenance(args, make_workload(args.workload, args.seed));
    return args.trace == 0 ? run_e2e(args) : run_traced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loki_perf: %s\n", e.what());
    return 2;
  }
}
