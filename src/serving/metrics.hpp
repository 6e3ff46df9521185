// Metrics pipeline: per-query accounting plus the windowed timeseries that
// reproduce the panels of Figs. 5 and 6 (demand, system accuracy, cluster
// utilization, SLO violation ratio) and the summary numbers quoted in §6.
#pragma once

#include <array>
#include <cstdint>

#include "common/stats.hpp"

namespace loki::serving {

/// Terminal states of a client query. A query violates its SLO if it was
/// dropped (any part) or finished past its deadline (§6.1 definition).
enum class QueryOutcome { kOnTime, kLate, kDropped, kShed };

/// Why a query was shed or dropped (fault-subsystem attribution; plain
/// capacity decisions — overload shedding, early dropping — use kCapacity).
enum class LossCause { kCapacity, kWorkerFailure, kDegradedOverload };

/// SLO tiers: 0 = strict, 1 = standard, 2 = best-effort. Queries without an
/// explicit tier are tier 0, which keeps single-tier runs on the exact
/// pre-tier accounting path.
inline constexpr int kNumTiers = 3;

/// Per-tier terminal accounting. The reconciliation invariant holds per
/// tier: arrivals == completions + drops (shed is the subset of drops taken
/// by admission/overload/degraded shedding rather than early dropping).
struct TierCounts {
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t on_time = 0;
  std::uint64_t late = 0;
  std::uint64_t drops = 0;
  std::uint64_t shed = 0;
  /// Subset of `shed` lost to worker failure (crash-stranded queries whose
  /// deadline could not be met on retry) rather than to admission/overload
  /// policy. `shed == shed_failure` means the shedding policy never touched
  /// this tier — the invariant the strict tier holds under flash crowds.
  std::uint64_t shed_failure = 0;
};

class Metrics {
 public:
  explicit Metrics(double window_s = 10.0) : window_s_(window_s) {}

  void record_arrival(double t, int tier = 0);
  /// Terminal accounting for one client query. `accuracy` is the mean
  /// profiled end-to-end accuracy over the sinks it completed (ignored for
  /// dropped/shed queries). `tier` attributes the outcome to an SLO tier;
  /// callers that predate tiers default to tier 0.
  void record_outcome(double t, QueryOutcome outcome, double accuracy,
                      double latency_s,
                      LossCause cause = LossCause::kCapacity, int tier = 0);
  /// Periodic cluster snapshot: servers in use / total.
  void record_utilization(double t, int servers_used, int cluster_size);
  /// Intermediate-result forwards committed to downstream workers (fan-out
  /// volume; the per-batch bookkeeping that used to be computed and thrown
  /// away in the runtime).
  void record_forwards(std::uint64_t n) { forwards_ += n; }
  /// A worker paid a model-load delay to change its hosted (task, variant).
  void record_model_swap() { ++model_swaps_; }

  // --- Summary accessors ---
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t completions() const { return completions_; }
  std::uint64_t violations() const { return violations_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t late() const { return late_; }
  /// Shed-by-cause attribution (the fault subsystem's reconciliation
  /// invariant: arrivals == completions + drops, with drops split by cause).
  std::uint64_t shed_by_failure() const { return shed_failure_; }
  std::uint64_t shed_by_degraded() const { return shed_degraded_; }
  std::uint64_t drops_by_failure() const { return drops_failure_; }
  std::uint64_t forwards() const { return forwards_; }
  std::uint64_t model_swaps() const { return model_swaps_; }
  /// Per-tier splits of the totals above (tier clamped into [0, kNumTiers)).
  const std::array<TierCounts, kNumTiers>& tiers() const { return tiers_; }
  const TierCounts& tier(int t) const { return tiers_[clamp_tier(t)]; }
  /// Per-tier SLO attainment: on-time completions over terminal queries
  /// (completions + drops) of that tier; 1.0 when the tier saw no queries.
  double tier_attainment(int t) const;
  double slo_violation_ratio() const;
  /// Mean profiled accuracy over queries served on time or late.
  double mean_accuracy() const { return accuracy_.mean(); }
  double mean_latency_s() const { return latency_.mean(); }
  double p99_latency_s() const { return latency_.quantile(0.99); }
  double mean_servers_used() const { return servers_.mean(); }

  // --- Timeseries (windowed by the runtime as events happen) ---
  const TimeSeries& demand_series() const { return demand_series_; }
  const TimeSeries& accuracy_series() const { return accuracy_series_; }
  const TimeSeries& violation_series() const { return violation_series_; }
  const TimeSeries& utilization_series() const { return utilization_series_; }
  const TimeSeries& servers_series() const { return servers_series_; }

  const PercentileTracker& latency() const { return latency_; }
  /// Pre-sizes the latency sample store, e.g. to the summed shard sample
  /// counts before a merge, so merging never regrows it.
  void reserve_latency(std::size_t n) { latency_.reserve(n); }
  double window_s() const { return window_s_; }

  /// Flushes the current partial window into the series (call at end of
  /// run so the tail shows up).
  void flush(double t);

  /// Folds another (flushed) Metrics into this one — the parallel-sim-mode
  /// reduction over per-shard serving systems. Counters and sample
  /// distributions merge exactly. Timeseries combine pointwise on the shared
  /// window grid: count-like series (demand, servers) sum, and each ratio
  /// series (violation, accuracy, utilization) is recomputed from its summed
  /// numerator and denominator, so the merged ratio weighs every shard by
  /// its own queries (or workers) and does not depend on merge order.
  void merge(const Metrics& other);

 private:
  void roll(double t);
  static int clamp_tier(int t) {
    return t < 0 ? 0 : (t >= kNumTiers ? kNumTiers - 1 : t);
  }

  double window_s_;
  double window_start_ = 0.0;

  // Totals.
  std::uint64_t arrivals_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t late_ = 0;
  std::uint64_t shed_failure_ = 0;
  std::uint64_t shed_degraded_ = 0;
  std::uint64_t drops_failure_ = 0;
  std::uint64_t forwards_ = 0;
  std::uint64_t model_swaps_ = 0;
  std::array<TierCounts, kNumTiers> tiers_{};
  RunningStats accuracy_;
  PercentileTracker latency_;
  RunningStats servers_;

  // Current window accumulators.
  std::uint64_t w_arrivals_ = 0;
  std::uint64_t w_done_ = 0;
  std::uint64_t w_violations_ = 0;
  RunningStats w_accuracy_;

  TimeSeries demand_series_;
  TimeSeries accuracy_series_;
  TimeSeries violation_series_;
  TimeSeries utilization_series_;
  TimeSeries servers_series_;
  // Numerators and denominators of the ratio series, point for point (the
  // utilization numerator is servers_series_), for merge().
  TimeSeries violation_num_, violation_den_;
  TimeSeries accuracy_num_, accuracy_den_;
  TimeSeries cluster_series_;
};

}  // namespace loki::serving
