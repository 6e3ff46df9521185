#include "serving/metrics.hpp"

#include "common/check.hpp"

namespace loki::serving {

namespace {

/// num / den point by point, for two series on the same timestamps. Where
/// den is 0 the point repeats the previous ratio when `carry`, else reads 0
/// — the rules roll() applies to one system's windows.
TimeSeries ratio_series(const TimeSeries& num, const TimeSeries& den,
                        bool carry) {
  LOKI_CHECK(num.size() == den.size());
  TimeSeries out;
  double last = 0.0;
  for (std::size_t i = 0; i < num.size(); ++i) {
    const double d = den.points()[i].v;
    if (d > 0.0) {
      last = num.points()[i].v / d;
    } else if (!carry) {
      last = 0.0;
    }
    out.add(num.points()[i].t, last);
  }
  return out;
}

}  // namespace

void Metrics::roll(double t) {
  while (t >= window_start_ + window_s_) {
    const double mid = window_start_ + window_s_ / 2.0;
    demand_series_.add(mid,
                       static_cast<double>(w_arrivals_) / window_s_);
    violation_num_.add(mid, static_cast<double>(w_violations_));
    violation_den_.add(mid, static_cast<double>(w_done_));
    if (w_done_ > 0) {
      violation_series_.add(
          mid, static_cast<double>(w_violations_) /
                   static_cast<double>(w_done_));
    } else {
      violation_series_.add(mid, 0.0);
    }
    if (w_accuracy_.count() > 0 || !accuracy_series_.empty()) {
      accuracy_num_.add(mid, w_accuracy_.sum());
      accuracy_den_.add(mid, static_cast<double>(w_accuracy_.count()));
    }
    if (w_accuracy_.count() > 0) {
      accuracy_series_.add(mid, w_accuracy_.mean());
    } else if (!accuracy_series_.empty()) {
      accuracy_series_.add(mid, accuracy_series_.points().back().v);
    }
    w_arrivals_ = 0;
    w_done_ = 0;
    w_violations_ = 0;
    w_accuracy_.reset();
    window_start_ += window_s_;
  }
}

void Metrics::record_arrival(double t, int tier) {
  roll(t);
  ++arrivals_;
  ++w_arrivals_;
  ++tiers_[clamp_tier(tier)].arrivals;
}

void Metrics::record_outcome(double t, QueryOutcome outcome, double accuracy,
                             double latency_s, LossCause cause, int tier) {
  roll(t);
  ++w_done_;
  TierCounts& tc = tiers_[clamp_tier(tier)];
  switch (outcome) {
    case QueryOutcome::kOnTime:
      ++completions_;
      ++tc.completions;
      ++tc.on_time;
      accuracy_.add(accuracy);
      w_accuracy_.add(accuracy);
      latency_.add(latency_s);
      break;
    case QueryOutcome::kLate:
      ++completions_;
      ++violations_;
      ++late_;
      ++w_violations_;
      ++tc.completions;
      ++tc.late;
      accuracy_.add(accuracy);
      w_accuracy_.add(accuracy);
      latency_.add(latency_s);
      break;
    case QueryOutcome::kShed:
      ++shed_;
      ++drops_;  // drops_ counts every lost query; shed_ is the subset
      ++violations_;
      ++w_violations_;
      ++tc.drops;
      ++tc.shed;
      if (cause == LossCause::kWorkerFailure) {
        ++shed_failure_;
        ++tc.shed_failure;
      }
      if (cause == LossCause::kDegradedOverload) ++shed_degraded_;
      break;
    case QueryOutcome::kDropped:
      ++drops_;
      ++violations_;
      ++w_violations_;
      ++tc.drops;
      if (cause == LossCause::kWorkerFailure) ++drops_failure_;
      break;
  }
}

void Metrics::record_utilization(double t, int servers_used,
                                 int cluster_size) {
  servers_.add(static_cast<double>(servers_used));
  servers_series_.add(t, static_cast<double>(servers_used));
  cluster_series_.add(t, static_cast<double>(cluster_size));
  utilization_series_.add(t, cluster_size > 0
                                 ? static_cast<double>(servers_used) /
                                       static_cast<double>(cluster_size)
                                 : 0.0);
}

double Metrics::tier_attainment(int t) const {
  const TierCounts& tc = tiers_[clamp_tier(t)];
  const std::uint64_t total = tc.completions + tc.drops;
  if (total == 0) return 1.0;
  return static_cast<double>(tc.on_time) / static_cast<double>(total);
}

double Metrics::slo_violation_ratio() const {
  const std::uint64_t total = completions_ + drops_;
  if (total == 0) return 0.0;
  return static_cast<double>(violations_) / static_cast<double>(total);
}

void Metrics::flush(double t) { roll(t + window_s_); }

void Metrics::merge(const Metrics& other) {
  arrivals_ += other.arrivals_;
  completions_ += other.completions_;
  violations_ += other.violations_;
  drops_ += other.drops_;
  shed_ += other.shed_;
  late_ += other.late_;
  shed_failure_ += other.shed_failure_;
  shed_degraded_ += other.shed_degraded_;
  drops_failure_ += other.drops_failure_;
  forwards_ += other.forwards_;
  model_swaps_ += other.model_swaps_;
  for (int t = 0; t < kNumTiers; ++t) {
    tiers_[t].arrivals += other.tiers_[t].arrivals;
    tiers_[t].completions += other.tiers_[t].completions;
    tiers_[t].on_time += other.tiers_[t].on_time;
    tiers_[t].late += other.tiers_[t].late;
    tiers_[t].drops += other.tiers_[t].drops;
    tiers_[t].shed += other.tiers_[t].shed;
    tiers_[t].shed_failure += other.tiers_[t].shed_failure;
  }
  accuracy_.merge(other.accuracy_);
  latency_.merge(other.latency_);
  servers_.merge(other.servers_);
  // Shards share the window grid (same window_s_, windows anchored at 0), so
  // pointwise sums line up; every ratio is then rebuilt from its sums.
  demand_series_.combine(other.demand_series_);
  servers_series_.combine(other.servers_series_);
  cluster_series_.combine(other.cluster_series_);
  violation_num_.combine(other.violation_num_);
  violation_den_.combine(other.violation_den_);
  accuracy_num_.combine(other.accuracy_num_);
  accuracy_den_.combine(other.accuracy_den_);
  violation_series_ = ratio_series(violation_num_, violation_den_, false);
  accuracy_series_ = ratio_series(accuracy_num_, accuracy_den_, true);
  utilization_series_ = ratio_series(servers_series_, cluster_series_, false);
}

}  // namespace loki::serving
