// Metrics pipeline tests: outcome accounting, violation arithmetic, window
// rolling, utilization series, and the exact shard merge.
#include <gtest/gtest.h>

#include <array>

#include "serving/metrics.hpp"

namespace loki::serving {
namespace {

TEST(Metrics, CountsOutcomesCorrectly) {
  Metrics m(10.0);
  m.record_arrival(1.0);
  m.record_outcome(1.1, QueryOutcome::kOnTime, 0.95, 0.1);
  m.record_arrival(2.0);
  m.record_outcome(2.4, QueryOutcome::kLate, 0.90, 0.4);
  m.record_arrival(3.0);
  m.record_outcome(3.0, QueryOutcome::kDropped, 0.0, 0.0);
  m.record_arrival(4.0);
  m.record_outcome(4.0, QueryOutcome::kShed, 0.0, 0.0);

  EXPECT_EQ(m.arrivals(), 4u);
  EXPECT_EQ(m.completions(), 2u);
  EXPECT_EQ(m.violations(), 3u);  // late + dropped + shed
  EXPECT_EQ(m.drops(), 2u);
  EXPECT_EQ(m.shed(), 1u);
  EXPECT_EQ(m.late(), 1u);
  EXPECT_DOUBLE_EQ(m.slo_violation_ratio(), 3.0 / 4.0);
  EXPECT_NEAR(m.mean_accuracy(), 0.925, 1e-12);  // served queries only
  EXPECT_NEAR(m.mean_latency_s(), 0.25, 1e-12);
}

TEST(Metrics, EmptyIsZero) {
  Metrics m;
  EXPECT_EQ(m.arrivals(), 0u);
  EXPECT_DOUBLE_EQ(m.slo_violation_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_accuracy(), 0.0);
}

TEST(Metrics, WindowsRollAtBoundaries) {
  Metrics m(5.0);
  // Window [0,5): 10 arrivals -> 2 QPS.
  for (int i = 0; i < 10; ++i) m.record_arrival(0.2 + i * 0.4);
  // Window [5,10): 5 arrivals -> 1 QPS.
  for (int i = 0; i < 5; ++i) m.record_arrival(5.5 + i * 0.5);
  m.flush(10.0);
  const auto& demand = m.demand_series().points();
  ASSERT_GE(demand.size(), 2u);
  EXPECT_DOUBLE_EQ(demand[0].t, 2.5);
  EXPECT_DOUBLE_EQ(demand[0].v, 2.0);
  EXPECT_DOUBLE_EQ(demand[1].v, 1.0);
}

TEST(Metrics, ViolationSeriesPerWindow) {
  Metrics m(10.0);
  // First window: 1 of 2 violates; second window: 0 of 1.
  m.record_arrival(1.0);
  m.record_outcome(1.5, QueryOutcome::kOnTime, 1.0, 0.1);
  m.record_arrival(2.0);
  m.record_outcome(2.5, QueryOutcome::kDropped, 0.0, 0.0);
  m.record_arrival(12.0);
  m.record_outcome(12.5, QueryOutcome::kOnTime, 1.0, 0.1);
  m.flush(20.0);
  const auto& v = m.violation_series().points();
  ASSERT_GE(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0].v, 0.5);
  EXPECT_DOUBLE_EQ(v[1].v, 0.0);
}

TEST(Metrics, AccuracySeriesCarriesForwardWhenIdle) {
  Metrics m(10.0);
  m.record_arrival(1.0);
  m.record_outcome(1.5, QueryOutcome::kOnTime, 0.9, 0.1);
  // Nothing in window 2.
  m.record_arrival(25.0);
  m.record_outcome(25.5, QueryOutcome::kOnTime, 0.8, 0.1);
  m.flush(30.0);
  const auto& a = m.accuracy_series().points();
  ASSERT_GE(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].v, 0.9);
  EXPECT_DOUBLE_EQ(a[1].v, 0.9);  // repeats previous when idle
  EXPECT_DOUBLE_EQ(a[2].v, 0.8);
}

TEST(Metrics, UtilizationSeries) {
  Metrics m(10.0);
  m.record_utilization(1.0, 10, 20);
  m.record_utilization(2.0, 15, 20);
  EXPECT_DOUBLE_EQ(m.mean_servers_used(), 12.5);
  const auto& u = m.utilization_series().points();
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0].v, 0.5);
  EXPECT_DOUBLE_EQ(u[1].v, 0.75);
}

TEST(Metrics, RatioSeriesMergeExactlyInAnyOrder) {
  // Three one-query shards: violation ratios {1, 0, 0}, accuracies
  // {0.25, 0.5, 1.0} and utilizations {1/4, 2/2, 0/2} in their first
  // window. Merged, the window must read 1/3, 1.75/3 and 3/8 whatever the
  // merge order: a pairwise mean would weigh the shards 1/4, 1/4, 1/2.
  std::array<Metrics, 3> shards{Metrics(10.0), Metrics(10.0), Metrics(10.0)};
  const QueryOutcome outcome[3] = {QueryOutcome::kLate, QueryOutcome::kOnTime,
                                   QueryOutcome::kOnTime};
  const double accuracy[3] = {0.25, 0.5, 1.0};
  const int used[3] = {1, 2, 0};
  const int cluster[3] = {4, 2, 2};
  for (int s = 0; s < 3; ++s) {
    shards[s].record_arrival(1.0);
    shards[s].record_outcome(1.5, outcome[s], accuracy[s], 0.1);
    shards[s].record_utilization(5.0, used[s], cluster[s]);
    shards[s].flush(10.0);
  }
  for (const auto& order : {std::array<int, 3>{0, 1, 2},
                            std::array<int, 3>{2, 1, 0},
                            std::array<int, 3>{1, 2, 0}}) {
    Metrics merged(10.0);
    for (int s : order) merged.merge(shards[s]);
    SCOPED_TRACE(order[0]);
    ASSERT_FALSE(merged.violation_series().empty());
    EXPECT_EQ(merged.violation_series().points()[0].v, 1.0 / 3.0);
    ASSERT_FALSE(merged.accuracy_series().empty());
    EXPECT_EQ(merged.accuracy_series().points()[0].v, 1.75 / 3.0);
    ASSERT_EQ(merged.utilization_series().size(), 1u);
    EXPECT_EQ(merged.utilization_series().points()[0].v, 3.0 / 8.0);
    // Windows after the only query: no completions, so no violations, and
    // the accuracy carries forward.
    ASSERT_GE(merged.violation_series().size(), 2u);
    EXPECT_EQ(merged.violation_series().points()[1].v, 0.0);
    EXPECT_EQ(merged.accuracy_series().points()[1].v, 1.75 / 3.0);
  }
}

TEST(Metrics, LatencyPercentiles) {
  Metrics m;
  for (int i = 1; i <= 100; ++i) {
    m.record_arrival(static_cast<double>(i));
    m.record_outcome(static_cast<double>(i), QueryOutcome::kOnTime, 1.0,
                     static_cast<double>(i) * 1e-3);
  }
  EXPECT_NEAR(m.p99_latency_s(), 0.099, 1e-3);
}

}  // namespace
}  // namespace loki::serving
