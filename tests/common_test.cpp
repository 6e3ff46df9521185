// Unit tests for the common substrate: RNG, statistics, EWMA, CSV, flags,
// thread pool, and the check macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/ewma.hpp"
#include "common/flags.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "common/small_function.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace loki {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NamedStreamsAreIndependentAndStable) {
  Rng base(7);
  Rng s1 = base.stream("alpha");
  Rng s2 = base.stream("beta");
  Rng s1again = base.stream("alpha");
  EXPECT_EQ(s1.next(), s1again.next());
  EXPECT_NE(s1.next(), s2.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-2.5, 7.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 7.5);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(r.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(19);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(r.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng r(23);
  RunningStats small, large;
  for (int i = 0; i < 50000; ++i) {
    small.add(static_cast<double>(r.poisson(2.1)));
    large.add(static_cast<double>(r.poisson(80.0)));
  }
  EXPECT_NEAR(small.mean(), 2.1, 0.05);
  EXPECT_NEAR(large.mean(), 80.0, 0.5);
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng r(29);
  EXPECT_EQ(r.poisson(0.0), 0u);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(31);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, LognormalMeanMatches) {
  Rng r(37);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(r.lognormal_mean(5.0, 0.4));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------------------------------------------------------------------------
// RunningStats / PercentileTracker / Histogram / TimeSeries
// ---------------------------------------------------------------------------

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), sum / 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  double var = 0.0;
  for (double x : xs) var += (x - s.mean()) * (x - s.mean());
  EXPECT_NEAR(s.variance(), var / 5.0, 1e-12);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng r(43);
  RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal(0.0, 1.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentileTracker, ExactQuantiles) {
  PercentileTracker p;
  for (int i = 100; i >= 1; --i) p.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
  EXPECT_NEAR(p.p50(), 50.5, 1e-9);
  EXPECT_NEAR(p.quantile(0.25), 25.75, 1e-9);
}

TEST(PercentileTracker, MergeAndInterleavedAdd) {
  PercentileTracker a, b;
  for (int i = 0; i < 50; ++i) a.add(i);
  for (int i = 50; i < 100; ++i) b.add(i);
  EXPECT_NEAR(a.p50(), 24.5, 1e-9);  // query, then mutate, then query again
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_NEAR(a.p50(), 49.5, 1e-9);
}

/// Sort-based reference the selection quantile must reproduce bit for bit.
double sorted_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double insertion_order_mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

TEST(PercentileTracker, SelectionMatchesSortedReferenceExactly) {
  // Random samples with heavy duplication (half the draws come from a
  // five-value set), queried between adds and across a merge. Every
  // quantile equals the full-sort answer exactly, and the mean stays the
  // insertion-order sum no matter how queries permuted the store.
  Rng rng(47);
  const std::vector<double> qs = {0.0, 0.5, 0.99, 1.0};
  auto draw = [&rng] {
    return rng.uniform() < 0.5
               ? static_cast<double>(rng.uniform_index(5)) * 0.125
               : rng.uniform(0.0, 2.0);
  };
  PercentileTracker a, b, c;
  std::vector<double> in_a;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 1 + round * 7; ++i) {
      const double x = draw();
      a.add(x);
      in_a.push_back(x);
    }
    for (double q : qs) {
      EXPECT_EQ(a.quantile(q), sorted_quantile(in_a, q))
          << "round " << round << " q " << q;
    }
    EXPECT_EQ(a.mean(), insertion_order_mean(in_a)) << "round " << round;
  }
  // An unqueried tracker merges in insertion order: the mean continues the
  // concatenated insertion-order sum exactly.
  for (int i = 0; i < 301; ++i) {
    const double x = draw();
    b.add(x);
    in_a.push_back(x);
  }
  a.merge(b);
  ASSERT_EQ(a.count(), in_a.size());
  EXPECT_EQ(a.mean(), insertion_order_mean(in_a));
  for (double q : qs) {
    EXPECT_EQ(a.quantile(q), sorted_quantile(in_a, q)) << "q " << q;
  }
  // A queried (permuted) tracker merges just as exactly for quantiles, and
  // further queries leave the mean untouched.
  for (int i = 0; i < 257; ++i) {
    const double x = draw();
    c.add(x);
    in_a.push_back(x);
  }
  EXPECT_EQ(c.p99(), sorted_quantile(std::vector<double>(in_a.end() - 257,
                                                         in_a.end()),
                                     0.99));
  a.merge(c);
  const double mean = a.mean();
  for (double q : qs) {
    EXPECT_EQ(a.quantile(q), sorted_quantile(in_a, q)) << "q " << q;
  }
  EXPECT_EQ(a.mean(), mean);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(TimeSeries, WindowMeanAndSum) {
  TimeSeries ts;
  ts.add(0.5, 10.0);
  ts.add(1.5, 20.0);
  ts.add(1.8, 40.0);
  ts.add(3.5, 6.0);
  const auto mean = ts.window_mean(0.0, 4.0, 1.0);
  ASSERT_EQ(mean.size(), 4u);
  EXPECT_DOUBLE_EQ(mean[0].v, 10.0);
  EXPECT_DOUBLE_EQ(mean[1].v, 30.0);
  EXPECT_DOUBLE_EQ(mean[2].v, 30.0);  // empty window repeats previous
  EXPECT_DOUBLE_EQ(mean[3].v, 6.0);
  const auto sum = ts.window_sum(0.0, 4.0, 1.0);
  EXPECT_DOUBLE_EQ(sum[1].v, 60.0);
  EXPECT_DOUBLE_EQ(sum[2].v, 0.0);  // sums report empty windows as 0
}

// ---------------------------------------------------------------------------
// Ewma
// ---------------------------------------------------------------------------

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.5);
  for (int i = 0; i < 64; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.1);
  EXPECT_FALSE(e.initialized());
  e.add(42.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(Ewma, StepResponse) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(100.0);
  EXPECT_DOUBLE_EQ(e.value(), 50.0);
}

TEST(TimeDecayEwma, CadenceInvariant) {
  // Sampling the same signal at different cadences converges to the same
  // value because decay depends on elapsed time.
  TimeDecayEwma fast(10.0), slow(10.0);
  for (int i = 0; i < 1000; ++i) fast.add(i * 0.1, 5.0);
  for (int i = 0; i < 100; ++i) slow.add(i * 1.0, 5.0);
  EXPECT_NEAR(fast.value(), 5.0, 1e-6);
  EXPECT_NEAR(slow.value(), 5.0, 1e-6);
}

// ---------------------------------------------------------------------------
// CsvTable
// ---------------------------------------------------------------------------

TEST(CsvTable, FormatsTypesAndEscapes) {
  CsvTable t({"name", "value", "count"});
  t.add_row({std::string("plain"), 1.5, std::int64_t{7}});
  t.add_row({std::string("with,comma"), 2.0, std::int64_t{8}});
  t.add_row({std::string("with\"quote"), 3.0, std::int64_t{9}});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name,value,count\n"), std::string::npos);
  EXPECT_NE(s.find("plain,1.5,7"), std::string::npos);
  EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"with\"\"quote\""), std::string::npos);
}

TEST(CsvTable, RejectsWrongWidth) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), CheckFailure);
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",  "--qps=100", "--name",  "loki",
                        "positional", "--ratio", "0.5", "--verbose"};
  Flags f(8, argv);
  EXPECT_DOUBLE_EQ(f.get_double("qps", 0.0), 100.0);
  EXPECT_EQ(f.get_string("name", ""), "loki");
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(f.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "positional");
  EXPECT_EQ(f.get_int("missing", 42), 42);
}

TEST(Flags, RejectsBadNumbers) {
  const char* argv[] = {"prog", "--qps=abc"};
  Flags f(2, argv);
  EXPECT_THROW(f.get_double("qps", 0.0), std::runtime_error);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Check macros
// ---------------------------------------------------------------------------

TEST(Check, ThrowsWithMessage) {
  try {
    LOKI_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassesQuietly) {
  EXPECT_NO_THROW(LOKI_CHECK(2 + 2 == 4));
}

// ---------------------------------------------------------------------------
// SlabPool / HandlePool / RingBuffer (data-plane allocators)
// ---------------------------------------------------------------------------

TEST(SlabPool, RecyclesSlotsThroughFreeList) {
  SlabPool<int> pool(4);
  const auto a = pool.emplace(10);
  const auto b = pool.emplace(20);
  EXPECT_EQ(pool.at(a), 10);
  EXPECT_EQ(pool.at(b), 20);
  EXPECT_EQ(pool.size(), 2u);
  pool.erase(a);
  EXPECT_EQ(pool.size(), 1u);
  // The freed slot is reused before any fresh slot is minted.
  const auto c = pool.emplace(30);
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.at(c), 30);
  EXPECT_EQ(pool.slots(), 2u);
}

TEST(SlabPool, PointersStayStableAcrossSlabGrowth) {
  SlabPool<int> pool(/*slab_capacity=*/4);
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 100; ++i) slots.push_back(pool.emplace(i));
  int* first = &pool.at(slots[0]);
  for (int i = 100; i < 1000; ++i) slots.push_back(pool.emplace(i));
  EXPECT_EQ(first, &pool.at(slots[0]));  // slabs never move
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(pool.at(slots[static_cast<std::size_t>(i)]), i);
  }
}

TEST(SlabPool, DestroysLiveObjectsOnClear) {
  static int live = 0;
  struct Tracked {
    Tracked() { ++live; }
    ~Tracked() { --live; }
  };
  SlabPool<Tracked> pool(8);
  const auto a = pool.emplace();
  pool.emplace();
  pool.emplace();
  EXPECT_EQ(live, 3);
  pool.erase(a);
  EXPECT_EQ(live, 2);
  pool.clear();
  EXPECT_EQ(live, 0);
}

TEST(HandlePool, StaleHandlesResolveToNull) {
  HandlePool<int> pool(8);
  const auto h = pool.emplace(7);
  ASSERT_NE(pool.find(h), nullptr);
  EXPECT_EQ(*pool.find(h), 7);
  pool.erase(h);
  EXPECT_EQ(pool.find(h), nullptr);  // generation bumped
  // The recycled slot gets a distinct handle; the old one stays dead.
  const auto h2 = pool.emplace(8);
  EXPECT_NE(h2, h);
  EXPECT_EQ(pool.find(h), nullptr);
  EXPECT_EQ(*pool.find(h2), 8);
}

TEST(HandlePool, InvalidAndZeroHandlesAreNull) {
  HandlePool<int> pool(8);
  EXPECT_EQ(pool.find(HandlePool<int>::kInvalid), nullptr);
  EXPECT_EQ(pool.find(0xdeadbeefull << 32 | 1), nullptr);
  const auto h = pool.emplace(1);
  EXPECT_THROW(pool.get(h + (1ull << 32)), CheckFailure);  // wrong slot
}

TEST(HandlePool, ClearInvalidatesAllHandles) {
  HandlePool<int> pool(8);
  const auto a = pool.emplace(1);
  const auto b = pool.emplace(2);
  pool.clear();
  EXPECT_EQ(pool.find(a), nullptr);
  EXPECT_EQ(pool.find(b), nullptr);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(RingBuffer, FifoAcrossGrowth) {
  RingBuffer<int> ring(2);
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ring.front(), i);
    ASSERT_EQ(ring[0], i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, WrapsAroundWithoutReordering) {
  RingBuffer<int> ring(4);
  int next_in = 0, next_out = 0;
  // Sustained push/pop traffic forces head to wrap the power-of-two mask.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) ring.push_back(next_in++);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(ring.front(), next_out++);
      ring.pop_front();
    }
  }
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// SmallFunction
// ---------------------------------------------------------------------------

TEST(SmallFunction, InvokesInlineCaptures) {
  int hits = 0;
  SmallFunction<void()> f = [&hits]() { ++hits; };
  f();
  f();
  EXPECT_EQ(hits, 2);
  SmallFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 40), 42);
}

TEST(SmallFunction, MoveTransfersOwnership) {
  int hits = 0;
  SmallFunction<void()> f = [&hits]() { ++hits; };
  SmallFunction<void()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFunction, HoldsMoveOnlyCaptures) {
  auto p = std::make_unique<int>(99);
  SmallFunction<int()> f = [p = std::move(p)]() { return *p; };
  EXPECT_EQ(f(), 99);
}

TEST(SmallFunction, HeapFallbackForOversizedCaptures) {
  // Capture larger than the inline buffer: must still work (heap path).
  struct Big {
    double data[32] = {};
  };
  Big big;
  big.data[0] = 1.5;
  big.data[31] = 2.5;
  SmallFunction<double()> f = [big]() { return big.data[0] + big.data[31]; };
  EXPECT_DOUBLE_EQ(f(), 4.0);
  SmallFunction<double()> g = std::move(f);
  EXPECT_DOUBLE_EQ(g(), 4.0);
}

TEST(SmallFunction, DestroysCaptureExactlyOnce) {
  static int live = 0;
  struct Tracked {
    Tracked() { ++live; }
    Tracked(const Tracked&) { ++live; }
    Tracked(Tracked&&) { ++live; }
    ~Tracked() { --live; }
  };
  {
    SmallFunction<void()> f = [t = Tracked{}]() { (void)t; };
    SmallFunction<void()> g = std::move(f);
    f = nullptr;
    EXPECT_GE(live, 1);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace loki
