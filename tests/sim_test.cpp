// Discrete-event simulation core tests: ordering, ties, cancellation,
// run_until semantics, determinism, the FIFO forward lane, and a randomized
// differential check of the whole queue against a (t, seq) reference model.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/simulation.hpp"

namespace loki::sim {
namespace {

TEST(Simulation, ProcessesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&]() { order.push_back(3); });
  sim.schedule_at(1.0, [&]() { order.push_back(1); });
  sim.schedule_at(2.0, [&]() { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(Simulation, TiesBreakInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i]() { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, NowAdvancesToEventTime) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(7.5, [&]() { seen = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&]() {
    sim.schedule_after(1.5, [&]() { seen = sim.now(); });
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST(Simulation, RunUntilStopsAndSetsNow) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&]() { ++fired; });
  sim.schedule_at(5.0, [&]() { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  int fired = 0;
  auto id = sim.schedule_at(1.0, [&]() { ++fired; });
  sim.schedule_at(2.0, [&]() { ++fired; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  int fired = 0;
  auto id = sim.schedule_at(1.0, [&]() { ++fired; });
  sim.run_all();
  EXPECT_NO_THROW(sim.cancel(id));
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CancelInvalidIdIsNoop) {
  Simulation sim;
  EXPECT_NO_THROW(sim.cancel(Simulation::EventId{}));
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule_at(5.0, []() {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(1.0, []() {}), loki::CheckFailure);
}

TEST(Simulation, EventsCanScheduleEarlierThanPending) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(10.0, [&]() { order.push_back(10); });
  sim.schedule_at(1.0, [&]() {
    order.push_back(1);
    sim.schedule_at(2.0, [&]() { order.push_back(2); });
  });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10}));
}

TEST(Simulation, PendingCount) {
  Simulation sim;
  auto a = sim.schedule_at(1.0, []() {});
  sim.schedule_at(2.0, []() {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(0.0, []() {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunUntilDoesNotFirePastEndOverCancelledHead) {
  // Regression: a cancelled entry at the queue head with t <= t_end must not
  // make run_until execute the *next* event when that event lies past t_end.
  Simulation sim;
  int fired_at_5 = 0;
  auto id = sim.schedule_at(1.0, []() {});
  sim.schedule_at(5.0, [&]() { ++fired_at_5; });
  sim.cancel(id);
  sim.run_until(3.0);
  EXPECT_EQ(fired_at_5, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(6.0);
  EXPECT_EQ(fired_at_5, 1);
}

TEST(Simulation, RunUntilPurgesCancelledHeads) {
  // Cancelled entries at or before t_end are dropped from the heap by
  // run_until even when no live event fires.
  Simulation sim;
  std::vector<Simulation::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.schedule_at(1.0 + i, []() {}));
  }
  for (const auto& id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_until(20.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.processed(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

TEST(Simulation, MassCancellationDoesNotAccumulateTombstones) {
  // A rearmed-timeout workload: schedule far-future events and cancel them
  // immediately. The heap must compact instead of growing without bound,
  // and live events must keep firing in order.
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1e6, [&]() { ++fired; });
  for (int i = 0; i < 10000; ++i) {
    auto id = sim.schedule_at(1e5 + i, []() {});
    sim.cancel(id);
    EXPECT_EQ(sim.pending(), 1u);
  }
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.processed(), 1u);
}

TEST(Simulation, RescheduleMovesEventWithoutCallbackChurn) {
  Simulation sim;
  std::vector<double> fired;
  const auto id = sim.schedule_at(1.0, [&]() { fired.push_back(sim.now()); });
  EXPECT_TRUE(sim.reschedule(id, 5.0));  // push the timer out
  sim.schedule_at(2.0, [&]() { fired.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 2.0);
  EXPECT_DOUBLE_EQ(fired[1], 5.0);  // fired at the new time, once
}

TEST(Simulation, RescheduleTiesAfterEventsAlreadyAtTargetTime) {
  // A rescheduled event is ordered as if freshly scheduled: it gets a new
  // sequence number, so it ties *after* events already sitting at `t`.
  Simulation sim;
  std::vector<int> order;
  const auto id = sim.schedule_at(1.0, [&]() { order.push_back(0); });
  sim.schedule_at(3.0, [&]() { order.push_back(1); });
  sim.reschedule(id, 3.0);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Simulation, RescheduleAfterFireOrCancelReturnsFalse) {
  Simulation sim;
  int fired = 0;
  const auto a = sim.schedule_at(1.0, [&]() { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.reschedule(a, 2.0));  // already fired
  sim.run_all();
  EXPECT_EQ(fired, 1);  // nothing re-armed

  const auto b = sim.schedule_at(3.0, [&]() { ++fired; });
  sim.cancel(b);
  EXPECT_FALSE(sim.reschedule(b, 4.0));  // already cancelled
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, RearmedTimerWorkloadStaysExact) {
  // The pattern reschedule() exists for: a timeout pushed out on every
  // "request" so it only fires when requests stop coming.
  Simulation sim;
  int timeouts = 0;
  const auto timer = sim.schedule_at(0.5, [&]() { ++timeouts; });
  for (int i = 1; i <= 100; ++i) {
    const double t = 0.01 * i;
    sim.schedule_at(t, [&sim, timer, t]() {
      EXPECT_TRUE(sim.reschedule(timer, t + 0.5));
    });
  }
  sim.run_all();
  EXPECT_EQ(timeouts, 1);
  EXPECT_NEAR(sim.now(), 1.5, 1e-9);  // last re-arm at t=1.0 fires at 1.5
}

TEST(Simulation, HeavySelfSchedulingIsStable) {
  // A self-rescheduling periodic event plus churn: counts must be exact.
  Simulation sim;
  int ticks = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    if (ticks < 1000) sim.schedule_after(0.001, tick);
  };
  sim.schedule_at(0.0, tick);
  sim.run_all();
  EXPECT_EQ(ticks, 1000);
  EXPECT_NEAR(sim.now(), 0.999, 1e-9);
}

// ---------------------------------------------------------------------------
// FIFO forward lane (post_after)
// ---------------------------------------------------------------------------

TEST(SimulationLane, PostAndScheduleAtSameTimeFireInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&]() { order.push_back(0); });
  sim.post_after(1.0, [&]() { order.push_back(1); });
  sim.schedule_at(1.0, [&]() { order.push_back(2); });
  sim.post_after(1.0, [&]() { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulationLane, ShorterDelayAfterLongerStillFiresInTimeSeqOrder) {
  // The 0.2 s posts land before the lane's 0.5 s tail, so they take the
  // heap; the later 0.5 s post still joins the lane behind the first one.
  Simulation sim;
  std::vector<std::pair<int, double>> fired;
  auto rec = [&](int tag) {
    return [&fired, &sim, tag]() { fired.emplace_back(tag, sim.now()); };
  };
  sim.post_after(0.5, rec(0));
  sim.post_after(0.2, rec(1));
  sim.post_after(0.5, rec(2));
  sim.post_after(0.2, rec(3));
  sim.run_all();
  const std::vector<std::pair<int, double>> want = {
      {1, 0.2}, {3, 0.2}, {0, 0.5}, {2, 0.5}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(sim.processed(), 4u);
}

TEST(SimulationLane, PendingCountsLaneEvents) {
  Simulation sim;
  sim.post_after(1.0, []() {});
  sim.post_after(2.0, []() {});
  sim.post_after(0.5, []() {});  // heap fallback
  sim.schedule_at(3.0, []() {});
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending(), 3u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulationLane, RunUntilFiresLaneEventAtExactlyEndAndNoneAfter) {
  Simulation sim;
  int at_1 = 0, at_2 = 0;
  sim.post_after(1.0, [&]() { ++at_1; });
  sim.post_after(2.0, [&]() { ++at_2; });
  sim.run_until(1.0);
  EXPECT_EQ(at_1, 1);
  EXPECT_EQ(at_2, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  sim.run_until(1.5);
  EXPECT_EQ(at_2, 0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(2.0);
  EXPECT_EQ(at_2, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulationLane, StepAndRunAllDrainTheLane) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 3; ++i) sim.post_after(0.002, [&]() { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 3);
  for (int i = 0; i < 100; ++i) sim.post_after(0.002 * i, [&]() { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 103);
  EXPECT_EQ(sim.processed(), 103u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulationLane, InterleavesWithLazilyRescheduledHeapTimer) {
  // The timer's heap entry keeps its stale 1.0 key after the push-out; it
  // surfaces ahead of the lane, is re-keyed to (3.0, seq of the
  // reschedule), and then ties before the lane event posted after it.
  Simulation sim;
  std::vector<std::pair<int, double>> fired;
  auto rec = [&](int tag) {
    return [&fired, &sim, tag]() { fired.emplace_back(tag, sim.now()); };
  };
  const auto timer = sim.schedule_at(1.0, rec(0));
  sim.post_after(2.0, rec(1));
  EXPECT_TRUE(sim.reschedule(timer, 3.0));
  sim.post_after(3.0, rec(2));
  sim.run_until(2.5);
  EXPECT_EQ(fired.size(), 1u);
  sim.run_all();
  const std::vector<std::pair<int, double>> want = {
      {1, 2.0}, {0, 3.0}, {2, 3.0}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(SimulationLane, LaneCallbackCanPostMoreLaneEventsWithoutInvalidatingItself) {
  // The firing callback posts enough events to grow both the event slab and
  // the lane ring; its own captures must stay intact (fire-in-place).
  Simulation sim;
  std::vector<int> order;
  bool capture_intact = false;
  sim.post_after(0.0, [&sim, &order, &capture_intact,
                       marker = std::uint64_t{0x5eed5eed}]() {
    for (int k = 0; k < 1000; ++k) {
      sim.post_after(0.001, [&order, k]() { order.push_back(k); });
    }
    capture_intact = marker == 0x5eed5eed;
  });
  sim.run_all();
  EXPECT_TRUE(capture_intact);
  ASSERT_EQ(order.size(), 1000u);
  for (int k = 0; k < 1000; ++k) {
    ASSERT_EQ(order[static_cast<std::size_t>(k)], k);
  }
}

// ---------------------------------------------------------------------------
// Randomized differential test against a (t, seq) reference model
// ---------------------------------------------------------------------------

// Drives a random mix of schedule_at / schedule_after / post_after / cancel /
// reschedule, at top level and from inside firing callbacks, and checks
// every firing against a std::set of (t, seq) keys that mirrors the
// simulation's sequence counter: each call that schedules or moves an event
// draws the next seq, so the set's first key names the event that must fire
// next. Times sit on a coarse grid so ties between the lane and the heap
// are frequent.
class DifferentialModelCheck {
 public:
  explicit DifferentialModelCheck(std::uint64_t seed) : rng_(seed) {}

  void run() {
    for (int round = 0; round < 3000; ++round) {
      const int ops = draw(4);
      for (int i = 0; i < ops; ++i) random_op();
      if (draw(2) == 0) {
        const bool had = !ref_.empty();
        EXPECT_EQ(sim_.step(), had);
      } else {
        const Time t_end = sim_.now() + grid();
        sim_.run_until(t_end);
        EXPECT_EQ(sim_.now(), t_end);
        if (!ref_.empty()) {
          EXPECT_GT(std::get<0>(*ref_.begin()), t_end);
        }
      }
      EXPECT_EQ(sim_.pending(), ref_.size());
      EXPECT_EQ(sim_.processed(), fired_);
    }
    sim_.run_all();
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(sim_.pending(), 0u);
    EXPECT_EQ(sim_.processed(), fired_);
    EXPECT_EQ(out_of_order_, 0u);
    EXPECT_GT(fired_, 5000u);
  }

 private:
  using Key = std::tuple<Time, std::uint64_t, int>;  // (t, seq, tag)
  struct Live {
    Key key;
    Simulation::EventId id;  // invalid for post_after events
  };

  int draw(int n) { return static_cast<int>(rng_() % static_cast<unsigned>(n)); }
  double grid() { return 0.001 * draw(8); }

  void random_op() {
    switch (draw(8)) {
      case 0:
        add(sim_.now() + grid(), /*post=*/false, /*relative=*/false);
        break;
      case 1:
        add(grid(), /*post=*/false, /*relative=*/true);
        break;
      case 2:
      case 3:
      case 4:
        // Mostly the constant forward delay, sometimes a shorter or longer
        // one that must fall back to the heap.
        add(draw(3) == 0 ? grid() : 0.002, /*post=*/true, /*relative=*/true);
        break;
      case 5:
        if (Live* e = pick_handle()) {
          sim_.cancel(e->id);
          ref_.erase(e->key);
          handles_.erase(std::get<2>(e->key));
        }
        break;
      default:
        if (Live* e = pick_handle()) {
          const Time t = sim_.now() + grid();
          EXPECT_TRUE(sim_.reschedule(e->id, t));
          ref_.erase(e->key);
          e->key = Key{t, seq_++, std::get<2>(e->key)};
          ref_.insert(e->key);
        }
        break;
    }
  }

  void add(double when, bool post, bool relative) {
    const int tag = next_tag_++;
    const Time t = relative ? sim_.now() + when : when;
    const Key key{t, seq_++, tag};
    ref_.insert(key);
    auto cb = [this, tag]() { on_fire(tag); };
    if (post) {
      sim_.post_after(when, cb);
      return;
    }
    const auto id = relative ? sim_.schedule_after(when, cb)
                             : sim_.schedule_at(when, cb);
    handles_[tag] = Live{key, id};
  }

  Live* pick_handle() {
    if (handles_.empty()) return nullptr;
    auto it = handles_.begin();
    std::advance(it, draw(static_cast<int>(handles_.size())));
    return &it->second;
  }

  void on_fire(int tag) {
    ++fired_;
    if (ref_.empty() || std::get<2>(*ref_.begin()) != tag ||
        std::get<0>(*ref_.begin()) != sim_.now()) {
      ++out_of_order_;
    }
    // Drop the firing event's own key so the model stays in step after a
    // mismatch; its handle (if any) is stale from here on.
    for (auto it = ref_.begin(); it != ref_.end(); ++it) {
      if (std::get<2>(*it) == tag) {
        ref_.erase(it);
        break;
      }
    }
    handles_.erase(tag);
    if (fired_ < 20000) {
      const int nested = draw(3);
      for (int i = 0; i < nested; ++i) random_op();
    }
  }

  std::mt19937_64 rng_;
  Simulation sim_;
  std::set<Key> ref_;
  std::map<int, Live> handles_;  // cancellable (heap-scheduled) events
  std::uint64_t seq_ = 1;        // mirrors the simulation's sequence counter
  int next_tag_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t out_of_order_ = 0;
};

TEST(SimulationLane, RandomizedDifferentialAgainstReferenceModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 17u, 7919u}) {
    SCOPED_TRACE(seed);
    DifferentialModelCheck(seed).run();
  }
}

}  // namespace
}  // namespace loki::sim
