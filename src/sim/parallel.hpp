// Opt-in parallel simulation mode: K independent Simulation shards advanced
// in lockstep over conservative synchronization windows.
//
// Model: the caller partitions its workload into shards that do not interact
// within a window (in this codebase: independent replica clusters serving
// partitioned arrival streams — the paper's workloads are embarrassingly
// parallel across replica groups once the allocator has fixed a plan).
// run_until() advances every shard to the next window boundary on a
// persistent shard team, applies cross-shard posts at the barrier, and
// repeats. A post must target a time at or beyond the *next* barrier
// (conservative lookahead), which is what makes the per-window execution
// race-free without any locking inside the shards.
//
// Shard team: `threads - 1` long-lived worker threads plus the calling
// thread (thread 0). Shard i always runs on thread i mod threads, so a
// shard's event heap, slabs and queues stay on one core and its memory on
// one allocator arena. A window starts by bumping one atomic generation and
// ends when a completion count reaches zero; waiters spin briefly and then
// park on a condition variable whose predicate is that generation or count,
// so a long barrier (a re-plan) burns no core and no wakeup is lost.
//
// Determinism: each shard is a full sequential Simulation, so per-shard runs
// are bit-reproducible. Cross-shard posts go into per-source buffers (each
// written only by the thread driving that shard) and are merged at the
// barrier in (time, destination, source, issue-order) order — independent of
// thread scheduling and of the shard-to-thread assignment. Sequential mode
// (one shard) stays the bit-reproducible reference; the differential suite
// (sim_parallel_test) checks K-shard runs against it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulation.hpp"

namespace loki::sim {

class ParallelSimulation {
 public:
  struct Config {
    /// Number of event shards (>= 1). One shard degenerates to a plain
    /// sequential Simulation behind the same interface.
    std::size_t shards = 2;
    /// Barrier spacing in simulated seconds. Cross-shard posts must target
    /// times at or beyond the next barrier (conservative lookahead).
    double window_s = 0.25;
    /// Threads simulating shards, the calling thread included; 0 =
    /// min(shards, hardware concurrency). Capped at the shard count (a
    /// thread with no shard has nothing to run). 1 runs every shard on the
    /// calling thread and starts no thread.
    std::size_t threads = 0;
  };

  explicit ParallelSimulation(Config cfg);
  /// Wakes and joins the team's worker threads.
  ~ParallelSimulation();

  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  Simulation& shard(std::size_t i) { return *shards_[i]; }
  Time now() const { return now_; }

  /// Advances all shards to t_end in lockstep windows. If shard callbacks
  /// throw during a window, every other shard still finishes that window;
  /// then the lowest-index shard's exception is rethrown on the caller.
  void run_until(Time t_end);

  /// Schedules `cb` on shard `dst` at time `t`, issued by shard `src`'s
  /// callbacks while a window runs (also usable between windows with any
  /// src). `t` must be at or beyond the current window's end barrier
  /// (LOKI_CHECK enforced), so the destination shard cannot have run past
  /// it. Applied at the next barrier in deterministic order.
  void post(std::size_t src, std::size_t dst, Time t,
            Simulation::Callback cb);

  /// Barrier hook: called on the driving thread after every window barrier
  /// (post-merge), with the barrier time. All shards are quiescent at that
  /// point, so the callback may inspect and mutate any shard directly —
  /// this is how a cross-shard coordinator (e.g. the intra-cluster-sharded
  /// serving driver) runs shared planning at deterministic points. Work it
  /// schedules into shards lands at or after the barrier time.
  using BarrierFn = std::function<void(Time)>;
  void set_barrier_callback(BarrierFn fn) { barrier_cb_ = std::move(fn); }

 private:
  void apply_posts();
  /// Runs every shard to window_end_ on the whole team and returns once all
  /// of them are done; rethrows the lowest-index shard's exception.
  void run_window();
  /// Runs the shards thread `t` owns (i = t, t + threads, ...) to
  /// window_end_, recording each shard's exception instead of unwinding.
  void run_owned(std::size_t t);
  void worker_loop(std::size_t t);
  void stop_team();

  struct Post {
    std::size_t dst = 0;
    Time t = 0.0;
    Simulation::Callback cb;
  };

  Config cfg_;
  std::size_t threads_ = 1;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<std::vector<Post>> posts_;   // indexed by source shard
  std::vector<std::exception_ptr> errors_;  // indexed by shard, this window
  BarrierFn barrier_cb_;
  Time now_ = 0.0;
  Time window_end_ = 0.0;

  // Window handoff. The caller bumps generation_ under mutex_ to start a
  // window (or, with stop_ set, to end the team); each worker decrements
  // pending_ once its shards are done.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> pending_{0};
  bool stop_ = false;
  std::mutex mutex_;
  std::condition_variable start_cv_;  // workers park here between windows
  std::condition_variable done_cv_;   // the caller parks here in a window
  // Declared last: started after, and joined before, the state it uses.
  std::vector<std::thread> workers_;
};

}  // namespace loki::sim
