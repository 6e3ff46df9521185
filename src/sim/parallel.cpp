#include "sim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"

namespace loki::sim {

namespace {

std::size_t team_threads(const ParallelSimulation::Config& cfg) {
  const std::size_t shards = std::max<std::size_t>(1, cfg.shards);
  if (cfg.threads > 0) return std::min(cfg.threads, shards);
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(shards, hw);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// How long a waiter spins before it parks. Longer than the usual barrier
// (post merge plus the next window's arrival deal) and the usual shard
// imbalance, so a window handoff rarely pays a futex wake; far shorter
// than a re-plan, which parks. On the 4-shard, 2-thread steady-coord
// workload, workers parked in ~1/3 of windows at 100 us and ~2% at 500 us.
constexpr auto kSpinFor = std::chrono::microseconds(500);

/// Spins until done() holds or kSpinFor passes; true when done() held.
template <typename Done>
bool spin_until(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinFor;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (done()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return done();
  }
}

}  // namespace

ParallelSimulation::ParallelSimulation(Config cfg)
    : cfg_(cfg), threads_(team_threads(cfg)) {
  LOKI_CHECK_MSG(cfg_.shards >= 1, "parallel sim needs at least one shard");
  LOKI_CHECK_MSG(cfg_.window_s > 0.0, "window_s must be positive");
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<Simulation>());
  }
  posts_.resize(cfg_.shards);
  errors_.resize(cfg_.shards);
  workers_.reserve(threads_ - 1);
  try {
    for (std::size_t t = 1; t < threads_; ++t) {
      workers_.emplace_back([this, t]() { worker_loop(t); });
    }
  } catch (...) {
    stop_team();
    throw;
  }
}

ParallelSimulation::~ParallelSimulation() { stop_team(); }

void ParallelSimulation::stop_team() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ParallelSimulation::worker_loop(std::size_t t) {
  std::uint64_t seen = 0;  // the generation before the first window
  for (;;) {
    const auto started = [&]() {
      return generation_.load(std::memory_order_acquire) != seen;
    };
    if (!spin_until(started)) {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, started);
    }
    seen = generation_.load(std::memory_order_acquire);
    if (stop_) return;
    run_owned(t);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // The empty critical section orders the decrement against a parked
      // caller's predicate check, so this notify cannot be lost.
      { std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_one();
    }
  }
}

void ParallelSimulation::run_owned(std::size_t t) {
  for (std::size_t i = t; i < shards_.size(); i += threads_) {
    try {
      shards_[i]->run_until(window_end_);
    } catch (...) {
      errors_[i] = std::current_exception();
    }
  }
}

void ParallelSimulation::run_window() {
  if (threads_ > 1) {
    pending_.store(threads_ - 1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      generation_.fetch_add(1, std::memory_order_release);
    }
    start_cv_.notify_all();
  }
  run_owned(0);
  if (threads_ > 1) {
    // Never leave (or unwind) while a worker is still inside a shard: the
    // shard owners' systems may be destroyed right after.
    const auto done = [this]() {
      return pending_.load(std::memory_order_acquire) == 0;
    };
    if (!spin_until(done)) {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, done);
    }
  }
  std::exception_ptr first;
  for (auto& e : errors_) {
    if (e && !first) first = e;
    e = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void ParallelSimulation::run_until(Time t_end) {
  LOKI_CHECK(t_end >= now_);
  while (now_ < t_end) {
    const Time w_end = std::min(t_end, now_ + cfg_.window_s);
    window_end_ = w_end;
    run_window();
    now_ = w_end;
    apply_posts();
    if (barrier_cb_) barrier_cb_(w_end);
  }
}

void ParallelSimulation::post(std::size_t src, std::size_t dst, Time t,
                              Simulation::Callback cb) {
  LOKI_CHECK(src < posts_.size() && dst < shards_.size());
  // Conservative lookahead: the destination shard may already have advanced
  // to the end of the current window, so earlier targets would violate the
  // no-events-in-the-past invariant (and determinism).
  LOKI_CHECK_MSG(t >= window_end_,
                 "cross-shard post at t=" << t << " before window barrier "
                                          << window_end_);
  posts_[src].push_back(Post{dst, t, std::move(cb)});
}

void ParallelSimulation::apply_posts() {
  // Merge per-source buffers in (t, dst, src, issue-order) order. Each
  // buffer is written by a single thread, and this order is independent of
  // how the OS scheduled those threads, so replays are bit-identical.
  struct Ref {
    Time t;
    std::size_t dst;
    std::size_t src;
    std::size_t idx;
  };
  std::vector<Ref> order;
  for (std::size_t src = 0; src < posts_.size(); ++src) {
    for (std::size_t i = 0; i < posts_[src].size(); ++i) {
      order.push_back(Ref{posts_[src][i].t, posts_[src][i].dst, src, i});
    }
  }
  if (order.empty()) return;
  std::stable_sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.src != b.src) return a.src < b.src;
    return a.idx < b.idx;
  });
  for (const Ref& r : order) {
    Post& p = posts_[r.src][r.idx];
    shards_[p.dst]->schedule_at(p.t, std::move(p.cb));
  }
  for (auto& buf : posts_) buf.clear();
}

}  // namespace loki::sim
