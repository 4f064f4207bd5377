#include "sim/sharded.h"

#include <algorithm>
#include <barrier>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace hpcs::sim {
namespace {

/// std::barrier requires a noexcept completion; exchange_and_plan() catches
/// everything itself and converts failures into a stopped run.
struct BarrierCompletion {
  ShardedEngine* self;
  void operator()() const noexcept { self->exchange_and_plan(); }
};

using RoundBarrier = std::barrier<BarrierCompletion>;

/// A window with work on two or more shards and at least this many due
/// events is wide: the barrier releases the workers to share it.  Anything
/// thinner runs on the thread that planned it, where it costs less than
/// waking a worker does.
constexpr std::size_t kThinWindowEvents = 32;

}  // namespace

ShardedEngine::ShardedEngine(int shards, SimDuration lookahead)
    : lookahead_(lookahead) {
  if (shards < 1) {
    throw std::invalid_argument("ShardedEngine: need at least one shard");
  }
  if (lookahead < 1) {
    throw std::invalid_argument(
        "ShardedEngine: lookahead must be >= 1ns (a zero-delay cross-shard "
        "channel admits no conservative window)");
  }
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedEngine::~ShardedEngine() = default;

Engine& ShardedEngine::shard(int s) {
  return shards_.at(static_cast<std::size_t>(s))->engine;
}

const Engine& ShardedEngine::shard(int s) const {
  return shards_.at(static_cast<std::size_t>(s))->engine;
}

void ShardedEngine::send(int src, int dst, SimTime when, Engine::Callback fn) {
  Shard& source = *shards_.at(static_cast<std::size_t>(src));
  if (src == dst) {
    // Same-shard "send" is just a local event; no lookahead applies.
    source.engine.schedule_at(when, std::move(fn));
    return;
  }
  Shard& sink = *shards_.at(static_cast<std::size_t>(dst));
  static_cast<void>(sink);  // range check only; touched at the barrier
  if (when < source.engine.now() + lookahead_) {
    throw std::logic_error(
        "ShardedEngine::send: cross-shard event at t=" + std::to_string(when) +
        "ns violates the lookahead (source now=" +
        std::to_string(source.engine.now()) + "ns + lookahead=" +
        std::to_string(lookahead_) + "ns)");
  }
  source.outbox.push_back(
      PendingSend{when, static_cast<std::uint32_t>(dst), std::move(fn)});
}

bool ShardedEngine::drained() const {
  for (const auto& sh : shards_) {
    if (sh->engine.pending() != 0 || !sh->outbox.empty()) return false;
  }
  return true;
}

void ShardedEngine::stop(int s) {
  shards_.at(static_cast<std::size_t>(s))->engine.stop();
  stop_.store(true, std::memory_order_relaxed);
}

void ShardedEngine::exchange() {
  // Deliver outbox by outbox, in shard order and each in send order.  A
  // destination orders by time and then by scheduling order, so its
  // equal-time arrivals run in (source shard, send order): a pure function
  // of the simulation, never of thread timing, which is what makes sharded
  // runs reproducible at any thread count.
  std::size_t batch = 0;
  for (const auto& sh : shards_) {
    for (auto& msg : sh->outbox) {
      shards_[msg.dst]->engine.schedule_at(msg.when, std::move(msg.fn));
    }
    batch += sh->outbox.size();
    sh->outbox.clear();
  }
  stats_.messages += batch;
  stats_.exchange_high_water = std::max(stats_.exchange_high_water, batch);
}

bool ShardedEngine::window_is_thin() const {
  int busy = 0;
  for (const auto& sh : shards_) {
    if (sh->engine.next_event_time() <= window_limit_) ++busy;
  }
  if (busy <= 1) return true;
  std::size_t due = 0;
  for (const auto& sh : shards_) {
    due += sh->engine.count_due(window_limit_, kThinWindowEvents - due);
    if (due >= kThinWindowEvents) return false;
  }
  return true;
}

void ShardedEngine::exchange_and_plan() {
  try {
    for (;;) {
      exchange();
      if (post_exchange_) post_exchange_();
      if (stop_.load(std::memory_order_relaxed) ||
          has_error_.load(std::memory_order_relaxed)) {
        done_ = true;
        return;
      }

      SimTime min_next = kNoEvent;
      for (const auto& sh : shards_) {
        min_next = std::min(min_next, sh->engine.next_event_time());
      }
      if (min_next == kNoEvent) {  // every queue drained: the run is complete
        done_ = true;
        return;
      }
      // Conservative window: any message generated this round departs at
      // t >= min_next and arrives at t + lookahead > limit, so no shard can
      // be handed an event at or before a time it already executed past.
      window_limit_ = min_next > kNoEvent - lookahead_
                          ? kNoEvent
                          : min_next + lookahead_ - 1;
      ++stats_.rounds;
      if (!window_is_thin()) {
        next_shard_.store(0, std::memory_order_relaxed);
        return;  // release the barrier: the workers share a wide window
      }
      // A thin window runs here.  Its shards are independent within the
      // window, so running them one after another on this thread gives the
      // same events, outboxes and clocks as running them on the workers.
      ++stats_.inline_rounds;
      std::uint64_t dispatched = 0;
      for (const auto& sh : shards_) {
        dispatched += run_shard(*sh, window_limit_);
      }
      dispatched_this_run_.fetch_add(dispatched, std::memory_order_relaxed);
    }
  } catch (...) {
    record_error();
    // A failed delivery leaves the outboxes half-moved.
    for (const auto& sh : shards_) sh->outbox.clear();
    done_ = true;
  }
}

void ShardedEngine::record_error() {
  bool expected = false;
  if (has_error_.compare_exchange_strong(expected, true)) {
    first_error_ = std::current_exception();
  }
}

std::uint64_t ShardedEngine::run_shard(Shard& sh, SimTime limit) {
  // A shard with nothing in the window is skipped entirely; its clock lags
  // behind but every future delivery lands ahead of it.
  if (sh.engine.next_event_time() > limit) return 0;
  try {
    return sh.engine.run_until(limit);
  } catch (...) {
    record_error();
    stop_.store(true, std::memory_order_relaxed);
    return 0;
  }
}

void ShardedEngine::run_worker(void* barrier) {
  auto& bar = *static_cast<RoundBarrier*>(barrier);
  std::uint64_t dispatched = 0;
  while (!done_) {  // a wide window is planned
    const SimTime limit = window_limit_;
    for (;;) {
      const std::uint32_t i =
          next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (i >= shards_.size()) break;
      dispatched += run_shard(*shards_[i], limit);
    }
    bar.arrive_and_wait();  // the completion step plans the next wide one
  }
  dispatched_this_run_.fetch_add(dispatched, std::memory_order_relaxed);
}

std::uint64_t ShardedEngine::run(int threads) {
  if (running_.exchange(true)) {
    throw std::logic_error("ShardedEngine::run: not reentrant");
  }
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false); }
  } guard{running_};

  stop_.store(false, std::memory_order_relaxed);
  has_error_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  done_ = false;
  dispatched_this_run_.store(0, std::memory_order_relaxed);

  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  threads = std::min(threads, num_shards());

  // The calling thread delivers the sends made before run() and runs every
  // thin window up to the first wide one.  Workers start only then, so a
  // run with no wide window never leaves this thread, and its allocations
  // reuse the caller's malloc arena.
  exchange_and_plan();
  if (!done_) {
    RoundBarrier bar(threads, BarrierCompletion{this});
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads - 1));
    for (int t = 1; t < threads; ++t) {
      pool.emplace_back([this, &bar] { run_worker(&bar); });
    }
    run_worker(&bar);  // the calling thread is worker 0
    for (auto& th : pool) th.join();
  }

  const std::uint64_t dispatched =
      dispatched_this_run_.load(std::memory_order_relaxed);
  stats_.dispatched += dispatched;
  if (has_error_.load()) std::rethrow_exception(first_error_);
  return dispatched;
}

}  // namespace hpcs::sim
