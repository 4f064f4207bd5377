// Conservative parallel discrete-event execution across shards.
//
// One serial Engine simulating a whole 10k-node cluster is the scalability
// wall the ROADMAP calls out: sweep-level parallelism (PR 4) cannot help a
// single large scenario.  ShardedEngine partitions such a scenario into S
// shards — each with its own Engine, event queue, and clock — and runs them
// in parallel under the classic conservative-synchronization contract
// (Chandy/Misra/Bryant, barrier-window style):
//
//   every cross-shard interaction takes at least `lookahead` of simulated
//   time to propagate (for cluster scenarios: the fabric's minimum
//   cross-leaf link latency, see net::FabricConfig::min_cross_block_latency).
//
// Execution proceeds in rounds.  Each round computes the global minimum
// pending event time m and lets every shard run independently up to the
// window limit L = m + lookahead - 1: no message generated during the round
// can arrive at or before L (send time >= m, delay >= lookahead), so no
// shard can receive an event in its past.  At the round barrier, the
// per-shard outboxes are drained in shard order, each in send order, into
// their destination engines, and then an optional post-exchange hook runs.
// A destination orders by time and then by scheduling order, so its
// equal-time arrivals run in (exchange round, source shard, send order),
// with the hook's events last in their round — one deterministic total
// order, independent of thread count and thread timing.  Rounds repeat
// until every queue drains.
//
// Thin windows never reach the workers.  The barrier's completion step is
// single-threaded, and after planning a window it checks how much work the
// window holds: when at most one shard has events in it, or fewer than a
// fixed 32 events are due across all shards, the completing thread runs
// those shards itself, exchanges and plans again, and releases the barrier
// only for a wide window; run() does the same on the calling thread before
// it starts any worker.  A hand-off costs microseconds of CPU per worker,
// more than a handful of events, and a shard's window runs the same events
// in the same order on any thread, so only the executing thread changes.
//
// Determinism contract: shard-local execution is the serial Engine's
// (when, seq) order, and the exchange order above is a pure function of the
// simulation, so a ShardedEngine run is bit-for-bit reproducible at any
// thread count.  Equivalence with a *serial* one-engine run additionally
// requires the scenario to make same-instant updates commutative (state
// mutations at an instant must not depend on arrival order), because serial
// and sharded runs interleave same-instant events differently.  The
// batch::run_scale_* cluster scenario is built on exactly that discipline
// and is golden-pinned serial-vs-sharded; see DESIGN.md §9.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "util/time.h"

namespace hpcs::sim {

/// Aggregate accounting across one or more run() calls.
struct ShardedStats {
  std::uint64_t rounds = 0;         // conservative windows executed
  std::uint64_t inline_rounds = 0;  // of those, run without the workers
  std::uint64_t messages = 0;       // cross-shard events exchanged
  std::uint64_t dispatched = 0;     // events dispatched across all shards
  /// Most cross-shard messages exchanged at one barrier.
  std::size_t exchange_high_water = 0;
};

class ShardedEngine {
 public:
  /// `lookahead` is the minimum cross-shard propagation delay in simulated
  /// nanoseconds (>= 1; larger lookahead = wider windows = fewer barriers).
  ShardedEngine(int shards, SimDuration lookahead);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  SimDuration lookahead() const { return lookahead_; }

  /// Shard-local engine: schedule seed events here before run(), and
  /// shard-local (same-shard) events from inside callbacks.  During run(),
  /// shard(s) may only be touched from callbacks executing on shard s.
  Engine& shard(int s);
  const Engine& shard(int s) const;

  /// Cross-shard event: run `fn` on shard `dst` at absolute time `when`.
  /// Must be called either before run() or from a callback currently
  /// executing on shard `src`.  Enforces the conservative constraint
  /// when >= shard(src).now() + lookahead for src != dst (same-shard sends
  /// degrade to a local schedule_at).  Delivery order for equal `when` is
  /// (exchange round, source shard, send order): a send exchanged at a
  /// later barrier runs after every earlier barrier's, whatever their
  /// sources, and within one barrier events the post-exchange hook
  /// schedules run last.  Deterministic, never thread-timing dependent.
  /// During run() the conservative window makes that constraint
  /// sufficient; for sends *between* runs, `when` must also be >= the
  /// destination shard's clock, which can sit ahead of a source that idled
  /// through the previous run (delivery throws otherwise).
  void send(int src, int dst, SimTime when, Engine::Callback fn);

  /// Install (or clear, with nullptr) a hook that runs single-threaded
  /// after every exchange (before the first window, after each window,
  /// inline or not, and after the last), once the outboxes are delivered
  /// and before the next window is planned.  It may read every shard and
  /// schedule on any shard(s) at times past the last window's limit; those
  /// events count toward the next plan.  A throwing hook stops the run, and
  /// run() rethrows it.  Single slot: the last installer wins; the hook
  /// must outlive any run.
  void set_post_exchange(Engine::Callback fn) {
    post_exchange_ = std::move(fn);
  }

  /// Run all shards conservatively until every queue drains or stop was
  /// requested.  `threads` caps worker parallelism (0 = hardware
  /// concurrency, clamped to the shard count).  Returns events dispatched
  /// by this call.  Not reentrant.  Rethrows the first callback exception
  /// after all workers quiesce (engine state is then indeterminate, as with
  /// a throwing serial run).
  std::uint64_t run(int threads = 0);

  /// From inside a callback executing on shard `s`: finish the current
  /// round (other shards complete their window — the conservative window is
  /// the stop granularity) and make run() return after the barrier.  Shard
  /// `s` itself stops after the current event, keeping its clock at the
  /// stop point exactly like Engine::stop().  A later run() resumes
  /// seamlessly: stop+resume is bit-identical to an uninterrupted run for
  /// scenarios following the same-instant commutativity discipline above.
  void stop(int s);

  /// Request a stop from outside the callbacks (between events); takes
  /// effect at the next round barrier.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  /// True when every shard's queue is empty (the scenario completed).
  bool drained() const;

  const ShardedStats& stats() const { return stats_; }

  /// Internal: the single-threaded barrier step (drain outboxes, deliver in
  /// deterministic order, run the post-exchange hook, plan the next window,
  /// and run thin windows until a wide one needs the workers).  Public only
  /// so the round barrier's noexcept completion hook can reach it; never
  /// call directly.
  void exchange_and_plan();

 private:
  struct PendingSend {
    SimTime when = 0;
    std::uint32_t dst = 0;
    Engine::Callback fn;
  };

  struct Shard {
    Engine engine;
    std::vector<PendingSend> outbox;  // in send order; drained at barriers
  };

  /// Worker loop: one per thread, started once a wide window is planned;
  /// round state is shared with exchange_and_plan() (all accesses separated
  /// by thread start and the barrier's happens-before edges).
  void run_worker(void* barrier);

  /// Deliver every outbox's sends in the deterministic total order.
  void exchange();
  /// True when the planned window is too thin to wake the workers for.
  bool window_is_thin() const;
  /// Run one shard's window (skipped when it has nothing due); a throwing
  /// callback is recorded and stops the run at the next barrier.  Returns
  /// the events dispatched.
  std::uint64_t run_shard(Shard& sh, SimTime limit);
  /// Keep the exception being handled if it is the run's first.
  void record_error();

  SimDuration lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Round state written by exchange_and_plan(), read by workers.
  SimTime window_limit_ = 0;
  bool done_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint32_t> next_shard_{0};
  std::atomic<std::uint64_t> dispatched_this_run_{0};
  std::exception_ptr first_error_;
  std::atomic<bool> has_error_{false};
  Engine::Callback post_exchange_;
  ShardedStats stats_;
};

}  // namespace hpcs::sim
