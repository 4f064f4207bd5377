// The discrete-event simulation core.
//
// Every component of the simulated node (the kernel tick, task completions,
// daemon wakeups, MPI message deliveries) is an event scheduled on this
// engine.  Events at equal timestamps are delivered in scheduling order
// (FIFO), which together with the deterministic RNG makes whole runs
// bit-for-bit reproducible.
//
// The queue is an indexed binary heap over a pooled slot array: schedule,
// dispatch, cancel and reschedule are all O(log n) with no per-event map
// nodes, and cancel removes the entry in place — cancellation-heavy workloads
// (timer re-arming, preemption churn) cannot grow the heap with tombstones.
// Each heap entry carries its event's whole (time, sequence) key next to the
// slot index, so a sift compares entries without touching the slots, and it
// moves a hole: each level writes one entry and that entry's slot position.
// Since (time, sequence) is a strict total order, the dispatch sequence is a
// function of the keys alone, never of the heap's layout.  Slot records
// (including their callback storage) are recycled through a free list, so
// steady-state scheduling performs no allocation beyond what the callbacks
// themselves capture.  A periodic timer re-arms its own slot with
// reschedule() and allocates nothing at all.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace hpcs::sim {

/// Identifies a scheduled event so it can be cancelled (e.g. a task's
/// work-completion event becomes stale when the task is preempted).
/// Encodes (slot index, generation); a stale id — already fired or
/// cancelled — can never alias a later event in the same slot.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Sentinel returned by Engine::next_event_time() when the queue is empty;
/// compares greater than every real timestamp, so schedulers can take the
/// minimum across engines without special-casing drained ones.
inline constexpr SimTime kNoEvent = ~SimTime{0};

/// A bounded number of zero-delay events per instant is normal scheduler
/// churn; millions means two components are re-arming each other and the
/// simulation would never advance (see Engine::set_same_instant_limit).
inline constexpr std::uint64_t kDefaultSameInstantLimit = 5'000'000;

/// Always-on, O(1)-maintained engine counters.  Cheap enough for production
/// sweeps; surfaced through perf::render_schedstat.
struct EngineStats {
  std::uint64_t scheduled = 0;    // schedule_at/after calls accepted
  std::uint64_t dispatched = 0;   // callbacks actually run
  std::uint64_t cancelled = 0;    // successful cancel() calls
  std::uint64_t rescheduled = 0;  // successful reschedule() calls
  /// Most events ever simultaneously pending: bounds the heap's memory and
  /// proves cancellations do not accumulate (no tombstone growth).
  std::size_t heap_high_water = 0;
};

class Engine {
 public:
  using Callback = std::function<void()>;

  /// Schedule `fn` to run at absolute time `when` (>= now()).
  EventId schedule_at(SimTime when, Callback fn);

  /// Schedule `fn` to run `delay` after now().
  EventId schedule_after(SimDuration delay, Callback fn);

  /// Cancel a pending event in place.  Returns false when the event already
  /// fired or was cancelled before (both are normal in scheduler churn).
  bool cancel(EventId id);

  /// Move a pending event to absolute time `when` (>= now()) in place, under
  /// a fresh sequence number: it then orders exactly as cancel(id) followed
  /// by schedule_at(when, <same callback>) would, but keeps its slot,
  /// callback and id.  A callback may re-arm its own event this way (see
  /// run()).  Returns false for a fired, cancelled or stale id; throws
  /// std::logic_error when `when` is in the past.
  bool reschedule(EventId id, SimTime when);

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Number of events still pending (cancelled events are removed eagerly).
  /// Inside a callback this counts the dispatching event (see run()).
  std::size_t pending() const { return heap_.size(); }

  /// Timestamp of the earliest pending event, or kNoEvent when the queue is
  /// empty.  The sharded driver uses this to derive each conservative
  /// execution window.  Inside a callback that has not moved its own event
  /// this reads now().
  SimTime next_event_time() const {
    return heap_.empty() ? kNoEvent : heap_[0].when;
  }

  /// Pending events with time <= `limit`, counted up to `cap`: returns
  /// min(cap, that count) after a walk of the heap's due prefix that
  /// visits O(cap) entries.  Inside a callback the dispatching event counts
  /// like pending() does.  The sharded driver uses this to tell thin
  /// windows from wide ones.
  std::size_t count_due(SimTime limit, std::size_t cap) const;

  /// Run until the event queue drains or `stop()` is called.
  /// Returns the number of events dispatched.
  ///
  /// Dispatch happens in place: an event stays queued, at now(), until its
  /// callback returns, and is dropped then unless the callback moved it with
  /// reschedule() (which keeps it) or cancelled it (which already freed the
  /// slot — the old callback is then never put back, even when a new event
  /// has taken over the slot meanwhile).
  std::uint64_t run();

  /// Run events with time <= `limit`; afterwards now() == limit unless a
  /// callback called stop(), in which case the clock stays at the stop point
  /// so a resumed run does not skip simulated time.  Events exactly at
  /// `limit` are dispatched.
  std::uint64_t run_until(SimTime limit);

  /// Request that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Install (or clear, with nullptr) a hook that runs after every dispatched
  /// event.  Used by the kernel invariant checker to audit scheduler state at
  /// event boundaries — the only instants where no operation is mid-flight.
  /// Single slot: the last installer wins; the hook must outlive any run.
  void set_post_dispatch(Callback fn) { post_dispatch_ = std::move(fn); }

  /// Total events dispatched over the engine's lifetime.
  std::uint64_t dispatched() const { return stats_.dispatched; }

  /// Consecutive events dispatched at the current instant by the current
  /// run (the livelock guard's counter).  Reset whenever the clock advances
  /// and at the start of every run()/run_until(): a driver that regained
  /// control and resumed is by definition not livelocked, so a resumed run
  /// whose first event lands exactly on a previous run_until() limit starts
  /// from a fresh count instead of inheriting a stale burst.
  std::uint64_t same_instant_burst() const { return same_instant_; }

  /// Override the same-instant livelock threshold (default five million).
  /// Clamped to >= 1.  Exposed so tests can exercise the guard without
  /// dispatching millions of events.
  void set_same_instant_limit(std::uint64_t limit) {
    same_instant_limit_ = limit == 0 ? 1 : limit;
  }

  const EngineStats& stats() const { return stats_; }

  /// Events dispatched per simulated second (0 before time advances).
  double dispatch_rate() const;

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  /// One pooled event record.  `heap_pos` doubles as the liveness flag:
  /// kNpos means the slot is free (on the free list).
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;  // bumped on release; part of the EventId
    std::uint32_t heap_pos = kNpos;
    std::uint32_t next_free = kNpos;
  };

  /// One heap entry: a pending event's ordering key and its slot.
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // tie-break: dispatch in scheduling order
    std::uint32_t slot;

    bool operator<(const Entry& o) const {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  /// The slot `id` names while its event is pending, else nullptr.
  Slot* pending_slot(EventId id);

  /// Store `e` at `pos` and point its slot there.
  void place(std::size_t pos, const Entry& e);
  /// Fill the hole at `pos` with `e`: sift_up moves the hole toward the root
  /// past every parent that orders after `e`, sift_down toward the leaves
  /// past every smaller child that orders before it.
  void sift_up(std::size_t pos, Entry e);
  void sift_down(std::size_t pos, Entry e);
  /// count_due's walk of the subtree at `pos`; recursion depth is the heap
  /// height.
  void count_due_from(std::size_t pos, SimTime limit, std::size_t cap,
                      std::size_t& count) const;
  /// Detach the heap entry at `pos` (any position) without dispatching.
  void heap_remove(std::size_t pos);
  void release_slot(std::uint32_t idx);

  /// Advance the clock to `when`, enforcing the same-instant livelock guard
  /// (shared by run() and run_until()).
  void advance_clock(SimTime when);

  /// Run the top entry's callback in place, then drop the entry unless the
  /// callback re-armed or cancelled it (shared by run() and run_until()).
  void dispatch_top();

  SimTime now_ = 0;
  Callback post_dispatch_;
  std::uint64_t next_seq_ = 1;
  bool stopped_ = false;
  std::uint64_t same_instant_ = 0;
  std::uint64_t same_instant_limit_ = kDefaultSameInstantLimit;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNpos;
  std::vector<Entry> heap_;  // min-heap on (when, seq)
  EngineStats stats_;
};

}  // namespace hpcs::sim
