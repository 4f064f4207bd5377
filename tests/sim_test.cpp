// Unit tests for the discrete-event engine and the trace sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <vector>

#include "sim/engine.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace hpcs::sim {
namespace {

TEST(EngineTest, DispatchesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30u);
}

TEST(EngineTest, TiesDispatchFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, ScheduleAfterUsesNow) {
  Engine engine;
  SimTime seen = 0;
  engine.schedule_at(100, [&] {
    engine.schedule_after(50, [&] { seen = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(seen, 150u);
}

TEST(EngineTest, CancelPreventsDispatch) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // second cancel fails
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, CancelAfterFireReturnsFalse) {
  Engine engine;
  const EventId id = engine.schedule_at(1, [] {});
  engine.run();
  EXPECT_FALSE(engine.cancel(id));
}

TEST(EngineTest, RunUntilStopsAtLimit) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(10, [&] { ++fired; });
  engine.schedule_at(20, [&] { ++fired; });
  engine.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(20), 2u);  // events at the limit are included
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), 20u);
  EXPECT_EQ(engine.run_until(100), 1u);
  EXPECT_EQ(engine.now(), 100u);  // advances to the limit even when drained
}

TEST(EngineTest, PendingCountExcludesCancelled) {
  Engine engine;
  const EventId a = engine.schedule_at(5, [] {});
  engine.schedule_at(6, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  engine.cancel(a);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(EngineTest, StopInterruptsRun) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1, [&] {
    ++fired;
    engine.stop();
  });
  engine.schedule_at(2, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  engine.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, SchedulingInPastThrows) {
  Engine engine;
  engine.schedule_at(10, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(5, [] {}), std::logic_error);
}

TEST(EngineTest, EventsCanScheduleEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) engine.schedule_after(1, chain);
  };
  engine.schedule_at(0, chain);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(engine.now(), 99u);
  EXPECT_EQ(engine.dispatched(), 100u);
}

TEST(EngineTest, ZeroDelayLivelockDetected) {
  Engine engine;
  std::function<void()> spin = [&] { engine.schedule_after(0, spin); };
  engine.schedule_at(0, spin);
  EXPECT_THROW(engine.run_until(1), std::logic_error);
}

TEST(EngineTest, RunDetectsZeroDelayLivelockToo) {
  // run() must share run_until()'s same-instant guard: a zero-delay
  // re-arming cycle used to hang it forever.
  Engine engine;
  std::function<void()> spin = [&] { engine.schedule_after(0, spin); };
  engine.schedule_at(0, spin);
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(EngineTest, SameInstantGuardResetsWhenTimeAdvances) {
  // Bursts of same-instant events separated by real time must never trip
  // the livelock guard, however long the run is.
  Engine engine;
  int bursts = 0;
  std::function<void()> burst = [&] {
    engine.schedule_after(0, [] {});
    engine.schedule_after(0, [] {});
    if (++bursts < 1000) engine.schedule_after(1, burst);
  };
  engine.schedule_at(0, burst);
  EXPECT_NO_THROW(engine.run());
  EXPECT_EQ(engine.now(), 999u);
}

TEST(EngineTest, ResumingAcrossLimitsDoesNotInheritStaleBurst) {
  // Regression: run_until() used to catch the clock up to the limit without
  // resetting the same-instant counter, and no run reset it at entry either.
  // A driver that repeatedly ran an engine to a limit and then scheduled
  // work exactly at that limit (the sharded driver's steady state, once per
  // conservative window) accumulated one phantom same-instant tick per
  // resume — and eventually tripped the livelock guard with no livelock.
  Engine engine;
  engine.set_same_instant_limit(4);
  int fired = 0;
  for (int i = 1; i <= 100; ++i) {
    const SimTime limit = static_cast<SimTime>(i) * 10;
    engine.run_until(limit);  // empty: clock catches up to the limit
    engine.schedule_at(limit, [&fired] { ++fired; });
    // The dispatch lands at when == now(); under the old carry-over this
    // incremented an ever-growing burst count and threw at iteration 5.
    EXPECT_NO_THROW(engine.run_until(limit)) << "iteration " << i;
  }
  EXPECT_EQ(fired, 100);
  // The burst never accumulated across resumes: only the final at-limit
  // dispatch is on the books.
  EXPECT_EQ(engine.same_instant_burst(), 1u);
  engine.run_until(2000);  // the catch-up clock advance resets the burst
  EXPECT_EQ(engine.same_instant_burst(), 0u);
}

TEST(EngineTest, GenuineLivelockStillTripsLoweredGuard) {
  // The entry reset must not weaken the guard within one run: a re-arming
  // cycle still accumulates and throws.
  Engine engine;
  engine.set_same_instant_limit(100);
  std::function<void()> spin = [&] { engine.schedule_after(0, spin); };
  engine.schedule_at(5, spin);
  EXPECT_THROW(engine.run(), std::logic_error);
  EXPECT_GE(engine.same_instant_burst(), 100u);
}

TEST(EngineTest, SameInstantLimitClampsToOne) {
  Engine engine;
  engine.set_same_instant_limit(0);  // clamped to 1
  engine.schedule_at(5, [&] {
    engine.schedule_after(0, [&] { engine.schedule_after(0, [] {}); });
  });
  // Three events at t=5: the third dispatch is the second same-instant tick
  // and exceeds the clamped limit of one.
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(EngineTest, StopInRunUntilKeepsClockAtStopPoint) {
  Engine engine;
  SimTime resumed_at = 0;
  engine.schedule_at(10, [&] { engine.stop(); });
  engine.schedule_at(20, [&] { resumed_at = engine.now(); });
  EXPECT_EQ(engine.run_until(100), 1u);
  // The clock must stay at the stop point rather than jump to the limit —
  // a resumed run would otherwise silently skip simulated time (the event
  // at t=20 would appear to fire "in the past").
  EXPECT_EQ(engine.now(), 10u);
  EXPECT_EQ(engine.run_until(100), 1u);
  EXPECT_EQ(resumed_at, 20u);
  EXPECT_EQ(engine.now(), 100u);
}

TEST(EngineTest, CancelRemovesEntryInPlace) {
  Engine engine;
  const EventId a = engine.schedule_at(10, [] {});
  engine.schedule_at(20, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_TRUE(engine.cancel(a));
  EXPECT_EQ(engine.pending(), 1u);  // removed eagerly, no tombstone
  EXPECT_EQ(engine.stats().cancelled, 1u);
  EXPECT_EQ(engine.run(), 1u);
}

TEST(EngineTest, StaleIdCannotCancelRecycledSlot) {
  Engine engine;
  const EventId a = engine.schedule_at(10, [] {});
  ASSERT_TRUE(engine.cancel(a));
  bool fired = false;
  const EventId b = engine.schedule_at(12, [&] { fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(engine.cancel(a));  // stale id must not hit b's recycled slot
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(EngineTest, CancellationHeavyRunKeepsHeapBounded) {
  // The re-arming-timer pattern of long sweeps: every step cancels and
  // re-schedules a set of far-future timers.  The heap high-water mark must
  // stay O(live timers); with lazy deletion it grew O(steps) tombstones.
  Engine engine;
  constexpr int kTimers = 8;
  constexpr int kSteps = 20'000;
  EventId timers[kTimers] = {};
  int step = 0;
  std::function<void()> drive = [&] {
    for (EventId& id : timers) {
      if (id != kInvalidEventId) {
        ASSERT_TRUE(engine.cancel(id));
      }
      id = engine.schedule_after(kMillisecond, [] {});
    }
    if (++step < kSteps) engine.schedule_after(100, drive);
  };
  engine.schedule_at(0, drive);
  engine.run();
  EXPECT_LE(engine.stats().heap_high_water,
            static_cast<std::size_t>(kTimers) + 2);
  EXPECT_EQ(engine.stats().cancelled,
            static_cast<std::uint64_t>(kSteps - 1) * kTimers);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EngineTest, StatsCountSchedulingTraffic) {
  Engine engine;
  const EventId a = engine.schedule_at(5, [] {});
  engine.schedule_at(7, [] {});
  engine.cancel(a);
  engine.run();
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.scheduled, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_EQ(stats.heap_high_water, 2u);
  EXPECT_GT(engine.dispatch_rate(), 0.0);
}

// --- reschedule and dispatch in place ----------------------------------------

TEST(EngineRescheduleTest, OrdersExactlyLikeCancelThenSchedule) {
  // Two engines see the same seeded script of schedules and moves, with
  // times drawn from a tiny range so most events tie.  One moves events with
  // reschedule(), the other with cancel() + schedule_at(); every dispatch
  // must come out in the same order.
  Engine moved;
  Engine replaced;
  std::vector<int> moved_order;
  std::vector<int> replaced_order;
  constexpr int kEvents = 64;
  std::vector<EventId> moved_ids(kEvents);
  std::vector<EventId> replaced_ids(kEvents);
  auto log_to = [](std::vector<int>& order, int label) {
    return [&order, label] { order.push_back(label); };
  };
  util::Rng rng(2026);
  for (int i = 0; i < kEvents; ++i) {
    const SimTime when = rng.uniform_u64(0, 6);
    const auto slot = static_cast<std::size_t>(i);
    moved_ids[slot] = moved.schedule_at(when, log_to(moved_order, i));
    replaced_ids[slot] = replaced.schedule_at(when, log_to(replaced_order, i));
  }
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_u64(0, kEvents - 1));
    const SimTime when = rng.uniform_u64(0, 6);
    ASSERT_TRUE(moved.reschedule(moved_ids[i], when));
    ASSERT_TRUE(replaced.cancel(replaced_ids[i]));
    replaced_ids[i] =
        replaced.schedule_at(when, log_to(replaced_order, static_cast<int>(i)));
  }
  EXPECT_EQ(moved.run(), static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(replaced.run(), static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(moved_order, replaced_order);
  EXPECT_EQ(moved.stats().rescheduled, 200u);
  EXPECT_EQ(moved.stats().cancelled, 0u);
  EXPECT_EQ(moved.stats().scheduled, static_cast<std::uint64_t>(kEvents));
}

TEST(EngineRescheduleTest, EqualTimestampGoesBehindEventsAlreadyThere) {
  Engine engine;
  std::vector<int> order;
  const EventId a = engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(10, [&] { order.push_back(2); });
  engine.schedule_at(20, [&] { order.push_back(3); });
  EXPECT_TRUE(engine.reschedule(a, 10));  // fresh sequence number: now last
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EngineRescheduleTest, FiredCancelledOrStaleIdReturnsFalse) {
  Engine engine;
  const EventId fired = engine.schedule_at(1, [] {});
  engine.run();
  EXPECT_FALSE(engine.reschedule(fired, 5));

  const EventId cancelled = engine.schedule_at(10, [] {});
  ASSERT_TRUE(engine.cancel(cancelled));
  EXPECT_FALSE(engine.reschedule(cancelled, 12));

  // `cancelled`'s slot is recycled by the next event: the stale id must not
  // move it.
  bool fired_at_11 = false;
  auto check = [&] { fired_at_11 = engine.now() == 11; };
  const EventId fresh = engine.schedule_at(11, check);
  EXPECT_EQ(fresh >> 32, cancelled >> 32);
  EXPECT_FALSE(engine.reschedule(cancelled, 50));
  EXPECT_FALSE(engine.reschedule(kInvalidEventId, 50));
  EXPECT_EQ(engine.stats().rescheduled, 0u);
  engine.run();
  EXPECT_TRUE(fired_at_11);
}

TEST(EngineRescheduleTest, TimeInThePastThrows) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(10, [&] { fired = true; });
  engine.run_until(5);
  EXPECT_THROW(engine.reschedule(id, 4), std::logic_error);
  EXPECT_EQ(engine.run(), 1u);  // the event itself is untouched
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.now(), 10u);
}

TEST(EngineRescheduleTest, CallbackReArmsItselfUnderTheSameId) {
  Engine engine;
  EventId id = kInvalidEventId;
  std::vector<SimTime> fired_at;
  std::size_t pending_inside = 0;
  SimTime next_inside = 0;
  id = engine.schedule_at(10, [&] {
    // The dispatching event stays queued until this callback returns.
    pending_inside = engine.pending();
    next_inside = engine.next_event_time();
    fired_at.push_back(engine.now());
    if (fired_at.size() < 4) {
      EXPECT_TRUE(engine.reschedule(id, engine.now() + 10));
    }
  });
  engine.schedule_at(35, [] {});
  EXPECT_EQ(engine.run(), 5u);
  EXPECT_EQ(fired_at, (std::vector<SimTime>{10, 20, 30, 40}));
  EXPECT_EQ(pending_inside, 1u);  // only itself left at t=40
  EXPECT_EQ(next_inside, 40u);
  EXPECT_FALSE(engine.reschedule(id, 100));  // fired for good
  EXPECT_EQ(engine.stats().scheduled, 2u);
  EXPECT_EQ(engine.stats().rescheduled, 3u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EngineRescheduleTest, CancelledOwnEventNeverRunsItsOldCallback) {
  // A callback cancels its own (still queued) event, then schedules a new
  // one that takes over the freed slot.  The old callback must not be put
  // back into that slot when it returns.
  Engine engine;
  int old_runs = 0;
  int new_runs = 0;
  EventId self = kInvalidEventId;
  EventId successor = kInvalidEventId;
  self = engine.schedule_at(10, [&] {
    ++old_runs;
    EXPECT_TRUE(engine.cancel(self));
    successor = engine.schedule_at(20, [&] { ++new_runs; });
  });
  engine.run();
  EXPECT_EQ(successor >> 32, self >> 32);  // same slot, new generation
  EXPECT_NE(successor, self);
  EXPECT_EQ(old_runs, 1);
  EXPECT_EQ(new_runs, 1);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EngineRescheduleTest, ThrowingCallbackLeavesNoQueuedHusk) {
  Engine engine;
  EventId self = kInvalidEventId;
  int runs = 0;
  self = engine.schedule_at(10, [&] {
    ++runs;
    if (runs == 1) {
      EXPECT_TRUE(engine.reschedule(self, 20));
      throw std::runtime_error("boom");
    }
  });
  engine.schedule_at(15, [] { throw std::runtime_error("bang"); });
  EXPECT_THROW(engine.run(), std::runtime_error);  // t=10: re-armed, kept
  EXPECT_THROW(engine.run(), std::runtime_error);  // t=15: dropped
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(engine.run(), 1u);  // t=20: the re-armed callback, intact
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(engine.pending(), 0u);
}

// --- count_due ---------------------------------------------------------------

TEST(EngineCountDueTest, AgreesWithALinearScanOracle) {
  // A seeded random sequence of schedules, cancels, reschedules and single
  // dispatches, with times drawn from a narrow range so many events tie.
  // After every step, and from inside every callback (while the dispatching
  // event is still queued at now()), count_due must equal a plain scan of
  // the pending events, capped.
  Engine engine;
  std::map<EventId, SimTime> pending;  // the oracle
  constexpr std::array<std::size_t, 4> kCaps = {0, 1, 32, ~std::size_t{0}};
  util::Rng rng(0xc0de);
  auto oracle_due = [&](SimTime limit, std::size_t cap) {
    std::size_t n = 0;
    for (const auto& [id, when] : pending) n += when <= limit ? 1 : 0;
    return std::min(n, cap);
  };
  auto expect_agreement = [&](const char* where) {
    const SimTime now = engine.now();
    const SimTime near = now + rng.uniform_u64(0, 60);
    for (const SimTime limit : {now, near, now + 200, kNoEvent}) {
      for (const std::size_t cap : kCaps) {
        ASSERT_EQ(engine.count_due(limit, cap), oracle_due(limit, cap))
            << where << " limit=" << limit << " cap=" << cap;
      }
    }
  };
  int callbacks = 0;
  EventId fired = kInvalidEventId;
  auto schedule = [&] {
    const SimTime when = engine.now() + rng.uniform_u64(0, 50);
    auto id = std::make_shared<EventId>(kInvalidEventId);
    *id = engine.schedule_at(when, [&, id] {
      ++callbacks;
      fired = *id;
      expect_agreement("in callback");
      engine.stop();  // one dispatch per run()
    });
    pending.emplace(*id, when);
  };
  for (int i = 0; i < 100; ++i) schedule();
  for (int step = 0; step < 20'000; ++step) {
    const std::size_t pick =
        pending.empty() ? 0 : rng.uniform_u64(0, pending.size() - 1);
    auto it = pending.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick));
    switch (rng.uniform_u64(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3:
        schedule();
        break;
      case 4:
      case 5:
        if (pending.empty()) break;
        it->second = engine.now() + rng.uniform_u64(0, 50);
        ASSERT_TRUE(engine.reschedule(it->first, it->second));
        break;
      case 6:
        if (pending.empty()) break;
        ASSERT_TRUE(engine.cancel(it->first));
        pending.erase(it);
        break;
      default:
        if (pending.empty()) break;
        ASSERT_EQ(engine.run(), 1u);
        ASSERT_EQ(pending.erase(fired), 1u);
        break;
    }
    expect_agreement("between events");
    ASSERT_EQ(engine.pending(), pending.size());
  }
  EXPECT_GT(callbacks, 1000);
}

// --- deep heap ---------------------------------------------------------------

/// The reference for the deep-heap test: every pending event in an ordered
/// set keyed by (when, order of its last schedule or reschedule), and the
/// labels of pending events in a dense list to draw random victims from.
class HeapOracle {
 public:
  struct Event {
    EventId id = kInvalidEventId;
    SimTime when = 0;
    std::uint64_t order = 0;
    std::size_t live_pos = 0;  // index in live_
  };

  /// A label for the next event; its callback can capture it before
  /// schedule_at() returns the id.
  int reserve() {
    events_.emplace_back();
    return static_cast<int>(events_.size()) - 1;
  }
  void add(int label, EventId id, SimTime when) {
    Event& e = edit(label);
    e.id = id;
    e.live_pos = live_.size();
    live_.push_back(label);
    enqueue(label, when);
  }
  void move(int label, SimTime when) {
    dequeue(label);
    enqueue(label, when);
  }
  void remove(int label) {
    dequeue(label);
    const std::size_t pos = event(label).live_pos;
    live_[pos] = live_.back();
    edit(live_[pos]).live_pos = pos;
    live_.pop_back();
  }

  const Event& event(int label) const {
    return events_[static_cast<std::size_t>(label)];
  }
  std::size_t size() const { return live_.size(); }
  int pick(util::Rng& rng) const {
    return live_[rng.uniform_u64(0, live_.size() - 1)];
  }
  int top() const { return std::get<2>(*queue_.begin()); }
  SimTime next_time() const {
    return queue_.empty() ? kNoEvent : std::get<0>(*queue_.begin());
  }
  std::size_t count_due(SimTime limit, std::size_t cap) const {
    std::size_t n = 0;
    for (const auto& entry : queue_) {
      if (n == cap || std::get<0>(entry) > limit) break;
      ++n;
    }
    return n;
  }

 private:
  Event& edit(int label) { return events_[static_cast<std::size_t>(label)]; }
  void enqueue(int label, SimTime when) {
    Event& e = edit(label);
    e.when = when;
    e.order = next_order_++;
    queue_.emplace(e.when, e.order, label);
  }
  void dequeue(int label) {
    const Event& e = event(label);
    queue_.erase({e.when, e.order, label});
  }

  std::vector<Event> events_;  // by label
  std::vector<int> live_;
  std::set<std::tuple<SimTime, std::uint64_t, int>> queue_;
  std::uint64_t next_order_ = 0;
};

TEST(EngineTest, DeepHeapDispatchesInOracleOrder) {
  // A seeded mix of schedules, cancels, reschedules earlier and later, and
  // single dispatches grows the heap past 4,000 pending events and drains
  // it again.  Callbacks re-arm themselves, cancel themselves (a successor
  // then takes the freed slot) and schedule more.  Times come from a 40 ns
  // span, so ties are common.  Every dispatch must be the oracle's minimum,
  // and pending(), next_event_time() and count_due() must agree with the
  // oracle after every step and inside every callback.
  constexpr SimTime kSpan = 40;
  constexpr std::array<std::size_t, 3> kCaps = {1, 32, 300};
  Engine engine;
  HeapOracle oracle;
  util::Rng rng(0x4ea9);
  std::function<void(int)> on_dispatch;
  auto schedule = [&](SimTime when) {
    const int label = oracle.reserve();
    auto fn = [&on_dispatch, label] { on_dispatch(label); };
    oracle.add(label, engine.schedule_at(when, fn), when);
  };
  std::size_t deepest = 0;
  auto check = [&](const char* where) {
    ASSERT_EQ(engine.pending(), oracle.size()) << where;
    ASSERT_EQ(engine.next_event_time(), oracle.next_time()) << where;
    const SimTime now = engine.now();
    const SimTime near = now + rng.uniform_u64(0, kSpan);
    for (const SimTime limit : {now, near, kNoEvent}) {
      for (const std::size_t cap : kCaps) {
        ASSERT_EQ(engine.count_due(limit, cap), oracle.count_due(limit, cap))
            << where << " limit=" << limit << " cap=" << cap;
      }
    }
    deepest = std::max(deepest, oracle.size());
  };

  std::uint64_t dispatched = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rescheduled = 0;
  int fired = -1;
  bool fired_stays = false;  // the callback re-armed or cancelled itself
  bool callbacks_act = true;
  on_dispatch = [&](int label) {
    fired = label;
    fired_stays = false;
    // Still queued at now() until this returns, and the oracle's minimum.
    EXPECT_EQ(label, oracle.top());
    EXPECT_EQ(engine.now(), oracle.event(label).when);
    check("in callback");
    engine.stop();  // one dispatch per run()
    if (!callbacks_act) return;
    const EventId self = oracle.event(label).id;
    const SimTime when = engine.now() + rng.uniform_u64(0, kSpan);
    switch (rng.uniform_u64(0, 7)) {
      case 0:
        ASSERT_TRUE(engine.reschedule(self, when));
        oracle.move(label, when);
        ++rescheduled;
        fired_stays = true;
        break;
      case 1:
        ASSERT_TRUE(engine.cancel(self));
        oracle.remove(label);
        ++cancelled;
        fired_stays = true;
        schedule(when);
        break;
      case 2:
        schedule(when);
        break;
      default:
        break;
    }
    check("after callback work");
  };
  auto dispatch_one = [&] {
    ASSERT_EQ(engine.run(), 1u);
    ++dispatched;
    if (!fired_stays) oracle.remove(fired);
  };

  // Each step draws its operation from the phase's ten letters: schedule,
  // reschedule earlier, reschedule later, cancel, dispatch.  The first
  // phase grows the heap by about 0.44 events a step, the second shrinks it
  // by about 0.38.
  for (const std::string_view mix : {"sssssselcd", "selcdddddd"}) {
    for (int step = 0; step < 12'000; ++step) {
      const char op = oracle.size() == 0 ? 's' : mix[rng.uniform_u64(0, 9)];
      const SimTime now = engine.now();
      const int label = op == 's' ? -1 : oracle.pick(rng);
      switch (op) {
        case 's':
          schedule(now + rng.uniform_u64(0, kSpan));
          break;
        case 'e':
        case 'l': {
          const SimTime old = oracle.event(label).when;
          const SimTime when = op == 'e' ? rng.uniform_u64(now, old)
                                         : old + rng.uniform_u64(0, kSpan);
          ASSERT_TRUE(engine.reschedule(oracle.event(label).id, when));
          oracle.move(label, when);
          ++rescheduled;
          break;
        }
        case 'c':
          ASSERT_TRUE(engine.cancel(oracle.event(label).id));
          oracle.remove(label);
          ++cancelled;
          break;
        default:
          ASSERT_NO_FATAL_FAILURE(dispatch_one());
          break;
      }
      ASSERT_NO_FATAL_FAILURE(check("between steps"));
    }
  }
  callbacks_act = false;
  while (oracle.size() > 0) {
    ASSERT_NO_FATAL_FAILURE(dispatch_one());
    ASSERT_NO_FATAL_FAILURE(check("draining"));
  }

  EXPECT_GE(deepest, 4000u);
  EXPECT_EQ(engine.stats().heap_high_water, deepest);
  EXPECT_EQ(engine.stats().dispatched, dispatched);
  EXPECT_EQ(engine.stats().cancelled, cancelled);
  EXPECT_EQ(engine.stats().rescheduled, rescheduled);
}

// --- trace -------------------------------------------------------------------

TEST(TraceTest, DisabledByDefault) {
  Trace trace;
  trace.record({.time = 1, .point = TracePoint::kSchedSwitch});
  EXPECT_EQ(trace.records().size(), 0u);
}

TEST(TraceTest, RecordsWhenEnabled) {
  Trace trace;
  trace.set_enabled(true);
  trace.record({.time = 1, .point = TracePoint::kSchedSwitch, .cpu = 2});
  trace.record({.time = 2, .point = TracePoint::kSchedMigrate});
  trace.record({.time = 3, .point = TracePoint::kSchedSwitch});
  EXPECT_EQ(trace.records().size(), 3u);
  EXPECT_EQ(trace.count(TracePoint::kSchedSwitch), 2u);
  EXPECT_EQ(trace.count(TracePoint::kSchedMigrate), 1u);
  trace.clear();
  EXPECT_EQ(trace.records().size(), 0u);
}

TEST(TraceTest, ChromeJsonContainsEvents) {
  Trace trace;
  trace.set_enabled(true);
  trace.record({.time = 1000, .point = TracePoint::kSchedWakeup, .cpu = 1,
                .tid = 42});
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("sched_wakeup"), std::string::npos);
  EXPECT_NE(json.find("\"task\": 42"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

TEST(TraceTest, PointNames) {
  EXPECT_STREQ(trace_point_name(TracePoint::kSchedSwitch), "sched_switch");
  EXPECT_STREQ(trace_point_name(TracePoint::kSchedMigrate),
               "sched_migrate_task");
  EXPECT_STREQ(trace_point_name(TracePoint::kTick), "tick");
}

}  // namespace
}  // namespace hpcs::sim
