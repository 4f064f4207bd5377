// Unit tests for the conservative parallel engine (sim::ShardedEngine):
// construction contracts, cross-shard delivery determinism at every thread
// count, the lookahead guard, and stop/resume semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/sharded.h"

namespace hpcs::sim {
namespace {

TEST(ShardedEngine, ConstructionContracts) {
  EXPECT_THROW(ShardedEngine(0, 10), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(-3, 10), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(4, 0), std::invalid_argument);
  ShardedEngine engine(4, 25);
  EXPECT_EQ(engine.num_shards(), 4);
  EXPECT_EQ(engine.lookahead(), 25u);
  EXPECT_TRUE(engine.drained());
  EXPECT_THROW(engine.shard(4), std::out_of_range);
  EXPECT_THROW(engine.send(0, 7, 100, [] {}), std::out_of_range);
}

TEST(ShardedEngine, SingleShardMatchesSerialEngine) {
  std::vector<int> serial_order;
  Engine reference;
  reference.schedule_at(30, [&] { serial_order.push_back(3); });
  reference.schedule_at(10, [&] { serial_order.push_back(1); });
  reference.schedule_at(20, [&] { serial_order.push_back(2); });
  reference.run();

  std::vector<int> sharded_order;
  ShardedEngine engine(1, 5);
  engine.shard(0).schedule_at(30, [&] { sharded_order.push_back(3); });
  engine.shard(0).schedule_at(10, [&] { sharded_order.push_back(1); });
  engine.shard(0).schedule_at(20, [&] { sharded_order.push_back(2); });
  EXPECT_EQ(engine.run(1), 3u);
  EXPECT_EQ(sharded_order, serial_order);
  EXPECT_TRUE(engine.drained());
  // run_until() catches the clock up to each window limit, so the shard
  // ends at the last window's edge (30 + lookahead - 1), past the last
  // event — the same catch-up a serial run_until(limit) performs.
  EXPECT_EQ(engine.shard(0).now(), 34u);
}

TEST(ShardedEngine, SameShardSendIsLocalAndIgnoresLookahead) {
  ShardedEngine engine(2, 100);
  SimTime seen = kNoEvent;
  // when < lookahead would be rejected cross-shard; same-shard it is just a
  // local event.
  engine.send(0, 0, 7, [&] { seen = engine.shard(0).now(); });
  engine.run(1);
  EXPECT_EQ(seen, 7u);
}

TEST(ShardedEngine, CrossShardSendBeforeRunDelivers) {
  ShardedEngine engine(2, 10);
  SimTime seen = kNoEvent;
  engine.send(0, 1, 10, [&] { seen = engine.shard(1).now(); });
  EXPECT_FALSE(engine.drained());  // the pending send counts as work
  engine.run(1);
  EXPECT_EQ(seen, 10u);
  EXPECT_TRUE(engine.drained());
  EXPECT_EQ(engine.stats().messages, 1u);
}

TEST(ShardedEngine, LookaheadViolationThrowsOutOfRun) {
  for (int threads : {1, 2}) {
    ShardedEngine engine(2, 10);
    engine.shard(0).schedule_at(50, [&] {
      // now() == 50; the earliest legal cross-shard time is 60.
      engine.send(0, 1, 59, [] {});
    });
    EXPECT_THROW(engine.run(threads), std::logic_error);
  }
}

/// Per-shard event log: callbacks only append to their own shard's vector,
/// so recording is race-free by construction (same ownership rule as any
/// sharded scenario state).
struct ShardLogs {
  explicit ShardLogs(int shards) : logs(static_cast<std::size_t>(shards)) {}
  std::vector<std::vector<std::string>> logs;
  void note(int shard, SimTime at, const std::string& tag) {
    logs[static_cast<std::size_t>(shard)].push_back(
        std::to_string(at) + ":" + tag);
  }
};

/// A 4-shard scenario mixing local chains with cross-shard messages whose
/// timestamps are disjoint per source (when % shards == src), so the
/// dispatch sequence has a single valid order and any scheduling
/// nondeterminism would show up as a log difference.
void seed_ring_scenario(ShardedEngine& engine, ShardLogs& logs, int hops) {
  const int shards = engine.num_shards();
  for (int s = 0; s < shards; ++s) {
    // Local chain: period differs per shard so windows interleave.  It
    // refers to itself weakly: the pending event owns it, so the last event
    // frees it instead of leaking an ownership cycle.
    auto chain = std::make_shared<std::function<void(int)>>();
    const std::weak_ptr weak_chain = chain;
    *chain = [&engine, &logs, s, weak_chain](int remaining) {
      logs.note(s, engine.shard(s).now(), "local");
      if (remaining > 0) {
        auto self = weak_chain.lock();
        engine.shard(s).schedule_after(
            static_cast<SimDuration>(3 + s),
            [self, remaining] { (*self)(remaining - 1); });
      }
    };
    engine.shard(s).schedule_at(static_cast<SimTime>(1 + s),
                                [chain, hops] { (*chain)(hops); });
  }
  // Token passed around the ring; arrival instants are aligned to
  // when % shards == src so no two sources ever share a timestamp.
  auto token = std::make_shared<std::function<void(int, int)>>();
  const std::weak_ptr weak_token = token;
  *token = [&engine, &logs, weak_token](int at_shard, int remaining) {
    logs.note(at_shard, engine.shard(at_shard).now(), "token");
    if (remaining <= 0) return;
    const int ring = engine.num_shards();
    const int next = (at_shard + 1) % ring;
    const SimTime base = engine.shard(at_shard).now() + engine.lookahead();
    const SimTime aligned =
        (base / static_cast<SimTime>(ring) + 1) * static_cast<SimTime>(ring) +
        static_cast<SimTime>(at_shard);
    auto self = weak_token.lock();
    engine.send(at_shard, next, aligned, [self, next, remaining] {
      (*self)(next, remaining - 1);
    });
  };
  engine.shard(0).schedule_at(2, [token] { (*token)(0, 40); });
}

/// Dense pre-seeded work over [1, span]: shard s holds an event every
/// 1 + s ns, so every window of a few dozen ns has far more than the 32
/// events queued across all shards that make a window wide.  Every tenth
/// event also messages the next shard.
void seed_dense_work(ShardedEngine& engine, ShardLogs& logs, SimTime span) {
  const int shards = engine.num_shards();
  for (int s = 0; s < shards; ++s) {
    const auto step = static_cast<SimTime>(1 + s);
    for (SimTime at = step; at <= span; at += step) {
      engine.shard(s).schedule_at(at, [&engine, &logs, s, at] {
        logs.note(s, at, "dense");
        if (at % 10 != 0) return;
        const int next = (s + 1) % engine.num_shards();
        const SimTime arrival = at + engine.lookahead();
        engine.send(s, next, arrival, [&logs, next, arrival] {
          logs.note(next, arrival, "msg");
        });
      });
    }
  }
}

TEST(ShardedEngine, DeterministicAcrossThreadCounts) {
  ShardLogs reference(4);
  std::uint64_t reference_dispatched = 0;
  {
    ShardedEngine engine(4, 10);
    seed_ring_scenario(engine, reference, 25);
    reference_dispatched = engine.run(1);
    EXPECT_TRUE(engine.drained());
    EXPECT_GT(engine.stats().messages, 0u);
    EXPECT_GT(engine.stats().rounds, 0u);
    EXPECT_EQ(engine.stats().dispatched, reference_dispatched);
  }
  for (int threads : {2, 4, 8}) {
    ShardLogs logs(4);
    ShardedEngine engine(4, 10);
    seed_ring_scenario(engine, logs, 25);
    EXPECT_EQ(engine.run(threads), reference_dispatched) << threads;
    EXPECT_TRUE(engine.drained());
    EXPECT_EQ(logs.logs, reference.logs) << "threads=" << threads;
  }
}

TEST(ShardedEngine, EqualTimeMessagesRunInSourceThenSendOrder) {
  // Shards 0-2 message shard 3, before run() and from callbacks, at one
  // instant and at interleaved instants, in send orders that differ from
  // source order.  Equal-time messages exchanged at one barrier must run in
  // (source shard, send order), behind the destination's own events already
  // queued for that instant and ahead of those it schedules later; a
  // message exchanged at a later barrier runs after them all, whatever its
  // source, so the order is (exchange round, source shard, send order).
  // DeterministicAcrossThreadCounts only compares thread counts with each
  // other; this pins the order itself.
  const std::string expected =
      "100:local 100:0a 100:0b 100:1a 100:2a 100:2b "
      "200:local-before 200:0x 200:0y 200:1x 200:1y 200:2x 200:2y 200:1z "
      "200:local-after 205:2i 206:0t 206:1i 206:1t 206:2t 207:0i ";
  for (int threads : {1, 2, 4}) {
    ShardedEngine engine(4, 10);
    std::string got;  // appended to on shard 3 only
    auto at3 = [&engine, &got](const std::string& tag) {
      return [&engine, &got, tag] {
        got += std::to_string(engine.shard(3).now()) + ":" + tag + " ";
      };
    };
    engine.shard(3).schedule_at(100, at3("local"));
    engine.send(2, 3, 100, at3("2a"));
    engine.send(0, 3, 100, at3("0a"));
    engine.send(1, 3, 100, at3("1a"));
    engine.send(0, 3, 100, at3("0b"));
    engine.send(2, 3, 100, at3("2b"));
    // Every source sends at t=40, so all of it meets at one barrier: two
    // messages at 200, one at 207 - src, and one at 206, where source 1's
    // interleaved message also lands.
    for (int src : {2, 0, 1}) {
      const std::string s = std::to_string(src);
      engine.shard(src).schedule_at(40, [&engine, &at3, src, s] {
        engine.send(src, 3, 200, at3(s + "x"));
        engine.send(src, 3, static_cast<SimTime>(207 - src), at3(s + "i"));
        engine.send(src, 3, 200, at3(s + "y"));
        engine.send(src, 3, 206, at3(s + "t"));
      });
    }
    // Source 1 sends for 200 again at t=70, a later window than source 2's
    // t=40 sends: its message runs after theirs.
    engine.shard(1).schedule_at(70, [&engine, &at3] {
      engine.send(1, 3, 200, at3("1z"));
    });
    // Shard 3's own events at 200: one scheduled in the sending window, one
    // after the barriers that delivered the messages.
    engine.shard(3).schedule_at(40, [&engine, &at3] {
      engine.shard(3).schedule_at(200, at3("local-before"));
    });
    engine.shard(3).schedule_at(150, [&engine, &at3] {
      engine.shard(3).schedule_at(200, at3("local-after"));
    });
    // Filler on the sources, two events per ns up to t=300, makes those
    // windows wide, so the workers run them at 2 and 4 threads.
    for (int src = 0; src < 3; ++src) {
      for (SimTime at = 1; at <= 300; ++at) {
        engine.shard(src).schedule_at(at, [] {});
        engine.shard(src).schedule_at(at, [] {});
      }
    }
    engine.run(threads);
    EXPECT_TRUE(engine.drained());
    EXPECT_EQ(got, expected) << "threads=" << threads;
    EXPECT_EQ(engine.stats().messages, 18u);
    EXPECT_LT(engine.stats().inline_rounds, engine.stats().rounds);
  }
}

TEST(ShardedEngine, PostExchangeHookRunsAtEveryBarrier) {
  // The hook runs on one thread at every barrier: before the first window,
  // after every window, inline or on the workers, and after the last.  It
  // runs after the barrier's deliveries and before the next plan, so an
  // event it schedules counts toward that plan, and runs after the
  // messages that barrier delivered for the same instant and before those
  // of later barriers.
  const std::string expected = "3:first 200:local 200:0m 200:hook 200:1m ";
  for (int threads : {1, 2, 4}) {
    ShardedEngine engine(4, 10);
    std::atomic<int> running{0};  // callbacks executing right now
    std::string got;              // appended to on shard 3 only
    auto at3 = [&engine, &got](const std::string& tag) {
      return [&engine, &got, tag] {
        got += std::to_string(engine.shard(3).now()) + ":" + tag + " ";
      };
    };
    bool sent = false;  // written on shard 0, read by the hook
    bool hooked = false;
    std::uint64_t calls = 0;
    engine.set_post_exchange([&] {
      EXPECT_EQ(running.load(), 0);
      if (calls++ == 0) {
        std::uint64_t dispatched = 0;
        for (int s = 0; s < engine.num_shards(); ++s) {
          dispatched += engine.shard(s).dispatched();
        }
        EXPECT_EQ(dispatched, 0u);
        engine.shard(3).schedule_at(3, at3("first"));
      }
      if (sent && !hooked) {
        hooked = true;
        engine.shard(3).schedule_at(200, at3("hook"));
      }
    });
    engine.shard(3).schedule_at(40, [&engine, &at3] {
      engine.shard(3).schedule_at(200, at3("local"));
    });
    engine.shard(0).schedule_at(40, [&engine, &at3, &sent] {
      engine.send(0, 3, 200, at3("0m"));
      sent = true;
    });
    engine.shard(1).schedule_at(70, [&engine, &at3] {
      engine.send(1, 3, 200, at3("1m"));
    });
    // Filler on the sources, two events per ns up to t=150, makes those
    // windows wide, so the workers run them at 2 and 4 threads; the
    // windows at 200 hold shard 3 alone and run inline.
    for (int src = 0; src < 3; ++src) {
      for (SimTime at = 1; at <= 150; ++at) {
        for (int k = 0; k < 2; ++k) {
          engine.shard(src).schedule_at(at, [&running] {
            ++running;
            --running;
          });
        }
      }
    }
    engine.run(threads);
    EXPECT_TRUE(engine.drained());
    EXPECT_EQ(got, expected) << "threads=" << threads;
    EXPECT_EQ(calls, engine.stats().rounds + 1) << threads;
    EXPECT_GT(engine.stats().inline_rounds, 0u);
    EXPECT_LT(engine.stats().inline_rounds, engine.stats().rounds);
  }
}

TEST(ShardedEngine, ThrowingPostExchangeHookIsRethrown) {
  for (int threads : {1, 2}) {
    ShardedEngine engine(2, 10);
    bool late_ran = false;
    engine.shard(0).schedule_at(5, [] {});
    engine.shard(1).schedule_at(500, [&late_ran] { late_ran = true; });
    int calls = 0;
    engine.set_post_exchange([&calls] {
      if (++calls == 2) throw std::runtime_error("hook failure");
    });
    try {
      engine.run(threads);
      ADD_FAILURE() << "run() did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "hook failure");
    }
    // The hook threw at the barrier after the first window, [5, 14].
    EXPECT_EQ(calls, 2);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(engine.stats().rounds, 1u);
  }
}

TEST(ShardedEngine, ThinWindowsRunWithoutTheWorkers) {
  // The ring never queues more than five events (one per local chain, plus
  // the token), far under the 32 due events that make a window wide.
  ShardLogs reference(4);
  {
    ShardedEngine engine(4, 10);
    seed_ring_scenario(engine, reference, 25);
    engine.run(1);
  }
  for (int threads : {2, 4}) {
    ShardLogs logs(4);
    ShardedEngine engine(4, 10);
    seed_ring_scenario(engine, logs, 25);
    engine.run(threads);
    EXPECT_TRUE(engine.drained());
    EXPECT_GT(engine.stats().rounds, 0u);
    EXPECT_EQ(engine.stats().inline_rounds, engine.stats().rounds) << threads;
    EXPECT_EQ(logs.logs, reference.logs) << "threads=" << threads;
  }
}

TEST(ShardedEngine, WideWindowsGoToTheWorkers) {
  // The ring plus dense work on every shard up to t=1000: each 50 ns window
  // there holds about a hundred queued events on four shards and goes to
  // the workers; after it the token alone is thin again.  Both paths must
  // interleave without changing a single log line.
  ShardLogs reference(4);
  std::uint64_t reference_dispatched = 0;
  std::uint64_t reference_rounds = 0;
  std::uint64_t reference_inline = 0;
  {
    ShardedEngine engine(4, 50);
    seed_ring_scenario(engine, reference, 25);
    seed_dense_work(engine, reference, 1000);
    reference_dispatched = engine.run(1);
    reference_rounds = engine.stats().rounds;
    reference_inline = engine.stats().inline_rounds;
  }
  EXPECT_GT(reference_inline, 0u);
  EXPECT_LT(reference_inline, reference_rounds);
  for (int threads : {2, 4}) {
    ShardLogs logs(4);
    ShardedEngine engine(4, 50);
    seed_ring_scenario(engine, logs, 25);
    seed_dense_work(engine, logs, 1000);
    EXPECT_EQ(engine.run(threads), reference_dispatched) << threads;
    EXPECT_TRUE(engine.drained());
    // Which windows are thin is a property of the simulation, not of the
    // thread count.
    EXPECT_EQ(engine.stats().rounds, reference_rounds) << threads;
    EXPECT_EQ(engine.stats().inline_rounds, reference_inline) << threads;
    EXPECT_EQ(logs.logs, reference.logs) << "threads=" << threads;
  }
}

TEST(ShardedEngine, StopFromCallbackEndsRoundAndResumes) {
  // Reference: the same scenario run to completion without interruption.
  ShardLogs reference(4);
  {
    ShardedEngine engine(4, 10);
    seed_ring_scenario(engine, reference, 25);
    engine.run(1);
  }
  for (int threads : {1, 4}) {
    ShardLogs logs(4);
    ShardedEngine engine(4, 10);
    seed_ring_scenario(engine, logs, 25);
    // Interrupt shard 2 partway through its local chain (the stop event
    // itself logs nothing, so the reference log still applies).
    engine.shard(2).schedule_at(30, [&engine] { engine.stop(2); });
    engine.run(threads);
    EXPECT_TRUE(engine.stopped());
    EXPECT_FALSE(engine.drained());
    // Resume: picks up exactly where the conservative round left off.
    engine.run(threads);
    EXPECT_TRUE(engine.drained());
    EXPECT_EQ(logs.logs, reference.logs) << "threads=" << threads;
  }
}

TEST(ShardedEngine, RequestStopTakesEffectAtNextBarrier) {
  ShardedEngine engine(2, 10);
  bool late_ran = false;
  engine.shard(0).schedule_at(5, [&engine] { engine.request_stop(); });
  engine.shard(1).schedule_at(500, [&late_ran] { late_ran = true; });
  engine.run(1);
  EXPECT_TRUE(engine.stopped());
  EXPECT_FALSE(engine.drained());
  // 500 lies beyond the first conservative window (5 + lookahead - 1), so
  // the stop landed before it ran.
  EXPECT_FALSE(late_ran);
  engine.run(1);  // resume clears the stop request and finishes the work
  EXPECT_TRUE(engine.drained());
  EXPECT_TRUE(late_ran);
}

TEST(ShardedEngine, CallbackExceptionPropagatesAfterQuiesce) {
  for (int threads : {1, 2}) {
    ShardedEngine engine(2, 10);
    engine.shard(0).schedule_at(5, [] {
      throw std::runtime_error("scenario failure");
    });
    engine.shard(1).schedule_at(5, [] {});
    EXPECT_THROW(engine.run(threads), std::runtime_error);
  }
}

TEST(ShardedEngine, ExceptionInAnInlinedWindowFinishesTheWindowFirst) {
  // One thin window [5, 14]: shard 0 throws at 5, shard 1 still runs its
  // events at 6 and 12, and nothing past the window runs.  run() rethrows
  // the callback's exception, counts only the completed shard's events and
  // leaves the engine stopped.
  for (int threads : {1, 2}) {
    ShardedEngine engine(2, 10);
    std::vector<SimTime> ran;
    engine.shard(0).schedule_at(5, [] {
      throw std::runtime_error("scenario failure");
    });
    engine.shard(0).schedule_at(9, [&ran] { ran.push_back(9); });
    for (const SimTime at : {6, 12, 40}) {
      engine.shard(1).schedule_at(at, [&ran, at] { ran.push_back(at); });
    }
    try {
      engine.run(threads);
      ADD_FAILURE() << "run() did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "scenario failure");
    }
    EXPECT_EQ(ran, (std::vector<SimTime>{6, 12})) << threads;
    EXPECT_TRUE(engine.stopped());
    EXPECT_EQ(engine.stats().dispatched, 2u);
    EXPECT_EQ(engine.stats().rounds, 1u);
    EXPECT_EQ(engine.stats().inline_rounds, 1u);
  }
}

TEST(ShardedEngine, StopInAnInlinedWindowResumesWhereItLeftOff) {
  // Window [5, 14]: shard 0 stops at 5 (its event at 7 waits, its clock
  // stays at the stop point) while shard 1 finishes the window.  The
  // resumed run then replays exactly the uninterrupted schedule.
  for (int threads : {1, 2}) {
    ShardLogs logs(2);
    ShardedEngine engine(2, 10);
    engine.shard(0).schedule_at(5, [&] {
      logs.note(0, engine.shard(0).now(), "stop");
      engine.stop(0);
    });
    engine.shard(0).schedule_at(7, [&] { logs.note(0, 7, "late"); });
    for (const SimTime at : {6, 9, 20}) {
      engine.shard(1).schedule_at(at, [&logs, at] { logs.note(1, at, "b"); });
    }
    EXPECT_EQ(engine.run(threads), 3u);
    EXPECT_TRUE(engine.stopped());
    EXPECT_FALSE(engine.drained());
    EXPECT_EQ(engine.shard(0).now(), 5u);
    EXPECT_EQ(engine.shard(1).now(), 14u);
    EXPECT_EQ(logs.logs[1], (std::vector<std::string>{"6:b", "9:b"}));
    EXPECT_EQ(engine.run(threads), 2u);
    EXPECT_TRUE(engine.drained());
    EXPECT_EQ(logs.logs[0], (std::vector<std::string>{"5:stop", "7:late"}));
    EXPECT_EQ(logs.logs[1], (std::vector<std::string>{"6:b", "9:b", "20:b"}));
    EXPECT_EQ(engine.stats().inline_rounds, engine.stats().rounds);
    EXPECT_EQ(engine.stats().dispatched, 5u);
  }
}

TEST(ShardedEngine, LaggingShardNeverReceivesPastEvents) {
  // Shard 1 idles (clock lags at 0) while shard 0 runs far ahead, then
  // starts messaging it: deliveries must land in shard 1's future even
  // though its clock is long behind shard 0's.
  ShardedEngine engine(2, 10);
  std::vector<SimTime> arrivals;
  auto ping = std::make_shared<std::function<void(int)>>();
  *ping = [&engine, &arrivals](int remaining) {
    arrivals.push_back(engine.shard(1).now());
    static_cast<void>(remaining);
  };
  engine.shard(0).schedule_at(1000, [&engine, ping] {
    engine.send(0, 1, 1010, [ping] { (*ping)(0); });
  });
  engine.run(2);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 1010u);
  EXPECT_TRUE(engine.drained());
}

TEST(ShardedEngine, RunIsNotReentrant) {
  ShardedEngine engine(2, 10);
  engine.shard(0).schedule_at(1, [&engine] {
    EXPECT_THROW(engine.run(1), std::logic_error);
  });
  engine.run(1);
}

TEST(ShardedEngine, StatsAccumulateAcrossRuns) {
  ShardedEngine engine(2, 10);
  SimTime unused = 0;
  engine.send(0, 1, 10, [&] { unused = 1; });
  engine.run(1);
  const std::uint64_t first_rounds = engine.stats().rounds;
  // Between runs the destination's clock may be ahead of the source's
  // (shard 0 idled through the first run), so a follow-up send must aim
  // past the receiver, not just past source now() + lookahead.
  engine.send(0, 1, engine.shard(1).now() + engine.lookahead(),
              [&] { unused = 2; });
  engine.run(1);
  EXPECT_EQ(engine.stats().messages, 2u);
  EXPECT_GT(engine.stats().rounds, first_rounds);
  EXPECT_EQ(engine.stats().dispatched, 2u);
  EXPECT_GE(engine.stats().exchange_high_water, 1u);
}

}  // namespace
}  // namespace hpcs::sim
