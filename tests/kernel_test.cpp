// Tests for the scheduler core: task lifecycle, actions, conditions, ticks,
// accounting, syscalls, and the context-switch machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <stdexcept>

#include "kernel/behaviors.h"
#include "kernel/kernel.h"
#include "kernel/rt.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace hpcs::kernel {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : kernel_(engine_, KernelConfig{}) { kernel_.boot(); }

  Tid spawn_script(std::string name, std::vector<Action> actions,
                   Policy policy = Policy::kNormal, int rt_prio = 0,
                   CpuMask affinity = cpu_mask_all()) {
    SpawnSpec spec;
    spec.name = std::move(name);
    spec.policy = policy;
    spec.rt_prio = rt_prio;
    spec.affinity = affinity;
    spec.behavior = std::make_unique<ScriptBehavior>(std::move(actions));
    return kernel_.spawn(std::move(spec));
  }

  sim::Engine engine_;
  Kernel kernel_;
};

TEST_F(KernelTest, BootCreatesIdleAndMigrationThreads) {
  // 8 migration/N kthreads exist; idle tasks are per-CPU.
  engine_.run_until(milliseconds(1));
  int migration_threads = 0;
  for (Tid tid = 1; tid <= 16; ++tid) {
    if (const Task* t = kernel_.find_task(tid)) {
      if (t->name.rfind("migration/", 0) == 0) {
        ++migration_threads;
        EXPECT_EQ(t->policy, Policy::kFifo);
        EXPECT_EQ(t->rt_prio, kMaxRtPrio);
        EXPECT_EQ(t->state, TaskState::kBlocked);  // parked on its condition
      }
    }
  }
  EXPECT_EQ(migration_threads, 8);
  for (hw::CpuId cpu = 0; cpu < 8; ++cpu) EXPECT_TRUE(kernel_.cpu_idle(cpu));
}

TEST_F(KernelTest, BootTwiceThrows) {
  EXPECT_THROW(kernel_.boot(), std::logic_error);
}

TEST_F(KernelTest, ComputeTaskRunsAndExits) {
  const Tid tid = spawn_script("worker", {Action::compute(milliseconds(5))});
  engine_.run_until(milliseconds(20));
  const Task& t = kernel_.task(tid);
  EXPECT_EQ(t.state, TaskState::kExited);
  // 5ms of work at cold-cache/cold-TLB warm-up speeds takes roughly twice
  // as long in wall time.
  EXPECT_GE(t.acct.runtime, milliseconds(5));
  EXPECT_LT(t.acct.runtime, milliseconds(11));
}

TEST_F(KernelTest, SleepWakesOnTime) {
  const Tid tid = spawn_script(
      "sleeper",
      {Action::compute(microseconds(10)), Action::sleep(milliseconds(10)),
       Action::compute(microseconds(10))});
  engine_.run_until(milliseconds(5));
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kSleeping);
  engine_.run_until(milliseconds(30));
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kExited);
  EXPECT_GE(kernel_.task(tid).acct.exited_at, milliseconds(10));
}

TEST_F(KernelTest, CondBlockAndSignal) {
  const CondId cond = kernel_.cond_create();
  const Tid tid = spawn_script("waiter", {Action::wait(cond, 0),
                                          Action::compute(microseconds(5))});
  engine_.run_until(milliseconds(2));
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kBlocked);
  kernel_.cond_signal(cond);
  engine_.run_until(milliseconds(4));
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kExited);
}

TEST_F(KernelTest, CondSpinThenBlock) {
  const CondId cond = kernel_.cond_create();
  const Tid tid =
      spawn_script("spinner", {Action::wait(cond, milliseconds(3)),
                               Action::compute(microseconds(5))});
  engine_.run_until(milliseconds(2));
  // Still inside the spin budget: consuming CPU, state running.
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kRunning);
  engine_.run_until(milliseconds(6));
  // Budget exhausted: blocked.
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kBlocked);
  EXPECT_GE(kernel_.task(tid).acct.runtime, milliseconds(3));
  kernel_.cond_signal(cond);
  engine_.run_until(milliseconds(8));
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kExited);
}

TEST_F(KernelTest, SignalDuringSpinProceedsImmediately) {
  const CondId cond = kernel_.cond_create();
  const Tid tid =
      spawn_script("spinner", {Action::wait(cond, milliseconds(50)),
                               Action::compute(microseconds(5))});
  engine_.run_until(milliseconds(1));
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kRunning);
  kernel_.cond_signal(cond);
  engine_.run_until(milliseconds(2));
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kExited);
  // It never slept: total runtime ~1ms of spin + 5us of work.
  EXPECT_LT(kernel_.task(tid).acct.runtime, milliseconds(2));
}

TEST_F(KernelTest, WaitOnFiredCondProceedsWithoutBlocking) {
  const CondId cond = kernel_.cond_create();
  kernel_.cond_signal(cond);
  const Tid tid = spawn_script("late", {Action::wait(cond, 0),
                                        Action::compute(microseconds(5))});
  engine_.run_until(milliseconds(2));
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kExited);
}

TEST_F(KernelTest, CondFiredQueries) {
  const CondId cond = kernel_.cond_create();
  EXPECT_FALSE(kernel_.cond_fired(cond));
  kernel_.cond_signal(cond);
  EXPECT_TRUE(kernel_.cond_fired(cond));
  EXPECT_TRUE(kernel_.cond_fired(999999));  // unknown conds read as fired
}

TEST_F(KernelTest, ExitListenerFires) {
  Tid exited = kInvalidTid;
  kernel_.add_exit_listener([&](Task& t) { exited = t.tid; });
  const Tid tid = spawn_script("short", {Action::compute(microseconds(100))});
  engine_.run_until(milliseconds(5));
  EXPECT_EQ(exited, tid);
}

TEST_F(KernelTest, ForkPlacementCountsAsMigration) {
  // The paper: one CPU migration per task created (fork placement).
  const auto before = kernel_.counters().cpu_migrations;
  spawn_script("a", {Action::compute(milliseconds(1))});
  const auto after = kernel_.counters().cpu_migrations;
  EXPECT_GE(after, before);  // counted iff placed off the parent's CPU
  EXPECT_LE(after, before + 1);
}

TEST_F(KernelTest, TwoTasksShareOneCpuFairly) {
  const CpuMask mask = cpu_mask_of(0);
  const Tid a = spawn_script("a", {Action::compute(milliseconds(50))},
                             Policy::kNormal, 0, mask);
  const Tid b = spawn_script("b", {Action::compute(milliseconds(50))},
                             Policy::kNormal, 0, mask);
  engine_.run_until(milliseconds(60));
  const SimDuration ra = kernel_.task(a).acct.runtime;
  const SimDuration rb = kernel_.task(b).acct.runtime;
  EXPECT_GT(ra, milliseconds(20));
  EXPECT_GT(rb, milliseconds(20));
  const double ratio = static_cast<double>(ra) / static_cast<double>(rb);
  EXPECT_NEAR(ratio, 1.0, 0.35);
  EXPECT_GT(kernel_.counters().context_switches, 2u);
}

TEST_F(KernelTest, NrRunningTracksTasks) {
  const CpuMask mask = cpu_mask_of(2);
  spawn_script("a", {Action::compute(milliseconds(30))}, Policy::kNormal, 0,
               mask);
  spawn_script("b", {Action::compute(milliseconds(30))}, Policy::kNormal, 0,
               mask);
  engine_.run_until(milliseconds(1));
  EXPECT_EQ(kernel_.nr_running(2), 2);
  EXPECT_FALSE(kernel_.cpu_idle(2));
  engine_.run_until(milliseconds(200));
  EXPECT_EQ(kernel_.nr_running(2), 0);
  EXPECT_TRUE(kernel_.cpu_idle(2));
}

TEST_F(KernelTest, YieldRotatesEqualTasks) {
  const CpuMask mask = cpu_mask_of(1);
  std::vector<Action> yieldy;
  for (int i = 0; i < 5; ++i) {
    yieldy.push_back(Action::compute(microseconds(100)));
    yieldy.push_back(Action::yield());
  }
  const Tid a = spawn_script("a", yieldy, Policy::kNormal, 0, mask);
  const Tid b = spawn_script("b", {Action::compute(milliseconds(2))},
                             Policy::kNormal, 0, mask);
  engine_.run_until(milliseconds(30));
  EXPECT_EQ(kernel_.task(a).state, TaskState::kExited);
  EXPECT_EQ(kernel_.task(b).state, TaskState::kExited);
}

TEST_F(KernelTest, AffinityRestrictsPlacement) {
  const Tid tid = spawn_script("pinned", {Action::compute(milliseconds(20))},
                               Policy::kNormal, 0, cpu_mask_of(5));
  engine_.run_until(milliseconds(5));
  EXPECT_EQ(kernel_.task(tid).cpu, 5);
  EXPECT_EQ(kernel_.current_on(5), &kernel_.task(tid));
}

TEST_F(KernelTest, SetAffinityMovesRunningTask) {
  const Tid tid = spawn_script("mover", {Action::compute(milliseconds(50))},
                               Policy::kNormal, 0, cpu_mask_of(3));
  engine_.run_until(milliseconds(2));
  EXPECT_EQ(kernel_.task(tid).cpu, 3);
  EXPECT_TRUE(kernel_.sys_setaffinity(tid, cpu_mask_of(6)));
  engine_.run_until(milliseconds(4));
  EXPECT_EQ(kernel_.task(tid).cpu, 6);
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kRunning);
}

TEST_F(KernelTest, SetAffinityRejectsEmptyMask) {
  const Tid tid = spawn_script("t", {Action::compute(milliseconds(5))});
  EXPECT_FALSE(kernel_.sys_setaffinity(tid, 0));
}

TEST_F(KernelTest, SetSchedulerValidation) {
  const Tid tid = spawn_script("t", {Action::compute(milliseconds(5))});
  EXPECT_FALSE(kernel_.sys_setscheduler(tid, Policy::kFifo, 0));    // bad prio
  EXPECT_FALSE(kernel_.sys_setscheduler(tid, Policy::kFifo, 100));  // bad prio
  EXPECT_FALSE(kernel_.sys_setscheduler(tid, Policy::kNormal, 3));  // bad prio
  EXPECT_FALSE(kernel_.sys_setscheduler(tid, Policy::kIdle, 0));    // reserved
  EXPECT_FALSE(kernel_.sys_setscheduler(9999, Policy::kFifo, 1));   // no task
  EXPECT_TRUE(kernel_.sys_setscheduler(tid, Policy::kFifo, 10));
}

TEST_F(KernelTest, SetSchedulerOnRunningTaskAppliesAtReschedule) {
  const Tid tid = spawn_script("t", {Action::compute(milliseconds(30))});
  engine_.run_until(milliseconds(2));
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kRunning);
  EXPECT_TRUE(kernel_.sys_setscheduler(tid, Policy::kFifo, 42));
  engine_.run_until(milliseconds(4));
  EXPECT_EQ(kernel_.task(tid).policy, Policy::kFifo);
  EXPECT_EQ(kernel_.task(tid).rt_prio, 42);
  EXPECT_EQ(kernel_.task(tid).state, TaskState::kRunning);
}

TEST_F(KernelTest, SetNiceChangesWeight) {
  const Tid tid = spawn_script("t", {Action::compute(milliseconds(30))});
  engine_.run_until(milliseconds(1));
  EXPECT_TRUE(kernel_.sys_setnice(tid, 10));
  engine_.run_until(milliseconds(3));
  EXPECT_EQ(kernel_.task(tid).nice, 10);
  EXPECT_EQ(kernel_.task(tid).weight, nice_to_weight(10));
  EXPECT_FALSE(kernel_.sys_setnice(tid, 99));
}

TEST_F(KernelTest, ContextSwitchesCounted) {
  const auto before = kernel_.counters().context_switches;
  spawn_script("t", {Action::compute(milliseconds(1))});
  engine_.run_until(milliseconds(10));
  // At least switch-in and switch-to-idle.
  EXPECT_GE(kernel_.counters().context_switches, before + 2);
}

TEST_F(KernelTest, NohzStopsTicksWhenIdle) {
  // Machine fully idle: no periodic events should accumulate.
  engine_.run_until(milliseconds(100));
  const auto ticks_idle = kernel_.counters().ticks;
  spawn_script("t", {Action::compute(milliseconds(50))});
  engine_.run_until(milliseconds(200));
  const auto ticks_busy = kernel_.counters().ticks;
  // Roughly one tick per ms while the task ran; far fewer while idle.
  EXPECT_GT(ticks_busy - ticks_idle, 40u);
  EXPECT_LT(ticks_idle, 20u);  // only boot transients and the ilb
}

TEST_F(KernelTest, IdleTimeAccounted) {
  spawn_script("t", {Action::compute(milliseconds(10))}, Policy::kNormal, 0,
               cpu_mask_of(0));
  engine_.run_until(milliseconds(100));
  const SimDuration idle = kernel_.idle_time(0);
  EXPECT_GT(idle, milliseconds(80));
  EXPECT_LT(idle, milliseconds(100));
}

TEST_F(KernelTest, TracepointHooksObserveSwitches) {
  int switches = 0;
  kernel_.add_trace_hook([&](const sim::TraceRecord& rec) {
    if (rec.point == sim::TracePoint::kSchedSwitch) ++switches;
  });
  spawn_script("t", {Action::compute(milliseconds(1))});
  engine_.run_until(milliseconds(5));
  EXPECT_GE(switches, 2);
}

TEST_F(KernelTest, PreemptionAccounting) {
  // A CFS task preempted by an RT task records an involuntary switch.
  const CpuMask mask = cpu_mask_of(4);
  const Tid victim = spawn_script(
      "victim", {Action::compute(milliseconds(20))}, Policy::kNormal, 0, mask);
  engine_.run_until(milliseconds(2));
  spawn_script("rt-intruder", {Action::compute(milliseconds(2))},
               Policy::kFifo, 50, mask);
  engine_.run_until(milliseconds(3));
  EXPECT_EQ(kernel_.task(victim).state, TaskState::kRunnable);
  EXPECT_GE(kernel_.task(victim).acct.preemptions, 1u);
  EXPECT_GE(kernel_.counters().preemptions, 1u);
}

TEST_F(KernelTest, EffectivePrioReflectsClasses) {
  engine_.run_until(milliseconds(1));
  EXPECT_EQ(kernel_.effective_prio_on(0), -1);  // idle
  spawn_script("cfs", {Action::compute(milliseconds(10))}, Policy::kNormal, 0,
               cpu_mask_of(0));
  spawn_script("rt", {Action::compute(milliseconds(10))}, Policy::kFifo, 7,
               cpu_mask_of(1));
  engine_.run_until(milliseconds(2));
  EXPECT_EQ(kernel_.effective_prio_on(0), 0);
  EXPECT_EQ(kernel_.effective_prio_on(1), 107);
}

TEST_F(KernelTest, DeterministicRunsProduceIdenticalCounters) {
  auto run = [](std::uint64_t) {
    sim::Engine engine;
    Kernel kernel(engine, KernelConfig{});
    kernel.boot();
    for (int i = 0; i < 6; ++i) {
      SpawnSpec spec;
      spec.name = "t" + std::to_string(i);
      spec.behavior = std::make_unique<ScriptBehavior>(std::vector<Action>{
          Action::compute(milliseconds(3)), Action::sleep(milliseconds(2)),
          Action::compute(milliseconds(3))});
      kernel.spawn(std::move(spec));
    }
    engine.run_until(milliseconds(50));
    return std::make_tuple(kernel.counters().context_switches,
                           kernel.counters().cpu_migrations,
                           kernel.counters().ticks, engine.dispatched());
  };
  EXPECT_EQ(run(1), run(1));
}

TEST_F(KernelTest, SpawnBeforeBootThrows) {
  sim::Engine engine;
  Kernel kernel(engine, KernelConfig{});
  SpawnSpec spec;
  spec.name = "early";
  EXPECT_THROW(kernel.spawn(std::move(spec)), std::logic_error);
}

TEST_F(KernelTest, WorkConservation) {
  // Total task runtime across an interval equals busy CPU time.
  const Tid tid = spawn_script("t", {Action::compute(milliseconds(10))},
                               Policy::kNormal, 0, cpu_mask_of(0));
  engine_.run_until(milliseconds(100));
  const SimDuration busy = milliseconds(100) - kernel_.idle_time(0);
  const Task& t = kernel_.task(tid);
  // Busy time = task runtime + switch/tick overheads (small).
  EXPECT_GE(busy, t.acct.runtime);
  EXPECT_LT(busy - t.acct.runtime, milliseconds(1));
}

// --- RT priority bitmap ------------------------------------------------------

TEST(RtBitmapTest, AgreesWithALinearScanOracle) {
  // Drive one CPU's RT runqueue directly (an unbooted kernel has no
  // migration threads queued) through a seeded random sequence of the
  // operations the kernel performs, and after every step compare it with a
  // plain array of lists scanned top-down.  audit_cpu checks the bitmap
  // against the lists at each step too.
  sim::Engine engine;
  Kernel kernel(engine, KernelConfig{});
  RtClass& rt = kernel.rt();
  constexpr hw::CpuId kCpu = 3;
  constexpr int kTasks = 48;
  // Priorities straddle the bitmap's word boundary and both ends.
  constexpr std::array<int, 8> kPrios = {1, 2, 50, 63, 64, 65, 98, 99};
  std::vector<std::unique_ptr<Task>> tasks;
  util::Rng rng(0x5eed);
  for (int i = 0; i < kTasks; ++i) {
    auto t = std::make_unique<Task>();
    t->tid = i + 1;
    t->name = "rt" + std::to_string(i);
    t->policy = Policy::kFifo;
    t->rt_prio = kPrios[rng.uniform_u64(0, kPrios.size() - 1)];
    t->cpu = kCpu;
    t->state = TaskState::kRunnable;
    tasks.push_back(std::move(t));
  }
  std::array<std::deque<Task*>, kMaxRtPrio + 1> oracle;
  Task* curr = nullptr;
  auto oracle_top = [&] {
    for (int prio = kMaxRtPrio; prio >= kMinRtPrio; --prio) {
      if (!oracle[static_cast<std::size_t>(prio)].empty()) return prio;
    }
    return 0;
  };
  auto oracle_pop = [&]() -> Task* {
    const int prio = oracle_top();
    if (prio == 0) return nullptr;
    auto& list = oracle[static_cast<std::size_t>(prio)];
    Task* t = list.front();
    list.pop_front();
    return t;
  };
  int queued = 0;
  for (int step = 0; step < 20'000; ++step) {
    Task& t = *tasks[rng.uniform_u64(0, kTasks - 1)];
    auto& list = oracle[static_cast<std::size_t>(t.rt_prio)];
    switch (rng.uniform_u64(0, 4)) {
      case 0:  // wake a task that is neither queued nor running
        if (t.rt_queued || &t == curr) break;
        rt.enqueue(kCpu, t, /*wakeup=*/true);
        list.push_back(&t);
        ++queued;
        break;
      case 1:  // dequeue a queued task (migration, sleep on the queue)
        if (!t.rt_queued) break;
        rt.dequeue(kCpu, t, /*sleeping=*/false);
        list.erase(std::find(list.begin(), list.end(), &t));
        --queued;
        break;
      case 2: {  // schedule: put back the current task, pick the next
        if (curr != nullptr) {
          curr->requeue_at_tail = rng.chance(0.5);
          auto& cl = oracle[static_cast<std::size_t>(curr->rt_prio)];
          if (curr->requeue_at_tail) {
            cl.push_back(curr);
          } else {
            cl.push_front(curr);
          }
          rt.put_prev(kCpu, *curr);
          rt.clear_curr(kCpu, *curr);
          curr = nullptr;
          ++queued;
        }
        Task* picked = rt.pick_next(kCpu);
        ASSERT_EQ(picked, oracle_pop()) << "step " << step;
        if (picked != nullptr) {
          rt.set_curr(kCpu, *picked);
          curr = picked;
          --queued;
        }
        break;
      }
      case 3:  // the current task blocks
        if (curr == nullptr) break;
        rt.dequeue(kCpu, *curr, /*sleeping=*/true);
        rt.clear_curr(kCpu, *curr);
        curr = nullptr;
        break;
      default: {  // hotplug drain takes the top queued task
        Task* drained = rt.dequeue_any(kCpu);
        ASSERT_EQ(drained, oracle_pop()) << "step " << step;
        if (drained != nullptr) --queued;
        break;
      }
    }
    std::vector<std::string> errors;
    rt.audit_cpu(kCpu, curr, errors);
    ASSERT_TRUE(errors.empty()) << "step " << step << ": " << errors.front();
    ASSERT_EQ(rt.highest_queued_prio(kCpu), oracle_top()) << "step " << step;
    ASSERT_EQ(rt.nr_runnable(kCpu), queued + (curr != nullptr ? 1 : 0));
  }
}

// --- dense hardware-model slots ----------------------------------------------

TEST_F(KernelTest, RecycledHwSlotsKeepModelStorageAtPeakLiveTasks) {
  // 10k short tasks spawned in waves: the cache, TLB and NUMA models must
  // hold one slot per task alive at the peak, not one per task ever made.
  std::size_t live = kernel_.task_count();  // boot's migration threads
  kernel_.add_exit_listener([&live](Task&) { --live; });
  std::size_t peak = live;
  constexpr int kWave = 16;
  for (int wave = 0; wave < 10'000 / kWave; ++wave) {
    for (int i = 0; i < kWave; ++i) {
      spawn_script("short", {Action::compute(microseconds(20))});
      peak = std::max(peak, ++live);
    }
    engine_.run_until(engine_.now() + milliseconds(2));
  }
  EXPECT_EQ(kernel_.task_count(), 10'000u + 8u);
  EXPECT_EQ(live, 8u);  // only the migration threads remain
  const hw::Machine& machine = kernel_.machine();
  EXPECT_EQ(peak, 8u + kWave);
  EXPECT_EQ(machine.cache().slots(), peak);
  EXPECT_EQ(machine.tlb().slots(), peak);
  EXPECT_EQ(machine.numa().slots(), peak);
}

TEST_F(KernelTest, RecycledHwSlotStartsCold) {
  const std::vector<Action> warm = {Action::compute(milliseconds(30))};
  const Tid first =
      spawn_script("warm", warm, Policy::kNormal, 0, cpu_mask_of(2));
  const int slot = kernel_.task(first).hw_slot;
  ASSERT_GE(slot, 0);
  engine_.run_until(milliseconds(20));
  const hw::Machine& machine = kernel_.machine();
  // Mid-run the task is warm and has a NUMA home (first touch is 8 ms).
  EXPECT_GT(machine.cache().warmth(slot, 2), 0.5);
  EXPECT_EQ(machine.numa().home_chip(slot), 0);
  engine_.run_until(milliseconds(100));
  ASSERT_EQ(kernel_.task(first).state, TaskState::kExited);
  EXPECT_EQ(kernel_.task(first).hw_slot, -1);
  // A dead slot is unknown to every model until it is handed out again.
  EXPECT_THROW(machine.cache().warmth(slot, 2), std::logic_error);
  EXPECT_THROW(machine.tlb().speed_factor(slot, 2), std::logic_error);
  EXPECT_THROW(machine.numa().speed_factor(slot, 2), std::logic_error);
  EXPECT_EQ(machine.numa().home_chip(slot), -1);
  // So is one that was never handed out.
  EXPECT_THROW(machine.cache().warmth(1000, 0), std::logic_error);

  const Tid second = spawn_script("cold", {Action::compute(milliseconds(1))});
  ASSERT_EQ(kernel_.task(second).hw_slot, slot);
  const auto& cfg = machine.config();
  EXPECT_DOUBLE_EQ(machine.cache().warmth(slot, 2), cfg.cache.initial_warmth);
  EXPECT_DOUBLE_EQ(machine.tlb().warmth(slot, 2), cfg.tlb.initial_warmth);
  EXPECT_EQ(machine.numa().home_chip(slot), -1);
  EXPECT_DOUBLE_EQ(machine.numa().speed_factor(slot, 7), 1.0);
}

}  // namespace
}  // namespace hpcs::kernel
