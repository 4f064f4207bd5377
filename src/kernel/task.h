// Task control block and the behaviour (workload) abstraction.
//
// A Task is the simulated equivalent of a Linux task_struct.  Its behaviour
// is supplied by the workload layer as a small program: each time the
// previous action completes, the kernel asks the behaviour for the next one.
// Actions are deliberately low-level (compute / sleep / wait / yield / exit);
// MPI collectives, daemon duty cycles, and launcher logic are all composed
// from them by higher layers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "hw/topology.h"
#include "kernel/prio.h"
#include "kernel/rbtree.h"
#include "util/time.h"

namespace hpcs::kernel {

class Kernel;
struct Task;

using Tid = int;
inline constexpr Tid kInvalidTid = 0;

/// Condition identifier for blocking waits (MPI barriers, waitpid, ...).
using CondId = std::uint64_t;
inline constexpr CondId kInvalidCond = 0;

/// Affinity is a CPU bitmask; the simulator supports up to 64 CPUs.
using CpuMask = std::uint64_t;

constexpr CpuMask cpu_mask_all() { return ~0ULL; }
constexpr CpuMask cpu_mask_of(hw::CpuId cpu) { return 1ULL << cpu; }
constexpr bool mask_has(CpuMask mask, hw::CpuId cpu) {
  return (mask >> cpu) & 1ULL;
}

enum class ActionKind : std::uint8_t {
  kCompute,   // execute `work` units (1 unit = 1 ns at full speed)
  kSleep,     // leave the CPU for `duration` of wall-clock (timer wakeup)
  kWaitCond,  // wait for a condition: spin for `spin` of CPU time, then block
  kYield,     // sched_yield()
  kExit,      // terminate
};

struct Action {
  ActionKind kind = ActionKind::kExit;
  Work work = 0;
  SimDuration duration = 0;
  CondId cond = kInvalidCond;
  SimDuration spin = 0;

  static Action compute(Work w) { return {ActionKind::kCompute, w, 0, 0, 0}; }
  static Action sleep(SimDuration d) {
    return {ActionKind::kSleep, 0, d, 0, 0};
  }
  /// Wait until `cond` fires; consume up to `spin` of CPU time busy-polling
  /// first (MPI-style spin-then-block; spin = 0 blocks immediately).
  static Action wait(CondId cond, SimDuration spin_budget) {
    return {ActionKind::kWaitCond, 0, 0, cond, spin_budget};
  }
  static Action yield() { return {ActionKind::kYield, 0, 0, 0, 0}; }
  static Action exit_task() { return {ActionKind::kExit, 0, 0, 0, 0}; }
};

/// Workload hook: produces the task's next action when the previous one is
/// done.  Behaviours may call back into the kernel (spawn tasks, signal
/// conditions) from next().
class Behavior {
 public:
  virtual ~Behavior() = default;
  virtual Action next(Kernel& kernel, Task& self) = 0;
};

enum class TaskState : std::uint8_t {
  kNew,       // created, not yet enqueued
  kRunnable,  // on a runqueue, not running
  kRunning,   // current on some CPU
  kSleeping,  // timed sleep
  kBlocked,   // waiting on a condition
  kExited,
};

const char* task_state_name(TaskState state);

/// Per-task accounting mirroring the fields perf reads.
struct TaskAccounting {
  SimDuration runtime = 0;        // CPU time actually consumed
  SimDuration spin_time = 0;      // subset of runtime: busy-waiting
  std::uint64_t switches_out = 0; // times this task was switched out
  std::uint64_t migrations = 0;   // se.nr_migrations equivalent
  std::uint64_t preemptions = 0;  // involuntary deschedules
  SimTime created_at = 0;
  SimTime exited_at = 0;
};

struct Task {
  // --- identity -----------------------------------------------------------
  Tid tid = kInvalidTid;
  std::string name;
  Tid parent = kInvalidTid;

  // --- scheduling parameters ----------------------------------------------
  Policy policy = Policy::kNormal;
  int nice = 0;          // CFS static priority
  int rt_prio = 0;       // 1..99, higher = more urgent (RT and HPC ordering)
  CpuMask affinity = cpu_mask_all();
  std::uint32_t weight = kNice0Load;  // derived from nice for CFS load math

  // --- state ---------------------------------------------------------------
  TaskState state = TaskState::kNew;
  hw::CpuId cpu = hw::kInvalidCpu;       // CPU currently assigned to
  hw::CpuId last_ran_cpu = hw::kInvalidCpu;
  bool killed = false;  // terminated by Kernel::kill_task, not a clean exit
  /// Index of this task's state in the machine's cache, TLB and NUMA models:
  /// dense and recycled after exit, unlike tids.  -1 for idle tasks and
  /// once the task has been reaped.
  int hw_slot = -1;

  // --- current action -------------------------------------------------------
  Action action;
  Work remaining_work = 0;       // for kCompute
  SimDuration spin_left = 0;     // for kWaitCond spin phase
  bool has_action = false;

  // --- CFS entity -----------------------------------------------------------
  RbNode cfs_node;
  std::uint64_t vruntime = 0;
  SimDuration slice_exec = 0;     // CPU time since last (re)enqueue, for tick
  SimTime last_dequeue_time = 0;  // for task_hot()
  bool cfs_queued = false;

  // --- RT entity -------------------------------------------------------------
  SimDuration rr_left = 0;       // RR timeslice remaining
  bool rt_queued = false;
  bool requeue_at_tail = false;  // RR expiry/yield: go to tail, not head

  // --- HPC entity (paper's class keeps its own queue; the intrusive links
  // --- make enqueue/dequeue O(1) with no allocation) -------------------------
  Task* hpc_prev = nullptr;
  Task* hpc_next = nullptr;
  bool hpc_queued = false;

  // --- deferred scheduling-parameter change (sched_setscheduler/nice on a
  // --- running task is applied at the next reschedule, like the real thing)
  bool pending_sched_change = false;
  Policy pending_policy = Policy::kNormal;
  int pending_rt_prio = 0;
  int pending_nice = 0;

  // --- workload --------------------------------------------------------------
  std::unique_ptr<Behavior> behavior;

  TaskAccounting acct;

  bool is_idle_task() const { return policy == Policy::kIdle; }
  bool runnable() const {
    return state == TaskState::kRunnable || state == TaskState::kRunning;
  }

  /// Recompute weight after a nice change.
  void refresh_weight() { weight = nice_to_weight(nice); }
};

}  // namespace hpcs::kernel
