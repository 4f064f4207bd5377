// The Scheduler Core: a userspace model of the Linux 2.6.34 scheduler
// framework running inside a discrete-event simulation.
//
// The Kernel owns the per-CPU runqueues, the ordered scheduling-class list
// (RT -> [HPC] -> CFS -> idle), the periodic tick, the per-CPU migration/N
// kernel threads used for active balancing, and all task lifecycle.  It
// charges the direct costs of scheduling (context switches, migrations,
// tick handlers) to the running task's timeline and drives the cache-warmth
// model for the indirect costs — the two overhead categories of Section III
// of the paper.
//
// Everything happens inside sim::Engine events, so a run is a deterministic
// function of (workload, seed, config).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/machine.h"
#include "hw/power_model.h"
#include "kernel/sched_class.h"
#include "kernel/sched_domains.h"
#include "kernel/task.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/time.h"

namespace hpcs::kernel {

class CfsClass;
class RtClass;
class IdleClass;

/// CFS tunables.  Defaults match Linux 2.6.34 on an 8-CPU machine (the base
/// values scale by 1 + log2(ncpus) = 4).
struct CfsParams {
  SimDuration sched_latency = 24 * kMillisecond;
  SimDuration min_granularity = 3 * kMillisecond;
  SimDuration wakeup_granularity = 4 * kMillisecond;
  /// Busiest/local weighted-load ratio (percent) that defines imbalance.
  int imbalance_pct = 125;
  /// A task that ran within this window is "cache hot" and not migrated.
  SimDuration hot_time = 500 * kMicrosecond;
  /// Balance failures before cache-hotness is ignored.
  int cache_nice_tries = 2;
  /// Balance failures before active balancing (migration/N push) kicks in.
  int active_balance_after = 4;
};

struct RtParams {
  SimDuration rr_timeslice = 100 * kMillisecond;
  /// RT bandwidth: at most rt_runtime of RT execution per rt_period per CPU
  /// (Linux sched_rt_runtime_us = 950000 / sched_rt_period_us = 1000000).
  /// Set rt_runtime == rt_period to disable throttling.
  SimDuration rt_period = 1000 * kMillisecond;
  SimDuration rt_runtime = 950 * kMillisecond;
};

struct HpcParams {
  /// Round-robin quantum of the paper's HPC class (only matters when a CPU
  /// holds more than one HPC task, e.g. at launch).
  SimDuration rr_quantum = 10 * kMillisecond;
};

struct KernelConfig {
  hw::MachineConfig machine = hw::MachineConfig::power6_js22();
  CfsParams cfs;
  RtParams rt;
  HpcParams hpc;
  /// Dynticks-idle: no periodic tick on idle CPUs (2.6.34 NOHZ).
  bool nohz_idle = true;
  /// NETTICK-style extension: suppress the tick while a CPU runs a single
  /// task with nothing queued behind it (reduces micro-noise; §V).
  bool tickless_single = false;
};

struct SpawnSpec {
  std::string name;
  Policy policy = Policy::kNormal;
  int nice = 0;
  int rt_prio = 0;
  CpuMask affinity = cpu_mask_all();
  std::unique_ptr<Behavior> behavior;
  Tid parent = kInvalidTid;
};

/// System-wide counters matching perf's software events.
struct KernelCounters {
  std::uint64_t context_switches = 0;  // PERF_COUNT_SW_CONTEXT_SWITCHES
  std::uint64_t cpu_migrations = 0;    // PERF_COUNT_SW_CPU_MIGRATIONS
  std::uint64_t preemptions = 0;       // involuntary switch-outs
  std::uint64_t wakeups = 0;
  std::uint64_t ticks = 0;
  std::uint64_t balance_passes = 0;
  std::uint64_t balance_moves = 0;
  std::uint64_t active_balances = 0;
  std::uint64_t forks = 0;
  // Fault-injection / hotplug events.
  std::uint64_t cpu_offlines = 0;
  std::uint64_t cpu_onlines = 0;
  std::uint64_t hotplug_migrations = 0;  // tasks displaced by cpu_offline
  std::uint64_t task_kills = 0;
};

class Kernel {
 public:
  Kernel(sim::Engine& engine, KernelConfig config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Create idle tasks and migration/N kthreads and start ticking.  Must be
  /// called exactly once before the engine runs.
  void boot();

  /// Insert a scheduling class between RT and CFS (the paper's HPC class).
  /// Must be called before boot().
  void register_class_after_rt(std::unique_ptr<SchedClass> cls);

  // --- task lifecycle -------------------------------------------------------
  Tid spawn(SpawnSpec spec);
  Task* find_task(Tid tid);
  const Task* find_task(Tid tid) const;
  Task& task(Tid tid);

  /// Kill a task outright (fault injection): a running victim is descheduled
  /// and reaped, a queued one is dequeued, a sleeping/blocked one never
  /// wakes.  Exit listeners fire as for a normal exit, but t.killed is set so
  /// runtimes can tell crash from completion.  Returns false for unknown or
  /// already-exited tids.
  bool kill_task(Tid tid);

  // --- CPU hotplug -----------------------------------------------------------
  /// Take `cpu` out of service: cancel its tick, park its migration/N
  /// kthread, evict the running task, drain every class's runqueue, rebuild
  /// the scheduling domains for the shrunken topology, and re-place the
  /// displaced tasks on surviving CPUs (tasks whose affinity mask has no
  /// online CPU left fall back to a full mask, as Linux's
  /// select_fallback_rq does).  Throws std::logic_error when `cpu` is
  /// already offline or is the last online CPU.
  void cpu_offline(hw::CpuId cpu);
  /// Bring `cpu` back: rebuild domains, unpark migration/N, restart the
  /// tick, and trigger a reschedule so newidle balancing can pull work over.
  void cpu_online(hw::CpuId cpu);
  bool cpu_is_online(hw::CpuId cpu) const {
    return rqs_.at(static_cast<std::size_t>(cpu)).online;
  }
  int num_online_cpus() const;
  CpuMask online_cpu_mask() const;

  // --- invariant checker -----------------------------------------------------
  /// Audit the whole scheduler state: every runnable task on exactly one
  /// runqueue, per-class nr/load sums matching a recount from the real data
  /// structures, curr pointers consistent, nothing on an offline CPU, CFS
  /// rbtree valid.  Throws std::logic_error (after a rate-limited error log)
  /// on the first violation set found.  No-op before boot().
  void check_invariants();
  /// Enable/disable the per-event audit: when on, check_invariants() runs
  /// after every engine event (builds with HPCS_CHECK_INVARIANTS default to
  /// on).  The engine's post-dispatch hook is a single slot, so with several
  /// kernels on one engine the last enabler wins.
  void set_invariant_checks(bool on);
  bool invariant_checks() const { return invariant_checks_; }

  // --- syscall layer (see syscalls.cpp) --------------------------------------
  bool sys_setscheduler(Tid tid, Policy policy, int prio);
  bool sys_setaffinity(Tid tid, CpuMask mask);
  bool sys_setnice(Tid tid, int nice);

  // --- conditions (wait queues) ----------------------------------------------
  CondId cond_create();
  /// Fire a condition: all current and future waiters proceed.
  void cond_signal(CondId cond);
  bool cond_fired(CondId cond) const;

  /// Invoked whenever any task exits (used by launchers/runtimes).
  void add_exit_listener(std::function<void(Task&)> fn);
  /// Tracepoint stream (perf attaches here).
  void add_trace_hook(std::function<void(const sim::TraceRecord&)> fn);

  // --- queries ---------------------------------------------------------------
  sim::Engine& engine() { return engine_; }
  SimTime now() const { return engine_.now(); }
  const KernelConfig& config() const { return config_; }
  hw::Machine& machine() { return machine_; }
  const hw::Topology& topology() const { return machine_.topology(); }
  const SchedDomains& domains() const { return domains_; }
  sim::Trace& trace() { return trace_; }
  const KernelCounters& counters() const { return counters_; }

  Task* current_on(hw::CpuId cpu);
  int nr_running(hw::CpuId cpu) const;  // runnable incl running, excl idle
  bool cpu_idle(hw::CpuId cpu) const;

  CfsClass& cfs() { return *cfs_; }
  RtClass& rt() { return *rt_; }

  /// While the inhibitor returns true no class performs load balancing
  /// (HPL installs one that checks for runnable HPC tasks).
  void set_balance_inhibitor(std::function<bool()> fn);
  bool balancing_inhibited() const;

  // --- hooks used by scheduling classes & the load balancer ------------------
  /// Ask `cpu` to re-run the scheduler (0-delay event, like an IPI).
  void resched_cpu(hw::CpuId cpu);
  /// Move a queued (not running) task to dst and enqueue it there.
  void migrate_queued_task(Task& t, hw::CpuId dst);
  /// Ask the migration/N kthread on `src` to push src's running/queued CFS
  /// task to `dst` (active load balancing).
  void request_active_balance(hw::CpuId src, hw::CpuId dst);
  /// Effective priority of whatever runs on `cpu` for RT placement:
  /// -1 idle, 0 CFS, 50 HPC, 100+prio RT.
  int effective_prio_on(hw::CpuId cpu);

  /// Force an immediate account of the running task on `cpu` (balancers call
  /// this before reading loads so vruntimes are current).
  void account_current(hw::CpuId cpu);

  // --- used by Behavior implementations --------------------------------------
  /// Wake a sleeping/blocked task (timer expiry and cond_signal use this).
  void wake_task(Task& t);

  /// Total exited + live tasks ever created (test helper).
  std::size_t task_count() const { return tasks_.size(); }

  /// CPU time the idle task accumulated on `cpu` (idle time).
  SimDuration idle_time(hw::CpuId cpu) const;

  /// Snapshot of the raw quantities the power model integrates (busy/spin/
  /// idle thread-time and event counts).  Subtract two snapshots to meter a
  /// window (see hw::compute_energy).
  hw::EnergyInputs energy_inputs() const;

 private:
  friend class MigrationBehavior;

  struct CpuRq {
    std::unique_ptr<Task> idle;
    Task* current = nullptr;
    int nr_running = 0;
    bool need_resched = false;
    bool resched_pending = false;  // 0-delay resched event outstanding
    SimTime work_start = 0;        // unaccounted execution begins here
    double current_speed = 1.0;
    sim::EventId completion = sim::kInvalidEventId;
    sim::EventId tick_event = sim::kInvalidEventId;
    /// While tick() runs: its own event, which the engine keeps queued until
    /// tick() returns.  update_tick_state re-arms it in place instead of
    /// scheduling a fresh tick.
    sim::EventId tick_rearm = sim::kInvalidEventId;
    std::uint64_t nr_switches = 0;
    SimDuration idle_ns = 0;
    SimTime idle_since = 0;
    // Active balance request state.
    bool active_pending = false;
    hw::CpuId active_dst = hw::kInvalidCpu;
    Task* migration_thread = nullptr;
    CondId migration_cond = kInvalidCond;
    // Hotplug state.
    bool online = true;
    bool migration_parked = false;  // migration/N parked by cpu_offline
  };

  SchedClass* class_of(const Task& t);
  int class_rank(const SchedClass* cls) const;
  int class_rank_of(const Task& t);

  void __schedule(hw::CpuId cpu);
  void refresh_execution(hw::CpuId cpu);
  /// Point the CPU's completion event at `when`, re-arming the pending one
  /// in place when there is one.
  void arm_completion(hw::CpuId cpu, SimTime when);
  void cancel_completion(CpuRq& rq);
  void advance_action(hw::CpuId cpu, Task& t);
  void handle_completion(hw::CpuId cpu);
  void tick(hw::CpuId cpu);
  void update_tick_state(hw::CpuId cpu);
  void enqueue_and_preempt(Task& t, hw::CpuId target, bool wakeup);
  void set_task_cpu(Task& t, hw::CpuId cpu);
  void do_exit(hw::CpuId cpu, Task& t);
  /// Machine-model cleanup + exit listeners, shared by __schedule's deferred
  /// reap and kill_task's immediate one.
  void finish_task_exit(Task& t);
  /// Clamp a class-chosen target to an online, affinity-allowed CPU; breaks
  /// the affinity mask (Linux select_fallback_rq) as a last resort.
  hw::CpuId sanitize_target(Task& t, hw::CpuId target);
  /// Take the dying CPU's running task off it synchronously (cpu_offline).
  void force_off_current(hw::CpuId cpu, std::vector<Task*>& displaced);
  void park_migration_thread(hw::CpuId cpu);
  void rebuild_domains();
  void deliver_trace(sim::TraceRecord rec);
  int busy_threads_in_core(int core) const;
  void refresh_core_siblings(int core, hw::CpuId except);
  /// Re-elect the NOHZ idle-balance owner after an idle<->busy transition.
  void update_ilb();
  bool any_cpu_busy() const;

  sim::Engine& engine_;
  KernelConfig config_;
  hw::Machine machine_;
  SchedDomains domains_;
  sim::Trace trace_;
  bool booted_ = false;
  bool invariant_checks_ = false;
  bool post_dispatch_installed_ = false;

  std::vector<std::unique_ptr<SchedClass>> classes_;  // priority order
  std::unique_ptr<SchedClass> idle_holder_;           // fallback, not searched
  CfsClass* cfs_ = nullptr;
  RtClass* rt_ = nullptr;
  IdleClass* idle_class_ = nullptr;

  std::vector<CpuRq> rqs_;
  std::unordered_map<Tid, std::unique_ptr<Task>> tasks_;
  /// The tasks check_invariants() still walks: every task from its spawn to
  /// the first check after its reap (finish_task_exit), after which nothing
  /// can change it.  The walk drops reaped tasks itself, so spawn and exit
  /// pay O(1) and the audit costs the live tasks, not every task ever made.
  std::vector<Task*> audit_tasks_;
  Tid next_tid_ = 1;
  /// Dense hardware-model slots (Task::hw_slot): handed out at spawn and
  /// returned at exit, so the models' per-task storage stays at the peak
  /// live-task count however many tasks a run creates.
  std::vector<int> free_hw_slots_;
  int hw_slots_ = 0;
  /// NOHZ idle load balancer: the one idle CPU that keeps ticking and
  /// balances on behalf of all sleeping idle CPUs (Linux 2.6.3x "ilb").
  hw::CpuId ilb_cpu_ = hw::kInvalidCpu;

  CondId next_cond_ = 1;
  std::unordered_map<CondId, std::vector<Tid>> cond_waiters_;
  std::unordered_map<CondId, bool> cond_state_;  // true = fired

  std::vector<std::function<void(Task&)>> exit_listeners_;
  std::vector<std::function<void(const sim::TraceRecord&)>> trace_hooks_;
  std::function<bool()> balance_inhibitor_;

  KernelCounters counters_;

  // Aggregates for the power model.
  SimDuration busy_ns_ = 0;
  SimDuration smt_paired_ns_ = 0;
  SimDuration smt_extra_ns_ = 0;
  SimDuration spin_ns_ = 0;
};

}  // namespace hpcs::kernel
