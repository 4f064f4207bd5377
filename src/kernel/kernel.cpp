#include "kernel/kernel.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "kernel/cfs.h"
#include "kernel/idle_class.h"
#include "kernel/rt.h"
#include "util/log.h"

namespace hpcs::kernel {

namespace {
/// Resample the running task's speed at least this often even without ticks
/// (keeps cache-warmth integration accurate under NOHZ/NETTICK).
constexpr SimDuration kSpeedResample = 4 * kMillisecond;
}  // namespace

/// Behaviour of the per-CPU migration/N kernel threads (RT prio 99): sleep
/// until the load balancer requests an active balance, then push one CFS
/// task from this CPU to the requested destination.  The preemption the
/// thread itself causes is exactly the "migration kernel daemon" noise the
/// paper describes.
class MigrationBehavior : public Behavior {
 public:
  explicit MigrationBehavior(hw::CpuId cpu) : cpu_(cpu) {}

  Action next(Kernel& k, Task& self) override {
    (void)self;
    auto& rq = k.rqs_[static_cast<std::size_t>(cpu_)];
    if (rq.active_pending) {
      rq.active_pending = false;
      const hw::CpuId dst = rq.active_dst;
      // The rank that was running here was preempted by this thread and now
      // sits queued; push the first pushable CFS task to the destination.
      // The destination can have gone offline since the request was queued.
      if (k.cpu_is_online(dst)) {
        for (Task* victim = k.cfs_->first_queued(cpu_); victim != nullptr;
             victim = CfsClass::next_queued(*victim)) {
          if (!mask_has(victim->affinity, dst)) continue;
          k.migrate_queued_task(*victim, dst);
          ++k.counters_.active_balances;
          break;
        }
      }
      return Action::compute(3 * kMicrosecond);  // push path cost
    }
    rq.migration_cond = k.cond_create();
    return Action::wait(rq.migration_cond, 0);
  }

 private:
  hw::CpuId cpu_;
};

Kernel::Kernel(sim::Engine& engine, KernelConfig config)
    : engine_(engine),
      config_(config),
      machine_(config.machine),
      domains_(machine_.topology()) {
  const int ncpu = machine_.topology().num_cpus();
  if (ncpu > 64) throw std::invalid_argument("Kernel: at most 64 CPUs");
  rqs_.resize(static_cast<std::size_t>(ncpu));

  auto rt = std::make_unique<RtClass>(*this);
  rt_ = rt.get();
  auto cfs = std::make_unique<CfsClass>(*this);
  cfs_ = cfs.get();
  auto idle = std::make_unique<IdleClass>(*this);
  idle_class_ = idle.get();
  classes_.push_back(std::move(rt));
  classes_.push_back(std::move(cfs));
  // The idle class is a fallback, never searched.
  idle_holder_ = std::move(idle);

#ifdef HPCS_CHECK_INVARIANTS
  invariant_checks_ = true;
#endif
}

Kernel::~Kernel() {
  // Our post-dispatch hook captures `this`; do not leave it dangling on an
  // engine that may outlive us.
  if (post_dispatch_installed_) engine_.set_post_dispatch(nullptr);
}

void Kernel::register_class_after_rt(std::unique_ptr<SchedClass> cls) {
  if (booted_) throw std::logic_error("register_class_after_rt after boot");
  classes_.insert(classes_.begin() + 1, std::move(cls));
}

void Kernel::boot() {
  if (booted_) throw std::logic_error("Kernel::boot called twice");
  booted_ = true;
  const int ncpu = machine_.topology().num_cpus();
  for (hw::CpuId cpu = 0; cpu < ncpu; ++cpu) {
    auto& rq = rqs_[static_cast<std::size_t>(cpu)];
    rq.idle = std::make_unique<Task>();
    rq.idle->tid = -(cpu + 1);
    rq.idle->name = "swapper/" + std::to_string(cpu);
    rq.idle->policy = Policy::kIdle;
    rq.idle->cpu = cpu;
    rq.idle->state = TaskState::kRunning;
    rq.current = rq.idle.get();
    rq.idle_since = engine_.now();
    if (!config_.nohz_idle) {
      // Ticks on idle CPUs, staggered like jiffies-aligned per-CPU timers.
      const SimDuration stagger =
          config_.machine.tick_period * static_cast<SimDuration>(cpu) /
          static_cast<SimDuration>(ncpu);
      rq.tick_event = engine_.schedule_after(
          config_.machine.tick_period + stagger, [this, cpu] { tick(cpu); });
    }
  }
  // migration/N kthreads (RT prio 99, hard-affine to their CPU).
  for (hw::CpuId cpu = 0; cpu < ncpu; ++cpu) {
    auto& rq = rqs_[static_cast<std::size_t>(cpu)];
    rq.migration_cond = cond_create();
    SpawnSpec spec;
    spec.name = "migration/" + std::to_string(cpu);
    spec.policy = Policy::kFifo;
    spec.rt_prio = kMaxRtPrio;
    spec.affinity = cpu_mask_of(cpu);
    spec.behavior = std::make_unique<MigrationBehavior>(cpu);
    const Tid tid = spawn(std::move(spec));
    rq.migration_thread = &task(tid);
  }
  if (invariant_checks_) set_invariant_checks(true);
}

void Kernel::set_invariant_checks(bool on) {
  invariant_checks_ = on;
  if (on && !post_dispatch_installed_) {
    post_dispatch_installed_ = true;
    engine_.set_post_dispatch([this] {
      if (invariant_checks_) check_invariants();
    });
  }
}

SchedClass* Kernel::class_of(const Task& t) {
  if (t.policy == Policy::kIdle) return idle_class_;
  for (auto& cls : classes_) {
    if (cls->owns(t.policy)) return cls.get();
  }
  throw std::logic_error("no scheduling class owns policy");
}

int Kernel::class_rank(const SchedClass* cls) const {
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].get() == cls) return static_cast<int>(i);
  }
  return static_cast<int>(classes_.size());  // idle
}

int Kernel::class_rank_of(const Task& t) { return class_rank(class_of(t)); }

Tid Kernel::spawn(SpawnSpec spec) {
  if (!booted_) throw std::logic_error("Kernel::spawn before boot");
  const Tid tid = next_tid_++;
  auto owned = std::make_unique<Task>();
  Task& t = *owned;
  t.tid = tid;
  t.name = std::move(spec.name);
  t.parent = spec.parent;
  t.policy = spec.policy;
  t.nice = spec.nice;
  t.rt_prio = spec.rt_prio;
  t.affinity = spec.affinity;
  t.behavior = std::move(spec.behavior);
  t.refresh_weight();
  t.acct.created_at = engine_.now();
  t.cfs_node.owner = &t;
  tasks_.emplace(tid, std::move(owned));
  audit_tasks_.push_back(&t);
  if (free_hw_slots_.empty()) {
    t.hw_slot = hw_slots_++;
  } else {
    t.hw_slot = free_hw_slots_.back();
    free_hw_slots_.pop_back();
  }
  machine_.cache().on_task_created(t.hw_slot);
  machine_.tlb().on_task_created(t.hw_slot);
  machine_.numa().on_task_created(t.hw_slot);
  ++counters_.forks;

  // A child starts from its parent's CPU; the class's fork placement then
  // moves it, which counts as a migration (matching the paper's accounting
  // of one migration per MPI task created).
  hw::CpuId origin = 0;
  if (const Task* parent = find_task(spec.parent)) origin = parent->cpu;
  t.cpu = origin == hw::kInvalidCpu ? 0 : origin;

  deliver_trace({.time = engine_.now(),
                 .point = sim::TracePoint::kSchedFork,
                 .cpu = t.cpu,
                 .tid = tid,
                 .other_tid = spec.parent,
                 .arg = 0});

  SchedClass* cls = class_of(t);
  const hw::CpuId target =
      sanitize_target(t, cls->select_cpu(t, /*is_fork=*/true));
  set_task_cpu(t, target);
  enqueue_and_preempt(t, target, /*wakeup=*/false);
  return tid;
}

Task* Kernel::find_task(Tid tid) {
  auto it = tasks_.find(tid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

const Task* Kernel::find_task(Tid tid) const {
  auto it = tasks_.find(tid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

Task& Kernel::task(Tid tid) {
  Task* t = find_task(tid);
  if (t == nullptr) throw std::out_of_range("unknown tid");
  return *t;
}

Task* Kernel::current_on(hw::CpuId cpu) {
  return rqs_.at(static_cast<std::size_t>(cpu)).current;
}

int Kernel::nr_running(hw::CpuId cpu) const {
  return rqs_.at(static_cast<std::size_t>(cpu)).nr_running;
}

bool Kernel::cpu_idle(hw::CpuId cpu) const {
  const auto& rq = rqs_.at(static_cast<std::size_t>(cpu));
  return rq.current == rq.idle.get();
}

void Kernel::set_balance_inhibitor(std::function<bool()> fn) {
  balance_inhibitor_ = std::move(fn);
}

bool Kernel::balancing_inhibited() const {
  return balance_inhibitor_ && balance_inhibitor_();
}

int Kernel::effective_prio_on(hw::CpuId cpu) {
  Task* cur = current_on(cpu);
  if (cur->is_idle_task()) return -1;
  if (is_rt_policy(cur->policy)) return 100 + cur->rt_prio;
  if (cur->policy == Policy::kHpc) return 50;
  return 0;
}

hw::EnergyInputs Kernel::energy_inputs() const {
  hw::EnergyInputs inputs;
  inputs.busy_ns = busy_ns_;
  inputs.smt_paired_ns = smt_paired_ns_;
  inputs.smt_extra_ns = smt_extra_ns_;
  inputs.spin_ns = spin_ns_;
  for (hw::CpuId cpu = 0; cpu < machine_.topology().num_cpus(); ++cpu) {
    inputs.idle_ns += idle_time(cpu);
  }
  inputs.context_switches = counters_.context_switches;
  inputs.migrations = counters_.cpu_migrations;
  inputs.ticks = counters_.ticks;
  return inputs;
}

SimDuration Kernel::idle_time(hw::CpuId cpu) const {
  const auto& rq = rqs_.at(static_cast<std::size_t>(cpu));
  SimDuration total = rq.idle_ns;
  if (rq.current == rq.idle.get()) total += engine_.now() - rq.idle_since;
  return total;
}

void Kernel::deliver_trace(sim::TraceRecord rec) {
  trace_.record(rec);
  for (auto& hook : trace_hooks_) hook(rec);
}

void Kernel::add_exit_listener(std::function<void(Task&)> fn) {
  exit_listeners_.push_back(std::move(fn));
}

void Kernel::add_trace_hook(std::function<void(const sim::TraceRecord&)> fn) {
  trace_hooks_.push_back(std::move(fn));
}

// --- condition variables -----------------------------------------------------

CondId Kernel::cond_create() {
  const CondId id = next_cond_++;
  cond_state_[id] = false;
  return id;
}

bool Kernel::cond_fired(CondId cond) const {
  auto it = cond_state_.find(cond);
  // Unknown conditions are treated as already fired so late waiters proceed.
  return it == cond_state_.end() ? true : it->second;
}

void Kernel::cond_signal(CondId cond) {
  auto state = cond_state_.find(cond);
  if (state == cond_state_.end() || state->second) return;
  state->second = true;
  auto it = cond_waiters_.find(cond);
  if (it == cond_waiters_.end()) return;
  std::vector<Tid> waiters = std::move(it->second);
  cond_waiters_.erase(it);
  for (Tid tid : waiters) {
    Task* t = find_task(tid);
    if (t == nullptr || t->state == TaskState::kExited) continue;
    switch (t->state) {
      case TaskState::kBlocked:
      case TaskState::kSleeping:
        t->has_action = false;
        wake_task(*t);
        break;
      case TaskState::kRunnable:
        // Preempted mid-spin: the wait completes; next dispatch advances.
        t->has_action = false;
        break;
      case TaskState::kRunning: {
        // Spinning right now: the poll succeeds immediately.
        const hw::CpuId cpu = t->cpu;
        account_current(cpu);
        t->has_action = false;
        advance_action(cpu, *t);
        break;
      }
      default:
        break;
    }
  }
}

// --- wakeup / enqueue --------------------------------------------------------

void Kernel::wake_task(Task& t) {
  if (t.state == TaskState::kExited || t.runnable()) return;

  // The task blocked but its CPU has not rescheduled yet: revive in place.
  auto& prev_rq = rqs_[static_cast<std::size_t>(t.cpu)];
  if (prev_rq.current == &t) {
    t.state = TaskState::kRunning;
    if (!t.has_action) advance_action(t.cpu, t);
    return;
  }

  SchedClass* cls = class_of(t);
  const hw::CpuId target =
      sanitize_target(t, cls->select_cpu(t, /*is_fork=*/false));
  set_task_cpu(t, target);
  enqueue_and_preempt(t, target, /*wakeup=*/true);
}

hw::CpuId Kernel::sanitize_target(Task& t, hw::CpuId target) {
  if (target != hw::kInvalidCpu && cpu_is_online(target) &&
      mask_has(t.affinity, target)) {
    return target;
  }
  const int ncpu = machine_.topology().num_cpus();
  for (hw::CpuId c = 0; c < ncpu; ++c) {
    if (cpu_is_online(c) && mask_has(t.affinity, c)) return c;
  }
  // No online CPU left in the mask: break affinity like select_fallback_rq.
  t.affinity = cpu_mask_all();
  for (hw::CpuId c = 0; c < ncpu; ++c) {
    if (cpu_is_online(c)) return c;
  }
  throw std::logic_error("sanitize_target: no online CPU");
}

void Kernel::enqueue_and_preempt(Task& t, hw::CpuId target, bool wakeup) {
  auto& rq = rqs_[static_cast<std::size_t>(target)];
  if (!rq.online) {
    throw std::logic_error("enqueue_and_preempt: target CPU " +
                           std::to_string(target) + " is offline");
  }
  t.state = TaskState::kRunnable;
  t.cpu = target;
  SchedClass* cls = class_of(t);
  cls->enqueue(target, t, wakeup);
  rq.nr_running += 1;
  if (wakeup) {
    ++counters_.wakeups;
    deliver_trace({.time = engine_.now(),
                   .point = sim::TracePoint::kSchedWakeup,
                   .cpu = target,
                   .tid = t.tid,
                   .other_tid = -1,
                   .arg = 0});
  }
  update_tick_state(target);

  Task* cur = rq.current;
  if (cur->is_idle_task()) {
    resched_cpu(target);
    return;
  }
  const int rank_new = class_rank(cls);
  const int rank_cur = class_rank_of(*cur);
  if (rank_new < rank_cur) {
    resched_cpu(target);
  } else if (rank_new == rank_cur && cls->wakeup_preempt(target, *cur, t)) {
    resched_cpu(target);
  }
}

void Kernel::set_task_cpu(Task& t, hw::CpuId cpu) {
  if (t.cpu != hw::kInvalidCpu && t.cpu != cpu) {
    t.acct.migrations += 1;
    ++counters_.cpu_migrations;
    deliver_trace({.time = engine_.now(),
                   .point = sim::TracePoint::kSchedMigrate,
                   .cpu = cpu,
                   .tid = t.tid,
                   .other_tid = -1,
                   .arg = t.cpu});
  }
  t.cpu = cpu;
}

void Kernel::migrate_queued_task(Task& t, hw::CpuId dst) {
  if (t.state != TaskState::kRunnable) {
    throw std::logic_error("migrate_queued_task: task not queued");
  }
  const hw::CpuId src = t.cpu;
  if (src == dst) return;
  SchedClass* cls = class_of(t);
  cls->dequeue(src, t, /*sleeping=*/false);
  rqs_[static_cast<std::size_t>(src)].nr_running -= 1;
  update_tick_state(src);
  ++counters_.balance_moves;
  set_task_cpu(t, dst);
  enqueue_and_preempt(t, dst, /*wakeup=*/false);
}

void Kernel::request_active_balance(hw::CpuId src, hw::CpuId dst) {
  auto& rq = rqs_[static_cast<std::size_t>(src)];
  if (!rq.online || rq.migration_parked || !cpu_is_online(dst)) return;
  if (rq.active_pending) return;
  rq.active_pending = true;
  rq.active_dst = dst;
  cond_signal(rq.migration_cond);
}

void Kernel::resched_cpu(hw::CpuId cpu) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  rq.need_resched = true;
  if (rq.resched_pending) return;
  rq.resched_pending = true;
  engine_.schedule_after(0, [this, cpu] {
    auto& r = rqs_[static_cast<std::size_t>(cpu)];
    r.resched_pending = false;
    if (r.need_resched) __schedule(cpu);
  });
}

// --- execution accounting ----------------------------------------------------

int Kernel::busy_threads_in_core(int core) const {
  int busy = 0;
  for (hw::CpuId cpu : machine_.topology().cpus_of_core(core)) {
    const auto& rq = rqs_[static_cast<std::size_t>(cpu)];
    if (rq.current != rq.idle.get()) ++busy;
  }
  return busy;
}

void Kernel::account_current(hw::CpuId cpu) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  Task* cur = rq.current;
  const SimTime now = engine_.now();
  if (cur->is_idle_task()) return;  // idle time folded in at switch
  if (now <= rq.work_start) return;
  const SimDuration elapsed = now - rq.work_start;
  rq.work_start = now;
  cur->acct.runtime += elapsed;
  busy_ns_ += elapsed;
  const int busy = busy_threads_in_core(machine_.topology().core_of(cpu));
  if (busy > 1) {
    smt_paired_ns_ += elapsed;
    // Only elapsed/busy of this slice is the core's fair share for this
    // thread; the remainder is capacity the co-runners are also drawing.
    smt_extra_ns_ += elapsed - elapsed / busy;
  }
  machine_.cache().note_ran(cur->hw_slot, cpu, elapsed);
  machine_.tlb().note_ran(cur->hw_slot, cpu, elapsed);
  machine_.numa().note_ran(cur->hw_slot, cpu, elapsed);
  SchedClass* cls = class_of(*cur);
  if (cls == cfs_) cfs_->update_curr(cpu, *cur, elapsed);
  if (cls == rt_) rt_->charge_rt(cpu, elapsed);
  if (cur->has_action && cur->action.kind == ActionKind::kWaitCond) {
    spin_ns_ += elapsed;
    cur->acct.spin_time += elapsed;
  }
  if (cur->has_action) {
    if (cur->action.kind == ActionKind::kCompute) {
      const auto done = static_cast<Work>(
          std::llround(static_cast<double>(elapsed) * rq.current_speed));
      cur->remaining_work = done >= cur->remaining_work
                                ? 0
                                : cur->remaining_work - done;
    } else if (cur->action.kind == ActionKind::kWaitCond) {
      cur->spin_left = elapsed >= cur->spin_left ? 0 : cur->spin_left - elapsed;
    }
  }
}

void Kernel::refresh_execution(hw::CpuId cpu) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  Task* cur = rq.current;
  if (cur->is_idle_task()) {
    cancel_completion(rq);
    return;
  }
  const double cache_f = machine_.cache().speed_factor(cur->hw_slot, cpu);
  const double tlb_f = machine_.tlb().speed_factor(cur->hw_slot, cpu);
  const double numa_f = machine_.numa().speed_factor(cur->hw_slot, cpu);
  const double smt_f = machine_.smt_factor(
      busy_threads_in_core(machine_.topology().core_of(cpu)));
  rq.current_speed = cache_f * tlb_f * numa_f * smt_f;
  const SimTime start = std::max(engine_.now(), rq.work_start);
  if (!cur->has_action) {
    cancel_completion(rq);
  } else if (cur->action.kind == ActionKind::kCompute) {
    if (cur->remaining_work == 0) {
      // Rounding in a mid-segment account already finished the work.
      arm_completion(cpu, engine_.now());
      return;
    }
    auto dt = static_cast<SimDuration>(
        std::ceil(static_cast<double>(cur->remaining_work) / rq.current_speed));
    // Resample speed periodically so cache re-warming shows up even without
    // ticks (NOHZ/NETTICK).
    dt = std::min<SimDuration>(dt, kSpeedResample);
    arm_completion(cpu, start + dt);
  } else if (cur->action.kind == ActionKind::kWaitCond) {
    const SimTime spin_end = start + cur->spin_left;
    arm_completion(cpu, cur->spin_left == 0 ? engine_.now() : spin_end);
  } else {
    cancel_completion(rq);
  }
}

void Kernel::arm_completion(hw::CpuId cpu, SimTime when) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  // reschedule() takes a fresh sequence number, so the event orders exactly
  // as a cancel followed by a new schedule here would.
  if (rq.completion != sim::kInvalidEventId &&
      engine_.reschedule(rq.completion, when)) {
    return;
  }
  rq.completion =
      engine_.schedule_at(when, [this, cpu] { handle_completion(cpu); });
}

void Kernel::cancel_completion(CpuRq& rq) {
  if (rq.completion == sim::kInvalidEventId) return;
  engine_.cancel(rq.completion);
  rq.completion = sim::kInvalidEventId;
}

void Kernel::handle_completion(hw::CpuId cpu) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  rq.completion = sim::kInvalidEventId;
  Task* cur = rq.current;
  if (cur->is_idle_task()) return;
  account_current(cpu);
  if (!cur->has_action) {
    advance_action(cpu, *cur);
    return;
  }
  if (cur->action.kind == ActionKind::kCompute) {
    if (cur->remaining_work == 0) {
      cur->has_action = false;
      advance_action(cpu, *cur);
    } else {
      refresh_execution(cpu);  // resample speed, keep going
    }
  } else if (cur->action.kind == ActionKind::kWaitCond) {
    if (cur->spin_left == 0) {
      // Spin budget exhausted: block on the condition (already registered).
      cur->state = TaskState::kBlocked;
      resched_cpu(cpu);
    } else {
      refresh_execution(cpu);
    }
  }
}

void Kernel::advance_action(hw::CpuId cpu, Task& t) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  assert(rq.current == &t);
  cancel_completion(rq);
  for (std::uint32_t guard = 0;; ++guard) {
    if (guard > 1'000'000) {
      throw std::logic_error("advance_action: behaviour livelock for task " +
                             t.name);
    }
    Action a = t.behavior ? t.behavior->next(*this, t) : Action::exit_task();
    // The behaviour callback may have blocked/advanced us reentrantly (e.g.
    // it signalled a condition we then waited on); bail out if the task is
    // no longer current here.
    if (rq.current != &t || t.state != TaskState::kRunning) return;
    t.action = a;
    t.has_action = true;
    switch (a.kind) {
      case ActionKind::kCompute:
        if (a.work == 0) {
          t.has_action = false;
          continue;
        }
        t.remaining_work = a.work;
        refresh_execution(cpu);
        return;
      case ActionKind::kSleep: {
        t.has_action = false;
        t.state = TaskState::kSleeping;
        const Tid tid = t.tid;
        engine_.schedule_after(a.duration, [this, tid] {
          if (Task* x = find_task(tid)) wake_task(*x);
        });
        resched_cpu(cpu);
        return;
      }
      case ActionKind::kWaitCond: {
        if (cond_fired(a.cond)) {
          t.has_action = false;
          continue;
        }
        cond_waiters_[a.cond].push_back(t.tid);
        if (a.spin > 0) {
          t.spin_left = a.spin;
          refresh_execution(cpu);
          return;
        }
        t.state = TaskState::kBlocked;
        resched_cpu(cpu);
        return;
      }
      case ActionKind::kYield:
        t.has_action = false;
        class_of(t)->yield_task(cpu, t);
        resched_cpu(cpu);
        return;
      case ActionKind::kExit:
        do_exit(cpu, t);
        resched_cpu(cpu);
        return;
    }
  }
}

void Kernel::do_exit(hw::CpuId cpu, Task& t) {
  (void)cpu;
  t.state = TaskState::kExited;
  t.has_action = false;
  t.acct.exited_at = engine_.now();
  deliver_trace({.time = engine_.now(),
                 .point = sim::TracePoint::kSchedExit,
                 .cpu = t.cpu,
                 .tid = t.tid,
                 .other_tid = -1,
                 .arg = 0});
}

// --- the scheduler core ------------------------------------------------------

void Kernel::__schedule(hw::CpuId cpu) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  if (!rq.online) {
    // A resched raced with cpu_offline(); the offline path already drained
    // the runqueue and parked idle as current.
    rq.need_resched = false;
    return;
  }
  rq.need_resched = false;
  account_current(cpu);

  Task* prev = rq.current;
  const bool prev_idle = prev->is_idle_task();
  bool prev_exited = false;

  if (!prev_idle) {
    SchedClass* pcls = class_of(*prev);
    if (prev->pending_sched_change) {
      // Apply a deferred sched_setscheduler()/nice() now that the task is
      // coming off the CPU.
      pcls->dequeue(cpu, *prev, /*sleeping=*/false);
      pcls->clear_curr(cpu, *prev);
      prev->policy = prev->pending_policy;
      prev->rt_prio = prev->pending_rt_prio;
      prev->nice = prev->pending_nice;
      prev->refresh_weight();
      prev->pending_sched_change = false;
      if (prev->state == TaskState::kRunning) {
        prev->state = TaskState::kRunnable;
        class_of(*prev)->enqueue(cpu, *prev, /*wakeup=*/false);
      } else {
        rq.nr_running -= 1;
        if (prev->state == TaskState::kExited) prev_exited = true;
      }
    } else if (prev->state == TaskState::kRunning) {
      prev->state = TaskState::kRunnable;
      if (!mask_has(prev->affinity, cpu)) {
        // Affinity changed under us: move to an allowed CPU.  Dequeue before
        // clear_curr (like every other deschedule path) so the class can
        // tell this legitimate curr dequeue from a double dequeue.
        pcls->dequeue(cpu, *prev, /*sleeping=*/false);  // curr accounting
        pcls->clear_curr(cpu, *prev);
        rq.nr_running -= 1;
        const hw::CpuId target =
            sanitize_target(*prev, pcls->select_cpu(*prev, /*is_fork=*/false));
        set_task_cpu(*prev, target);
        enqueue_and_preempt(*prev, target, /*wakeup=*/false);
        pcls = nullptr;
      } else {
        pcls->put_prev(cpu, *prev);
        pcls->clear_curr(cpu, *prev);
      }
    } else {
      // Sleeping / blocked / exited: drop from the runnable set.
      pcls->dequeue(cpu, *prev, /*sleeping=*/true);
      pcls->clear_curr(cpu, *prev);
      rq.nr_running -= 1;
      if (prev->state == TaskState::kExited) prev_exited = true;
    }
  }

  // Pick the next task: walk the class list in priority order.
  Task* next = nullptr;
  for (auto& cls : classes_) {
    next = cls->pick_next(cpu);
    if (next != nullptr) break;
  }
  if (next == nullptr) {
    // About to go idle: newidle balancing may pull work over.
    for (auto& cls : classes_) {
      if (cls->newidle_balance(cpu)) {
        next = cls->pick_next(cpu);
        if (next != nullptr) break;
      }
    }
  }
  if (next == nullptr) next = rq.idle.get();
  const bool next_idle = next->is_idle_task();

  if (next == prev) {
    // No switch: restore the running state we optimistically cleared.
    if (!prev_idle) {
      prev->state = TaskState::kRunning;
      SchedClass* cls = class_of(*prev);
      // pick_next removed it from the queue again.
      cls->set_curr(cpu, *prev);
    }
    update_tick_state(cpu);
    refresh_execution(cpu);
    if (!next_idle && !next->has_action &&
        next->state == TaskState::kRunning) {
      advance_action(cpu, *next);
    }
    return;
  }

  // A real context switch.
  rq.nr_switches += 1;
  ++counters_.context_switches;
  if (!prev_idle) {
    prev->acct.switches_out += 1;
    if (prev->state == TaskState::kRunnable) {
      prev->acct.preemptions += 1;
      ++counters_.preemptions;
      deliver_trace({.time = engine_.now(),
                     .point = sim::TracePoint::kPreempt,
                     .cpu = cpu,
                     .tid = prev->tid,
                     .other_tid = next->tid,
                     .arg = 0});
    }
  }
  deliver_trace({.time = engine_.now(),
                 .point = sim::TracePoint::kSchedSwitch,
                 .cpu = cpu,
                 .tid = next->tid,
                 .other_tid = prev->tid,
                 .arg = 0});

  if (prev_idle) rq.idle_ns += engine_.now() - rq.idle_since;
  if (next_idle) rq.idle_since = engine_.now();

  rq.current = next;
  if (!next_idle) {
    next->state = TaskState::kRunning;
    SchedClass* ncls = class_of(*next);
    ncls->set_curr(cpu, *next);
    const bool migrated_in =
        next->last_ran_cpu != cpu && next->last_ran_cpu != hw::kInvalidCpu;
    machine_.cache().note_placed(next->hw_slot, cpu);
    machine_.tlb().note_placed(next->hw_slot, cpu);
    next->last_ran_cpu = cpu;
    const SimDuration overhead =
        config_.machine.context_switch_cost +
        (migrated_in ? config_.machine.migration_cost : 0);
    rq.work_start = engine_.now() + overhead;
  } else {
    rq.work_start = engine_.now();
  }

  if (prev_idle != next_idle) {
    refresh_core_siblings(machine_.topology().core_of(cpu), cpu);
    update_ilb();
  }
  update_tick_state(cpu);
  refresh_execution(cpu);

  if (prev_exited) finish_task_exit(*prev);

  if (!next_idle && !next->has_action && next->state == TaskState::kRunning) {
    advance_action(cpu, *next);
  }
}

void Kernel::refresh_core_siblings(int core, hw::CpuId except) {
  for (hw::CpuId sibling : machine_.topology().cpus_of_core(core)) {
    if (sibling == except) continue;
    account_current(sibling);
    refresh_execution(sibling);
  }
}

// --- the periodic tick -------------------------------------------------------

void Kernel::tick(hw::CpuId cpu) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  const sim::EventId self = rq.tick_event;
  rq.tick_event = sim::kInvalidEventId;
  if (!rq.online) return;  // tick raced with cpu_offline()
  // The engine keeps this event queued until we return; update_tick_state
  // re-arms it, wherever in this handler it first wants a tick again.
  rq.tick_rearm = self;
  ++counters_.ticks;
  account_current(cpu);
  Task* cur = rq.current;
  if (!cur->is_idle_task()) {
    // The tick handler itself steals time: the paper's micro-noise.
    rq.work_start = std::max(rq.work_start, engine_.now()) +
                    config_.machine.tick_cost;
    class_of(*cur)->task_tick(cpu, *cur);
  }
  if (cur->is_idle_task() && config_.nohz_idle) {
    // We are the NOHZ idle balancer: balance on behalf of every idle CPU
    // whose tick is stopped (including ourselves).
    for (hw::CpuId other = 0; other < machine_.topology().num_cpus(); ++other) {
      if (!cpu_is_online(other) || !cpu_idle(other)) continue;
      for (auto& cls : classes_) cls->tick_balance(other);
    }
  } else {
    for (auto& cls : classes_) cls->tick_balance(cpu);
  }
  ++counters_.balance_passes;
  refresh_execution(cpu);
  update_tick_state(cpu);
  rq.tick_rearm = sim::kInvalidEventId;
}

void Kernel::update_ilb() {
  if (!config_.nohz_idle) return;
  const hw::CpuId old = ilb_cpu_;
  ilb_cpu_ = hw::kInvalidCpu;
  if (any_cpu_busy()) {
    for (hw::CpuId c = 0; c < machine_.topology().num_cpus(); ++c) {
      if (cpu_is_online(c) && cpu_idle(c)) {
        ilb_cpu_ = c;
        break;
      }
    }
  }
  if (old != ilb_cpu_) {
    if (old != hw::kInvalidCpu) update_tick_state(old);
    if (ilb_cpu_ != hw::kInvalidCpu) update_tick_state(ilb_cpu_);
  }
}

bool Kernel::any_cpu_busy() const {
  for (const auto& rq : rqs_) {
    if (rq.current != rq.idle.get()) return true;
  }
  return false;
}

void Kernel::update_tick_state(hw::CpuId cpu) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  if (!rq.online) {
    if (rq.tick_event != sim::kInvalidEventId) {
      engine_.cancel(rq.tick_event);
      rq.tick_event = sim::kInvalidEventId;
    }
    return;
  }
  bool want_tick = true;
  if (rq.current == rq.idle.get()) {
    // NOHZ: idle CPUs stop ticking, except the elected idle balancer.
    want_tick = !config_.nohz_idle || cpu == ilb_cpu_;
  } else if (config_.tickless_single && rq.nr_running <= 1) {
    want_tick = false;
  }
  if (want_tick && rq.tick_event == sim::kInvalidEventId) {
    const SimTime at = engine_.now() + config_.machine.tick_period;
    if (rq.tick_rearm != sim::kInvalidEventId &&
        engine_.reschedule(rq.tick_rearm, at)) {
      rq.tick_event = rq.tick_rearm;
    } else {
      rq.tick_event = engine_.schedule_at(at, [this, cpu] { tick(cpu); });
    }
    rq.tick_rearm = sim::kInvalidEventId;
  } else if (!want_tick && rq.tick_event != sim::kInvalidEventId) {
    engine_.cancel(rq.tick_event);
    rq.tick_event = sim::kInvalidEventId;
  }
}

// --- CPU hotplug and task termination ----------------------------------------

int Kernel::num_online_cpus() const {
  int n = 0;
  for (const auto& rq : rqs_) {
    if (rq.online) ++n;
  }
  return n;
}

CpuMask Kernel::online_cpu_mask() const {
  CpuMask mask = 0;
  for (std::size_t c = 0; c < rqs_.size(); ++c) {
    if (rqs_[c].online) mask |= cpu_mask_of(static_cast<hw::CpuId>(c));
  }
  return mask;
}

void Kernel::finish_task_exit(Task& t) {
  machine_.cache().on_task_exit(t.hw_slot);
  machine_.tlb().on_task_exit(t.hw_slot);
  machine_.numa().on_task_exit(t.hw_slot);
  free_hw_slots_.push_back(t.hw_slot);
  t.hw_slot = -1;
  for (auto& fn : exit_listeners_) fn(t);
}

bool Kernel::kill_task(Tid tid) {
  Task* t = find_task(tid);
  if (t == nullptr || t->state == TaskState::kExited) return false;
  t->killed = true;
  ++counters_.task_kills;
  deliver_trace({.time = engine_.now(),
                 .point = sim::TracePoint::kTaskKill,
                 .cpu = t->cpu,
                 .tid = tid,
                 .other_tid = -1,
                 .arg = 0});
  const hw::CpuId cpu = t->cpu;
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  if (rq.current == t) {
    // Running, or blocked/sleeping but still awaiting its deschedule: let
    // __schedule reap it so the context switch is accounted exactly once.
    if (t->state == TaskState::kRunning) {
      account_current(cpu);
      cancel_completion(rq);
    }
    do_exit(cpu, *t);
    resched_cpu(cpu);
    return true;
  }
  if (t->state == TaskState::kRunnable) {
    class_of(*t)->dequeue(cpu, *t, /*sleeping=*/true);
    rq.nr_running -= 1;
    update_tick_state(cpu);
    do_exit(cpu, *t);
    finish_task_exit(*t);
    return true;
  }
  // Sleeping or blocked off-CPU: pending wakeups see kExited and bail.
  do_exit(cpu, *t);
  finish_task_exit(*t);
  return true;
}

void Kernel::park_migration_thread(hw::CpuId cpu) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  Task* mt = rq.migration_thread;
  if (mt == nullptr || mt->state == TaskState::kExited) return;
  if (mt->state == TaskState::kRunnable && rq.current != mt) {
    // Signalled and queued but not yet on the CPU: pull it back to sleep.
    class_of(*mt)->dequeue(cpu, *mt, /*sleeping=*/true);
    rq.nr_running -= 1;
    mt->state = TaskState::kBlocked;
    mt->has_action = false;
    rq.migration_parked = true;
  }
  // If it is current, force_off_current parks it.  If it is blocked on its
  // condition nothing is needed: request_active_balance never signals an
  // offline CPU, so it simply stays asleep until cpu_online.
}

void Kernel::force_off_current(hw::CpuId cpu, std::vector<Task*>& displaced) {
  auto& rq = rqs_[static_cast<std::size_t>(cpu)];
  cancel_completion(rq);
  Task* prev = rq.current;
  if (prev->is_idle_task()) return;

  SchedClass* pcls = class_of(*prev);
  const bool was_running = prev->state == TaskState::kRunning;
  pcls->dequeue(cpu, *prev, /*sleeping=*/!was_running);
  pcls->clear_curr(cpu, *prev);
  rq.nr_running -= 1;
  if (prev->pending_sched_change) {
    prev->policy = prev->pending_policy;
    prev->rt_prio = prev->pending_rt_prio;
    prev->nice = prev->pending_nice;
    prev->refresh_weight();
    prev->pending_sched_change = false;
  }

  // A forced eviction is a context switch (to idle) but not a preemption:
  // nothing outran the task, the CPU went away underneath it.
  rq.nr_switches += 1;
  ++counters_.context_switches;
  prev->acct.switches_out += 1;
  deliver_trace({.time = engine_.now(),
                 .point = sim::TracePoint::kSchedSwitch,
                 .cpu = cpu,
                 .tid = rq.idle->tid,
                 .other_tid = prev->tid,
                 .arg = 0});
  rq.current = rq.idle.get();
  rq.idle_since = engine_.now();
  rq.work_start = engine_.now();

  if (prev == rq.migration_thread) {
    prev->state = TaskState::kBlocked;
    prev->has_action = false;
    rq.migration_parked = true;
  } else if (was_running) {
    prev->state = TaskState::kRunnable;
    displaced.push_back(prev);
  } else if (prev->state == TaskState::kExited) {
    finish_task_exit(*prev);
  }
  // else: blocked/sleeping mid-deschedule — already off the runnable set.
}

void Kernel::rebuild_domains() {
  domains_.rebuild(machine_.topology(), online_cpu_mask());
  for (auto& cls : classes_) cls->on_topology_change();
}

void Kernel::cpu_offline(hw::CpuId cpu) {
  if (!booted_) throw std::logic_error("cpu_offline before boot");
  auto& rq = rqs_.at(static_cast<std::size_t>(cpu));
  if (!rq.online) return;
  if (num_online_cpus() <= 1) {
    throw std::logic_error("cpu_offline: cannot offline the last online CPU");
  }
  account_current(cpu);
  rq.online = false;
  ++counters_.cpu_offlines;
  deliver_trace({.time = engine_.now(),
                 .point = sim::TracePoint::kCpuOffline,
                 .cpu = cpu,
                 .tid = rq.current->tid,
                 .other_tid = -1,
                 .arg = 0});
  if (rq.tick_event != sim::kInvalidEventId) {
    engine_.cancel(rq.tick_event);
    rq.tick_event = sim::kInvalidEventId;
  }
  rq.need_resched = false;
  rq.active_pending = false;

  park_migration_thread(cpu);
  std::vector<Task*> displaced;
  force_off_current(cpu, displaced);
  for (auto& cls : classes_) {
    while (Task* t = cls->dequeue_any(cpu)) {
      rq.nr_running -= 1;
      displaced.push_back(t);
    }
  }
  assert(rq.nr_running == 0);

  rebuild_domains();
  refresh_core_siblings(machine_.topology().core_of(cpu), cpu);

  // Re-place every displaced task as if it were waking, with the fallback
  // rules of select_fallback_rq (break affinity rather than strand a task).
  for (Task* t : displaced) {
    SchedClass* cls = class_of(*t);
    const hw::CpuId target =
        sanitize_target(*t, cls->select_cpu(*t, /*is_fork=*/false));
    set_task_cpu(*t, target);
    enqueue_and_preempt(*t, target, /*wakeup=*/false);
    ++counters_.hotplug_migrations;
  }

  update_ilb();
  update_tick_state(cpu);
}

void Kernel::cpu_online(hw::CpuId cpu) {
  if (!booted_) throw std::logic_error("cpu_online before boot");
  auto& rq = rqs_.at(static_cast<std::size_t>(cpu));
  if (rq.online) return;
  rq.online = true;
  ++counters_.cpu_onlines;
  deliver_trace({.time = engine_.now(),
                 .point = sim::TracePoint::kCpuOnline,
                 .cpu = cpu,
                 .tid = rq.current->tid,
                 .other_tid = -1,
                 .arg = 0});
  rebuild_domains();
  if (rq.migration_parked) {
    rq.migration_parked = false;
    if (rq.migration_thread != nullptr &&
        rq.migration_thread->state != TaskState::kExited) {
      wake_task(*rq.migration_thread);
    }
  }
  update_ilb();
  update_tick_state(cpu);
  // Kick the scheduler so newidle balancing can pull work over right away.
  resched_cpu(cpu);
}

}  // namespace hpcs::kernel
