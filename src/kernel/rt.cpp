#include "kernel/rt.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "kernel/kernel.h"

namespace hpcs::kernel {

static_assert(kMaxRtPrio < 128, "the priority bitmap holds two words");

int RtClass::CpuQ::top_below(int limit) const {
  for (int w = (limit - 1) / 64; w >= 0; --w) {
    std::uint64_t bits = bitmap[static_cast<std::size_t>(w)];
    const int end = limit - 64 * w;  // exclusive, relative to this word
    if (end < 64) bits &= (std::uint64_t{1} << end) - 1;
    // Lists below kMinRtPrio hold no valid RT priority: never report them.
    if (w == 0) bits &= ~((std::uint64_t{1} << kMinRtPrio) - 1);
    if (bits != 0) return 64 * w + std::bit_width(bits) - 1;
  }
  return 0;
}

void RtClass::CpuQ::push(Task& t, bool at_front) {
  const auto prio = static_cast<std::size_t>(t.rt_prio);
  auto& list = lists[prio];
  if (at_front) {
    list.push_front(&t);
  } else {
    list.push_back(&t);
  }
  bitmap[prio / 64] |= std::uint64_t{1} << (prio % 64);
  t.rt_queued = true;
}

Task* RtClass::CpuQ::pop_front(int prio) {
  const auto p = static_cast<std::size_t>(prio);
  auto& list = lists[p];
  Task* t = list.front();
  list.pop_front();
  if (list.empty()) bitmap[p / 64] &= ~(std::uint64_t{1} << (p % 64));
  t->rt_queued = false;
  return t;
}

void RtClass::CpuQ::erase(Task& t) {
  const auto prio = static_cast<std::size_t>(t.rt_prio);
  auto& list = lists[prio];
  list.erase(std::find(list.begin(), list.end(), &t));
  if (list.empty()) bitmap[prio / 64] &= ~(std::uint64_t{1} << (prio % 64));
  t.rt_queued = false;
}

RtClass::RtClass(Kernel& kernel) : SchedClass(kernel) {
  const int ncpu = kernel.topology().num_cpus();
  queues_.reserve(static_cast<std::size_t>(ncpu));
  for (int i = 0; i < ncpu; ++i) queues_.push_back(std::make_unique<CpuQ>());
}

RtClass::~RtClass() = default;

void RtClass::enqueue(hw::CpuId cpu, Task& t, bool wakeup) {
  (void)wakeup;
  CpuQ& cq = q(cpu);
  assert(!t.rt_queued);
  cq.push(t, /*at_front=*/false);
  cq.nr += 1;
  total_runnable_ += 1;
  if (t.rr_left == 0) t.rr_left = kernel_.config().rt.rr_timeslice;
}

void RtClass::dequeue(hw::CpuId cpu, Task& t, bool sleeping) {
  (void)sleeping;
  CpuQ& cq = q(cpu);
  if (t.rt_queued) cq.erase(t);
  cq.nr -= 1;
  total_runnable_ -= 1;
}

Task* RtClass::pick_next(hw::CpuId cpu) {
  CpuQ& cq = q(cpu);
  if (cq.throttled_flag) return nullptr;  // bandwidth exhausted this period
  const int prio = cq.top();
  return prio == 0 ? nullptr : cq.pop_front(prio);
}

void RtClass::put_prev(hw::CpuId cpu, Task& t) {
  assert(!t.rt_queued);
  // A preempted task resumes from the head of its list; a task whose RR
  // quantum expired (or that yielded) goes to the tail.
  q(cpu).push(t, /*at_front=*/!t.requeue_at_tail);
  t.requeue_at_tail = false;
}

void RtClass::set_curr(hw::CpuId cpu, Task& t) { q(cpu).curr = &t; }

void RtClass::clear_curr(hw::CpuId cpu, Task& t) {
  CpuQ& cq = q(cpu);
  if (cq.curr == &t) cq.curr = nullptr;
}

void RtClass::task_tick(hw::CpuId cpu, Task& t) {
  if (t.policy != Policy::kRR) return;
  const SimDuration tick = kernel_.config().machine.tick_period;
  t.rr_left = t.rr_left > tick ? t.rr_left - tick : 0;
  if (t.rr_left != 0) return;
  t.rr_left = kernel_.config().rt.rr_timeslice;
  // Rotate only when a same-priority peer is waiting.
  if (!q(cpu).lists[static_cast<std::size_t>(t.rt_prio)].empty()) {
    t.requeue_at_tail = true;
    kernel_.resched_cpu(cpu);
  }
}

void RtClass::yield_task(hw::CpuId cpu, Task& t) {
  (void)cpu;
  t.requeue_at_tail = true;
}

bool RtClass::wakeup_preempt(hw::CpuId cpu, Task& curr, Task& waking) {
  (void)cpu;
  return waking.rt_prio > curr.rt_prio;
}

hw::CpuId RtClass::select_cpu(Task& t, bool is_fork) {
  (void)is_fork;
  const int ncpu = kernel_.topology().num_cpus();
  const hw::CpuId prev = t.cpu;
  // Stay on prev when the task would run there immediately.
  if (prev != hw::kInvalidCpu && mask_has(t.affinity, prev) &&
      kernel_.cpu_is_online(prev) &&
      kernel_.effective_prio_on(prev) < 100 + t.rt_prio) {
    return prev;
  }
  // find_lowest_rq: the allowed CPU running the lowest-priority work,
  // preferring runqueues with bandwidth left this period.  An offline CPU
  // runs its idle task and would otherwise always win — skip it.
  hw::CpuId best = hw::kInvalidCpu;
  int best_prio = 1 << 30;
  for (hw::CpuId c = 0; c < ncpu; ++c) {
    if (!mask_has(t.affinity, c) || !kernel_.cpu_is_online(c)) continue;
    const int ep =
        kernel_.effective_prio_on(c) + (q(c).throttled_flag ? 1000 : 0);
    if (ep < best_prio) {
      best_prio = ep;
      best = c;
    }
  }
  if (best != hw::kInvalidCpu && best_prio < 100 + t.rt_prio) return best;
  return prev != hw::kInvalidCpu && mask_has(t.affinity, prev) &&
                 kernel_.cpu_is_online(prev)
             ? prev
             : (best != hw::kInvalidCpu ? best : 0);
}

void RtClass::tick_balance(hw::CpuId cpu) {
  if (kernel_.balancing_inhibited()) return;
  push_tasks(cpu);
}

void RtClass::push_tasks(hw::CpuId cpu) {
  CpuQ& cq = q(cpu);
  // A throttled runqueue holds its tasks until the period refills; tasks
  // queued behind the throttle are not "overload" to push away.
  if (cq.throttled_flag) return;
  int pushes = 0;
  // Push queued (overloaded) tasks to CPUs running lower-priority work.
  // Pushing only removes tasks from this CPU's lists, so re-reading the
  // bitmap below the current priority visits every non-empty list, top down.
  for (int prio = cq.top(); prio != 0; prio = cq.top_below(prio)) {
    auto& list = cq.lists[static_cast<std::size_t>(prio)];
    if (pushes > 64) break;  // defensive bound per pass
    for (std::size_t i = 0; i < list.size();) {
      Task* t = list[i];
      hw::CpuId target = hw::kInvalidCpu;
      int target_prio = 100 + t->rt_prio;  // must be strictly lower
      for (hw::CpuId c = 0; c < kernel_.topology().num_cpus(); ++c) {
        if (c == cpu || !mask_has(t->affinity, c)) continue;
        if (!kernel_.cpu_is_online(c)) continue;
        if (q(c).throttled_flag) continue;  // could not run there either
        const int ep = kernel_.effective_prio_on(c);
        if (ep < target_prio) {
          target_prio = ep;
          target = c;
        }
      }
      if (target == hw::kInvalidCpu) {
        ++i;
        continue;
      }
      kernel_.migrate_queued_task(*t, target);
      ++pushes;
      if (pushes > 64) break;
      // list shrank; re-examine index i.
    }
  }
}

bool RtClass::newidle_balance(hw::CpuId cpu) {
  if (kernel_.balancing_inhibited()) return false;
  // A throttled runqueue cannot execute RT work this period; pulling would
  // just shuffle tasks between starved CPUs (and livelock the pull path).
  if (q(cpu).throttled_flag) return false;
  // pull_rt_task: grab the highest queued RT task from an overloaded CPU.
  const int ncpu = kernel_.topology().num_cpus();
  Task* best = nullptr;
  hw::CpuId best_src = hw::kInvalidCpu;
  for (hw::CpuId c = 0; c < ncpu; ++c) {
    if (c == cpu) continue;
    const CpuQ& cq = q(c);
    if (cq.nr < 2) continue;  // not overloaded
    for (int prio = cq.top(); prio != 0; prio = cq.top_below(prio)) {
      const auto& list = cq.lists[static_cast<std::size_t>(prio)];
      for (Task* t : list) {
        if (!mask_has(t->affinity, cpu)) continue;
        if (best == nullptr || t->rt_prio > best->rt_prio) {
          best = t;
          best_src = c;
        }
        break;  // only the head of the highest list matters per CPU
      }
      if (best != nullptr && best_src == c) break;
    }
  }
  if (best == nullptr) return false;
  kernel_.migrate_queued_task(*best, cpu);
  return true;
}

void RtClass::charge_rt(hw::CpuId cpu, SimDuration ran) {
  const auto& params = kernel_.config().rt;
  if (params.rt_runtime >= params.rt_period) return;  // throttling disabled
  CpuQ& cq = q(cpu);
  if (!cq.period_event_armed) {
    // First RT execution of a fresh period: arm the rollover.
    cq.period_event_armed = true;
    kernel_.engine().schedule_after(params.rt_period,
                                    [this, cpu] { on_period_rollover(cpu); });
  }
  cq.rt_time += ran;
  if (!cq.throttled_flag && cq.rt_time >= params.rt_runtime) {
    cq.throttled_flag = true;
    kernel_.resched_cpu(cpu);
  }
}

void RtClass::on_period_rollover(hw::CpuId cpu) {
  CpuQ& cq = q(cpu);
  cq.rt_time = 0;
  cq.period_event_armed = false;
  if (cq.throttled_flag) {
    cq.throttled_flag = false;
    kernel_.resched_cpu(cpu);
  }
}

bool RtClass::throttled(hw::CpuId cpu) const { return q(cpu).throttled_flag; }

int RtClass::nr_runnable(hw::CpuId cpu) const { return q(cpu).nr; }

int RtClass::total_runnable() const { return total_runnable_; }

int RtClass::highest_queued_prio(hw::CpuId cpu) const {
  return q(cpu).top();
}

Task* RtClass::running_task(hw::CpuId cpu) const { return q(cpu).curr; }

Task* RtClass::dequeue_any(hw::CpuId cpu) {
  CpuQ& cq = q(cpu);
  const int prio = cq.top();
  if (prio == 0) return nullptr;
  cq.nr -= 1;
  total_runnable_ -= 1;
  return cq.pop_front(prio);
}

void RtClass::audit_cpu(hw::CpuId cpu, const Task* rq_current,
                        std::vector<std::string>& errors) const {
  const CpuQ& cq = q(cpu);
  auto fail = [&](const std::string& msg) {
    errors.push_back("rt cpu" + std::to_string(cpu) + ": " + msg);
  };
  for (std::size_t p = 0; p < 128; ++p) {
    const bool bit = ((cq.bitmap[p / 64] >> (p % 64)) & 1) != 0;
    const std::size_t size = p < cq.lists.size() ? cq.lists[p].size() : 0;
    if (bit != (size != 0)) {
      fail("bitmap bit " + std::to_string(p) + (bit ? " set" : " clear") +
           " but list holds " + std::to_string(size) + " tasks");
    }
  }
  int count = 0;
  for (int prio = kMinRtPrio; prio <= kMaxRtPrio; ++prio) {
    for (const Task* t : cq.lists[static_cast<std::size_t>(prio)]) {
      ++count;
      if (!t->rt_queued) {
        fail("queued task " + t->name + " has rt_queued=false");
      }
      if (t->rt_prio != prio) {
        fail("task " + t->name + " on list " + std::to_string(prio) +
             " but rt_prio=" + std::to_string(t->rt_prio));
      }
      if (t->state != TaskState::kRunnable) {
        fail("queued task " + t->name + " in state " +
             task_state_name(t->state));
      }
      if (t->cpu != cpu) {
        fail("queued task " + t->name + " claims cpu " +
             std::to_string(t->cpu));
      }
    }
  }
  int nr = count;
  if (cq.curr != nullptr) {
    nr += 1;
    if (rq_current != cq.curr) {
      fail("class curr " + cq.curr->name + " is not the CPU's current task");
    }
  }
  if (nr != cq.nr) {
    fail("nr=" + std::to_string(cq.nr) + " but recount=" + std::to_string(nr));
  }
}

}  // namespace hpcs::kernel
