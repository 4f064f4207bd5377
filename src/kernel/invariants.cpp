// The always-on kernel invariant checker (HPCS_CHECK_INVARIANTS).
//
// Runs at event boundaries only (the engine's post-dispatch hook), where the
// scheduler is quiescent modulo one legal transient: a task that is still
// rq.current but no longer kRunning while its CPU has a reschedule pending
// (__schedule has been requested but the 0-delay event has not fired yet).
// Everything is recounted from the real data structures — the per-class
// audit_cpu hooks walk the actual rbtree/lists — so a stale counter, a
// double enqueue, or a task stranded on an offline CPU is caught at the
// event that corrupted it, not thousands of events later.
#include <stdexcept>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "util/log.h"

namespace hpcs::kernel {

void Kernel::check_invariants() {
  if (!booted_) return;
  std::vector<std::string> errors;
  const int ncpu = machine_.topology().num_cpus();

  for (hw::CpuId cpu = 0; cpu < ncpu; ++cpu) {
    const auto& rq = rqs_[static_cast<std::size_t>(cpu)];
    auto fail = [&](const std::string& msg) {
      errors.push_back("cpu" + std::to_string(cpu) + ": " + msg);
    };
    if (rq.current == nullptr) {
      fail("current is null");
      continue;
    }
    const Task* cur = rq.current == rq.idle.get() ? nullptr : rq.current;
    int nr = 0;
    for (const auto& cls : classes_) nr += cls->nr_runnable(cpu);
    if (nr != rq.nr_running) {
      fail("class nr_runnable sum=" + std::to_string(nr) +
           " but rq.nr_running=" + std::to_string(rq.nr_running));
    }
    if (!rq.online) {
      if (cur != nullptr) fail("offline but running " + cur->name);
      if (rq.nr_running != 0) {
        fail("offline but nr_running=" + std::to_string(rq.nr_running));
      }
      if (rq.tick_event != sim::kInvalidEventId) fail("offline but tick armed");
      if (rq.completion != sim::kInvalidEventId) {
        fail("offline but completion event armed");
      }
      if (rq.active_pending) fail("offline but active balance pending");
    }
    for (const auto& cls : classes_) cls->audit_cpu(cpu, cur, errors);
  }

  for (const auto& cls : classes_) {
    int sum = 0;
    for (hw::CpuId cpu = 0; cpu < ncpu; ++cpu) sum += cls->nr_runnable(cpu);
    if (sum != cls->total_runnable()) {
      errors.push_back(std::string(cls->name()) + ": total_runnable=" +
                       std::to_string(cls->total_runnable()) +
                       " but per-cpu sum=" + std::to_string(sum));
    }
  }

  for (std::size_t i = 0; i < audit_tasks_.size();) {
    const Task& t = *audit_tasks_[i];
    auto fail = [&](const std::string& msg) {
      errors.push_back("task " + t.name + ": " + msg);
    };
    const int queued = (t.cfs_queued ? 1 : 0) + (t.rt_queued ? 1 : 0) +
                       (t.hpc_queued ? 1 : 0);
    const bool valid_cpu =
        t.cpu != hw::kInvalidCpu && t.cpu >= 0 && t.cpu < ncpu;
    const CpuRq* rq =
        valid_cpu ? &rqs_[static_cast<std::size_t>(t.cpu)] : nullptr;
    const bool is_current = rq != nullptr && rq->current == &t;
    const bool resched_open =
        rq != nullptr && (rq->need_resched || rq->resched_pending);
    switch (t.state) {
      case TaskState::kRunning:
        if (queued != 0) fail("running but still on a runqueue");
        if (!is_current) {
          fail("running but not current on cpu " + std::to_string(t.cpu));
        }
        if (rq != nullptr && !rq->online) fail("running on an offline cpu");
        break;
      case TaskState::kRunnable:
        if (is_current) {
          // Legal only mid-deschedule (see header comment).
          if (!resched_open) fail("runnable and current with no resched open");
          if (queued != 0) fail("runnable current but also queued");
        } else {
          if (queued != 1) {
            fail("runnable but on " + std::to_string(queued) + " runqueues");
          }
          if (rq == nullptr || !rq->online) {
            fail("runnable on invalid/offline cpu " + std::to_string(t.cpu));
          }
        }
        break;
      default:  // kNew, kSleeping, kBlocked, kExited
        if (queued != 0) {
          fail(std::string(task_state_name(t.state)) + " but still queued");
        }
        if (is_current && !resched_open) {
          fail(std::string(task_state_name(t.state)) +
               " current with no resched open");
        }
        break;
    }
    // A reaped task (exited, its hw slot returned) is final: audited once
    // here, then left out of every later walk.
    if (t.state == TaskState::kExited && t.hw_slot < 0) {
      audit_tasks_[i] = audit_tasks_.back();
      audit_tasks_.pop_back();
    } else {
      ++i;
    }
  }

  if (errors.empty()) return;
  std::string joined = errors.front();
  const std::size_t shown = errors.size() < 8 ? errors.size() : 8;
  for (std::size_t i = 1; i < shown; ++i) joined += "; " + errors[i];
  if (errors.size() > shown) {
    joined += "; ... (" + std::to_string(errors.size()) + " violations total)";
  }
  HPCS_ERROR_RL("kernel-invariants",
                "invariant violation at t=" << engine_.now() << ": " << joined);
  throw std::logic_error("kernel invariant violation: " + joined);
}

}  // namespace hpcs::kernel
