// The real-time scheduling class: SCHED_FIFO and SCHED_RR.
//
// 99 priority levels with per-level FIFO lists, RR timeslice rotation, and
// the push/pull overload balancing of the Linux RT scheduler.  As in Linux
// 2.6.34's rt_prio_array, a bitmap of the non-empty lists makes finding the
// top queued priority O(1), so the every-tick push pass and every pick cost
// nothing when no RT task is queued.  Section IV of
// the paper shows why running HPC ranks here is not enough: RT balancing is
// *more* eager than CFS balancing (any idle CPU immediately pulls queued RT
// tasks), and the migration/N kthreads themselves live at RT prio 99 and
// preempt SCHED_FIFO ranks.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "kernel/sched_class.h"

namespace hpcs::kernel {

class RtClass : public SchedClass {
 public:
  explicit RtClass(Kernel& kernel);
  ~RtClass() override;

  const char* name() const override { return "rt"; }
  bool owns(Policy policy) const override { return is_rt_policy(policy); }

  void enqueue(hw::CpuId cpu, Task& t, bool wakeup) override;
  void dequeue(hw::CpuId cpu, Task& t, bool sleeping) override;
  Task* pick_next(hw::CpuId cpu) override;
  void put_prev(hw::CpuId cpu, Task& t) override;
  void set_curr(hw::CpuId cpu, Task& t) override;
  void clear_curr(hw::CpuId cpu, Task& t) override;
  void task_tick(hw::CpuId cpu, Task& t) override;
  void yield_task(hw::CpuId cpu, Task& t) override;
  bool wakeup_preempt(hw::CpuId cpu, Task& curr, Task& waking) override;
  hw::CpuId select_cpu(Task& t, bool is_fork) override;
  void tick_balance(hw::CpuId cpu) override;
  bool newidle_balance(hw::CpuId cpu) override;
  int nr_runnable(hw::CpuId cpu) const override;
  int total_runnable() const override;
  /// Hotplug drain must succeed even when the runqueue is throttled, which
  /// makes pick_next refuse queued tasks — so bypass the throttle here.
  Task* dequeue_any(hw::CpuId cpu) override;
  void audit_cpu(hw::CpuId cpu, const Task* rq_current,
                 std::vector<std::string>& errors) const override;

  /// Highest queued (not running) priority on `cpu`, or 0 when none.
  int highest_queued_prio(hw::CpuId cpu) const;
  Task* running_task(hw::CpuId cpu) const;

  /// RT bandwidth accounting (sched_rt_runtime_us / sched_rt_period_us):
  /// called by the kernel with every slice of RT execution.  Once the class
  /// exhausts its budget within a period the whole runqueue is throttled
  /// until the period rolls over — the mechanism that lets CFS daemons run
  /// even under SCHED_FIFO ranks, and a key reason the paper's RT
  /// experiment (Fig. 4) still shows noise.
  void charge_rt(hw::CpuId cpu, SimDuration ran);
  bool throttled(hw::CpuId cpu) const;

 private:
  struct CpuQ {
    // lists[prio] is the FIFO of queued tasks at that priority; bit prio of
    // `bitmap` is set exactly when lists[prio] is non-empty.
    std::array<std::deque<Task*>, kMaxRtPrio + 1> lists;
    std::array<std::uint64_t, 2> bitmap{};
    int nr = 0;  // queued + running
    Task* curr = nullptr;
    // Bandwidth state.
    SimDuration rt_time = 0;  // RT execution in the current period
    bool throttled_flag = false;
    bool period_event_armed = false;

    /// Highest priority in [kMinRtPrio, limit) with a queued task, or 0.
    int top_below(int limit) const;
    int top() const { return top_below(kMaxRtPrio + 1); }
    void push(Task& t, bool at_front);
    Task* pop_front(int prio);
    void erase(Task& t);
  };

  void on_period_rollover(hw::CpuId cpu);

  CpuQ& q(hw::CpuId cpu) { return *queues_[static_cast<std::size_t>(cpu)]; }
  const CpuQ& q(hw::CpuId cpu) const {
    return *queues_[static_cast<std::size_t>(cpu)];
  }

  /// Push queued tasks away from `cpu` to CPUs running lower priority work.
  void push_tasks(hw::CpuId cpu);

  std::vector<std::unique_ptr<CpuQ>> queues_;
  int total_runnable_ = 0;
};

}  // namespace hpcs::kernel
