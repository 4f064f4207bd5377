// Cache-warmth model: the *indirect* cost of preemption and migration.
//
// The paper attributes two indirect overheads to scheduler noise: (1) a
// preempting task evicts the HPC task's cache lines, and (2) a migrated task
// loses its cache contents entirely unless source and destination share a
// cache level (POWER6: only SMT siblings do).  We model this with a scalar
// per-task "warmth" in [0, 1]:
//
//   - while a task runs, warmth approaches 1 exponentially (time constant
//     warm_tau — the cache re-warms as the working set is re-fetched);
//   - while a task is off-CPU, its warmth decays exponentially with the
//     CPU time *other* tasks consume on the hardware thread it last used
//     (evict_tau);
//   - a migration across a cache boundary resets warmth to cold_warmth;
//     migration between SMT siblings of one core keeps it (shared L1/L2).
//
// Concurrent execution on the sibling hardware thread does NOT count as
// pollution: steady-state SMT interference (including cache sharing) is
// already captured by the empirical per-thread SMT throughput factor.
//
// Execution speed is then  1 / (1 + miss_penalty * (1 - warmth)) — fully
// cold tasks run at 1/(1+miss_penalty) of peak.  Speed is sampled at every
// scheduling event and held constant in between; the kernel re-samples at
// least every few milliseconds, bounding the integration error.
//
// Tasks are named by a dense slot (the kernel's Task::hw_slot), not a tid:
// state lives in a vector indexed by slot, and a slot is reused after its
// task exits, so lookups on every tick are an index, not a hash.
#pragma once

#include <cstddef>
#include <vector>

#include "hw/topology.h"
#include "util/time.h"

namespace hpcs::hw {

struct CacheParams {
  /// Max fractional slowdown when fully cold (speed = 1/(1+penalty)).
  double miss_penalty = 1.00;
  /// Run-time constant for re-warming the cache (a multi-MB working set
  /// refills the 4 MB per-core L2 over several milliseconds of misses).
  SimDuration warm_tau = 15 * kMillisecond;
  /// Foreign execution time on our thread that decays warmth by 1/e.
  SimDuration evict_tau = 20 * kMillisecond;
  /// Warmth right after a cross-cache migration.
  double cold_warmth = 0.02;
  /// Warmth newly created tasks start with.
  double initial_warmth = 0.02;
  /// Steady-state ceiling: < 1.0 models a structure that cannot cover the
  /// working set even when fully warm (e.g. a 4K-page TLB whose reach is
  /// smaller than a NAS array — the permanent miss tax Shmueli et al.
  /// identified).
  double max_warmth = 1.0;
};

class CacheModel {
 public:
  CacheModel(const Topology& topo, CacheParams params);

  /// Start tracking a new task in `slot` (>= 0), from initial_warmth; a
  /// reused slot keeps nothing of its previous task.
  void on_task_created(int slot);
  void on_task_exit(int slot);

  /// Called when the task in `slot` is switched in on `cpu`.  Applies
  /// migration cold-miss and pollution decay so that a subsequent
  /// speed_factor() is current.  Every per-task call throws
  /// std::logic_error("... unknown task") for a slot with no live task.
  void note_placed(int slot, CpuId cpu);

  /// Charge `ran` nanoseconds of execution by the task in `slot` on `cpu`:
  /// warms the task's cache and advances the thread's pollution clock for
  /// everyone else who last ran there.
  void note_ran(int slot, CpuId cpu, SimDuration ran);

  /// Cache component of the task's execution speed on `cpu`, in (0, 1].
  double speed_factor(int slot, CpuId cpu) const;

  /// Current warmth the task would have if placed on `cpu` now.
  double warmth(int slot, CpuId cpu) const;

  /// Slots with storage: the peak number of tasks ever live at once when
  /// slots are recycled densely.
  std::size_t slots() const { return tasks_.size(); }

  const CacheParams& params() const { return params_; }

 private:
  struct TaskState {
    CpuId cpu = kInvalidCpu;        // hardware thread of last execution
    double warmth = 0.0;            // warmth at snapshot time
    SimDuration clock_snapshot = 0; // thread run clock at last update
    bool live = false;              // a task occupies this slot
  };

  /// Index of `slot` in tasks_; throws unless a live task holds it.
  std::size_t index_of(int slot) const;

  /// Warmth of `state` as of now, given pollution accumulated on its thread.
  double decayed_warmth(const TaskState& state) const;

  const Topology& topo_;
  CacheParams params_;
  std::vector<TaskState> tasks_;  // indexed by slot
  std::vector<SimDuration> thread_run_clock_;  // execution time per HW thread
};

}  // namespace hpcs::hw
