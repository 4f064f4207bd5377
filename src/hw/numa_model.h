// First-touch NUMA memory model.
//
// The js22 blade has one memory controller per POWER6 chip.  A task's pages
// land on the chip where it first does real work (first-touch allocation);
// if the scheduler later strands the task on the other chip, every memory
// access goes over the inter-chip fabric and the task runs persistently
// slower — unlike the cache penalty, this does not heal with time.  This is
// the dominant term behind the paper's observation that CPU migrations
// correlate with multi-second execution-time degradation (Fig. 3a): one
// cross-chip migration can tax a rank for the rest of the run.
//
// Tasks are named by dense, recycled slots, as in the cache model.
#pragma once

#include <cstddef>
#include <vector>

#include "hw/topology.h"
#include "util/time.h"

namespace hpcs::hw {

struct NumaParams {
  /// Fractional slowdown while running off the home chip.
  double remote_penalty = 0.25;
  /// Cumulative runtime after which the home chip is fixed (first touch:
  /// initialisation allocates the working set).
  SimDuration first_touch_window = 8 * kMillisecond;
};

class NumaModel {
 public:
  NumaModel(const Topology& topo, NumaParams params);

  /// Start tracking a new, unhomed task in `slot` (>= 0).
  void on_task_created(int slot);
  void on_task_exit(int slot);

  /// Charge execution: before the first-touch window closes this accrues
  /// residency and then pins the task's memory home.  Throws
  /// std::logic_error("... unknown task") for a slot with no live task.
  void note_ran(int slot, CpuId cpu, SimDuration ran);

  /// Speed multiplier for the task in `slot` executing on `cpu` (1.0 when
  /// local or not yet homed).  Throws like note_ran.
  double speed_factor(int slot, CpuId cpu) const;

  /// Home chip, or -1 while unhomed or when `slot` holds no live task.
  int home_chip(int slot) const;

  /// Slots with storage (see CacheModel::slots).
  std::size_t slots() const { return tasks_.size(); }

  const NumaParams& params() const { return params_; }

 private:
  struct TaskState {
    int home = -1;
    SimDuration accrued = 0;
    std::vector<SimDuration> per_chip;
    bool live = false;
  };

  /// Index of `slot` in tasks_; throws unless a live task holds it.
  std::size_t index_of(int slot) const;

  const Topology& topo_;
  NumaParams params_;
  std::vector<TaskState> tasks_;  // indexed by slot
};

}  // namespace hpcs::hw
