#include "hw/cache_model.h"

#include <cmath>
#include <stdexcept>

namespace hpcs::hw {

CacheModel::CacheModel(const Topology& topo, CacheParams params)
    : topo_(topo), params_(params),
      thread_run_clock_(static_cast<std::size_t>(topo.num_cpus()), 0) {}

void CacheModel::on_task_created(int slot) {
  if (slot < 0) throw std::logic_error("CacheModel: negative slot");
  const auto i = static_cast<std::size_t>(slot);
  if (i >= tasks_.size()) tasks_.resize(i + 1);
  tasks_[i] = TaskState{.cpu = kInvalidCpu,
                        .warmth = params_.initial_warmth,
                        .clock_snapshot = 0,
                        .live = true};
}

void CacheModel::on_task_exit(int slot) {
  if (slot >= 0 && static_cast<std::size_t>(slot) < tasks_.size()) {
    tasks_[static_cast<std::size_t>(slot)].live = false;
  }
}

std::size_t CacheModel::index_of(int slot) const {
  const auto i = static_cast<std::size_t>(slot);
  if (slot < 0 || i >= tasks_.size() || !tasks_[i].live) {
    throw std::logic_error("CacheModel: unknown task");
  }
  return i;
}

double CacheModel::decayed_warmth(const TaskState& state) const {
  if (state.cpu == kInvalidCpu) return state.warmth;
  const SimDuration clock =
      thread_run_clock_[static_cast<std::size_t>(state.cpu)];
  // Everything that executed on our thread since the snapshot is pollution;
  // our own runtime advances the snapshot in note_ran, so it never counts.
  const SimDuration pollution = clock - state.clock_snapshot;
  if (pollution == 0) return state.warmth;
  const double decay = std::exp(-static_cast<double>(pollution) /
                                static_cast<double>(params_.evict_tau));
  return state.warmth * decay;
}

void CacheModel::note_placed(int slot, CpuId cpu) {
  TaskState& state = tasks_[index_of(slot)];
  if (state.cpu == cpu || state.cpu == kInvalidCpu ||
      topo_.caches_shared(state.cpu, cpu)) {
    // Same thread, first placement, or a shared-cache move: keep the
    // (decayed) warmth.
    state.warmth = decayed_warmth(state);
  } else {
    // Cross-cache migration: contents lost.
    state.warmth = params_.cold_warmth;
  }
  state.cpu = cpu;
  state.clock_snapshot = thread_run_clock_[static_cast<std::size_t>(cpu)];
}

void CacheModel::note_ran(int slot, CpuId cpu, SimDuration ran) {
  TaskState& state = tasks_[index_of(slot)];
  if (state.cpu != cpu) note_placed(slot, cpu);  // defensive
  auto& clock = thread_run_clock_[static_cast<std::size_t>(cpu)];
  // Warm up towards the ceiling: w' = W - (W - w) * exp(-ran / warm_tau).
  const double ceiling = params_.max_warmth;
  const double keep = std::exp(-static_cast<double>(ran) /
                               static_cast<double>(params_.warm_tau));
  const double current = std::min(decayed_warmth(state), ceiling);
  state.warmth = ceiling - (ceiling - current) * keep;
  clock += ran;
  state.clock_snapshot = clock;
}

double CacheModel::speed_factor(int slot, CpuId cpu) const {
  return 1.0 / (1.0 + params_.miss_penalty * (1.0 - warmth(slot, cpu)));
}

double CacheModel::warmth(int slot, CpuId cpu) const {
  const TaskState& state = tasks_[index_of(slot)];
  if (state.cpu == cpu) return decayed_warmth(state);
  if (state.cpu != kInvalidCpu && topo_.caches_shared(state.cpu, cpu)) {
    return decayed_warmth(state);
  }
  return state.cpu == kInvalidCpu ? state.warmth : params_.cold_warmth;
}

}  // namespace hpcs::hw
