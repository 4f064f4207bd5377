#include "hw/numa_model.h"

#include <algorithm>
#include <stdexcept>

namespace hpcs::hw {

NumaModel::NumaModel(const Topology& topo, NumaParams params)
    : topo_(topo), params_(params) {}

void NumaModel::on_task_created(int slot) {
  if (slot < 0) throw std::logic_error("NumaModel: negative slot");
  const auto i = static_cast<std::size_t>(slot);
  if (i >= tasks_.size()) tasks_.resize(i + 1);
  TaskState& state = tasks_[i];
  state.home = -1;
  state.accrued = 0;
  state.per_chip.assign(static_cast<std::size_t>(topo_.num_chips()), 0);
  state.live = true;
}

void NumaModel::on_task_exit(int slot) {
  if (slot >= 0 && static_cast<std::size_t>(slot) < tasks_.size()) {
    tasks_[static_cast<std::size_t>(slot)].live = false;
  }
}

std::size_t NumaModel::index_of(int slot) const {
  const auto i = static_cast<std::size_t>(slot);
  if (slot < 0 || i >= tasks_.size() || !tasks_[i].live) {
    throw std::logic_error("NumaModel: unknown task");
  }
  return i;
}

void NumaModel::note_ran(int slot, CpuId cpu, SimDuration ran) {
  TaskState& state = tasks_[index_of(slot)];
  if (state.home >= 0) return;
  state.per_chip[static_cast<std::size_t>(topo_.chip_of(cpu))] += ran;
  state.accrued += ran;
  if (state.accrued >= params_.first_touch_window) {
    state.home = static_cast<int>(
        std::max_element(state.per_chip.begin(), state.per_chip.end()) -
        state.per_chip.begin());
  }
}

double NumaModel::speed_factor(int slot, CpuId cpu) const {
  const TaskState& state = tasks_[index_of(slot)];
  if (state.home < 0 || state.home == topo_.chip_of(cpu)) return 1.0;
  return 1.0 - params_.remote_penalty;
}

int NumaModel::home_chip(int slot) const {
  if (slot < 0 || static_cast<std::size_t>(slot) >= tasks_.size()) return -1;
  const TaskState& state = tasks_[static_cast<std::size_t>(slot)];
  return state.live ? state.home : -1;
}

}  // namespace hpcs::hw
