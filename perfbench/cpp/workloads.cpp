#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Layers::add_named(const std::string& name, double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.9g", value);
  named.emplace_back(name, text);
}

void fix_offered_load(std::vector<hpcs::batch::JobSpec>& jobs,
                      hpcs::SimTime span, double node_time) {
  if (jobs.empty()) return;
  const double last = static_cast<double>(jobs.back().arrival);
  double total = 0.0;
  for (const hpcs::batch::JobSpec& job : jobs) {
    total += static_cast<double>(job.nodes) * job.iterations *
             static_cast<double>(job.grain);
  }
  const double factor = node_time / total;
  for (hpcs::batch::JobSpec& job : jobs) {
    if (last > 0.0) {
      job.arrival = static_cast<hpcs::SimTime>(
          static_cast<double>(job.arrival) * static_cast<double>(span) / last);
    }
    const int iterations = std::max(
        1, static_cast<int>(std::lround(job.iterations * factor)));
    job.estimate = static_cast<hpcs::SimDuration>(
        static_cast<double>(job.estimate) * iterations / job.iterations);
    job.iterations = iterations;
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "scale_loaded", "replay_skewed", "nas_suite", "twolevel"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "scale_loaded") return make_scale_loaded(seed);
  if (name == "replay_skewed") return make_replay_skewed(seed);
  if (name == "nas_suite") return make_nas_suite(seed);
  if (name == "twolevel") return make_twolevel(seed);
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sim.events", "count"},
      {"sim.sharded.rounds", "count"},
      {"sim.sharded.messages", "count"},
      {"par.t1_wall_s", "s"},
      {"par.wall_s", "s"},
      {"par.speedup", "x"},
      {"par.busy_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"batch.forwards", "count"},
      {"batch.gossip", "count"},
      {"batch.preemptions", "count"},
      {"batch.scheduler.backfills", "count"},
      {"batch.scheduler.reservation_violations", "count"},
      {"batch.allocator.allocations", "count"},
      {"batch.allocator.fragmented", "count"},
      {"kernel.context_switches.std", "count"},
      {"kernel.context_switches.hpl", "count"},
      {"kernel.cpu_migrations.std", "count"},
      {"kernel.cpu_migrations.hpl", "count"},
      {"kernel.preemptions.std", "count"},
      {"kernel.preemptions.hpl", "count"},
      {"kernel.wakeups.std", "count"},
      {"kernel.wakeups.hpl", "count"},
      {"net.messages", "count"},
  };
  return units;
}

}  // namespace perfbench
