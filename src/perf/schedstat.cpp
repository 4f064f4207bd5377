#include "perf/schedstat.h"

#include <sstream>

#include "util/stats.h"

namespace hpcs::perf {

std::vector<CpuStat> cpu_stats(kernel::Kernel& kernel) {
  std::vector<CpuStat> out;
  const double now = to_seconds(kernel.now());
  for (hw::CpuId cpu = 0; cpu < kernel.topology().num_cpus(); ++cpu) {
    CpuStat stat;
    stat.cpu = cpu;
    stat.idle_seconds = to_seconds(kernel.idle_time(cpu));
    stat.busy_seconds = now - stat.idle_seconds;
    stat.utilization_pct = now > 0 ? stat.busy_seconds / now * 100.0 : 0.0;
    const kernel::Task* cur = kernel.current_on(cpu);
    stat.current_task = cur != nullptr ? cur->name : "?";
    stat.nr_running = kernel.nr_running(cpu);
    out.push_back(std::move(stat));
  }
  return out;
}

double machine_utilization(kernel::Kernel& kernel) {
  const int ncpus = kernel.topology().num_cpus();
  if (kernel.now() == 0 || ncpus == 0) return 0.0;
  const double now = to_seconds(kernel.now());
  double busy = 0.0;
  for (hw::CpuId cpu = 0; cpu < ncpus; ++cpu) {
    busy += now - to_seconds(kernel.idle_time(cpu));
  }
  return busy / (now * static_cast<double>(ncpus));
}

std::vector<TaskStat> task_stats(kernel::Kernel& kernel,
                                 const std::vector<kernel::Tid>& tids) {
  std::vector<TaskStat> out;
  for (kernel::Tid tid : tids) {
    const kernel::Task* t = kernel.find_task(tid);
    if (t == nullptr) continue;
    TaskStat stat;
    stat.tid = tid;
    stat.name = t->name;
    stat.policy = kernel::policy_name(t->policy);
    stat.state = kernel::task_state_name(t->state);
    stat.runtime_seconds = to_seconds(t->acct.runtime);
    stat.spin_seconds = to_seconds(t->acct.spin_time);
    stat.switches = t->acct.switches_out;
    stat.migrations = t->acct.migrations;
    stat.preemptions = t->acct.preemptions;
    out.push_back(std::move(stat));
  }
  return out;
}

std::string render_schedstat(kernel::Kernel& kernel) {
  std::ostringstream out;
  out << "version 15 (hpcsched)\n";
  out << "timestamp " << kernel.now() << "\n";
  for (const CpuStat& stat : cpu_stats(kernel)) {
    out << "cpu" << stat.cpu << " busy "
        << util::format_fixed(stat.busy_seconds, 6) << "s idle "
        << util::format_fixed(stat.idle_seconds, 6) << "s util "
        << util::format_fixed(stat.utilization_pct, 2) << "% nr_running "
        << stat.nr_running << " current " << stat.current_task << "\n";
  }
  const auto& counters = kernel.counters();
  out << "sched_switches " << counters.context_switches << "\n";
  out << "sched_migrations " << counters.cpu_migrations << "\n";
  out << "sched_preemptions " << counters.preemptions << "\n";
  out << "sched_ticks " << counters.ticks << "\n";
  out << "balance_moves " << counters.balance_moves << "\n";
  out << "active_balances " << counters.active_balances << "\n";
  // Fault-injection / hotplug counters (zero on fault-free runs).
  out << "cpu_offlines " << counters.cpu_offlines << "\n";
  out << "cpu_onlines " << counters.cpu_onlines << "\n";
  out << "hotplug_migrations " << counters.hotplug_migrations << "\n";
  out << "task_kills " << counters.task_kills << "\n";
  // Always-on event-engine counters: dispatch volume/rate and the heap
  // high-water mark (bounded hwm under cancellation churn means the queue
  // is not accumulating dead entries).
  const sim::Engine& engine = kernel.engine();
  const sim::EngineStats& es = engine.stats();
  out << "engine_events " << es.dispatched << "\n";
  out << "engine_cancels " << es.cancelled << "\n";
  out << "engine_reschedules " << es.rescheduled << "\n";
  out << "engine_pending " << engine.pending() << "\n";
  out << "engine_heap_hwm " << es.heap_high_water << "\n";
  out << "engine_dispatch_rate "
      << util::format_fixed(engine.dispatch_rate(), 0) << " events/sim_s\n";
  return out.str();
}

std::string render_task_sched(kernel::Kernel& kernel, kernel::Tid tid) {
  const kernel::Task* t = kernel.find_task(tid);
  std::ostringstream out;
  if (t == nullptr) {
    out << "task " << tid << ": unknown\n";
    return out.str();
  }
  out << t->name << " (" << tid << ", " << kernel::policy_name(t->policy)
      << ")\n";
  out << "---------------------------------------------------------\n";
  auto row = [&](const char* key, const std::string& value) {
    out << key << " : " << value << "\n";
  };
  row("se.sum_exec_runtime     ",
      util::format_fixed(to_seconds(t->acct.runtime) * 1000.0, 6) + " ms");
  row("se.spin_wait_runtime    ",
      util::format_fixed(to_seconds(t->acct.spin_time) * 1000.0, 6) + " ms");
  row("se.nr_migrations        ", std::to_string(t->acct.migrations));
  row("nr_switches             ", std::to_string(t->acct.switches_out));
  row("nr_involuntary_switches ", std::to_string(t->acct.preemptions));
  row("state                   ", kernel::task_state_name(t->state));
  row("cpu                     ", std::to_string(t->cpu));
  row("nice                    ", std::to_string(t->nice));
  row("vruntime                ", std::to_string(t->vruntime));
  return out.str();
}

}  // namespace hpcs::perf
