#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "core/hpl.h"
#include "fault/injector.h"
#include "perf/perf_monitor.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace hpcs::exp {

const char* setup_name(Setup setup) {
  switch (setup) {
    case Setup::kStandardLinux: return "std-linux";
    case Setup::kRealTime: return "rt";
    case Setup::kNice: return "nice-20";
    case Setup::kPinned: return "affinity-pinned";
    case Setup::kHpl: return "hpl";
    case Setup::kHplNettick: return "hpl+nettick";
    case Setup::kHplNaive: return "hpl-naive-placement";
    case Setup::kHplNoIdleBalance: return "hpl-never-balance";
  }
  return "?";
}

bool setup_uses_hpl(Setup setup) {
  switch (setup) {
    case Setup::kHpl:
    case Setup::kHplNettick:
    case Setup::kHplNaive:
    case Setup::kHplNoIdleBalance:
      return true;
    default:
      return false;
  }
}

RunResult run_once(const RunConfig& config, std::uint64_t seed) {
  const auto host_start = std::chrono::steady_clock::now();
  util::SplitMix64 seeder(seed);
  sim::Engine engine;

  kernel::KernelConfig kc = config.kernel;
  if (config.setup == Setup::kHplNettick) kc.tickless_single = true;
  kernel::Kernel kernel(engine, kc);

  if (setup_uses_hpl(config.setup)) {
    hpl::HplOptions options;
    if (config.setup == Setup::kHplNaive) {
      options.hpc.placement = hpl::Placement::kLinear;
    }
    if (config.setup == Setup::kHplNoIdleBalance) {
      options.allow_balancing_when_hpc_idle = false;
    }
    hpl::install(kernel, options);
  }
  if (config.check_invariants) kernel.set_invariant_checks(true);
  kernel.boot();

  workloads::NoiseConfig noise = config.noise;
  noise.seed = seeder.next();
  workloads::spawn_standard_node_daemons(kernel, noise);

  mpi::MpiConfig mc = config.mpi;
  mc.seed = seeder.next();
  if (config.setup == Setup::kPinned) mc.pin_ranks = true;
  if (config.setup == Setup::kNice) mc.rank_nice = kernel::kMinNice;
  mpi::MpiWorld world(kernel, mc, config.program);
  mpi::Launcher launcher(kernel, world);
  perf::PerfMonitor monitor(kernel);
  fault::FaultInjector injector(kernel, config.faults);
  injector.arm(&world);

  // Let the boot transients and daemon phases settle before measuring.
  engine.run_until(config.settle);

  mpi::LaunchOptions lo;
  switch (config.setup) {
    case Setup::kRealTime:
      lo.app_policy = kernel::Policy::kFifo;
      lo.rt_prio = 50;
      break;
    case Setup::kHpl:
    case Setup::kHplNettick:
    case Setup::kHplNaive:
    case Setup::kHplNoIdleBalance:
      lo.app_policy = kernel::Policy::kHpc;
      break;
    default:
      lo.app_policy = kernel::Policy::kNormal;
      break;
  }

  monitor.start();
  const hw::EnergyInputs energy_start = kernel.energy_inputs();
  const SimTime window_start = engine.now();
  hw::EnergyInputs energy_end;
  SimTime window_end = window_start;
  bool window_closed = false;
  const kernel::Tid perf_tid = launcher.start(lo);
  // Close the measurement window the instant perf exits, like the real tool.
  kernel.add_exit_listener([&, perf_tid](kernel::Task& t) {
    if (t.tid != perf_tid) return;
    monitor.stop();
    energy_end = kernel.energy_inputs();
    window_end = engine.now();
    window_closed = true;
  });

  const SimTime deadline = engine.now() + config.timeout;
  while (!launcher.done() && engine.now() < deadline && engine.pending() > 0) {
    engine.run_until(std::min<SimTime>(engine.now() + 100 * kMillisecond,
                                       deadline));
  }
  monitor.stop();

  RunResult result;
  result.seed = seed;
  result.completed = launcher.done() && world.finished() && !world.failed();
  result.faults = injector.report();
  result.faults.merge(world.fault_report());
  result.lost_work_seconds = to_seconds(result.faults.lost_work_ns);
  result.restart_overhead_seconds =
      to_seconds(result.faults.restart_overhead_ns);
  if (world.finished()) {
    result.app_seconds = to_seconds(world.finish_time() - world.start_time());
  }
  result.perf_window_seconds = to_seconds(monitor.window());
  const auto& counts = monitor.counts();
  result.context_switches = counts.context_switches;
  result.cpu_migrations = counts.cpu_migrations;
  result.preemptions = counts.preemptions;
  result.wakeups = counts.wakeups;
  result.events = engine.stats().dispatched;
  result.ticks = kernel.counters().ticks;

  // Energy over the measurement window (delta of the kernel's aggregates).
  if (!window_closed) {
    energy_end = kernel.energy_inputs();
    window_end = engine.now();
  }
  hw::EnergyInputs window;
  window.busy_ns = energy_end.busy_ns - energy_start.busy_ns;
  window.smt_paired_ns = energy_end.smt_paired_ns - energy_start.smt_paired_ns;
  window.smt_extra_ns = energy_end.smt_extra_ns - energy_start.smt_extra_ns;
  window.spin_ns = energy_end.spin_ns - energy_start.spin_ns;
  window.idle_ns = energy_end.idle_ns - energy_start.idle_ns;
  window.context_switches =
      energy_end.context_switches - energy_start.context_switches;
  window.migrations = energy_end.migrations - energy_start.migrations;
  window.ticks = energy_end.ticks - energy_start.ticks;
  const hw::EnergyReport energy =
      hw::compute_energy(window, hw::PowerParams{}, window_end - window_start);
  result.energy_joules = energy.total_joules();
  result.spin_seconds = to_seconds(window.spin_ns);
  result.average_watts = energy.average_watts();
  result.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  return result;
}

util::Samples Series::seconds() const {
  util::Samples s;
  for (const auto& r : runs) {
    if (r.completed) s.add(r.app_seconds);
  }
  return s;
}

util::Samples Series::migrations() const {
  util::Samples s;
  for (const auto& r : runs) {
    if (r.completed) s.add(static_cast<double>(r.cpu_migrations));
  }
  return s;
}

util::Samples Series::switches() const {
  util::Samples s;
  for (const auto& r : runs) {
    if (r.completed) s.add(static_cast<double>(r.context_switches));
  }
  return s;
}

std::uint64_t Series::slowest_seed() const {
  std::uint64_t seed = 0;
  double worst = -1.0;
  for (const auto& r : runs) {
    if (r.host_seconds > worst) {
      worst = r.host_seconds;
      seed = r.seed;
    }
  }
  return seed;
}

std::vector<std::string> Series::errors() const {
  std::vector<std::string> out;
  for (const auto& r : runs) {
    if (!r.error.empty()) out.push_back(r.error);
  }
  return out;
}

int SweepOptions::resolved_threads(int count) const {
  int n = threads;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  return std::clamp(n, 1, std::max(count, 1));
}

namespace {

/// One sweep slot: run_once wrapped so an exploding run (an invariant
/// violation, a workload bug) is recorded instead of taking the rest of the
/// sweep down with it.  host_seconds is measured here, per run and on the
/// monotonic clock, so it stays a per-run triage handle — never a slice of
/// some serial loop — and parallel execution cannot skew it.
RunResult guarded_run(const RunConfig& config, std::uint64_t seed) {
  const auto host_start = std::chrono::steady_clock::now();
  RunResult r;
  try {
    r = run_once(config, seed);
  } catch (const std::exception& e) {
    r = RunResult{};
    r.completed = false;
    r.error = e.what();
  }
  r.seed = seed;
  r.host_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - host_start)
                       .count();
  return r;
}

}  // namespace

Series run_series(const RunConfig& config, int count, std::uint64_t base_seed,
                  const SweepOptions& options) {
  Series series;
  if (count <= 0) return series;
  series.runs.resize(static_cast<std::size_t>(count));
  const int workers = options.resolved_threads(count);
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) {
      series.runs[static_cast<std::size_t>(i)] =
          guarded_run(config, base_seed + static_cast<std::uint64_t>(i));
    }
  } else {
    // Work-stealing by atomic counter: slot i always runs seed base_seed+i
    // and lands in runs[i], so the aggregate is independent of which worker
    // picked it up or in what order runs finished.
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (int i = next.fetch_add(1, std::memory_order_relaxed); i < count;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          series.runs[static_cast<std::size_t>(i)] =
              guarded_run(config, base_seed + static_cast<std::uint64_t>(i));
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  for (const auto& r : series.runs) {
    if (!r.completed) ++series.failures;
  }
  return series;
}

Series run_series(const RunConfig& config, int count, std::uint64_t base_seed) {
  return run_series(config, count, base_seed, SweepOptions{});
}

}  // namespace hpcs::exp
