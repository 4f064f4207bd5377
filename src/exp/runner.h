// The experiment runner: one measured run = one freshly booted simulated
// node + daemons + a perf/chrt/mpiexec launch of the workload, repeated over
// seeds to build the distributions the paper reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fault/fault_plan.h"
#include "kernel/kernel.h"
#include "mpi/launch.h"
#include "mpi/program.h"
#include "mpi/world.h"
#include "util/stats.h"
#include "workloads/daemons.h"

namespace hpcs::exp {

/// The scheduler configurations compared in the paper (plus ablations).
enum class Setup {
  kStandardLinux,   // CFS, stock balancing           (Table Ia, II left)
  kRealTime,        // SCHED_FIFO ranks               (Fig 4)
  kNice,            // CFS ranks at nice -20          (Section IV discussion)
  kPinned,          // CFS ranks + sched_setaffinity  (static binding)
  kHpl,             // the HPC class                  (Table Ib, II right)
  kHplNettick,      // HPL + NETTICK-style tick suppression
  kHplNaive,        // HPL with linear (non-topology-aware) fork placement
  kHplNoIdleBalance,  // HPL that suppresses balancing even with no HPC tasks
};

const char* setup_name(Setup setup);
bool setup_uses_hpl(Setup setup);

struct RunConfig {
  Setup setup = Setup::kStandardLinux;
  kernel::KernelConfig kernel;
  workloads::NoiseConfig noise;
  mpi::MpiConfig mpi;
  mpi::Program program;
  /// Simulated time the node runs before the job launches (daemons settle).
  SimDuration settle = 50 * kMillisecond;
  /// Abort threshold for one run.
  SimDuration timeout = 600 * kSecond;
  /// Faults injected into the run (empty = fault-free).  Times are relative
  /// to the same clock as `settle` (absolute simulated time).
  fault::FaultPlan faults;
  /// Run the kernel invariant checker after every event (slow; robustness
  /// experiments and HPCS_CHECK_INVARIANTS builds turn it on).
  bool check_invariants = false;
};

struct RunResult {
  bool completed = false;
  /// The seed that produced this run — lets a sweep replay any single
  /// outlier in isolation.
  std::uint64_t seed = 0;
  /// Host wall-clock the run cost (real time, not simulated): the triage
  /// handle for slow/pathological runs in big sweeps.
  double host_seconds = 0.0;
  double app_seconds = 0.0;  // mpiexec launch -> last rank exit
  double perf_window_seconds = 0.0;
  std::uint64_t context_switches = 0;
  std::uint64_t cpu_migrations = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t wakeups = 0;
  /// Simulation cost of the whole run, settle phase included: engine events
  /// dispatched and periodic ticks handled.  Pure functions of the seed.
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  // Power-model outputs over the measurement window (paper future work).
  double energy_joules = 0.0;
  double spin_seconds = 0.0;  // CPU time burnt busy-waiting at match points
  double average_watts = 0.0;
  // Robustness outputs.
  fault::FaultReport faults;  // injected actions + runtime reactions
  /// Simulated work discarded by rank deaths (since each victim's last
  /// committed sync point — an aborted checkpoint write earns no credit).
  double lost_work_seconds = 0.0;
  /// Detection latency + respawn delay summed over restarts.
  double restart_overhead_seconds = 0.0;
  // Workflow outputs (run_workflow_once; zero for node-level runs).
  double workflow_makespan_seconds = 0.0;
  double workflow_cp_stretch = 0.0;        // makespan / ideal critical path
  double workflow_dep_stall_seconds = 0.0;  // mean held-on-deps time per job
  std::string error;          // exception text when the run itself blew up
};

/// Execute one run; `seed` drives every random stream.
RunResult run_once(const RunConfig& config, std::uint64_t seed);

/// How a sweep is executed.  Results are bit-identical regardless of thread
/// count: every run owns a private Engine and derives all of its random
/// streams from its own seed, and the runs vector is ordered by seed slot,
/// not completion order.  (host_seconds is the one wall-clock field and is
/// exempt from that guarantee.)
struct SweepOptions {
  /// Worker threads; 1 = serial (the default), 0 = hardware concurrency.
  int threads = 1;

  int resolved_threads(int count) const;
};

struct Series {
  std::vector<RunResult> runs;
  int failures = 0;

  util::Samples seconds() const;
  util::Samples migrations() const;
  util::Samples switches() const;
  /// Seed of the run with the largest host wall-clock cost (0 when the
  /// series is empty): the first run to re-examine when a sweep is slow.
  std::uint64_t slowest_seed() const;
  /// Error messages of runs that threw (a sweep survives a crashing run:
  /// run_series records the exception and moves on to the next seed).
  std::vector<std::string> errors() const;
};

/// Execute `count` runs with seeds base_seed, base_seed+1, ...  A thread
/// pool of `options.threads` workers pulls run slots from a shared counter;
/// each worker executes whole runs, so the simulation itself stays
/// single-threaded per engine.
Series run_series(const RunConfig& config, int count, std::uint64_t base_seed,
                  const SweepOptions& options);

/// Serial convenience overload (SweepOptions{.threads = 1}).
Series run_series(const RunConfig& config, int count, std::uint64_t base_seed);

}  // namespace hpcs::exp
