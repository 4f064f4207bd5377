// Tests for the schedstat renderer and the trace-analysis tooling.
#include <gtest/gtest.h>

#include <memory>

#include "kernel/behaviors.h"
#include "kernel/kernel.h"
#include "perf/schedstat.h"
#include "perf/trace_analysis.h"
#include "sim/engine.h"

namespace hpcs::perf {
namespace {

using kernel::Action;
using kernel::Kernel;
using kernel::KernelConfig;
using kernel::Tid;

class PerfToolsTest : public ::testing::Test {
 protected:
  PerfToolsTest() : kernel_(engine_, KernelConfig{}) {
    kernel_.trace().set_enabled(true);
    kernel_.boot();
  }

  Tid spawn_compute(std::string name, SimDuration work,
                    kernel::CpuMask affinity = kernel::cpu_mask_all()) {
    kernel::SpawnSpec spec;
    spec.name = std::move(name);
    spec.affinity = affinity;
    spec.behavior = std::make_unique<kernel::ScriptBehavior>(
        std::vector<Action>{Action::compute(work)});
    return kernel_.spawn(std::move(spec));
  }

  sim::Engine engine_;
  Kernel kernel_;
};

// --- schedstat ---------------------------------------------------------------

TEST_F(PerfToolsTest, CpuStatsAccountUtilization) {
  spawn_compute("busy", milliseconds(40), kernel::cpu_mask_of(0));
  engine_.run_until(milliseconds(100));
  const auto stats = cpu_stats(kernel_);
  ASSERT_EQ(stats.size(), 8u);
  EXPECT_GT(stats[0].utilization_pct, 30.0);
  EXPECT_LT(stats[3].utilization_pct, 5.0);
  for (const auto& s : stats) {
    EXPECT_NEAR(s.busy_seconds + s.idle_seconds, 0.1, 1e-6);
  }
}

TEST_F(PerfToolsTest, MachineUtilizationAveragesCpus) {
  EXPECT_DOUBLE_EQ(machine_utilization(kernel_), 0.0);  // nothing ran yet
  // One CPU pinned busy for 40 of 100ms, seven idle: ~5% of the machine.
  spawn_compute("busy", milliseconds(40), kernel::cpu_mask_of(0));
  engine_.run_until(milliseconds(100));
  const double util = machine_utilization(kernel_);
  EXPECT_GT(util, 0.04);
  EXPECT_LT(util, 0.10);
  // Consistent with the per-CPU view it aggregates.
  double sum = 0.0;
  for (const auto& s : cpu_stats(kernel_)) sum += s.utilization_pct / 100.0;
  EXPECT_NEAR(util, sum / 8.0, 1e-9);
}

TEST_F(PerfToolsTest, TaskStatsReflectAccounting) {
  const Tid tid = spawn_compute("worker", milliseconds(10));
  engine_.run_until(milliseconds(50));
  const auto stats = task_stats(kernel_, {tid, 99999});
  ASSERT_EQ(stats.size(), 1u);  // unknown tid skipped
  EXPECT_EQ(stats[0].name, "worker");
  EXPECT_GT(stats[0].runtime_seconds, 0.009);
  EXPECT_EQ(stats[0].policy, std::string("SCHED_NORMAL"));
  EXPECT_EQ(stats[0].state, std::string("exited"));
}

TEST_F(PerfToolsTest, SchedstatRenderMentionsCountersAndCpus) {
  spawn_compute("t", milliseconds(5));
  engine_.run_until(milliseconds(20));
  const std::string text = render_schedstat(kernel_);
  EXPECT_NE(text.find("cpu0"), std::string::npos);
  EXPECT_NE(text.find("cpu7"), std::string::npos);
  EXPECT_NE(text.find("sched_switches"), std::string::npos);
  EXPECT_NE(text.find("sched_migrations"), std::string::npos);
  // Always-on engine counters ride along in the same report.
  EXPECT_NE(text.find("engine_events"), std::string::npos);
  EXPECT_NE(text.find("engine_cancels"), std::string::npos);
  EXPECT_NE(text.find("engine_heap_hwm"), std::string::npos);
  // The CPU that ran the task re-armed its tick in place at least once.
  EXPECT_EQ(text.find("engine_reschedules 0\n"), std::string::npos);
  EXPECT_NE(text.find("engine_reschedules "), std::string::npos);
  EXPECT_NE(text.find("engine_dispatch_rate"), std::string::npos);
}

TEST_F(PerfToolsTest, TaskSchedRender) {
  const Tid tid = spawn_compute("proc", milliseconds(5));
  engine_.run_until(milliseconds(20));
  const std::string text = render_task_sched(kernel_, tid);
  EXPECT_NE(text.find("proc"), std::string::npos);
  EXPECT_NE(text.find("se.sum_exec_runtime"), std::string::npos);
  EXPECT_NE(text.find("nr_switches"), std::string::npos);
  EXPECT_NE(render_task_sched(kernel_, 424242).find("unknown"),
            std::string::npos);
}

// --- trace analysis ----------------------------------------------------------

TEST_F(PerfToolsTest, SegmentsReconstructRuntime) {
  const Tid tid =
      spawn_compute("seg", milliseconds(10), kernel::cpu_mask_of(2));
  engine_.run_until(milliseconds(100));
  const TraceAnalysis analysis(kernel_.trace());
  EXPECT_GT(analysis.switch_count(), 0u);
  const auto runtime = analysis.runtime_by_task();
  const auto it = runtime.find(tid);
  ASSERT_NE(it, runtime.end());
  // Segment-reconstructed runtime matches the kernel's accounting within
  // the switch overheads.
  const double expect = to_seconds(kernel_.task(tid).acct.runtime);
  EXPECT_NEAR(to_seconds(it->second), expect, 0.002);
}

TEST_F(PerfToolsTest, InterruptionsDetected) {
  const kernel::CpuMask mask = kernel::cpu_mask_of(4);
  const Tid victim = spawn_compute("victim", milliseconds(30), mask);
  engine_.run_until(milliseconds(5));
  // An RT intruder carves a hole in the victim's execution.
  kernel::SpawnSpec spec;
  spec.name = "intruder";
  spec.policy = kernel::Policy::kFifo;
  spec.rt_prio = 50;
  spec.affinity = mask;
  spec.behavior = std::make_unique<kernel::ScriptBehavior>(
      std::vector<Action>{Action::compute(milliseconds(2))});
  const Tid intruder = kernel_.spawn(std::move(spec));
  engine_.run_until(milliseconds(100));

  const TraceAnalysis analysis(kernel_.trace());
  const auto events = analysis.interruptions_of(victim);
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].intruder, intruder);
  EXPECT_GT(events[0].length, milliseconds(1));
}

TEST_F(PerfToolsTest, MigrationMatrixCountsMoves) {
  const Tid tid =
      spawn_compute("mover", milliseconds(30), kernel::cpu_mask_of(1));
  engine_.run_until(milliseconds(5));
  ASSERT_TRUE(kernel_.sys_setaffinity(tid, kernel::cpu_mask_of(6)));
  engine_.run_until(milliseconds(50));
  const TraceAnalysis analysis(kernel_.trace());
  const auto matrix = analysis.migration_matrix(8);
  EXPECT_GE(matrix[1][6], 1);
}

TEST_F(PerfToolsTest, LongestSegmentGrowsWithoutNoise) {
  const Tid tid =
      spawn_compute("solo", milliseconds(50), kernel::cpu_mask_of(3));
  engine_.run_until(milliseconds(200));
  const TraceAnalysis analysis(kernel_.trace());
  const auto longest = analysis.longest_segment_by_task();
  const auto it = longest.find(tid);
  ASSERT_NE(it, longest.end());
  // Alone on its CPU the task runs its full demand in one stretch.
  EXPECT_GT(it->second, milliseconds(40));
}

}  // namespace
}  // namespace hpcs::perf
