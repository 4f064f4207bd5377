// Tests for the perf monitor and the experiment harness / report builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "exp/report.h"
#include "exp/runner.h"
#include "kernel/behaviors.h"
#include "perf/perf_monitor.h"
#include "sim/engine.h"
#include "workloads/nas.h"

namespace hpcs {
namespace {

using kernel::Action;
using kernel::Kernel;
using kernel::KernelConfig;
using kernel::ScriptBehavior;
using kernel::SpawnSpec;

// --- perf monitor ------------------------------------------------------------

class PerfTest : public ::testing::Test {
 protected:
  PerfTest() : kernel_(engine_, KernelConfig{}), monitor_(kernel_) {
    kernel_.boot();
  }

  void spawn_short(std::string name) {
    SpawnSpec spec;
    spec.name = std::move(name);
    spec.behavior = std::make_unique<ScriptBehavior>(
        std::vector<Action>{Action::compute(milliseconds(1))});
    kernel_.spawn(std::move(spec));
  }

  sim::Engine engine_;
  Kernel kernel_;
  perf::PerfMonitor monitor_;
};

TEST_F(PerfTest, CountsOnlyWhileRunning) {
  spawn_short("before");
  engine_.run_until(milliseconds(10));
  EXPECT_EQ(monitor_.counts().context_switches, 0u);

  monitor_.start();
  spawn_short("during");
  engine_.run_until(milliseconds(20));
  monitor_.stop();
  const auto counted = monitor_.counts().context_switches;
  EXPECT_GE(counted, 2u);

  spawn_short("after");
  engine_.run_until(milliseconds(30));
  EXPECT_EQ(monitor_.counts().context_switches, counted);
}

TEST_F(PerfTest, WindowMeasuresElapsed) {
  monitor_.start();
  engine_.run_until(milliseconds(10));
  monitor_.stop();
  engine_.run_until(milliseconds(30));
  monitor_.start();
  engine_.run_until(milliseconds(35));
  monitor_.stop();
  EXPECT_EQ(monitor_.window(), milliseconds(15));
}

TEST_F(PerfTest, ResetClearsCounts) {
  monitor_.start();
  spawn_short("t");
  engine_.run_until(milliseconds(10));
  monitor_.stop();
  monitor_.reset();
  EXPECT_EQ(monitor_.counts().context_switches, 0u);
  EXPECT_EQ(monitor_.counts().cpu_migrations, 0u);
}

TEST_F(PerfTest, TracksAllEventKinds) {
  monitor_.start();
  SpawnSpec spec;
  spec.name = "napper";
  spec.behavior = std::make_unique<ScriptBehavior>(std::vector<Action>{
      Action::compute(microseconds(100)), Action::sleep(milliseconds(1)),
      Action::compute(microseconds(100))});
  kernel_.spawn(std::move(spec));
  engine_.run_until(milliseconds(20));
  monitor_.stop();
  const auto& c = monitor_.counts();
  EXPECT_GE(c.forks, 1u);
  EXPECT_GE(c.exits, 1u);
  EXPECT_GE(c.wakeups, 1u);
  EXPECT_GE(c.context_switches, 2u);
}

TEST_F(PerfTest, ReportMentionsEvents) {
  monitor_.start();
  spawn_short("t");
  engine_.run_until(milliseconds(5));
  monitor_.stop();
  const std::string report = monitor_.report();
  EXPECT_NE(report.find("context-switches"), std::string::npos);
  EXPECT_NE(report.find("cpu-migrations"), std::string::npos);
  EXPECT_NE(report.find("seconds time elapsed"), std::string::npos);
}

// --- experiment runner -------------------------------------------------------

exp::RunConfig tiny_config(exp::Setup setup) {
  exp::RunConfig config;
  config.setup = setup;
  mpi::Program p;
  p.barrier().loop(3).compute(milliseconds(2), 0.01).allreduce(8).end_loop();
  config.program = p;
  config.mpi.nranks = 8;
  return config;
}

TEST(RunnerTest, RunOnceCompletes) {
  const exp::RunResult r =
      exp::run_once(tiny_config(exp::Setup::kStandardLinux), 1);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.app_seconds, 0.0);
  EXPECT_GT(r.context_switches, 0u);
  EXPECT_GT(r.perf_window_seconds, r.app_seconds);
}

TEST(RunnerTest, Deterministic) {
  const auto config = tiny_config(exp::Setup::kHpl);
  const exp::RunResult a = exp::run_once(config, 7);
  const exp::RunResult b = exp::run_once(config, 7);
  EXPECT_EQ(a.app_seconds, b.app_seconds);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.cpu_migrations, b.cpu_migrations);
}

TEST(RunnerTest, AllSetupsComplete) {
  for (exp::Setup setup :
       {exp::Setup::kStandardLinux, exp::Setup::kRealTime, exp::Setup::kNice,
        exp::Setup::kPinned, exp::Setup::kHpl, exp::Setup::kHplNettick,
        exp::Setup::kHplNaive, exp::Setup::kHplNoIdleBalance}) {
    const exp::RunResult r = exp::run_once(tiny_config(setup), 3);
    EXPECT_TRUE(r.completed) << exp::setup_name(setup);
  }
}

TEST(RunnerTest, SeriesCollectsRuns) {
  const exp::Series series =
      exp::run_series(tiny_config(exp::Setup::kHpl), 4, 100);
  EXPECT_EQ(series.runs.size(), 4u);
  EXPECT_EQ(series.failures, 0);
  EXPECT_EQ(series.seconds().count(), 4u);
  EXPECT_GT(series.migrations().mean(), 0.0);
}

TEST(RunnerTest, SeriesRecordsSeedAndHostCostPerRun) {
  const exp::Series series =
      exp::run_series(tiny_config(exp::Setup::kStandardLinux), 3, 500);
  ASSERT_EQ(series.runs.size(), 3u);
  for (std::size_t i = 0; i < series.runs.size(); ++i) {
    // Each run carries the seed that produced it, so any outlier in a sweep
    // can be replayed in isolation with run_once(config, seed).
    EXPECT_EQ(series.runs[i].seed, 500u + i);
    EXPECT_GT(series.runs[i].host_seconds, 0.0);
  }
  // slowest_seed picks the run with the largest host wall-clock.
  const std::uint64_t slow = series.slowest_seed();
  const auto it =
      std::find_if(series.runs.begin(), series.runs.end(),
                   [&](const exp::RunResult& r) { return r.seed == slow; });
  ASSERT_NE(it, series.runs.end());
  for (const exp::RunResult& r : series.runs) {
    EXPECT_LE(r.host_seconds, it->host_seconds);
  }
}

TEST(RunnerTest, RunResultPinsEventAndTickCounts) {
  // The simulation cost of one is.A.8 run per scheduler.  These are pure
  // functions of the seed: a change to how the engine queues events (for
  // example re-arming in place) must leave the set of events that fire, and
  // so these counts, exactly as they are.
  const workloads::NasInstance inst{workloads::NasBenchmark::kIS,
                                    workloads::NasClass::kA, 8};
  exp::RunConfig config;
  config.program = workloads::build_nas_program(inst);
  config.mpi.nranks = inst.nranks;
  config.setup = exp::Setup::kStandardLinux;
  const exp::RunResult cfs = exp::run_once(config, 1);
  ASSERT_TRUE(cfs.completed);
  EXPECT_EQ(cfs.events, 3586u);
  EXPECT_EQ(cfs.ticks, 2891u);
  config.setup = exp::Setup::kHpl;
  const exp::RunResult hpl = exp::run_once(config, 1);
  ASSERT_TRUE(hpl.completed);
  EXPECT_EQ(hpl.events, 3579u);
  EXPECT_EQ(hpl.ticks, 2891u);
}

TEST(RunnerTest, SetupNamesDistinct) {
  std::set<std::string> names;
  for (exp::Setup setup :
       {exp::Setup::kStandardLinux, exp::Setup::kRealTime, exp::Setup::kNice,
        exp::Setup::kPinned, exp::Setup::kHpl, exp::Setup::kHplNettick,
        exp::Setup::kHplNaive, exp::Setup::kHplNoIdleBalance}) {
    names.insert(exp::setup_name(setup));
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(RunnerTest, HplNeverUsesMoreMigrationsThanStd) {
  // On this tiny workload both setups may bottom out at the placement
  // floor; HPL must never exceed standard Linux.
  const exp::Series std_series =
      exp::run_series(tiny_config(exp::Setup::kStandardLinux), 3, 42);
  const exp::Series hpl_series =
      exp::run_series(tiny_config(exp::Setup::kHpl), 3, 42);
  EXPECT_LE(hpl_series.migrations().mean(), std_series.migrations().mean());
}

// --- report builders ---------------------------------------------------------

TEST(ReportTest, NoiseTableShape) {
  std::vector<exp::NasSeries> rows;
  exp::NasSeries row;
  row.instance = {workloads::NasBenchmark::kEP, workloads::NasClass::kA, 8};
  exp::RunResult r;
  r.completed = true;
  r.app_seconds = 8.6;
  r.cpu_migrations = 12;
  r.context_switches = 350;
  row.series.runs = {r, r};
  rows.push_back(row);
  const util::Table table = exp::scheduler_noise_table(rows);
  const std::string out = table.render();
  EXPECT_NE(out.find("ep.A.8"), std::string::npos);
  EXPECT_NE(out.find("12"), std::string::npos);
  EXPECT_NE(out.find("350"), std::string::npos);
}

TEST(ReportTest, ExecutionTableShape) {
  exp::NasSeries row;
  row.instance = {workloads::NasBenchmark::kEP, workloads::NasClass::kA, 8};
  exp::RunResult slow, fast;
  slow.completed = fast.completed = true;
  slow.app_seconds = 14.59;
  fast.app_seconds = 8.54;
  row.series.runs = {fast, slow};
  exp::NasSeries hpl_row = row;
  exp::RunResult tight = fast;
  hpl_row.series.runs = {tight, tight};
  const util::Table table = exp::execution_time_table({row}, {hpl_row});
  const std::string out = table.render();
  EXPECT_NE(out.find("8.54"), std::string::npos);
  EXPECT_NE(out.find("14.59"), std::string::npos);
  EXPECT_THROW(exp::execution_time_table({row}, {}), std::invalid_argument);
}

TEST(ReportTest, MeanVariation) {
  exp::NasSeries row;
  row.instance = {workloads::NasBenchmark::kEP, workloads::NasClass::kA, 8};
  exp::RunResult a, b;
  a.completed = b.completed = true;
  a.app_seconds = 10.0;
  b.app_seconds = 11.0;
  row.series.runs = {a, b};
  EXPECT_NEAR(exp::mean_variation_pct({row, row}), 10.0, 1e-9);
  EXPECT_EQ(exp::mean_variation_pct({}), 0.0);
}

}  // namespace
}  // namespace hpcs
