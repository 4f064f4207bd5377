// Tests for the hardware model: topology, cache warmth, NUMA homing, SMT.
#include <gtest/gtest.h>

#include <cmath>

#include "hw/cache_model.h"
#include "hw/machine.h"
#include "hw/numa_model.h"
#include "hw/topology.h"

namespace hpcs::hw {
namespace {

// --- topology ----------------------------------------------------------------

TEST(TopologyTest, Power6Js22Shape) {
  const Topology topo = Topology::power6_js22();
  EXPECT_EQ(topo.num_cpus(), 8);
  EXPECT_EQ(topo.num_cores(), 4);
  EXPECT_EQ(topo.num_chips(), 2);
  EXPECT_EQ(topo.threads_per_core(), 2);
  EXPECT_FALSE(topo.config().chip_shared_cache);
}

TEST(TopologyTest, IndexMapping) {
  const Topology topo = Topology::power6_js22();
  // CPUs 0..7: chip = cpu/4, core = cpu/2, thread = cpu%2.
  for (CpuId cpu = 0; cpu < 8; ++cpu) {
    EXPECT_EQ(topo.chip_of(cpu), cpu / 4);
    EXPECT_EQ(topo.core_of(cpu), cpu / 2);
    EXPECT_EQ(topo.thread_of(cpu), cpu % 2);
  }
}

TEST(TopologyTest, Siblings) {
  const Topology topo = Topology::power6_js22();
  EXPECT_EQ(topo.smt_siblings(0), std::vector<CpuId>{1});
  EXPECT_EQ(topo.smt_siblings(5), std::vector<CpuId>{4});
  EXPECT_EQ(topo.cpus_of_core(1), (std::vector<CpuId>{2, 3}));
  EXPECT_EQ(topo.cpus_of_chip(1), (std::vector<CpuId>{4, 5, 6, 7}));
}

TEST(TopologyTest, ShareLevels) {
  const Topology topo = Topology::power6_js22();
  EXPECT_EQ(topo.share_level(3, 3), ShareLevel::kSameCpu);
  EXPECT_EQ(topo.share_level(2, 3), ShareLevel::kCore);
  EXPECT_EQ(topo.share_level(0, 3), ShareLevel::kChip);
  EXPECT_EQ(topo.share_level(0, 7), ShareLevel::kSystem);
}

TEST(TopologyTest, CacheSharingOnJs22) {
  const Topology topo = Topology::power6_js22();
  EXPECT_TRUE(topo.caches_shared(0, 0));
  EXPECT_TRUE(topo.caches_shared(0, 1));   // SMT siblings share L1/L2
  EXPECT_FALSE(topo.caches_shared(0, 2));  // same chip, no shared cache
  EXPECT_FALSE(topo.caches_shared(0, 4));  // cross chip
}

TEST(TopologyTest, ChipSharedCacheOption) {
  Topology topo(TopologyConfig{.chips = 2,
                               .cores_per_chip = 2,
                               .threads_per_core = 2,
                               .chip_shared_cache = true});
  EXPECT_TRUE(topo.caches_shared(0, 2));   // same chip now shares L3
  EXPECT_FALSE(topo.caches_shared(0, 4));  // cross chip still does not
}

TEST(TopologyTest, RejectsBadConfig) {
  EXPECT_THROW(Topology(TopologyConfig{.chips = 0}), std::invalid_argument);
  EXPECT_THROW(Topology(TopologyConfig{.chips = 1, .cores_per_chip = -1}),
               std::invalid_argument);
}

TEST(TopologyTest, OutOfRangeCpuThrows) {
  const Topology topo = Topology::power6_js22();
  EXPECT_THROW(topo.chip_of(8), std::out_of_range);
  EXPECT_THROW(topo.core_of(-1), std::out_of_range);
}

struct TopoParam {
  int chips, cores, threads;
};

class TopologySweep : public ::testing::TestWithParam<TopoParam> {};

TEST_P(TopologySweep, PartitionInvariants) {
  const auto p = GetParam();
  Topology topo(TopologyConfig{p.chips, p.cores, p.threads, false});
  EXPECT_EQ(topo.num_cpus(), p.chips * p.cores * p.threads);
  // Every CPU appears exactly once in its core and chip lists.
  int seen = 0;
  for (int core = 0; core < topo.num_cores(); ++core) {
    for (CpuId cpu : topo.cpus_of_core(core)) {
      EXPECT_EQ(topo.core_of(cpu), core);
      ++seen;
    }
  }
  EXPECT_EQ(seen, topo.num_cpus());
  for (int chip = 0; chip < topo.num_chips(); ++chip) {
    EXPECT_EQ(static_cast<int>(topo.cpus_of_chip(chip).size()),
              p.cores * p.threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologySweep,
                         ::testing::Values(TopoParam{1, 1, 1},
                                           TopoParam{1, 4, 1},
                                           TopoParam{2, 2, 2},
                                           TopoParam{4, 4, 2},
                                           TopoParam{2, 8, 4},
                                           TopoParam{1, 2, 8}));

// --- cache model -------------------------------------------------------------

class CacheModelTest : public ::testing::Test {
 protected:
  Topology topo_ = Topology::power6_js22();
  CacheParams params_;
};

TEST_F(CacheModelTest, WarmsWhileRunning) {
  CacheModel cache(topo_, params_);
  cache.on_task_created(1);
  cache.note_placed(1, 0);
  const double w0 = cache.warmth(1, 0);
  cache.note_ran(1, 0, params_.warm_tau);
  const double w1 = cache.warmth(1, 0);
  cache.note_ran(1, 0, 10 * params_.warm_tau);
  const double w2 = cache.warmth(1, 0);
  EXPECT_LT(w0, w1);
  EXPECT_LT(w1, w2);
  EXPECT_GT(w2, 0.99);
  EXPECT_LE(w2, 1.0);
}

TEST_F(CacheModelTest, SpeedFactorBounds) {
  CacheModel cache(topo_, params_);
  cache.on_task_created(1);
  cache.note_placed(1, 0);
  const double cold = cache.speed_factor(1, 0);
  EXPECT_NEAR(cold, 1.0 / (1.0 + params_.miss_penalty *
                                     (1.0 - params_.initial_warmth)),
              1e-12);
  cache.note_ran(1, 0, 20 * params_.warm_tau);
  EXPECT_GT(cache.speed_factor(1, 0), 0.99);
  EXPECT_LE(cache.speed_factor(1, 0), 1.0);
}

TEST_F(CacheModelTest, CoRunnerEvictsWhileDescheduled) {
  CacheModel cache(topo_, params_);
  cache.on_task_created(1);
  cache.on_task_created(2);
  cache.note_placed(1, 0);
  cache.note_ran(1, 0, 20 * params_.warm_tau);  // task 1 fully warm
  const double warm = cache.warmth(1, 0);
  // Task 2 runs on the same hardware thread (task 1 preempted).
  cache.note_placed(2, 0);
  cache.note_ran(2, 0, params_.evict_tau);
  const double after = cache.warmth(1, 0);
  EXPECT_LT(after, warm);
  EXPECT_NEAR(after, warm * std::exp(-1.0), 0.02);
}

TEST_F(CacheModelTest, SiblingThreadDoesNotEvict) {
  // Concurrent SMT execution is covered by the SMT throughput factor, not
  // by warmth decay.
  CacheModel cache(topo_, params_);
  cache.on_task_created(1);
  cache.on_task_created(2);
  cache.note_placed(1, 0);
  cache.note_ran(1, 0, 20 * params_.warm_tau);
  const double warm = cache.warmth(1, 0);
  cache.note_placed(2, 1);  // SMT sibling of cpu 0
  cache.note_ran(2, 1, 10 * params_.evict_tau);
  EXPECT_DOUBLE_EQ(cache.warmth(1, 0), warm);
}

TEST_F(CacheModelTest, SmtMigrationKeepsWarmth) {
  CacheModel cache(topo_, params_);
  cache.on_task_created(1);
  cache.note_placed(1, 0);
  cache.note_ran(1, 0, 20 * params_.warm_tau);
  const double warm = cache.warmth(1, 0);
  cache.note_placed(1, 1);  // to the SMT sibling: shared L1/L2
  EXPECT_NEAR(cache.warmth(1, 1), warm, 1e-12);
}

TEST_F(CacheModelTest, CrossCoreMigrationGoesCold) {
  CacheModel cache(topo_, params_);
  cache.on_task_created(1);
  cache.note_placed(1, 0);
  cache.note_ran(1, 0, 20 * params_.warm_tau);
  cache.note_placed(1, 2);  // other core, no shared cache on js22
  EXPECT_DOUBLE_EQ(cache.warmth(1, 2), params_.cold_warmth);
}

TEST_F(CacheModelTest, UnknownTaskThrows) {
  CacheModel cache(topo_, params_);
  EXPECT_THROW(cache.note_placed(99, 0), std::logic_error);
  EXPECT_THROW(cache.warmth(99, 0), std::logic_error);
}

TEST_F(CacheModelTest, ExitRemovesTask) {
  CacheModel cache(topo_, params_);
  cache.on_task_created(1);
  cache.on_task_exit(1);
  EXPECT_THROW(cache.note_placed(1, 0), std::logic_error);
}

TEST_F(CacheModelTest, ReusedSlotStartsFromInitialWarmth) {
  CacheModel cache(topo_, params_);
  cache.on_task_created(0);
  cache.note_placed(0, 0);
  cache.note_ran(0, 0, 20 * params_.warm_tau);
  cache.on_task_exit(0);
  cache.on_task_created(0);  // a new task takes the freed slot
  EXPECT_DOUBLE_EQ(cache.warmth(0, 0), params_.initial_warmth);
  EXPECT_DOUBLE_EQ(cache.warmth(0, 5), params_.initial_warmth);
  EXPECT_EQ(cache.slots(), 1u);
}

// --- numa model --------------------------------------------------------------

class NumaModelTest : public ::testing::Test {
 protected:
  Topology topo_ = Topology::power6_js22();
  NumaParams params_;
};

TEST_F(NumaModelTest, HomeUnsetUntilFirstTouchWindow) {
  NumaModel numa(topo_, params_);
  numa.on_task_created(1);
  EXPECT_EQ(numa.home_chip(1), -1);
  EXPECT_DOUBLE_EQ(numa.speed_factor(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(numa.speed_factor(1, 7), 1.0);
  numa.note_ran(1, 0, params_.first_touch_window / 2);
  EXPECT_EQ(numa.home_chip(1), -1);
}

TEST_F(NumaModelTest, HomesOnDominantChip) {
  NumaModel numa(topo_, params_);
  numa.on_task_created(1);
  numa.note_ran(1, 0, params_.first_touch_window / 4);      // chip 0
  numa.note_ran(1, 5, params_.first_touch_window);          // chip 1 dominates
  EXPECT_EQ(numa.home_chip(1), 1);
}

TEST_F(NumaModelTest, RemotePenaltyApplied) {
  NumaModel numa(topo_, params_);
  numa.on_task_created(1);
  numa.note_ran(1, 0, 2 * params_.first_touch_window);
  EXPECT_EQ(numa.home_chip(1), 0);
  EXPECT_DOUBLE_EQ(numa.speed_factor(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(numa.speed_factor(1, 3), 1.0);  // same chip
  EXPECT_DOUBLE_EQ(numa.speed_factor(1, 4), 1.0 - params_.remote_penalty);
  EXPECT_DOUBLE_EQ(numa.speed_factor(1, 7), 1.0 - params_.remote_penalty);
}

TEST_F(NumaModelTest, HomeIsSticky) {
  NumaModel numa(topo_, params_);
  numa.on_task_created(1);
  numa.note_ran(1, 0, 2 * params_.first_touch_window);
  numa.note_ran(1, 7, 100 * params_.first_touch_window);  // long remote stint
  EXPECT_EQ(numa.home_chip(1), 0);  // pages do not follow the task
}

TEST_F(NumaModelTest, ExitRemovesTask) {
  NumaModel numa(topo_, params_);
  numa.on_task_created(1);
  numa.on_task_exit(1);
  EXPECT_THROW(numa.note_ran(1, 0, 1), std::logic_error);
  EXPECT_EQ(numa.home_chip(1), -1);  // queries degrade gracefully
}

TEST_F(NumaModelTest, ReusedSlotHasNoHome) {
  NumaModel numa(topo_, params_);
  numa.on_task_created(2);
  numa.note_ran(2, 0, params_.first_touch_window / 2);
  numa.note_ran(2, 7, params_.first_touch_window);
  EXPECT_EQ(numa.home_chip(2), 1);
  numa.on_task_exit(2);
  numa.on_task_created(2);
  EXPECT_EQ(numa.home_chip(2), -1);
  EXPECT_DOUBLE_EQ(numa.speed_factor(2, 0), 1.0);
  // Residency starts from zero too: half a window on chip 0 is not enough.
  numa.note_ran(2, 0, params_.first_touch_window / 2);
  EXPECT_EQ(numa.home_chip(2), -1);
  EXPECT_EQ(numa.slots(), 3u);
  EXPECT_THROW(numa.speed_factor(0, 0), std::logic_error);  // never created
}

// --- machine -----------------------------------------------------------------

TEST(MachineTest, SmtFactor) {
  Machine machine(MachineConfig::power6_js22());
  EXPECT_DOUBLE_EQ(machine.smt_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(machine.smt_factor(1), 1.0);
  EXPECT_DOUBLE_EQ(machine.smt_factor(2), machine.config().smt_slowdown);
}

TEST(MachineTest, SmtFactorBeyondTwoContexts) {
  // Regression: >2 busy contexts per core used to clamp to the 2-way value.
  // The geometric model applies the per-thread slowdown once per doubling.
  Machine machine(MachineConfig::power6_js22());
  const double s = machine.config().smt_slowdown;
  EXPECT_DOUBLE_EQ(machine.smt_factor(4), s * s);
  EXPECT_DOUBLE_EQ(machine.smt_factor(8), s * s * s);
  // Strictly monotone in the contention, never below zero.
  EXPECT_LT(machine.smt_factor(3), machine.smt_factor(2));
  EXPECT_LT(machine.smt_factor(4), machine.smt_factor(3));
  EXPECT_GT(machine.smt_factor(8), 0.0);
}

TEST(MachineTest, ModernPresetShape) {
  const MachineConfig config = MachineConfig::modern_dual_socket();
  const Topology topo(config.topology);
  EXPECT_EQ(topo.num_cpus(), 64);
  EXPECT_EQ(topo.num_cores(), 32);
  EXPECT_TRUE(config.topology.chip_shared_cache);
  // Same-chip migrations keep cache contents on this machine.
  EXPECT_TRUE(topo.caches_shared(0, 30));
  EXPECT_FALSE(topo.caches_shared(0, 33));
}

TEST(MachineTest, Power6Defaults) {
  const MachineConfig config = MachineConfig::power6_js22();
  EXPECT_EQ(config.topology.chips, 2);
  EXPECT_EQ(config.topology.cores_per_chip, 2);
  EXPECT_EQ(config.topology.threads_per_core, 2);
  EXPECT_FALSE(config.topology.chip_shared_cache);
  EXPECT_EQ(config.tick_period, kMillisecond);
}

}  // namespace
}  // namespace hpcs::hw
