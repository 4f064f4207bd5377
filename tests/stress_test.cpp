// Randomised stress/property tests: the engine against a reference model,
// and the kernel's global accounting invariants under random task soups.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <queue>
#include <type_traits>
#include <vector>

#include "core/hpl.h"
#include "kernel/behaviors.h"
#include "kernel/kernel.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace hpcs {
namespace {

// --- engine vs reference model -----------------------------------------------

struct EngineSweepParam {
  std::uint64_t seed;
  int ops;
  // gtest names each case after the raw bytes of its param. These four were
  // uninitialised padding, so the case names changed from build to build;
  // spelling them out keeps each case under the name it is listed by.
  std::array<unsigned char, 4> name_bytes;
};
static_assert(std::has_unique_object_representations_v<EngineSweepParam>,
              "a padding byte would make the case names vary by build");

class EngineStress : public ::testing::TestWithParam<EngineSweepParam> {};

// Schedule/cancel random events and verify dispatch order and completeness
// against a simple reference list.
TEST_P(EngineStress, MatchesReferenceDispatchOrder) {
  const auto param = GetParam();
  util::Rng rng(param.seed);
  sim::Engine engine;

  struct Ref {
    SimTime when;
    int token;
    bool cancelled = false;
    sim::EventId id = sim::kInvalidEventId;
  };
  std::vector<Ref> refs;
  std::vector<int> dispatched;

  for (int i = 0; i < param.ops; ++i) {
    const SimTime when = rng.uniform_u64(0, 10000);
    refs.push_back({when, i});
    Ref& ref = refs.back();
    ref.id = engine.schedule_at(when, [&dispatched, token = i] {
      dispatched.push_back(token);
    });
    // Occasionally cancel a random earlier event.
    if (rng.chance(0.25) && !refs.empty()) {
      auto& victim =
          refs[static_cast<std::size_t>(rng.uniform_u64(0, refs.size() - 1))];
      if (!victim.cancelled) {
        victim.cancelled = engine.cancel(victim.id);
      }
    }
  }
  engine.run();

  // Expected order: by (when, insertion order), cancelled excluded.
  std::vector<int> expected;
  std::vector<const Ref*> live;
  for (const Ref& r : refs) {
    if (!r.cancelled) live.push_back(&r);
  }
  std::stable_sort(live.begin(), live.end(), [](const Ref* a, const Ref* b) {
    if (a->when != b->when) return a->when < b->when;
    return a->token < b->token;
  });
  for (const Ref* r : live) expected.push_back(r->token);
  EXPECT_EQ(dispatched, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweeps, EngineStress,
                         ::testing::Values(EngineSweepParam{1, 50, {}},
                                           EngineSweepParam{2, 500, {}},
                                           EngineSweepParam{3, 2000, {}},
                                           EngineSweepParam{4, 200, {}},
                                           EngineSweepParam{5, 1000, {}}));

// --- kernel soup invariants --------------------------------------------------

struct SoupParam {
  std::uint64_t seed;
  int tasks;
  bool use_hpl;
  // gtest names each case after the raw bytes of its param. These three were
  // uninitialised padding, so the case names changed from build to build;
  // spelling them out keeps each case under the name it is listed by.
  std::array<unsigned char, 3> name_bytes;
};
static_assert(std::has_unique_object_representations_v<SoupParam>,
              "a padding byte would make the case names vary by build");

class KernelSoup : public ::testing::TestWithParam<SoupParam> {};

// Spawn a random mix of policies/behaviours, run to completion, and check
// the global invariants: everything exits, runtime is conserved against
// busy time, and the class-priority rule held throughout.
TEST_P(KernelSoup, GlobalInvariantsHold) {
  const auto param = GetParam();
  util::Rng rng(param.seed);
  sim::Engine engine;
  kernel::Kernel kernel(engine, kernel::KernelConfig{});
  hpl::HpcClass* hpc = nullptr;
  if (param.use_hpl) hpc = &hpl::install(kernel);
  kernel.boot();

  bool priority_violated = false;
  kernel.add_trace_hook([&](const sim::TraceRecord& rec) {
    if (rec.point != sim::TracePoint::kSchedSwitch || hpc == nullptr) return;
    const kernel::Task* next = kernel.find_task(rec.tid);
    if (next != nullptr && next->policy == kernel::Policy::kNormal &&
        hpc->nr_runnable(rec.cpu) > 0) {
      priority_violated = true;
    }
  });

  std::vector<kernel::Tid> tids;
  for (int i = 0; i < param.tasks; ++i) {
    kernel::SpawnSpec spec;
    const double dice = rng.uniform();
    if (dice < 0.15) {
      spec.policy = kernel::Policy::kFifo;
      spec.rt_prio = static_cast<int>(rng.uniform_u64(1, 80));
    } else if (dice < 0.30 && param.use_hpl) {
      spec.policy = kernel::Policy::kHpc;
    } else if (dice < 0.40) {
      spec.policy = kernel::Policy::kBatch;
    } else {
      spec.policy = kernel::Policy::kNormal;
      spec.nice = static_cast<int>(rng.uniform_u64(0, 10)) - 5;
    }
    spec.name = "soup" + std::to_string(i);
    if (rng.chance(0.3)) {
      spec.affinity = kernel::cpu_mask_of(
          static_cast<int>(rng.uniform_u64(0, 7)));
    }
    std::vector<kernel::Action> actions;
    const int phases = static_cast<int>(rng.uniform_u64(1, 4));
    for (int ph = 0; ph < phases; ++ph) {
      actions.push_back(kernel::Action::compute(
          microseconds(rng.uniform_u64(100, 5000))));
      if (rng.chance(0.5)) {
        actions.push_back(
            kernel::Action::sleep(microseconds(rng.uniform_u64(100, 3000))));
      }
      if (rng.chance(0.2)) actions.push_back(kernel::Action::yield());
    }
    spec.behavior =
        std::make_unique<kernel::ScriptBehavior>(std::move(actions));
    tids.push_back(kernel.spawn(std::move(spec)));
    engine.run_until(engine.now() + microseconds(rng.uniform_u64(10, 500)));
  }
  engine.run_until(engine.now() + seconds(2));

  SimDuration total_runtime = 0;
  for (kernel::Tid tid : tids) {
    const kernel::Task& t = kernel.task(tid);
    EXPECT_EQ(t.state, kernel::TaskState::kExited) << t.name;
    total_runtime += t.acct.runtime;
  }
  // Conservation: task runtime can never exceed total busy CPU time.
  SimDuration busy = 0;
  for (hw::CpuId cpu = 0; cpu < 8; ++cpu) {
    busy += engine.now() - kernel.idle_time(cpu);
  }
  EXPECT_LE(total_runtime, busy);
  EXPECT_FALSE(priority_violated);
  // All CPUs drained back to idle.
  for (hw::CpuId cpu = 0; cpu < 8; ++cpu) {
    EXPECT_EQ(kernel.nr_running(cpu), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Soups, KernelSoup,
                         ::testing::Values(
                             SoupParam{11, 10, false, {0x7F, 0x00, 0x00}},
                             SoupParam{12, 30, false, {0xE7, 0xDB, 0xA0}},
                             SoupParam{13, 60, false, {0xE7, 0xDB, 0xA0}},
                             SoupParam{14, 10, true, {0xFF, 0xFF, 0xFF}},
                             SoupParam{15, 30, true, {0x56, 0x00, 0x00}},
                             SoupParam{16, 60, true, {0x56, 0x00, 0x00}},
                             SoupParam{17, 100, true, {0x7F, 0x00, 0x00}},
                             SoupParam{18, 100, false, {0x56, 0x00, 0x00}}));

// Determinism property over the same soup.
TEST(KernelSoupDeterminism, IdenticalSeedIdenticalOutcome) {
  auto run = [](std::uint64_t seed) {
    util::Rng rng(seed);
    sim::Engine engine;
    kernel::Kernel kernel(engine, kernel::KernelConfig{});
    kernel.boot();
    for (int i = 0; i < 20; ++i) {
      kernel::SpawnSpec spec;
      spec.name = "d" + std::to_string(i);
      spec.behavior = std::make_unique<kernel::ScriptBehavior>(
          std::vector<kernel::Action>{
              kernel::Action::compute(microseconds(rng.uniform_u64(100, 3000))),
              kernel::Action::sleep(microseconds(rng.uniform_u64(100, 1000))),
              kernel::Action::compute(
                  microseconds(rng.uniform_u64(100, 3000)))});
      kernel.spawn(std::move(spec));
      engine.run_until(engine.now() + microseconds(rng.uniform_u64(10, 200)));
    }
    engine.run_until(engine.now() + seconds(1));
    return std::make_pair(kernel.counters().context_switches,
                          engine.dispatched());
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace hpcs
