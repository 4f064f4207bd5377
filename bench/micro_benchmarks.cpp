// Google-benchmark microbenchmarks for the simulator substrate: event-queue
// throughput, red-black-tree operations, scheduler context-switch rate, the
// cache model, and end-to-end simulation speed (simulated seconds per wall
// second).
//
// Runs on the shared bench harness for telemetry: a capture reporter mirrors
// every google-benchmark result into BENCH_micro_benchmarks.json (per-repeat
// real time in ns plus user counters), which the CI perf-regression gate
// diffs against bench/baselines/.  Pass --benchmark_repetitions=N to give
// bench_compare a non-zero confidence interval to judge against.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.h"
#include "harness.h"
#include "kernel/behaviors.h"
#include "kernel/cfs.h"
#include "kernel/kernel.h"
#include "kernel/rbtree.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "workloads/nas.h"

namespace {

using namespace hpcs;

void BM_EngineScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(static_cast<SimTime>(i), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleDispatch);

void BM_EngineCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(engine.schedule_at(static_cast<SimTime>(i), [] {}));
    }
    for (sim::EventId id : ids) engine.cancel(id);
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineCancel);

void BM_EngineCancelHeavyThroughput(benchmark::State& state) {
  // The dominant pattern of long sweeps: every dispatched event re-arms a
  // set of far-future timers (completion/tick events that almost never fire
  // as scheduled).  With lazy deletion each re-arm leaves a tombstone in the
  // heap until its deadline passes; with in-place cancel the heap stays at
  // O(timers).  Items = dispatches + cancels.
  const int steps = static_cast<int>(state.range(0));
  constexpr int kTimers = 8;
  std::size_t heap_hwm = 0;
  for (auto _ : state) {
    sim::Engine engine;
    sim::EventId timers[kTimers] = {};
    int step = 0;
    std::function<void()> drive = [&] {
      for (sim::EventId& id : timers) {
        if (id != sim::kInvalidEventId) engine.cancel(id);
        id = engine.schedule_after(kMillisecond, [] {});
      }
      if (++step < steps) engine.schedule_after(100, drive);
    };
    engine.schedule_at(0, drive);
    engine.run();
    heap_hwm = std::max(heap_hwm, engine.stats().heap_high_water);
  }
  state.counters["heap_hwm"] = static_cast<double>(heap_hwm);
  state.SetItemsProcessed(state.iterations() * steps * (kTimers + 1));
}
BENCHMARK(BM_EngineCancelHeavyThroughput)->Arg(10000)->Arg(100000);

void BM_EngineHold(benchmark::State& state) {
  // The classic hold model: n events stay pending, and each dispatch
  // re-arms its own event with reschedule() at now plus a seeded random
  // delay.  The sizes bracket one NAS node, twolevel's 16 nodes and
  // scale_loaded's heap high-water (about 2k).  Items = dispatches.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr int kHolds = 100'000;
  struct Hold {
    sim::Engine engine;
    util::Rng rng{42};
    std::vector<sim::EventId> ids;
    int left = kHolds;
  };
  for (auto _ : state) {
    Hold h;
    h.ids.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      h.ids[i] = h.engine.schedule_at(h.rng.uniform_u64(0, 1000), [&h, i] {
        if (--h.left == 0) {
          h.engine.stop();
          return;
        }
        const SimDuration delay = h.rng.uniform_u64(1, 1000);
        h.engine.reschedule(h.ids[i], h.engine.now() + delay);
      });
    }
    benchmark::DoNotOptimize(h.engine.run());
  }
  state.SetItemsProcessed(state.iterations() * kHolds);
}
BENCHMARK(BM_EngineHold)->Arg(16)->Arg(256)->Arg(4096);

struct BenchItem {
  explicit BenchItem(std::uint64_t k, int i) : key(k), id(i) {
    node.owner = this;
  }
  std::uint64_t key;
  int id;
  kernel::RbNode node;
};

bool bench_less(const kernel::RbNode& a, const kernel::RbNode& b, const void*) {
  const auto& ia = *static_cast<const BenchItem*>(a.owner);
  const auto& ib = *static_cast<const BenchItem*>(b.owner);
  if (ia.key != ib.key) return ia.key < ib.key;
  return ia.id < ib.id;
}

void BM_RbTreeInsertErase(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  std::vector<std::unique_ptr<BenchItem>> items;
  items.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    items.push_back(std::make_unique<BenchItem>(rng.next(), i));
  }
  for (auto _ : state) {
    kernel::RbTree tree(&bench_less);
    for (auto& item : items) tree.insert(item->node);
    while (!tree.empty()) tree.erase(*tree.leftmost());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_RbTreeInsertErase)->Arg(64)->Arg(1024);

void BM_ContextSwitchRate(benchmark::State& state) {
  // Two CPU-bound tasks on one CPU: measures the full __schedule path
  // including accounting, cache model, and tick handling.
  for (auto _ : state) {
    sim::Engine engine;
    kernel::Kernel kernel(engine, kernel::KernelConfig{});
    kernel.boot();
    for (int i = 0; i < 2; ++i) {
      kernel::SpawnSpec spec;
      spec.name = "t" + std::to_string(i);
      spec.affinity = kernel::cpu_mask_of(0);
      spec.behavior = std::make_unique<kernel::ScriptBehavior>(
          std::vector<kernel::Action>{kernel::Action::compute(seconds(1))});
      kernel.spawn(std::move(spec));
    }
    engine.run_until(200 * kMillisecond);
    benchmark::DoNotOptimize(kernel.counters().context_switches);
  }
}
BENCHMARK(BM_ContextSwitchRate);

void BM_BalancePassScan(benchmark::State& state) {
  // A newidle pull attempt over an overloaded remote runqueue whose tasks
  // are all pinned: the balancer scans every queued task and moves none.
  // Measures the per-pass scan cost (formerly a std::vector copy of the
  // whole runqueue per balance pass).
  const int queued = static_cast<int>(state.range(0));
  sim::Engine engine;
  kernel::Kernel kernel(engine, kernel::KernelConfig{});
  kernel.boot();
  for (int i = 0; i < queued; ++i) {
    kernel::SpawnSpec spec;
    spec.name = "pin" + std::to_string(i);
    spec.affinity = kernel::cpu_mask_of(0);
    spec.behavior = std::make_unique<kernel::ScriptBehavior>(
        std::vector<kernel::Action>{kernel::Action::compute(seconds(100))});
    kernel.spawn(std::move(spec));
  }
  engine.run_until(kMillisecond);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.cfs().newidle_balance(7));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BalancePassScan)->Arg(16)->Arg(128);

void BM_CacheModelOps(benchmark::State& state) {
  hw::Topology topo = hw::Topology::power6_js22();
  hw::CacheModel cache(topo, hw::CacheParams{});
  cache.on_task_created(1);
  cache.note_placed(1, 0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto cpu = static_cast<hw::CpuId>(i++ % 8);
    cache.note_placed(1, cpu);
    cache.note_ran(1, cpu, kMillisecond);
    benchmark::DoNotOptimize(cache.speed_factor(1, cpu));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheModelOps);

void BM_FullRunIsA(benchmark::State& state) {
  // End-to-end: one measured is.A.8 run (~0.36 simulated seconds) under the
  // given scheduler.  Reports simulated-seconds-per-wall-second throughput.
  const auto setup = static_cast<exp::Setup>(state.range(0));
  const workloads::NasInstance inst{workloads::NasBenchmark::kIS,
                                    workloads::NasClass::kA, 8};
  exp::RunConfig config;
  config.setup = setup;
  config.program = workloads::build_nas_program(inst);
  config.mpi.nranks = inst.nranks;
  double sim_seconds = 0.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const exp::RunResult r = exp::run_once(config, seed++);
    sim_seconds += r.perf_window_seconds;
    benchmark::DoNotOptimize(r.context_switches);
  }
  state.counters["sim_s_per_s"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullRunIsA)
    ->Arg(static_cast<int>(exp::Setup::kStandardLinux))
    ->Arg(static_cast<int>(exp::Setup::kHpl))
    ->Unit(benchmark::kMillisecond);

// Mirrors every per-repeat run into the harness: <name>.real_time in ns
// (lower is better) and each user counter (rates are higher-is-better,
// gauges like heap_hwm neutral).  Aggregate rows are skipped — the harness
// computes its own mean/stddev/CI across repeats.
class HarnessReporter : public benchmark::ConsoleReporter {
 public:
  HarnessReporter(bench::Harness& harness, OutputOptions options)
      : benchmark::ConsoleReporter(options), harness_(harness) {}

  void ReportRuns(const std::vector<Run>& report) override {
    benchmark::ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      // Name without the "/repeats:N" suffix so the metric key is stable
      // across different --benchmark_repetitions settings.
      std::string name = run.run_name.function_name;
      if (!run.run_name.args.empty()) name += "/" + run.run_name.args;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      harness_.record(name + ".real_time", "ns",
                      bench::Direction::kLowerIsBetter,
                      run.real_accumulated_time / iters * 1e9);
      for (const auto& [counter_name, counter] : run.counters) {
        const bool is_rate =
            (counter.flags & benchmark::Counter::kIsRate) != 0;
        harness_.record(name + "." + counter_name,
                        is_rate ? "1/s" : "count",
                        is_rate ? bench::Direction::kHigherIsBetter
                                : bench::Direction::kNeutral,
                        counter.value);
      }
    }
  }

 private:
  bench::Harness& harness_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(
      "micro_benchmarks",
      "google-benchmark microbenchmarks of the simulator substrate");
  // Split argv: --benchmark_* goes to google-benchmark, the rest (telemetry
  // controls) to the harness.  The console table is coloured only on a
  // terminal, and never under --benchmark_color=false.
  std::vector<char*> gbench_args{argv[0]};
  std::vector<const char*> harness_args{argv[0]};
  bool color = isatty(STDOUT_FILENO) != 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--benchmark_", 0) == 0) {
      gbench_args.push_back(argv[i]);
      if (arg == "--benchmark_color=false") color = false;
    } else {
      harness_args.push_back(argv[i]);
    }
  }
  if (!harness.parse(static_cast<int>(harness_args.size()),
                     harness_args.data())) {
    return 1;
  }
  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  HarnessReporter reporter(
      harness, color ? benchmark::ConsoleReporter::OO_ColorTabular
                     : benchmark::ConsoleReporter::OO_Tabular);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return harness.finish();
}
