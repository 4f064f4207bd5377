// nas_suite: the paper's 12 NAS instances ({cg,ep,ft,is,lu,mg} x {A,B} x 8
// ranks) under std-Linux CFS and under HPL, through exp::run_series —
// serially, and at several threads over the same seeds.  The engine, the
// kernel (CFS, RT and HPC classes, the load balancer), hw, mpi and the
// daemons do all the work; batch, the sharded engine and net do none.
#include <cstdio>

#include "exp/runner.h"
#include "measure.h"
#include "workloads.h"
#include "workloads/nas.h"

namespace perfbench {
namespace {

using namespace hpcs;

/// Seeds per (instance, scheduler) cell: two, so the parallel pass has two
/// runs to spread over its threads in every run_series call.
constexpr int kSeeds = 2;
/// Suite builds per set-up sample: one build takes microseconds.
constexpr int kBuildsPerSample = 2000;

struct Cell {
  std::string name;      // "lu.B.8/hpl"
  std::string instance;  // "lu.B"
  exp::RunConfig config;
  exp::Series serial;
};

bool same_run(const exp::RunResult& a, const exp::RunResult& b) {
  return a.completed == b.completed && a.seed == b.seed &&
         a.app_seconds == b.app_seconds &&
         a.perf_window_seconds == b.perf_window_seconds &&
         a.context_switches == b.context_switches &&
         a.cpu_migrations == b.cpu_migrations &&
         a.preemptions == b.preemptions && a.wakeups == b.wakeups &&
         a.energy_joules == b.energy_joules && a.error == b.error;
}

class NasSuite final : public Workload {
 public:
  // Each benchmark seed owns its own block of run seeds.
  explicit NasSuite(std::uint64_t seed) : base_seed_(seed * 1000 + 1) {}

  double setup(Tracer& tracer) override {
    Span span(tracer, "workloads.build_nas_program", "workloads");
    const std::vector<workloads::NasInstance> suite =
        workloads::nas_paper_suite();
    std::vector<mpi::Program> programs;
    const double t0 = wall_now();
    for (int rep = 0; rep < kBuildsPerSample; ++rep) {
      programs.clear();
      for (const workloads::NasInstance& inst : suite) {
        programs.push_back(workloads::build_nas_program(inst));
      }
    }
    const double seconds = (wall_now() - t0) / kBuildsPerSample;
    span.count("programs", static_cast<double>(programs.size()));
    span.count("builds", kBuildsPerSample);

    build_s_.push_back(seconds);
    if (!cells_.empty()) {  // a repeat: same programs, keep the results
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        cells_[i].config.program = programs[i % programs.size()];
      }
      return seconds;
    }
    for (const exp::Setup setup : {exp::Setup::kStandardLinux,
                                   exp::Setup::kHpl}) {
      for (std::size_t i = 0; i < suite.size(); ++i) {
        Cell cell;
        cell.name = workloads::nas_instance_name(suite[i]) + "/" +
                    exp::setup_name(setup);
        cell.instance =
            std::string(workloads::nas_benchmark_name(suite[i].bench)) + "." +
            workloads::nas_class_letter(suite[i].cls);
        cell.config.setup = setup;
        cell.config.program = programs[i];
        cell.config.mpi.nranks = suite[i].nranks;
        cells_.push_back(std::move(cell));
      }
    }
    return seconds;
  }

  void serial_pass(Tracer& tracer) override {
    for (Cell& cell : cells_) {
      Span span(tracer, "exp.run_series", "exp");
      exp::Series series = exp::run_series(cell.config, kSeeds, base_seed_,
                                           exp::SweepOptions{1});
      check(series.runs.size() == static_cast<std::size_t>(kSeeds),
            cell.name + ": run count");
      for (const exp::RunResult& run : series.runs) {
        check(run.completed && run.error.empty(),
              cell.name + ": run did not complete: " + run.error);
      }
      span.count("switches",
                 static_cast<double>(series.runs[0].context_switches));
      if (have_serial_) {
        for (std::size_t i = 0; i < series.runs.size(); ++i) {
          check(same_run(series.runs[i], cell.serial.runs[i]),
                cell.name + ": serial rerun differs");
        }
      }
      cell.serial = std::move(series);
    }
    have_serial_ = true;
  }

  void parallel_pass(Tracer& tracer, int threads) override {
    check(have_serial_, "parallel pass before a serial pass");
    for (const Cell& cell : cells_) {
      Span span(tracer, "exp.run_series", "exp");
      span.count("threads", threads);
      const exp::Series series = exp::run_series(
          cell.config, kSeeds, base_seed_, exp::SweepOptions{threads});
      check(series.runs.size() == cell.serial.runs.size(),
            cell.name + ": run count");
      for (std::size_t i = 0; i < series.runs.size(); ++i) {
        check(same_run(series.runs[i], cell.serial.runs[i]),
              cell.name + ": run at " + std::to_string(threads) +
                  " threads differs from the serial run");
      }
    }
  }

  std::vector<std::string> shape_problems() const override { return {}; }

  void layers(Tracer&, Layers& out) override {
    double std_s = 0.0, hpl_s = 0.0;
    int std_n = 0, hpl_n = 0;
    std::map<std::string, double> by_instance;
    for (const Cell& cell : cells_) {
      const bool hpl = exp::setup_uses_hpl(cell.config.setup);
      const char* suffix = hpl ? ".hpl" : ".std";
      for (const exp::RunResult& run : cell.serial.runs) {
        out.metrics[std::string("kernel.context_switches") + suffix] +=
            static_cast<double>(run.context_switches);
        out.metrics[std::string("kernel.cpu_migrations") + suffix] +=
            static_cast<double>(run.cpu_migrations);
        out.metrics[std::string("kernel.preemptions") + suffix] +=
            static_cast<double>(run.preemptions);
        out.metrics[std::string("kernel.wakeups") + suffix] +=
            static_cast<double>(run.wakeups);
        (hpl ? hpl_s : std_s) += run.host_seconds;
        ++(hpl ? hpl_n : std_n);
        by_instance[cell.instance] += run.host_seconds;
      }
    }
    out.named.emplace_back("sim.events",
                           "n/a: exp::RunResult carries no engine event count");
    out.add_named("workloads.build_s", summarize(build_s_).median);
    out.add_named("exp.run_once_s.std", std_s / std_n);
    out.add_named("exp.run_once_s.hpl", hpl_s / hpl_n);
    for (const char* inst : {"lu.B", "cg.B", "ep.B", "ft.B"}) {
      // Both schedulers, kSeeds runs each.
      out.add_named(std::string("exp.run_once_s.") + inst,
                    by_instance[inst] / (2 * kSeeds));
    }
  }

  std::uint64_t input_digest() override {
    Tracer off(false, 0);
    setup(off);
    std::uint64_t h = fnv1a(kFnvBasis, base_seed_);
    for (const Cell& cell : cells_) {
      h = fnv1a(h, cell.config.program.ops().size());
    }
    return h;
  }

  std::string describe() const override {
    double std_app = 0.0, hpl_app = 0.0;
    for (const Cell& cell : cells_) {
      for (const exp::RunResult& run : cell.serial.runs) {
        (exp::setup_uses_hpl(cell.config.setup) ? hpl_app : std_app) +=
            run.app_seconds;
      }
    }
    char line[256];
    std::snprintf(line, sizeof line,
                  "%zu cells x %d seeds from %llu  simulated app time: std "
                  "%.3fs  hpl %.3fs",
                  cells_.size(), kSeeds,
                  static_cast<unsigned long long>(base_seed_), std_app,
                  hpl_app);
    return line;
  }

 private:
  std::uint64_t base_seed_;
  std::vector<Cell> cells_;
  std::vector<double> build_s_;  // per set-up sample
  bool have_serial_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_nas_suite(std::uint64_t seed) {
  return std::make_unique<NasSuite>(seed);
}

}  // namespace perfbench
