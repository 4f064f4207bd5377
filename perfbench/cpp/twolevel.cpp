// twolevel: batch::BatchScheduler with EASY backfill, express + workq
// queues and fairshare, dispatching generated multi-node NAS-shaped jobs
// (8 ranks per node, compute + allreduce iterations) onto a 16-node
// cluster::Cluster of booted kernels with daemons — once with ranks under
// CFS and once under HPL.  The only workload that runs BatchScheduler,
// NodeAllocator on real nodes and net::Fabric collectives.  Its parallel
// path runs the two cells on two threads at once.
//
// EASY's no-delay guarantee (BatchScheduler::reservation_violations() == 0)
// is checked once per run on a third cell: the same trace under plain
// single-queue EASY.  The two timed cells only report the counter: under
// queue priority and fairshare it also counts jobs that lost the head of
// the queue to a higher-priority job after EASY made them a promise, which
// BatchScheduler keeps (scheduler.cpp, where EASY sets promised_start).
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "batch/scheduler.h"
#include "batch/workload.h"
#include "cluster/cluster.h"
#include "measure.h"
#include "sim/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hpcs;

constexpr int kNodes = 16;
constexpr int kJobs = 200;
constexpr SimDuration kMeanInterarrival = 25 * kMillisecond;
/// Offered load, as ideal node-time over cluster node-time up to the last
/// arrival.  Daemon noise stretches the jobs well past their ideal time,
/// so the CFS cell queues.
constexpr double kLoad = 0.5;
/// Simulated time the engine advances between completion checks.
constexpr SimDuration kStep = 10 * kMillisecond;
constexpr SimTime kHorizon = 3600 * kSecond;

/// What one cell's run produced (compared between serial and parallel).
struct CellResult {
  batch::BatchMetrics metrics;
  std::uint64_t events = 0;
  std::uint64_t backfills = 0;
  std::uint64_t violations = 0;
  batch::AllocatorStats allocator;
  net::FabricStats fabric;
  kernel::KernelCounters kernel;
  double seconds = 0.0;

  bool same_schedule(const CellResult& o) const {
    return events == o.events && backfills == o.backfills &&
           metrics.finished == o.metrics.finished &&
           metrics.makespan_s == o.metrics.makespan_s &&
           metrics.mean_slowdown == o.metrics.mean_slowdown &&
           metrics.mean_wait_s == o.metrics.mean_wait_s &&
           fabric.messages == o.fabric.messages;
  }
};

/// One configured cell: the cluster, its scheduler, the submitted trace.
struct Cell {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<batch::BatchScheduler> sched;
};

class TwoLevel final : public Workload {
 public:
  explicit TwoLevel(std::uint64_t seed) : seed_(seed) {
    arrivals_.jobs = kJobs;
    arrivals_.max_nodes = 8;
    arrivals_.nodes_log_mean = 0.8;
    arrivals_.ranks_per_node = 8;
    arrivals_.mean_interarrival = kMeanInterarrival;
    arrivals_.runtime_typical = 60 * kMillisecond;
    arrivals_.grain = 5 * kMillisecond;
    // Estimates must stay upper bounds under daemon noise (EASY's no-delay
    // guarantee rests on it).
    arrivals_.estimate_factor = 6.0;
    arrivals_.users = 16;
    arrivals_.user_zipf = 1.2;
  }

  double setup(Tracer& tracer) override {
    const double t0 = wall_now();
    {
      Span span(tracer, "batch.generate_arrivals", "batch");
      trace_ = batch::generate_arrivals(arrivals_, seed_);
      const SimTime arrivals_end = kJobs * kMeanInterarrival;
      fix_offered_load(trace_, arrivals_end,
                       kLoad * kNodes * static_cast<double>(arrivals_end));
      generate_s_.push_back(wall_now() - t0);
    }
    double boot_s = 0.0;
    for (const bool hpl : {false, true}) {
      Cell cell;
      boot_s += configure(tracer, cell, hpl);
    }
    boot_s_.push_back(boot_s);
    return wall_now() - t0;
  }

  void serial_pass(Tracer& tracer) override {
    CellResult cfs = run_cell(tracer, false);
    CellResult hpl = run_cell(tracer, true);
    if (have_serial_) {
      check(cfs.same_schedule(cfs_) && hpl.same_schedule(hpl_),
            "serial rerun differs");
    }
    cfs_ = cfs;
    hpl_ = hpl;
    have_serial_ = true;
  }

  void verify(Tracer& tracer) override {
    Span span(tracer, "twolevel.cell.easy", "batch");
    Cell cell;
    configure(tracer, cell, false, Layout::kPlainEasy);
    run_to_completion(tracer, cell);
    check(cell.sched->all_done(), "plain EASY cell: jobs left at horizon");
    const batch::BatchMetrics m = cell.sched->metrics();
    check(m.finished + m.rejected == kJobs,
          "plain EASY cell: not every job finished");
    easy_violations_ = cell.sched->reservation_violations();
    check(easy_violations_ == 0,
          "plain EASY cell: " + std::to_string(easy_violations_) +
              " jobs started after their EASY reservation");
  }

  void parallel_pass(Tracer& tracer, int threads) override {
    check(have_serial_, "parallel pass before a serial pass");
    CellResult cfs, hpl;
    if (threads < 2) {
      cfs = run_cell(tracer, false);
      hpl = run_cell(tracer, true);
    } else {
      const Span pass(tracer, "twolevel.cells", "batch");
      std::exception_ptr failure;
      std::thread other([&] {
        try {
          hpl = run_cell(tracer, true, pass.id());
        } catch (...) {
          failure = std::current_exception();
        }
      });
      try {
        cfs = run_cell(tracer, false);
      } catch (...) {
        other.join();
        throw;
      }
      other.join();
      if (failure) std::rethrow_exception(failure);
    }
    check(cfs.same_schedule(cfs_), "CFS cell differs from the serial run");
    check(hpl.same_schedule(hpl_), "HPL cell differs from the serial run");
  }

  std::vector<std::string> shape_problems() const override {
    if (hpl_.metrics.mean_slowdown < cfs_.metrics.mean_slowdown) return {};
    char why[160];
    std::snprintf(why, sizeof why,
                  "HPL cell mean bounded slowdown %.3f does not beat CFS %.3f",
                  hpl_.metrics.mean_slowdown, cfs_.metrics.mean_slowdown);
    return {why};
  }

  void layers(Tracer&, Layers& out) override {
    const CellResult* cells[] = {&cfs_, &hpl_};
    for (const CellResult* c : cells) {
      out.metrics["sim.events"] += static_cast<double>(c->events);
      out.metrics["batch.scheduler.backfills"] +=
          static_cast<double>(c->backfills);
      out.metrics["batch.scheduler.reservation_violations"] +=
          static_cast<double>(c->violations);
      out.metrics["batch.preemptions"] +=
          static_cast<double>(c->metrics.preemptions);
      out.metrics["batch.allocator.allocations"] +=
          static_cast<double>(c->allocator.allocations);
      out.metrics["batch.allocator.fragmented"] +=
          static_cast<double>(c->allocator.fragmented);
      out.metrics["net.messages"] += static_cast<double>(c->fabric.messages);
      const char* suffix = c == &cfs_ ? ".std" : ".hpl";
      out.metrics[std::string("kernel.context_switches") + suffix] =
          static_cast<double>(c->kernel.context_switches);
      out.metrics[std::string("kernel.cpu_migrations") + suffix] =
          static_cast<double>(c->kernel.cpu_migrations);
      out.metrics[std::string("kernel.preemptions") + suffix] =
          static_cast<double>(c->kernel.preemptions);
      out.metrics[std::string("kernel.wakeups") + suffix] =
          static_cast<double>(c->kernel.wakeups);
    }
    const double events = static_cast<double>(cfs_.events + hpl_.events);
    out.add_named("sim.ns_per_event",
                  (cfs_.seconds + hpl_.seconds) * 1e9 / events);
    out.add_named("batch.generate_s", summarize(generate_s_).median);
    out.add_named("cluster.boot_s", summarize(boot_s_).median);
    out.add_named("twolevel.cell_s.cfs", cfs_.seconds);
    out.add_named("twolevel.cell_s.hpl", hpl_.seconds);
    out.add_named("twolevel.mean_bsld.cfs", cfs_.metrics.mean_slowdown);
    out.add_named("twolevel.mean_bsld.hpl", hpl_.metrics.mean_slowdown);
    out.add_named("twolevel.plain_easy.reservation_violations",
                  static_cast<double>(easy_violations_));
  }

  std::uint64_t input_digest() override {
    Tracer off(false, 0);
    setup(off);
    std::uint64_t h = kFnvBasis;
    for (const batch::JobSpec& job : trace_) {
      h = fnv1a(h, job.arrival);
      h = fnv1a(h, static_cast<std::uint64_t>(job.nodes));
      h = fnv1a(h, static_cast<std::uint64_t>(job.iterations));
      h = fnv1a(h, static_cast<std::uint64_t>(job.user));
    }
    return h;
  }

  std::string describe() const override {
    char line[256];
    std::snprintf(line, sizeof line,
                  "mean bounded slowdown: CFS %.4f  HPL %.4f  makespan CFS "
                  "%.3fs HPL %.3fs  backfills %llu/%llu  events %llu/%llu",
                  cfs_.metrics.mean_slowdown, hpl_.metrics.mean_slowdown,
                  cfs_.metrics.makespan_s, hpl_.metrics.makespan_s,
                  static_cast<unsigned long long>(cfs_.backfills),
                  static_cast<unsigned long long>(hpl_.backfills),
                  static_cast<unsigned long long>(cfs_.events),
                  static_cast<unsigned long long>(hpl_.events));
    return line;
  }

 private:
  enum class Layout {
    kQueues,     // express + workq queues and fairshare: the timed cells
    kPlainEasy,  // one queue, no fairshare: the EASY guarantee check
  };

  /// Boot the cluster and the scheduler for one cell and submit the trace;
  /// returns the seconds the cluster took to boot.
  double configure(Tracer& tracer, Cell& cell, bool hpl,
                   Layout layout = Layout::kQueues) {
    const double t0 = wall_now();
    {
      Span span(tracer, "cluster.Cluster", "cluster");
      cluster::ClusterConfig cc;
      cc.nodes = kNodes;
      cc.install_hpl = hpl;
      cc.noise.intensity = 2.0;
      cc.noise.frequency = 0.2;  // a busy production node
      cc.fabric = net::FabricConfig{};
      cc.seed = seed_;
      cell.cluster = std::make_unique<cluster::Cluster>(cell.engine, cc);
    }
    const double boot_s = wall_now() - t0;
    Span span(tracer, "batch.BatchScheduler", "batch");
    batch::BatchConfig bc;
    bc.policy = batch::BatchPolicy::kEasy;
    bc.rank_policy = hpl ? kernel::Policy::kHpc : kernel::Policy::kNormal;
    bc.mpi.run_speed_sigma = 0.0;  // isolate the scheduler effect
    bc.seed = seed_;
    if (layout == Layout::kQueues) {
      batch::QueueConfig express;
      express.name = "express";
      express.priority = 10;
      express.max_nodes = 2;
      express.max_walltime = 1 * kSecond;
      batch::QueueConfig workq;
      workq.name = "workq";
      bc.queues = {express, workq};
      bc.fairshare.enabled = true;
      bc.fairshare.halflife = 2 * kSecond;
    }
    cell.sched = std::make_unique<batch::BatchScheduler>(*cell.cluster, bc);
    cell.sched->submit_all(trace_);
    return boot_s;
  }

  static void run_to_completion(Tracer& tracer, Cell& cell) {
    Span run(tracer, "sim.Engine::run_until", "sim");
    int calls = 0;
    while (!cell.sched->all_done() && cell.engine.now() < kHorizon) {
      cell.engine.run_until(cell.engine.now() + kStep);
      ++calls;
    }
    run.count("calls", calls);
    run.count("events", static_cast<double>(cell.engine.dispatched()));
  }

  CellResult run_cell(Tracer& tracer, bool hpl,
                      int parent = Span::current()) {
    Span span(tracer, hpl ? "twolevel.cell.hpl" : "twolevel.cell.cfs",
              "batch", parent);
    const double t0 = wall_now();
    Cell cell;
    configure(tracer, cell, hpl);
    run_to_completion(tracer, cell);
    const char* name = hpl ? "HPL cell" : "CFS cell";
    check(cell.sched->all_done(), std::string(name) + ": jobs left at horizon");
    CellResult r;
    r.metrics = cell.sched->metrics();
    check(r.metrics.finished + r.metrics.rejected == kJobs,
          std::string(name) + ": not every job finished");
    r.events = cell.engine.dispatched();
    r.backfills = cell.sched->backfills();
    r.violations = cell.sched->reservation_violations();
    r.allocator = cell.sched->allocator().stats();
    r.fabric = cell.cluster->fabric().stats();
    for (int n = 0; n < cell.cluster->num_nodes(); ++n) {
      const kernel::KernelCounters& k = cell.cluster->node(n).counters();
      r.kernel.context_switches += k.context_switches;
      r.kernel.cpu_migrations += k.cpu_migrations;
      r.kernel.preemptions += k.preemptions;
      r.kernel.wakeups += k.wakeups;
    }
    span.count("events", static_cast<double>(r.events));
    span.count("backfills", static_cast<double>(r.backfills));
    r.seconds = wall_now() - t0;
    return r;
  }

  std::uint64_t seed_;
  batch::ArrivalConfig arrivals_;
  std::vector<batch::JobSpec> trace_;
  // Per set-up sample; the boot time covers both cells' clusters.
  std::vector<double> generate_s_;
  std::vector<double> boot_s_;
  CellResult cfs_, hpl_;
  std::uint64_t easy_violations_ = 0;  // of the plain EASY cell
  bool have_serial_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_twolevel(std::uint64_t seed) {
  return std::make_unique<TwoLevel>(seed);
}

}  // namespace perfbench
