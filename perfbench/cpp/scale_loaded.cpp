// scale_loaded: the cluster_scale scenario (10k nodes, 16 shards, 100k
// jobs, 1 ms mean inter-arrival) loaded with 1.1 s typical runtimes, on
// batch::run_scale_serial and batch::run_scale_sharded.  Thin callbacks and
// about 125 cross-shard messages per round: event dispatch, the sharded
// exchange and the FCFS gossip path do most of the work.
#include <cstdio>

#include "batch/scale.h"
#include "batch/workload.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hpcs;

class ScaleLoaded final : public Workload {
 public:
  explicit ScaleLoaded(std::uint64_t seed) {
    cfg_.nodes = 10000;
    cfg_.shards = 16;
    cfg_.fabric.nodes_per_switch = 32;
    cfg_.arrivals.jobs = 100000;
    cfg_.arrivals.mean_interarrival = 1 * kMillisecond;
    cfg_.arrivals.max_nodes = 64;
    cfg_.arrivals.nodes_log_mean = 1.8;
    cfg_.arrivals.runtime_typical = 1100 * kMillisecond;
    cfg_.seed = seed;
  }

  double setup(Tracer& tracer) override {
    Span span(tracer, "batch.generate_arrivals", "batch");
    const double t0 = wall_now();
    jobs_ = batch::generate_arrivals(cfg_.arrivals, cfg_.seed);
    const double seconds = wall_now() - t0;
    span.count("jobs", static_cast<double>(jobs_.size()));
    generate_s_.push_back(seconds);
    return seconds;
  }

  void serial_pass(Tracer& tracer) override {
    Span span(tracer, "batch.run_scale_serial", "batch");
    batch::ScaleResult r = batch::run_scale_serial(cfg_);
    span.count("events", static_cast<double>(r.events));
    check(r.jobs.size() == static_cast<std::size_t>(cfg_.arrivals.jobs),
          "serial: job count");
    for (const batch::ScaleJobOutcome& job : r.jobs) {
      check(job.start >= job.arrival && job.finish > job.start,
            "serial: a job never finished");
    }
    if (have_serial_) {
      check_checksum("serial rerun", r.checksum(), serial_checksum_);
    }
    serial_checksum_ = r.checksum();
    have_serial_ = true;
    serial_ = std::move(r);
  }

  void parallel_pass(Tracer& tracer, int threads) override {
    check(have_serial_, "sharded pass before a serial pass");
    Span span(tracer, "batch.run_scale_sharded", "batch");
    batch::ScaleResult r = batch::run_scale_sharded(cfg_, threads);
    span.count("threads", threads);
    span.count("rounds", static_cast<double>(r.rounds));
    check_checksum("sharded@" + std::to_string(threads), r.checksum(),
                   serial_checksum_);
    sharded_ = std::move(r);
  }

  bool sharded() const override { return true; }

  // Over seeds 1-20 utilisation reads 0.871-0.938 and mean wait 4.2-5.2 s;
  // the unloaded default scenario (0.9 s runtimes) reads 0.85-0.86 and
  // 0.001 s, so the mean wait is what tells the two apart.
  std::vector<std::string> shape_problems() const override {
    std::vector<std::string> problems;
    if (!(serial_.utilization >= 0.85)) {
      problems.push_back("utilisation " + std::to_string(serial_.utilization) +
                         " < 0.85: the scenario is no longer loaded");
    }
    if (!(serial_.mean_wait_s >= 1.0)) {
      problems.push_back("mean wait " + std::to_string(serial_.mean_wait_s) +
                         " s < 1 s: the scenario is no longer loaded");
    }
    return problems;
  }

  void layers(Tracer&, Layers& out) override {
    const auto messages = sharded_.forwards + sharded_.gossip_messages;
    out.metrics["sim.events"] = static_cast<double>(serial_.events);
    out.metrics["sim.sharded.rounds"] = static_cast<double>(sharded_.rounds);
    out.metrics["sim.sharded.messages"] = static_cast<double>(messages);
    out.metrics["batch.forwards"] = static_cast<double>(serial_.forwards);
    out.metrics["batch.gossip"] = static_cast<double>(serial_.gossip_messages);
    out.add_named("batch.generate_s", summarize(generate_s_).median);
    out.add_named("scale.utilization", serial_.utilization);
    out.add_named("scale.mean_wait_s", serial_.mean_wait_s);
  }

  std::uint64_t input_digest() override {
    Tracer off(false, 0);
    setup(off);
    std::uint64_t h = kFnvBasis;
    for (const batch::JobSpec& job : jobs_) {
      h = fnv1a(h, job.arrival);
      h = fnv1a(h, static_cast<std::uint64_t>(job.nodes));
      h = fnv1a(h, static_cast<std::uint64_t>(job.iterations));
    }
    return h;
  }

  std::string describe() const override {
    char line[256];
    std::snprintf(line, sizeof line,
                  "checksum %016llx  events %llu  rounds %llu  forwards %llu  "
                  "gossip %llu  utilisation %.3f  mean wait %.2fs",
                  static_cast<unsigned long long>(serial_checksum_),
                  static_cast<unsigned long long>(serial_.events),
                  static_cast<unsigned long long>(sharded_.rounds),
                  static_cast<unsigned long long>(serial_.forwards),
                  static_cast<unsigned long long>(serial_.gossip_messages),
                  serial_.utilization, serial_.mean_wait_s);
    return line;
  }

 private:
  batch::ScaleConfig cfg_;
  std::vector<batch::JobSpec> jobs_;
  std::vector<double> generate_s_;  // per set-up sample
  batch::ScaleResult serial_;
  batch::ScaleResult sharded_;
  std::uint64_t serial_checksum_ = 0;
  bool have_serial_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_scale_loaded(std::uint64_t seed) {
  return std::make_unique<ScaleLoaded>(seed);
}

}  // namespace perfbench
