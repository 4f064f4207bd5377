// replay_skewed: a skewed-user SWF trace (tools/swf_gen's shape: 16 Zipf
// users, the heaviest one's jobs stretched x4) rendered to SWF text,
// parsed with batch::parse_swf, and replayed under the full policy stack
// (express + workq queues, fairshare, preemption, EASY) on 448 nodes in 8
// shards with batch::run_replay_serial / run_replay_sharded.  The trace is
// held at the committed trace's offered load whatever the seed.  Per-event
// policy work is heavy and the sharded run is barrier-bound at a few
// events per round: the opposite use of the layers scale_loaded stresses.
#include <cstdio>

#include "batch/queue.h"
#include "batch/replay.h"
#include "batch/workload.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hpcs;

/// Jobs in the generated trace.  At the committed 10k-job trace's size a
/// serial replay takes about 0.1 s; this size makes a pass long enough to
/// time steadily.
constexpr int kTraceJobs = 40000;
constexpr hpcs::SimDuration kMeanInterarrival = 30 * hpcs::kSecond;
/// The committed trace's offered load: 1.0 on 384 nodes (0.86 on the 448
/// replayed here, where fairshare's fairness gain shows).
constexpr double kLoadNodes = 384.0;

class ReplaySkewed final : public Workload {
 public:
  explicit ReplaySkewed(std::uint64_t seed) {
    batch::ArrivalConfig arrivals;
    arrivals.jobs = kTraceJobs;
    arrivals.mean_interarrival = kMeanInterarrival;
    arrivals.max_nodes = 64;
    arrivals.nodes_log_mean = 1.2;
    arrivals.nodes_log_sigma = 1.0;
    arrivals.runtime_typical = 600 * kSecond;
    arrivals.runtime_log_sigma = 1.0;
    arrivals.grain = 10 * kSecond;
    arrivals.users = 16;
    arrivals.user_zipf = 1.2;
    std::vector<batch::JobSpec> jobs = batch::generate_arrivals(arrivals, seed);
    for (batch::JobSpec& job : jobs) {
      if (job.user == 1) {  // the heavy user submits long jobs
        job.iterations *= 4;
        job.estimate *= 4;
      }
    }
    const SimTime span = kTraceJobs * kMeanInterarrival;
    fix_offered_load(jobs, span, kLoadNodes * static_cast<double>(span));
    text_ = batch::format_swf(jobs);

    cfg_.nodes = 448;
    cfg_.shards = 8;
    cfg_.fabric.nodes_per_switch = 32;
    cfg_.cycle = 1 * kSecond;
    cfg_.tau = 10 * kSecond;
    cfg_.seed = seed;
    batch::QueueConfig express;
    express.name = "express";
    express.priority = 10;
    express.max_nodes = 8;
    express.max_walltime = 1800 * kSecond;
    batch::QueueConfig workq;
    workq.name = "workq";
    cfg_.queues = {express, workq};
    cfg_.fairshare.enabled = true;
    cfg_.fairshare.halflife = 3600 * kSecond;
    cfg_.preempt.enabled = true;
    cfg_.ckpt.interval = 300 * kSecond;
  }

  double setup(Tracer& tracer) override {
    Span span(tracer, "batch.parse_swf", "batch");
    batch::SwfDefaults defaults;
    defaults.grain = 10 * kSecond;
    defaults.lenient = true;
    const double t0 = wall_now();
    trace_ = batch::parse_swf(text_, defaults);
    const double seconds = wall_now() - t0;
    span.count("bytes", static_cast<double>(text_.size()));
    span.count("jobs", static_cast<double>(trace_.size()));
    check(trace_.size() == static_cast<std::size_t>(kTraceJobs),
          "parse_swf: job count");
    parse_s_.push_back(seconds);
    return seconds;
  }

  void serial_pass(Tracer& tracer) override {
    Span span(tracer, "batch.run_replay_serial", "batch");
    batch::ReplayResult r = batch::run_replay_serial(cfg_, trace_);
    span.count("events", static_cast<double>(r.events));
    check_outcomes("serial", r);
    if (have_serial_) {
      check_checksum("serial rerun", r.checksum(), serial_checksum_);
    }
    serial_checksum_ = r.checksum();
    have_serial_ = true;
    serial_ = std::move(r);
  }

  void parallel_pass(Tracer& tracer, int threads) override {
    check(have_serial_, "sharded pass before a serial pass");
    Span span(tracer, "batch.run_replay_sharded", "batch");
    batch::ReplayResult r = batch::run_replay_sharded(cfg_, trace_, threads);
    span.count("threads", threads);
    span.count("rounds", static_cast<double>(r.rounds));
    check_checksum("sharded@" + std::to_string(threads), r.checksum(),
                   serial_checksum_);
    sharded_ = std::move(r);
  }

  bool sharded() const override { return true; }

  std::vector<std::string> shape_problems() const override {
    if (serial_.preemptions > 0) return {};
    return {"no preemptions: the full policy stack is no longer exercised"};
  }

  void layers(Tracer& tracer, Layers& out) override {
    const auto messages = sharded_.forwards + sharded_.gossip_messages;
    out.metrics["sim.events"] = static_cast<double>(serial_.events);
    out.metrics["sim.sharded.rounds"] = static_cast<double>(sharded_.rounds);
    out.metrics["sim.sharded.messages"] = static_cast<double>(messages);
    out.metrics["batch.forwards"] = static_cast<double>(serial_.forwards);
    out.metrics["batch.gossip"] = static_cast<double>(serial_.gossip_messages);
    out.metrics["batch.preemptions"] =
        static_cast<double>(serial_.preemptions);
    const double parse_s = summarize(parse_s_).median;
    out.add_named("batch.parse_swf_s", parse_s);
    out.add_named("batch.parse_swf_ns_per_byte",
                  parse_s * 1e9 / static_cast<double>(text_.size()));
    out.add_named("replay.rejected", serial_.rejected);
    out.add_named("replay.user_fairness", serial_.user_fairness);

    // One serial replay per exp::compare_replay_policies rung, timed
    // separately (the same four policy blocks that function derives).
    struct Rung {
      const char* name;
      bool queues, fairshare, preempt;
    };
    for (const Rung rung : {Rung{"fcfs", false, false, false},
                            Rung{"fairshare", true, true, false},
                            Rung{"preempt", true, false, true},
                            Rung{"full", true, true, true}}) {
      batch::ReplayConfig cfg = cfg_;
      if (!rung.queues) cfg.queues.clear();
      cfg.fairshare.enabled = rung.fairshare;
      cfg.preempt.enabled = rung.preempt;
      Span span(tracer, std::string("replay.rung.") + rung.name, "batch");
      const double t0 = wall_now();
      const batch::ReplayResult r = batch::run_replay_serial(cfg, trace_);
      out.add_named(std::string("batch.replay.rung_s.") + rung.name,
                    wall_now() - t0);
      span.count("preemptions", static_cast<double>(r.preemptions));
      span.count("events", static_cast<double>(r.events));
    }
  }

  std::uint64_t input_digest() override {
    std::uint64_t h = kFnvBasis;
    for (const char c : text_) h = fnv1a(h, static_cast<unsigned char>(c));
    return h;
  }

  std::string describe() const override {
    char line[256];
    std::snprintf(line, sizeof line,
                  "checksum %016llx  events %llu  rounds %llu  preemptions "
                  "%llu  rejected %d  Jain(users) %.4f",
                  static_cast<unsigned long long>(serial_checksum_),
                  static_cast<unsigned long long>(serial_.events),
                  static_cast<unsigned long long>(sharded_.rounds),
                  static_cast<unsigned long long>(serial_.preemptions),
                  serial_.rejected, serial_.user_fairness);
    return line;
  }

 private:
  void check_outcomes(const std::string& what,
                      const batch::ReplayResult& r) const {
    check(r.jobs.size() == trace_.size(), what + ": job count");
    int rejected = 0;
    for (const batch::ReplayJobOutcome& job : r.jobs) {
      if (job.queue < 0) {
        ++rejected;
        continue;
      }
      check(job.start >= job.arrival && job.finish > job.start,
            what + ": a job neither finished nor was rejected");
    }
    check(rejected == r.rejected, what + ": rejected count");
  }

  std::string text_;
  batch::ReplayConfig cfg_;
  std::vector<batch::JobSpec> trace_;
  std::vector<double> parse_s_;  // per set-up sample
  batch::ReplayResult serial_;
  batch::ReplayResult sharded_;
  std::uint64_t serial_checksum_ = 0;
  bool have_serial_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_replay_skewed(std::uint64_t seed) {
  return std::make_unique<ReplaySkewed>(seed);
}

}  // namespace perfbench
