// SWF trace replay through the federated multi-queue scheduler: the
// committed 10k-job skewed-user excerpt (data/traces/skewed_10k.swf, from
// tools/swf_gen) through batch::run_replay_* under the four policy rungs
// of exp::compare_replay_policies, timed serial vs sharded.
//
// The bench doubles as the PR's verification gate and exits nonzero unless
//   (i)   fairshare strictly improves Jain's per-user fairness over plain
//         FCFS on the skewed trace,
//   (ii)  preemption strictly improves the express queue's mean bounded
//         slowdown over the same queues without it — with every
//         low-priority job still finishing (the replay throws if any job
//         never drains, so completing at all rules out livelock),
//   (iii) the sharded replay schedule is bit-identical to the serial one
//         at 1, 2, and 4 threads (ReplayResult::checksum()).
//
//   ./swf_replay [--trace PATH] [--jobs N] [--nodes N] [--shards S]
//       [--seed S] [--threads T]
//
// --jobs 0 (default) replays the committed trace; a positive count drops
// the trace and draws the same skewed workload synthetically at that scale
// (the path CI uses stays fixed; a million-job soak is one flag away).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "batch/job.h"
#include "batch/queue.h"
#include "batch/replay.h"
#include "batch/workload.h"
#include "exp/replay.h"
#include "harness.h"
#include "util/json.h"
#include "util/time.h"

using namespace hpcs;

namespace {

batch::ReplayConfig make_config(const bench::Harness& h) {
  batch::ReplayConfig cfg;
  cfg.nodes = static_cast<int>(h.get_int("nodes", 448));
  cfg.shards = static_cast<int>(h.get_int("shards", 8));
  cfg.fabric.nodes_per_switch = 32;
  cfg.cycle = 1 * kSecond;
  cfg.tau = 10 * kSecond;
  cfg.seed = h.seed();
  batch::QueueConfig express;
  express.name = "express";
  express.priority = 10;
  express.max_nodes = 8;
  express.max_walltime = 1800 * kSecond;
  batch::QueueConfig workq;
  workq.name = "workq";
  cfg.queues = {express, workq};
  cfg.fairshare.halflife = static_cast<SimDuration>(
      h.get_double("halflife-s", 3600.0) * kSecond);
  cfg.ckpt.interval = 300 * kSecond;
  return cfg;
}

/// The committed excerpt's generator shape (tools/swf_gen defaults), for
/// --jobs runs that scale past what is worth committing.
std::vector<batch::JobSpec> synthetic_trace(int jobs, std::uint64_t seed) {
  batch::ArrivalConfig arrivals;
  arrivals.jobs = jobs;
  arrivals.mean_interarrival = 30 * kSecond;
  arrivals.max_nodes = 64;
  arrivals.nodes_log_mean = 1.2;
  arrivals.nodes_log_sigma = 1.0;
  arrivals.runtime_typical = 600 * kSecond;
  arrivals.runtime_log_sigma = 1.0;
  arrivals.grain = 10 * kSecond;
  arrivals.users = 16;
  arrivals.user_zipf = 1.2;
  std::vector<batch::JobSpec> trace =
      batch::generate_arrivals(arrivals, seed);
  for (batch::JobSpec& job : trace) {
    if (job.user == 1) {
      job.iterations *= 4;
      job.estimate *= 4;
    }
  }
  return trace;
}

std::vector<batch::JobSpec> load_trace(const bench::Harness& h) {
  const int jobs = static_cast<int>(h.get_int("jobs", 0));
  if (jobs > 0) return synthetic_trace(jobs, h.seed());
  batch::SwfDefaults defaults;
  defaults.grain = 10 * kSecond;
  defaults.lenient = true;
  batch::SwfParseStats stats;
  // The default names the committed trace in the source tree, so the bench
  // runs from any working directory; an explicit --trace is used as given.
  const std::string name = h.get("trace", "");
  const std::string path =
      h.has("trace") ? name : std::string(HPCS_SOURCE_DIR) + "/" + name;
  const auto trace =
      batch::parse_swf(util::read_file(path), defaults, &stats);
  std::printf("swf_replay: %d jobs from %s (%d clamped, %d dropped)\n",
              stats.jobs, name.c_str(), stats.clamped_submits,
              stats.dropped_lines);
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("swf_replay",
                   "SWF trace replay through the multi-queue scheduler: "
                   "fairshare/preemption gates + serial-vs-sharded goldens");
  h.with_runs(1, "timed repetitions of the full policy ladder")
      .with_seed(42)
      .with_threads(4)
      .flag("trace", "SWF trace to replay", "data/traces/skewed_10k.swf")
      .flag("jobs", "synthesize this many jobs instead of the trace", "0")
      .flag("nodes", "cluster size", "448")
      .flag("shards", "scheduling domains", "8")
      .flag("halflife-s", "fairshare usage decay half-life in seconds",
            "3600");
  if (!h.parse(argc, argv)) return 1;

  const batch::ReplayConfig cfg = make_config(h);
  std::vector<batch::JobSpec> trace;
  try {
    trace = load_trace(h);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swf_replay: %s\n", e.what());
    return 1;
  }
  std::printf("swf_replay: %d nodes, %d shards, lookahead %llu ns\n",
              cfg.nodes, cfg.shards,
              static_cast<unsigned long long>(batch::replay_lookahead(cfg)));

  bool gates_ok = true;
  std::vector<exp::ReplayPolicyRun> ladder;
  double ladder_s = 0.0;
  for (int run = 0; run < h.runs(); ++run) {
    ladder_s = bench::Harness::time_seconds(
        [&] { ladder = exp::compare_replay_policies(cfg, trace); });
    h.record("ladder_ms", "ms", bench::Direction::kLowerIsBetter,
             ladder_s * 1e3);
  }
  const batch::ReplayResult& fcfs = ladder[0].result;
  const batch::ReplayResult& fair = ladder[1].result;
  const batch::ReplayResult& preempt = ladder[2].result;
  const batch::ReplayResult& full = ladder[3].result;

  // Queues-only control for gate (ii): same layout, no preemption.
  batch::ReplayConfig control_cfg = cfg;
  control_cfg.fairshare.enabled = false;
  control_cfg.preempt.enabled = false;
  const batch::ReplayResult control =
      batch::run_replay_serial(control_cfg, trace);

  for (const exp::ReplayPolicyRun& rung : ladder) {
    std::printf(
        "  %-9s util %.3f  mean slowdown %6.2f  p95 wait %8.0fs  "
        "Jain(users) %.4f  preemptions %llu  lost %.0fs\n",
        rung.name.c_str(), rung.result.utilization,
        rung.result.mean_slowdown, rung.result.p95_wait_s,
        rung.result.user_fairness,
        static_cast<unsigned long long>(rung.result.preemptions),
        rung.result.preempt_lost_s);
  }

  // Gate (i): fairshare strictly improves per-user fairness over FCFS.
  if (!(fair.user_fairness > fcfs.user_fairness)) {
    gates_ok = false;
    std::fprintf(stderr,
                 "FAIL gate(i): fairshare Jain %.6f !> fcfs Jain %.6f\n",
                 fair.user_fairness, fcfs.user_fairness);
  }
  // Gate (ii): preemption strictly improves the express queue's mean
  // bounded slowdown over the identical queues without it, and no job is
  // lost (the replay throws on an undrained queue, and job counts match).
  if (!(preempt.preemptions > 0 &&
        preempt.queues[0].mean_slowdown < control.queues[0].mean_slowdown &&
        preempt.jobs.size() == trace.size())) {
    gates_ok = false;
    std::fprintf(stderr,
                 "FAIL gate(ii): express slowdown %.3f !< %.3f "
                 "(preemptions %llu)\n",
                 preempt.queues[0].mean_slowdown,
                 control.queues[0].mean_slowdown,
                 static_cast<unsigned long long>(preempt.preemptions));
  }
  // Gate (iii): sharded replay of the full stack is bit-identical to the
  // serial schedule at 1, 2, and 4 threads.
  batch::ReplayConfig full_cfg = cfg;
  full_cfg.fairshare.enabled = true;
  full_cfg.preempt.enabled = true;
  double sharded_s = 0.0;
  std::uint64_t inline_rounds = 0;
  std::uint64_t rounds = 0;
  for (const int threads : {1, 2, 4}) {
    batch::ReplayResult sharded;
    const double t = bench::Harness::time_seconds(
        [&] { sharded = batch::run_replay_sharded(full_cfg, trace, threads); });
    if (threads == h.threads()) {
      sharded_s = t;
      inline_rounds = sharded.inline_rounds;
      rounds = sharded.rounds;
    }
    h.record("sharded_t" + std::to_string(threads) + "_ms", "ms",
             bench::Direction::kLowerIsBetter, t * 1e3);
    if (sharded.checksum() != full.checksum()) {
      gates_ok = false;
      std::fprintf(
          stderr,
          "FAIL gate(iii): sharded checksum %016llx != serial %016llx "
          "at %d threads\n",
          static_cast<unsigned long long>(sharded.checksum()),
          static_cast<unsigned long long>(full.checksum()), threads);
    }
  }

  h.record("utilization", "frac", bench::Direction::kHigherIsBetter,
           full.utilization);
  h.record("mean_slowdown", "x", bench::Direction::kLowerIsBetter,
           full.mean_slowdown);
  h.record("p95_wait_s", "s", bench::Direction::kLowerIsBetter,
           full.p95_wait_s);
  h.record("fairshare_jain_gain", "frac", bench::Direction::kHigherIsBetter,
           fair.user_fairness - fcfs.user_fairness);
  h.record("express_slowdown_cut", "x", bench::Direction::kHigherIsBetter,
           control.queues[0].mean_slowdown - preempt.queues[0].mean_slowdown);
  h.record("events", "count", bench::Direction::kNeutral,
           static_cast<double>(full.events));
  h.record("preemptions", "count", bench::Direction::kNeutral,
           static_cast<double>(preempt.preemptions));
  h.record("forwards", "count", bench::Direction::kNeutral,
           static_cast<double>(full.forwards));
  h.record("rejected", "count", bench::Direction::kNeutral,
           static_cast<double>(full.rejected));

  std::printf("swf_replay: ladder %.2fs, sharded(x%d) %.2fs (%llu/%llu "
              "rounds inline)  -> gates %s\n",
              ladder_s, h.threads(), sharded_s,
              static_cast<unsigned long long>(inline_rounds),
              static_cast<unsigned long long>(rounds),
              gates_ok ? "PASS" : "FAIL");
  const int rc = h.finish();
  return gates_ok ? rc : 1;
}
