// Golden serial-vs-sharded equivalence for the SWF replay engine, plus the
// policy behaviours the swf_replay bench gates on: fairshare evening out a
// skewed-user trace, preemption trading low-priority progress for
// high-priority responsiveness without losing jobs, and checkpoint-banked
// suspensions costing less than naive kill-and-restart.
//
// The checksum below pins the whole replay schedule of one contended
// multi-queue scenario; every sharded thread count must reproduce it
// bit-for-bit.  If a refactor changes a constant deliberately, re-derive it
// by printing result.checksum() from a serial run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "batch/replay.h"
#include "batch/workload.h"
#include "net/fabric.h"
#include "util/time.h"

namespace hpcs::batch {
namespace {

/// The full express_replay() x small_trace() schedule, folded.  Re-derive
/// with: print run_replay_serial(express_replay(), small_trace()).checksum().
constexpr std::uint64_t kGoldenChecksum = 412301723478720697ULL;

/// A contended 64-node, 4-shard replay: 6 users with Zipf-skewed ownership,
/// jobs up to half a shard wide, runtimes around 80ms on a 1ms grid.
ReplayConfig small_replay() {
  ReplayConfig config;
  config.nodes = 64;
  config.shards = 4;
  config.fabric.nodes_per_switch = 16;
  config.cycle = 1 * kMillisecond;
  config.tau = 10 * kMillisecond;
  config.seed = 7;
  return config;
}

std::vector<JobSpec> small_trace(int jobs = 240) {
  ArrivalConfig arrivals;
  arrivals.jobs = jobs;
  arrivals.mean_interarrival = 2 * kMillisecond;
  arrivals.max_nodes = 8;
  arrivals.runtime_typical = 120 * kMillisecond;
  arrivals.grain = 5 * kMillisecond;
  arrivals.users = 6;
  arrivals.user_zipf = 1.5;
  return generate_arrivals(arrivals, 11);
}

/// The shape fairshare exists for: the Zipf-heaviest user (id 1) also
/// submits 4x-longer jobs, so under FCFS the light users' short jobs drown
/// behind them while the heavy user's own slowdowns stay low.
std::vector<JobSpec> skewed_trace(int jobs = 240) {
  std::vector<JobSpec> trace = small_trace(jobs);
  for (JobSpec& spec : trace) {
    if (spec.user == 1) {
      spec.iterations *= 4;
      spec.estimate *= 4;
    }
  }
  return trace;
}

/// Two-queue config: a small high-priority express lane (jobs <= 4 nodes,
/// <= 60ms) that may preempt, over a catch-all workq.
ReplayConfig express_replay() {
  ReplayConfig config = small_replay();
  QueueConfig express;
  express.name = "express";
  express.priority = 10;
  express.max_nodes = 4;
  express.max_walltime = 60 * kMillisecond;
  QueueConfig workq;
  workq.name = "workq";
  config.queues = {express, workq};
  config.ckpt.interval = 10 * kMillisecond;
  config.ckpt.bytes_per_node = 1 << 20;
  return config;
}

TEST(ReplayTest, SerialReplayDrainsAndReportsUtilization) {
  const ReplayResult result = run_replay_serial(small_replay(), small_trace());
  EXPECT_EQ(result.jobs.size(), 240u);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_GT(result.utilization, 0.05);
  EXPECT_LE(result.utilization, 1.0);
  EXPECT_GT(result.mean_slowdown, 0.99);
  for (const ReplayJobOutcome& job : result.jobs) {
    EXPECT_GE(job.start, job.arrival);
    EXPECT_GT(job.finish, job.start);
  }
}

TEST(ReplayTest, ReplayIsDeterministicPerConfig) {
  const ReplayResult a = run_replay_serial(small_replay(), small_trace());
  const ReplayResult b = run_replay_serial(small_replay(), small_trace());
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_EQ(a.events, b.events);
}

TEST(ReplayTest, ShardedMatchesSerialAt124Threads) {
  const ReplayConfig config = express_replay();
  const std::vector<JobSpec> trace = small_trace();
  const ReplayResult serial = run_replay_serial(config, trace);
  EXPECT_GT(serial.forwards, 0u);
  for (const int threads : {1, 2, 4}) {
    const ReplayResult sharded = run_replay_sharded(config, trace, threads);
    EXPECT_EQ(sharded.checksum(), serial.checksum()) << threads;
    EXPECT_EQ(sharded.preemptions, serial.preemptions) << threads;
    EXPECT_EQ(sharded.forwards, serial.forwards) << threads;
  }
}

TEST(ReplayTest, GoldenChecksumPinsTheSchedule) {
  const ReplayResult result =
      run_replay_serial(express_replay(), small_trace());
  EXPECT_EQ(result.checksum(), kGoldenChecksum);
}

/// The whole policy stack at once: queue routing and priorities, fairshare,
/// preemption with checkpoint banking, EASY backfill and forwarding, on the
/// skewed trace with an express lane wide enough to preempt often.
/// Re-derive with: print run_replay_serial(full_stack_replay(),
/// skewed_trace()).checksum().
constexpr std::uint64_t kFullStackChecksum = 6562977406520751365ULL;

ReplayConfig full_stack_replay() {
  ReplayConfig config = express_replay();
  config.queues[0].max_walltime = 240 * kMillisecond;
  config.fairshare.enabled = true;
  config.fairshare.halflife = 1 * kSecond;
  config.preempt.enabled = true;
  return config;
}

TEST(ReplayTest, FullPolicyStackShardedMatchesSerialAndPin) {
  const ReplayConfig config = full_stack_replay();
  const std::vector<JobSpec> trace = skewed_trace();
  const ReplayResult serial = run_replay_serial(config, trace);
  EXPECT_EQ(serial.checksum(), kFullStackChecksum);
  EXPECT_EQ(serial.preemptions, 42u);
  EXPECT_EQ(serial.forwards, 90u);
  EXPECT_NEAR(serial.preempt_lost_s, 0.266, 0.0005);
  for (const int threads : {1, 2, 4}) {
    const ReplayResult sharded = run_replay_sharded(config, trace, threads);
    EXPECT_EQ(sharded.checksum(), serial.checksum()) << threads;
    EXPECT_EQ(sharded.preemptions, serial.preemptions) << threads;
    EXPECT_EQ(sharded.forwards, serial.forwards) << threads;
    EXPECT_EQ(sharded.gossip_messages, serial.gossip_messages) << threads;
    EXPECT_EQ(sharded.events, serial.events) << threads;
    EXPECT_EQ(sharded.preempt_lost_s, serial.preempt_lost_s) << threads;
  }
}

TEST(ReplayTest, FairshareImprovesJainOnSkewedTrace) {
  const ReplayConfig fcfs = small_replay();
  ReplayConfig fair = small_replay();
  fair.fairshare.enabled = true;
  fair.fairshare.halflife = 1 * kSecond;
  const std::vector<JobSpec> trace = skewed_trace();
  const ReplayResult base = run_replay_serial(fcfs, trace);
  const ReplayResult shared = run_replay_serial(fair, trace);
  EXPECT_GT(shared.user_fairness, base.user_fairness);
}

TEST(ReplayTest, PreemptionHelpsExpressWithoutLosingJobs) {
  ReplayConfig off = express_replay();
  ReplayConfig on = express_replay();
  on.preempt.enabled = true;
  const std::vector<JobSpec> trace = small_trace();
  const ReplayResult without = run_replay_serial(off, trace);
  const ReplayResult with = run_replay_serial(on, trace);
  EXPECT_GT(with.preemptions, 0u);
  EXPECT_GT(with.preempt_lost_s, 0.0);
  // collect() throws if any job never finishes, so reaching here already
  // proves no livelock; the express lane must also get faster.
  ASSERT_EQ(with.queues[0].name, "express");
  EXPECT_LT(with.queues[0].mean_slowdown, without.queues[0].mean_slowdown);
  EXPECT_EQ(with.jobs.size(), trace.size());
}

TEST(ReplayTest, CheckpointBankingReducesPreemptionLoss) {
  ReplayConfig banked = express_replay();
  banked.preempt.enabled = true;
  ReplayConfig naive = banked;
  naive.ckpt.interval = 0;  // suspension discards everything
  const std::vector<JobSpec> trace = small_trace();
  const ReplayResult with = run_replay_serial(banked, trace);
  const ReplayResult without = run_replay_serial(naive, trace);
  ASSERT_GT(with.preemptions, 0u);
  ASSERT_GT(without.preemptions, 0u);
  const double with_rate =
      with.preempt_lost_s / static_cast<double>(with.preemptions);
  const double without_rate =
      without.preempt_lost_s / static_cast<double>(without.preemptions);
  EXPECT_LT(with_rate, without_rate);
}

TEST(ReplayTest, TooWideJobsAreRejectedUpFront) {
  ReplayConfig config = small_replay();
  QueueConfig narrow;
  narrow.name = "narrow";
  narrow.max_nodes = 8;  // generator max: every other job is admitted
  config.queues = {narrow};
  std::vector<JobSpec> trace = small_trace(40);
  trace[5].nodes = 12;  // wider than any queue admits
  const ReplayResult result = run_replay_serial(config, trace);
  EXPECT_EQ(result.rejected, 1);
  EXPECT_EQ(result.jobs[5].queue, -1);
  EXPECT_EQ(result.jobs[5].finish, 0u);
}

TEST(ReplayTest, RejectsDegenerateConfigs) {
  ReplayConfig config = small_replay();
  config.cycle = 1;
  EXPECT_THROW(run_replay_serial(config, small_trace(4)),
               std::invalid_argument);
  ReplayConfig noise = small_replay();
  noise.node_noise = -0.5;
  EXPECT_THROW(run_replay_serial(noise, small_trace(4)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hpcs::batch
