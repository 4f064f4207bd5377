// Trace replay: a large SWF workload through the federated multi-queue
// scheduler at batch-event granularity, serial or sharded.
//
// This is the production-scheduler counterpart of batch/scale.h, on the
// same federated core and determinism contract (batch/federated.h), with
// the PBS-class policy cycle as the per-shard scheduler instead of FCFS:
//
//   * Jobs are routed into prioritised execution queues (batch/queue.h) by
//     width/walltime at submission; per-queue node limits cap how much of
//     a shard one queue may hold, and a limit-blocked job never
//     head-blocks the others.
//   * Fairshare (batch/fairshare.h): each shard charges finished jobs'
//     node-seconds to their owner and orders candidates by decayed usage
//     within a priority level — the skewed-user correction the swf_replay
//     bench gates on against plain FCFS.
//   * Preemption: a blocked high-priority candidate may suspend running
//     lower-priority jobs (youngest first, batch/policy.h's victim choice,
//     shared with BatchScheduler).  A suspended job keeps the
//     work banked at its periodic checkpoint commits (interval from
//     ReplayCkptConfig, restart read charged via ckpt::pfs_transfer_time)
//     and re-enters the queue at its original arrival; the rest is lost
//     and accounted.
//   * EASY backfill within each shard (batch/policy.h's sweep, shared with
//     BatchScheduler), and the core's gossip/forwarding between shards (a
//     blocked head may migrate to a reportedly freer shard).
//
// run_replay_serial and run_replay_sharded are bit-identical at any thread
// count — the goldens tests/bench pin via ReplayResult::checksum().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/fairshare.h"
#include "batch/policy.h"
#include "batch/queue.h"
#include "batch/workload.h"
#include "ckpt/pfs.h"
#include "net/fabric.h"
#include "util/time.h"

namespace hpcs::batch {

/// Checkpoint-commit model backing suspend/resume.  A running job banks
/// its work at every `interval` of execution; suspension keeps the banked
/// part, and resuming charges one restart read of the job's image.
struct ReplayCkptConfig {
  /// Commit period; 0 disables banking (a suspension loses everything).
  SimDuration interval = 60 * kSecond;
  std::uint64_t bytes_per_node = 64ULL << 20;
  /// Restart-read cost model (contention-free: ckpt::pfs_transfer_time).
  ckpt::PfsConfig pfs;
};

struct ReplayConfig {
  /// Cluster size; fabric.nodes is overridden to match.
  int nodes = 1024;
  /// Scheduling domains == sim::ShardedEngine shards.
  int shards = 8;
  net::FabricConfig fabric;
  /// Scheduler-cycle quantum (>= 2ns); SWF traces tick in seconds, so the
  /// default is one second.
  SimDuration cycle = 1 * kSecond;
  /// Execution queues walked in priority order (empty = one catch-all).
  std::vector<QueueConfig> queues;
  FairshareConfig fairshare;
  PreemptConfig preempt;
  ReplayCkptConfig ckpt;
  /// Per-(job, node) noise stretch on runtimes (0 replays exactly).
  double node_noise = 0.0;
  /// Times a blocked head may migrate to a reportedly freer shard.
  int max_forwards = 2;
  int allocator_block = 4;
  /// Bounded-slowdown threshold.
  SimDuration tau = 10 * kSecond;
  std::uint64_t seed = 1;
};

/// One job's trip, indexed by its position in the input spec vector.
struct ReplayJobOutcome {
  SimTime arrival = 0;   // grid-aligned submit time
  SimTime start = 0;     // first dispatch
  SimTime finish = 0;    // final completion
  std::int32_t home_shard = -1;
  std::int32_t ran_shard = -1;  // where it (last) ran
  std::int32_t forwards = 0;
  std::int32_t queue = -1;  // execution queue; -1 = rejected, never ran
  std::int32_t user = 0;
  std::int32_t preempts = 0;       // suspensions suffered
  SimDuration preempt_lost = 0;    // work discarded past commit points
};

struct ReplayQueueStats {
  std::string name;
  int jobs = 0;  // routed here (rejected jobs belong to no queue)
  double mean_wait_s = 0.0;
  double mean_slowdown = 0.0;  // bounded slowdown, tau = config.tau
};

struct ReplayResult {
  std::vector<ReplayJobOutcome> jobs;  // by input order; all others finish
  int rejected = 0;                    // jobs no queue admitted
  SimTime makespan = 0;
  std::uint64_t forwards = 0;
  /// Free-capacity gossip landing events (one per shard and instant).
  std::uint64_t gossip_messages = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;         // conservative windows (0 when serial)
  std::uint64_t inline_rounds = 0;  // of those, run without the workers
  double mean_wait_s = 0.0;
  double p95_wait_s = 0.0;
  double mean_slowdown = 0.0;
  double utilization = 0.0;  // busy node-time / (nodes x makespan)
  /// Jain's index over per-user mean bounded slowdowns (1.0 = every user
  /// sees the same service) — the fairshare headline.
  double user_fairness = 0.0;
  double preempt_lost_s = 0.0;
  std::vector<ReplayQueueStats> queues;

  /// FNV-1a over every outcome tuple: one word pinning the whole schedule
  /// bit-for-bit (the serial-vs-sharded goldens' currency).
  std::uint64_t checksum() const;
};

/// The conservative lookahead the replay's partition supports.
SimDuration replay_lookahead(const ReplayConfig& config);

/// Reference implementation: the whole cluster on one serial sim::Engine.
ReplayResult run_replay_serial(const ReplayConfig& config,
                               const std::vector<JobSpec>& specs);

/// The same replay on a sim::ShardedEngine (threads = 0 picks hardware
/// concurrency).  Bit-identical to run_replay_serial at any thread count.
ReplayResult run_replay_sharded(const ReplayConfig& config,
                                const std::vector<JobSpec>& specs,
                                int threads = 0);

}  // namespace hpcs::batch
