// Cluster-scale scenario: one large partitioned cluster, simulated either
// on the serial engine (the reference) or sharded across threads.
//
// The full node-kernel simulation (src/kernel + src/cluster) resolves every
// tick of every task — perfect for the paper's single-node fidelity
// experiments, far too heavy for 10k nodes x 100k jobs.  This model keeps
// the *cluster-level* dynamics (arrivals, FCFS queueing, topology-aware
// allocation, slowest-node noise amplification, cross-partition load
// sharing over the fabric) at batch-event granularity, the same abstraction
// DRAS-CQSim and Eleliemy et al.'s two-level simulator operate at:
//
//   * Nodes are partitioned into leaf-aligned shards (cluster::
//     ShardPartition); each shard runs its own FCFS scheduler over its own
//     batch::NodeAllocator — a federated workload manager.
//   * Jobs (batch::generate_arrivals) are submitted to a home shard and may
//     be *forwarded* to a less-loaded shard when they cannot start locally;
//     shards learn each other's free capacity only through gossip messages
//     that cross the fabric — never by reading remote state — so the exact
//     same code runs serially and sharded.
//   * A dispatched job's runtime is its ideal runtime stretched by the
//     noisiest of its allocated nodes (max over per-(job, node) hashed
//     draws): Petrini et al.'s "the job runs at the speed of its unluckiest
//     node", at per-job cost proportional to the allocation size.
//
// Determinism contract (golden-pinned serial vs sharded, any thread count):
// the federated core's (batch/federated.h, shared with batch/replay.h) —
// commuting mutations on multiples of `cycle` (real workload managers
// batch decisions the same way), decisions in a coalesced pass at
// cycle+1ns, cross-shard delays >= the partition lookahead.
#pragma once

#include <cstdint>
#include <vector>

#include "batch/workload.h"
#include "ckpt/pfs.h"
#include "ckpt/young_daly.h"
#include "fault/campaign.h"
#include "net/fabric.h"
#include "util/histogram.h"
#include "util/time.h"
#include "wf/generator.h"

namespace hpcs::batch {

/// Checkpoint/restart model for the scale scenario.  When enabled, every
/// dispatched job writes periodic coordinated checkpoints to a shared
/// parallel filesystem (one cluster-wide ckpt::PfsModel served by shard 0),
/// at an interval chosen per job from its width and the per-node MTBF
/// (Young/Daly).  Two coordination policies:
///
///   * kSelfish: each job checkpoints on its own clock — compute for one
///     interval, stall, write.  Similar intervals synchronise across jobs,
///     so writes collide on the PFS and the FIFO queue stretches every
///     checkpoint (the uncoordinated baseline).
///   * kCooperative: each job *reserves* its next write slot with the
///     coordinator one interval ahead; the FIFO reservation horizon hands
///     out consecutive non-overlapping slots, so writes stagger instead of
///     colliding, and a job keeps computing until its slot opens (the work
///     computed up to the write start is in the checkpoint).
///
/// Graceful degradation: when a granted slot slips more than
/// stretch_threshold x interval past the asked-for time (PFS saturation),
/// the job stretches its interval (up to max_stretch x the Young/Daly
/// base) instead of stalling the schedule.
struct ScaleCkptConfig {
  bool enabled = false;
  ckpt::CoordPolicy coordinator = ckpt::CoordPolicy::kSelfish;
  ckpt::IntervalPolicy interval_policy = ckpt::IntervalPolicy::kDaly;
  /// Multiplier on the policy's interval (sweep knob; 1.0 = the optimum).
  double interval_scale = 1.0;
  /// Interval under IntervalPolicy::kFixed.
  SimDuration fixed_interval = 60 * kSecond;
  /// Checkpoint image size per allocated node.
  std::uint64_t bytes_per_node = 256ULL << 20;
  /// The shared parallel filesystem (bandwidth + per-op latency).
  ckpt::PfsConfig pfs;
  /// Per-node MTBF feeding the interval policy; 0 falls back to
  /// ScaleConfig::campaign.node_mtbf.
  SimDuration node_mtbf = 0;
  /// Failed-node reboot time before the job can restart from its image.
  SimDuration downtime = 30 * kSecond;
  /// Slot slip (fraction of the interval) that triggers a stretch.
  double stretch_threshold = 0.5;
  double stretch_factor = 1.5;
  double max_stretch = 4.0;
};

/// Checkpoint/fault outcomes of one scale run (all zero when the model is
/// off).  Durations are summed over jobs, unweighted by width; waste_frac
/// is node-weighted.
struct ScaleCkptStats {
  std::uint64_t checkpoints = 0;     // committed writes
  std::uint64_t aborted_writes = 0;  // failures mid-write (no credit)
  std::uint64_t failures_hit = 0;    // campaign failures on allocated nodes
  std::uint64_t failures_idle = 0;   // campaign failures on idle nodes
  std::uint64_t restarts = 0;        // job restarts from a checkpoint
  std::uint64_t interval_stretches = 0;
  SimDuration ckpt_write_ns = 0;     // time inside PFS writes
  SimDuration ckpt_stall_ns = 0;     // pre-write stalls (queueing, selfish)
  SimDuration lost_work_ns = 0;      // work since last commit, lost to faults
  SimDuration restart_stall_ns = 0;  // downtime + restart-read latency
  double mean_interval_s = 0.0;      // mean chosen base interval
  double waste_frac = 0.0;  // node-weighted (span - ideal work) / span
  ckpt::PfsStats pfs;
};

/// Workflow mode for the scale scenario: the workload becomes `instances`
/// synthetic DAGs (wf::generate_dag) instead of independent Poisson
/// arrivals.  Dependency-free tasks arrive normally; a dependent task is
/// *held* on its home shard and enters the queue only when the release
/// messages from its finished parents (carried over the fabric with the
/// same grid-aligned latency as job forwards) drive its waiting count to
/// zero.  Release decrements commute and exactly one hits zero, so serial
/// and sharded runs stay bit-identical.
struct ScaleWorkflowConfig {
  bool enabled = false;
  /// Per-instance shape; first_id is overridden to keep ids 1..N contiguous
  /// across instances.
  wf::DagGenConfig dag;
  int instances = 4;
  /// Arrival gap between instances (grid-aligned).
  SimDuration spacing = 0;
};

/// Shared-node mode: a node offers `slots_per_node` job slots instead of
/// being exclusive, and a job's `nodes` request is served in slots — the
/// allocator packs partially-occupied nodes first, so several jobs co-run
/// per node (the batch-level counterpart of src/rtc oversubscription).
/// Runtime pays for the company: on top of the per-node noise stretch, a
/// dispatched job is slowed by 1 + contention x (max co-occupancy - 1)
/// sampled over its nodes at dispatch, the same "speed of the unluckiest
/// node" shape as noise.  Off by default: one exclusive slot per node.
struct ScaleShareConfig {
  bool enabled = false;
  /// Job slots per node (>= 1; 1 shares nothing but still exercises the
  /// slot-accounting path).
  int slots_per_node = 2;
  /// Per-co-runner runtime stretch (0.15 = 15% slower per extra occupant
  /// on the job's most crowded node).
  double contention = 0.15;
};

struct ScaleConfig {
  /// Cluster size; fabric.nodes is overridden to match.
  int nodes = 1024;
  /// Scheduling domains == sim::ShardedEngine shards.  Must divide into the
  /// fabric's leaf blocks (see cluster::ShardPartition).
  int shards = 8;
  /// Topology + latencies; only the link latencies and leaf radix matter at
  /// this granularity (lookahead + forwarding/gossip delays).
  net::FabricConfig fabric;
  /// Workload shape (jobs, Poisson arrivals, lognormal sizes/runtimes).
  /// max_nodes is clamped to the smallest shard so every job fits somewhere.
  ArrivalConfig arrivals;
  /// Scheduler-cycle quantum: every arrival/finish/transfer/gossip lands on
  /// a multiple of this, decisions run 1ns after.  Must be >= 2ns.
  SimDuration cycle = 10 * kMillisecond;
  /// Spread of the per-(job, node) noise draw: runtime is stretched by
  /// 1 + noise * u, u uniform in [0, 1), maximised over allocated nodes.
  double node_noise = 0.08;
  /// Times a job may be forwarded to a reportedly-freer shard before it
  /// must wait out its local FCFS queue.
  int max_forwards = 2;
  /// Chassis size for each shard's allocator alignment preference.
  int allocator_block = 4;
  /// Range of the wait-time histogram, in seconds.
  double wait_hist_max_s = 60.0;
  /// Checkpoint/restart model (off by default: each job is then one
  /// dispatch -> finish timer).
  ScaleCkptConfig ckpt;
  /// Node-failure campaign (off by default).  `nodes` is overridden to the
  /// cluster's; failures on allocated nodes knock the owning job back to
  /// its last committed checkpoint.
  fault::CampaignConfig campaign;
  /// DAG-workflow workload (off by default: independent arrivals from
  /// `arrivals`).
  ScaleWorkflowConfig wf;
  /// Shared-node packing (off by default, see ScaleShareConfig).
  ScaleShareConfig share;
  std::uint64_t seed = 1;
};

/// One job's trip through the federated scheduler (indexed by job id).
struct ScaleJobOutcome {
  SimTime arrival = 0;  // grid-aligned submit time
  SimTime start = 0;
  SimTime finish = 0;
  std::int32_t home_shard = -1;  // submitted here
  std::int32_t ran_shard = -1;   // dispatched here (differs when forwarded)
  std::int32_t forwards = 0;
};

struct ScaleResult {
  std::vector<ScaleJobOutcome> jobs;  // by job id; every job finishes
  SimTime makespan = 0;               // first arrival -> last finish
  std::uint64_t forwards = 0;         // cross-shard job migrations
  /// Free-capacity gossip landing events: one per shard and instant at
  /// which any other shard's broadcast lands, however many land then.
  std::uint64_t gossip_messages = 0;
  std::uint64_t events = 0;           // engine events dispatched
  std::uint64_t rounds = 0;           // conservative windows (0 when serial)
  std::uint64_t inline_rounds = 0;    // of those, run without the workers
  double mean_wait_s = 0.0;
  double p95_wait_s = 0.0;
  double mean_slowdown = 0.0;  // bounded slowdown, tau = one cycle
  /// Busy slot-time / (slots x makespan); slots == nodes unless shared-node
  /// mode multiplies the capacity.
  double utilization = 0.0;
  util::Histogram wait_hist;   // seconds, [0, wait_hist_max_s)
  ScaleCkptStats ckpt;         // checkpoint/fault outcomes (see above)
  // Workflow mode only (all zero otherwise).
  std::uint64_t dep_releases = 0;  // dependency-release messages delivered
  double wf_makespan_s = 0.0;      // mean per-instance makespan
  double wf_cp_stretch = 0.0;      // mean makespan / ideal critical path
  double wf_dep_stall_s = 0.0;     // mean held-on-dependencies time per job

  ScaleResult() : wait_hist(0.0, 1.0, 1) {}

  /// FNV-1a over every outcome tuple: one word that pins the entire
  /// schedule bit-for-bit (the golden tests' currency).
  std::uint64_t checksum() const;
};

/// The conservative lookahead the scenario's partition supports (exposed so
/// tests can pin it against the fabric's link latencies).
SimDuration scale_lookahead(const ScaleConfig& config);

/// Reference implementation: the whole cluster on one serial sim::Engine.
ScaleResult run_scale_serial(const ScaleConfig& config);

/// The same scenario on a sim::ShardedEngine (threads = 0 picks hardware
/// concurrency).  Bit-identical to run_scale_serial at any thread count.
ScaleResult run_scale_sharded(const ScaleConfig& config, int threads = 0);

}  // namespace hpcs::batch
