// BatchScheduler: the cluster-level workload manager.
//
// The second scheduler in an HPC system.  The paper's node-level story —
// scheduler noise stretches every job — compounds here: longer service
// times back the wait queue up, so node-level noise is amplified into
// queueing delay.  This module closes that loop inside the one
// discrete-event engine: job arrivals are engine events, each dispatched
// job boots its MPI ranks on exactly the nodes the allocator handed out,
// and completions release nodes and trigger the next scheduling pass.
//
// Policies: FCFS (strict arrival order), SJF (shortest estimate first, no
// backfill), and EASY backfill (Lifka): the head of the queue gets a
// reservation at the earliest instant enough nodes will be free — computed
// from running jobs' walltime estimates — and a later job may jump the
// queue only if it cannot delay that reservation (it either finishes
// before the reservation or leaves enough nodes free at it).
//
// Node failures arrive as NodeFault events: the node leaves the pool, any
// job running on it is aborted (and, by default, resubmitted), and a job
// queued behind the shrunken pool simply waits — the "queued job survives
// a node loss" property the tests pin.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "batch/allocator.h"
#include "batch/fairshare.h"
#include "batch/job.h"
#include "batch/policy.h"
#include "batch/queue.h"
#include "batch/reservation.h"
#include "cluster/cluster.h"
#include "fault/campaign.h"
#include "mpi/world.h"
#include "wf/dag.h"

namespace hpcs::batch {

/// kEasyCp is EASY backfill with a workflow-aware reservation rule: the
/// queue is kept ordered by critical-path priority (largest bottom level in
/// the workflow DAG first; ties by arrival then id), so the reservation
/// goes to the ready job gating the heaviest unfinished subtree instead of
/// the oldest one.  On dependency-free workloads the bottom level is the
/// job's own ideal runtime, so kEasyCp degenerates to longest-first EASY.
enum class BatchPolicy : std::uint8_t { kFcfs, kSjf, kEasy, kEasyCp };

const char* batch_policy_name(BatchPolicy policy);

/// A scripted node-level fault, relative to the engine clock.
struct NodeFault {
  SimTime at = 0;
  int node = 0;
  bool online = false;  // false = fails at `at`, true = repaired at `at`
};

struct BatchConfig {
  BatchPolicy policy = BatchPolicy::kEasy;
  /// Scheduling class the ranks run under (kHpc on an HPL cluster).
  kernel::Policy rank_policy = kernel::Policy::kNormal;
  int rt_prio = 0;
  /// Chassis size for the allocator's alignment preference.
  int allocator_block = 4;
  /// Node placement policy (kScatter stripes jobs across leaf switches —
  /// the locality ablation for the contention-aware fabric).
  AllocPolicy allocator_policy = AllocPolicy::kBestFit;
  /// Template for each job's MPI world; nranks and seed are set per job.
  mpi::MpiConfig mpi;
  /// Bounded-slowdown threshold tau (guards the metric against tiny jobs).
  SimDuration tau = 10 * kMillisecond;
  /// Re-queue jobs whose nodes failed under them (keeps their original
  /// arrival time, so the lost work shows up as waiting time).
  bool resubmit_failed = true;
  int max_resubmits = 4;
  /// Scripted node failures/repairs, applied at absolute engine times.
  std::vector<NodeFault> node_faults;
  /// Seeded fault campaign (fault::generate_campaign): expanded into
  /// offline/online events at construction, on top of node_faults.
  fault::CampaignConfig campaign;
  /// Repair time per campaign outage; 0 = failed nodes stay down.
  SimDuration campaign_repair = 0;
  /// Execution queues, walked in priority order (empty = one catch-all
  /// queue).  Jobs are routed by width/walltime at submit; a job no queue
  /// admits is rejected (JobState::kRejected).
  std::vector<QueueConfig> queues;
  /// Per-user decayed-usage priority (see batch/fairshare.h).  When
  /// enabled, waiting jobs of lightly-used users sort ahead within their
  /// queue's priority level.
  FairshareConfig fairshare;
  /// Suspend/requeue preemption across queue priority levels.
  PreemptConfig preempt;
  /// Advance reservations: promised node windows claimed from the
  /// allocator at window start and enforced by dispatch admission control.
  std::vector<Reservation> reservations;
  std::uint64_t seed = 1;
};

/// Per-queue slice of the run (BatchMetrics::queues, one per config queue).
struct BatchQueueMetrics {
  std::string name;
  int jobs = 0;      // routed here (including still-waiting ones)
  int finished = 0;
  double mean_wait_s = 0.0;
  double mean_slowdown = 0.0;  // bounded slowdown over finished jobs
};

/// Aggregate metrics over one scheduler run (see BatchScheduler::metrics).
struct BatchMetrics {
  int jobs = 0;
  int finished = 0;
  int failed = 0;
  double mean_wait_s = 0.0;
  double mean_slowdown = 0.0;  // bounded slowdown, tau = config.tau
  double p95_slowdown = 0.0;
  double max_slowdown = 0.0;
  double jain_fairness = 0.0;  // Jain's index over per-job slowdowns
  double makespan_s = 0.0;     // first arrival -> last completion
  double utilization = 0.0;    // busy node-time / (total nodes x makespan)
  double mean_queue_depth = 0.0;  // time-averaged over the makespan
  // Workflow metrics (zero unless jobs carried dependencies).
  int canceled = 0;               // jobs canceled by a failed dependency
  double workflow_makespan_s = 0.0;  // first arrival -> last DAG job done
  double critical_path_s = 0.0;      // heaviest root->exit ideal-runtime path
  /// workflow makespan / critical path: 1.0 would be a perfect machine with
  /// infinite nodes and free communication; contention and queueing push it
  /// up.  The headline number EASY-CP is meant to shrink.
  double cp_stretch = 0.0;
  double mean_dep_stall_s = 0.0;  // held-on-dependencies time per job
  double max_dep_stall_s = 0.0;
  // Multi-queue / fairshare / preemption metrics (zero when unused).
  int rejected = 0;       // jobs no queue admitted
  int preemptions = 0;    // suspend/requeue events
  double preempt_lost_s = 0.0;  // work discarded past committed sync points
  /// Jain's index over per-user mean bounded slowdowns — the fairshare
  /// headline (1.0 = every user sees the same mean slowdown).
  double user_fairness = 0.0;
  std::vector<BatchQueueMetrics> queues;
};

class BatchScheduler {
 public:
  BatchScheduler(cluster::Cluster& cluster, BatchConfig config);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;
  ~BatchScheduler();

  /// Submit one job: queued at spec.arrival (immediately when that is in
  /// the past).  Jobs wider than the cluster are rejected.
  void submit(JobSpec spec);
  void submit_all(const std::vector<JobSpec>& specs);

  /// Fault entry points (also driven by config.node_faults).
  void node_offline(int node);
  void node_online(int node);

  bool all_done() const;
  int queue_depth() const { return static_cast<int>(queue_.size()); }
  int running_count() const { return static_cast<int>(running_.size()); }
  const std::vector<JobRecord>& records() const { return records_; }
  const NodeAllocator& allocator() const { return allocator_; }
  /// (time, depth) sample per queue transition, for depth-over-time plots.
  const std::vector<std::pair<SimTime, int>>& queue_samples() const {
    return queue_samples_;
  }
  /// Jobs dispatched ahead of a waiting queue head (EASY only).
  std::uint64_t backfills() const { return backfills_; }
  /// The resolved execution queues (config.queues or the default one).
  const std::vector<QueueConfig>& queues() const { return queues_; }
  /// Decayed per-user usage (fairshare), read at the current engine time.
  const FairshareTracker& fairshare() const { return fairshare_; }
  /// Suspend/requeue events so far.
  std::uint64_t preemptions() const { return preemptions_; }
  /// Reservation windows that opened without enough free nodes to claim.
  std::uint64_t reservation_shortfalls() const {
    return reservation_shortfalls_;
  }
  /// Dispatches of a job after the reservation EASY promised it — always 0
  /// when walltime estimates are upper bounds (the no-delay guarantee).
  std::uint64_t reservation_violations() const {
    return reservation_violations_;
  }
  /// EASY promises withdrawn because another job took the head of the
  /// queue: only the head holds one, so a job reordered behind another
  /// loses its promise and gets a new one when it heads the queue again.
  std::uint64_t reservation_displacements() const {
    return reservation_displacements_;
  }
  std::uint64_t node_failures() const { return node_failures_; }
  /// Jobs currently held on unfinished dependencies.
  int held_count() const { return held_; }
  /// True once any submitted job carried dependencies (workflow mode).
  bool workflow_mode() const { return wf_used_; }
  /// The dependency graph (built lazily; finalized once jobs start
  /// arriving in workflow mode or under kEasyCp).
  const wf::WorkflowDag& dag() const { return dag_; }

  /// Summarise the run so far (finished/failed jobs only).
  BatchMetrics metrics() const;

  /// Mean per-kernel CPU utilisation across the cluster's nodes, measured
  /// from the node kernels' own idle accounting (not job bookkeeping).
  double measured_node_utilization() const;

 private:
  struct Running {
    std::size_t record;                       // index into records_
    std::unique_ptr<cluster::ClusterJob> job;
    SimTime est_end = 0;  // start + walltime estimate (backfill planning)
    /// Abort in flight is a suspend (preemption), not a failure: the
    /// finish handler requeues instead of resubmitting/failing.
    bool preempted = false;
  };

  void on_arrival(std::size_t record);
  /// Register records submitted since the last call into dag_ and
  /// (re)finalize — validates unknown deps and cycles on first arrival.
  void ensure_dag();
  /// True when the DAG drives scheduling (workflow deps present, or the
  /// policy itself is critical-path aware).
  bool dag_engaged() const {
    return wf_used_ || config_.policy == BatchPolicy::kEasyCp;
  }
  /// Move a held record into the wait queue (its dependencies finished).
  void release_record(std::size_t record);
  /// Permanently failed record: cancel every transitive dependent.
  void cancel_descendants(std::size_t record);
  /// Coalesce pass requests into one 0-delay engine event.
  void request_pass();
  void schedule_pass();
  /// Try to allocate + launch; true on success (record leaves the queue).
  bool try_dispatch(std::size_t record);
  void handle_finish(std::size_t record);
  void sample_queue_depth();
  /// EASY's promise to the head `record`: the earliest time its nodes are
  /// expected free — per running-job estimates and advance-reservation
  /// windows — and clear of reservation admission control.
  EasyReservation reservation_for(std::size_t record) const;
  /// False for FCFS and EASY on one plain queue: they keep the queue's
  /// order, which requeued and released jobs join at the back.
  bool queue_sorted() const;
  /// (Re)sort queue_ by (queue priority, fairshare usage, policy key).
  void order_queue();
  /// Try to suspend enough low-priority running jobs for the blocked head
  /// candidate; true when preemptions were issued (a pass will follow the
  /// victims' finish events).
  bool preempt_for(std::size_t record);
  /// Claim/release an advance-reservation window (engine events).
  void reservation_open(std::size_t index);
  void reservation_close(std::size_t index);

  cluster::Cluster& cluster_;
  BatchConfig config_;
  NodeAllocator allocator_;
  std::vector<JobRecord> records_;
  std::vector<std::size_t> queue_;  // records_ indices, arrival order
  std::vector<Running> running_;
  /// Finished ClusterJobs are parked here (a job cannot delete itself from
  /// inside its own finish callback).
  std::vector<std::unique_ptr<cluster::ClusterJob>> retired_;
  std::vector<std::pair<SimTime, int>> queue_samples_;
  SimDuration busy_node_time_ = 0;  // integral of nodes x run time
  SimTime first_arrival_ = kNoPromise;
  SimTime last_finish_ = 0;
  bool pass_pending_ = false;
  std::uint64_t backfills_ = 0;
  std::uint64_t reservation_violations_ = 0;
  std::uint64_t reservation_displacements_ = 0;
  /// The one record holding an EASY promise (the last head reserved for),
  /// or kNoHolder.
  static constexpr std::size_t kNoHolder = ~std::size_t{0};
  std::size_t promise_holder_ = kNoHolder;
  std::uint64_t node_failures_ = 0;
  // Multi-queue / fairshare / preemption / reservation state.
  std::vector<QueueConfig> queues_;   // resolved (config or default)
  std::vector<int> queue_nodes_used_;  // nodes running per queue (limits)
  FairshareTracker fairshare_;
  std::uint64_t preemptions_ = 0;
  int preempt_in_flight_ = 0;  // victims aborted, finish event pending
  /// Nodes held per advance-reservation window while it is open.
  std::vector<std::vector<int>> resv_holds_;
  std::uint64_t reservation_shortfalls_ = 0;
  // Workflow state.
  wf::WorkflowDag dag_;
  std::map<int, std::size_t> id_index_;  // job id -> records_ slot
  std::size_t dag_registered_ = 0;       // records_ prefix already in dag_
  bool wf_used_ = false;
  int held_ = 0;
};

}  // namespace hpcs::batch
