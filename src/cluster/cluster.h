// Multi-node cluster simulation.
//
// The paper's motivation is cluster-scale: OS noise that costs 1-2% on one
// node destroys scalability at thousands of nodes because every global
// synchronisation waits for the unluckiest node (noise resonance, Petrini
// et al.).  This module instantiates N independent node kernels — each with
// its own scheduler, daemons, and optional HPL — inside ONE discrete-event
// engine, and runs a single SPMD job whose ranks are distributed across the
// nodes.  Cross-node communication goes through a net::Fabric: flat match
// points release remote waiters after the fabric's delivery delay, and the
// algorithmic collectives (MpiConfig::collective_algorithm) decompose into
// point-to-point messages that contend on real links.
//
// Everything stays deterministic: one engine, seeded per-node daemon
// streams, seeded rank jitter.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/hpl.h"
#include "fault/fault.h"
#include "kernel/kernel.h"
#include "mpi/world.h"
#include "net/fabric.h"
#include "net/mailbox.h"
#include "sim/engine.h"
#include "workloads/daemons.h"

namespace hpcs::cluster {

struct ClusterConfig {
  int nodes = 4;
  kernel::KernelConfig node;
  workloads::NoiseConfig noise;  // per-node daemon population
  bool spawn_daemons = true;
  bool install_hpl = false;
  hpl::HplOptions hpl_options;
  /// The interconnect. `nodes` is overridden to match the cluster's.  Unset
  /// means net::FabricConfig::uniform(nodes, 10 us): one flat switch with a
  /// constant 10 us one-way latency.
  std::optional<net::FabricConfig> fabric;
  std::uint64_t seed = 1;
};

/// N booted node kernels sharing one engine and one interconnect fabric.
class Cluster {
 public:
  Cluster(sim::Engine& engine, ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  kernel::Kernel& node(int i) {
    return *nodes_.at(static_cast<std::size_t>(i));
  }
  const ClusterConfig& config() const { return config_; }
  sim::Engine& engine() { return engine_; }
  net::Fabric& fabric() { return *fabric_; }
  const net::Fabric& fabric() const { return *fabric_; }

 private:
  sim::Engine& engine_;
  ClusterConfig config_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<kernel::Kernel>> nodes_;
};

/// One SPMD job on a set of nodes (the whole cluster by default, or an
/// explicit subset handed out by a batch allocator): ranks divide evenly
/// across the job's nodes, all interpreting the same mpi::Program.
class ClusterJob : public mpi::RankRuntime {
 public:
  ClusterJob(Cluster& cluster, mpi::MpiConfig config, mpi::Program program);
  /// Run on exactly `nodes` (cluster node indices, no duplicates).  Several
  /// jobs with disjoint node sets can coexist on one cluster.
  ClusterJob(Cluster& cluster, mpi::MpiConfig config, mpi::Program program,
             std::vector<int> nodes);

  /// Spawn an "orted" launcher daemon on every job node, each of which forks
  /// its local ranks under `policy` (use kHpc on an HPL cluster).
  void launch(kernel::Policy policy, int rt_prio = 0);

  /// Tear the job down (node failure, walltime kill): every live rank is
  /// killed, ranks not yet forked are never forked, and the job counts as
  /// failed().  The job still reaches finished() — and fires the finish
  /// callback — once the corpses are reaped, so completion bookkeeping is
  /// uniform for clean and aborted jobs.  No-op after finish or before
  /// launch.
  void abort();

  bool finished() const { return finished_; }
  /// True when the job was abort()ed or died of an unrecoverable rank loss.
  bool failed() const { return failed_; }
  /// Invoked (once) when the last rank is gone.  Runs inside an engine
  /// event; keep it to bookkeeping or re-arm work via 0-delay events.
  void set_on_finish(std::function<void()> fn) { on_finish_ = std::move(fn); }
  SimTime start_time() const { return start_time_; }
  SimTime finish_time() const { return finish_time_; }
  int total_ranks() const;
  int node_of_rank(int rank) const;
  const std::vector<int>& nodes() const { return nodes_; }

  // --- fault tolerance -------------------------------------------------------
  /// Kill `rank` mid-run (the fault injector's entry point); mirrors
  /// MpiWorld::inject_rank_failure.  The runtime notices after
  /// config().fault_detect_latency and either respawns the rank from its
  /// sync-point checkpoint (restart_failed_ranks) or aborts the job.
  bool inject_rank_failure(int rank);
  const fault::FaultReport& fault_report() const { return fault_report_; }
  /// Completed sync points for `rank` (its restart checkpoint).
  std::uint64_t rank_sync_count(int rank) const;
  /// Stepwise collectives with un-reclaimed mailbox state (0 when idle).
  std::size_t open_collectives() const { return mailbox_->open_collectives(); }

  // --- RankRuntime -----------------------------------------------------------
  const mpi::MpiConfig& config() const override { return config_; }
  const mpi::Program& program() const override { return program_; }
  std::optional<kernel::CondId> arrive(std::uint32_t site, std::uint64_t visit,
                                       std::uint32_t pair_id, int needed,
                                       int rank) override;
  util::Rng rank_rng(int rank) const override;
  double run_speed_factor() const override;
  net::Mailbox* mailbox() override { return mailbox_.get(); }
  const net::FabricConfig* fabric_config() const override {
    return &cluster_.fabric().config();
  }
  void collective_complete(std::uint32_t site, std::uint64_t visit,
                           int rank) override;
  void sync_commit(int rank) override;
  rtc::Coordinator* coordinator(int rank) override;
  int coordinator_id(int rank) const override;

  /// Register the job's presence on job slot `slot` (one node) with that
  /// node's co-scheduling broker; hybrid ranks local to the slot negotiate
  /// their parallel regions through it.  Call before launch(); the
  /// coordinator must outlive the job.
  void attach_coordinator(int slot, rtc::Coordinator& coordinator);

 private:
  friend class OrtedBehavior;

  using MatchKey = std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>;

  /// Per-rank runtime state across incarnations (a restart reuses the slot).
  struct RankState {
    kernel::Tid tid = kernel::kInvalidTid;  // current incarnation
    bool finished = false;                  // exited cleanly
    bool dead = false;                      // killed, death detected, no body
    int restarts = 0;
    std::uint64_t synced = 0;  // committed sync points = restart checkpoint
    bool waiting = false;      // has an un-fired flat arrival registered
    MatchKey wait_key{};
    /// A flat match point fired for this rank but the collective cost was
    /// never fully paid (no commit); the replacement redoes the traversal
    /// without re-arriving.  See mpi::MpiWorld::RankState.
    bool fired_uncommitted = false;
    /// Last committed progress instant; death loses everything after it.
    SimTime progress_anchor = 0;
    /// When the current incarnation was killed (for overhead accounting).
    SimTime death_time = 0;
  };

  /// `slot` indexes nodes_ (the job-local node list), not the cluster.
  void spawn_local_ranks(int slot, kernel::Policy policy, int rt_prio,
                         kernel::Tid parent);
  void on_task_exit(int slot, kernel::Task& t);
  void handle_rank_death(int rank, kernel::Tid tid);
  void respawn_rank(int rank, kernel::Tid old_tid);
  void do_abort();
  /// One rank slot is permanently gone (finished or unrecoverable): release
  /// the node's orted when its last local rank drains, finish the job when
  /// the last rank drains.
  void rank_gone(int slot);
  int ranks_per_node() const {
    return config_.nranks / static_cast<int>(nodes_.size());
  }
  int slot_of_rank(int rank) const { return rank / ranks_per_node(); }

  Cluster& cluster_;
  mpi::MpiConfig config_;
  mpi::Program program_;
  std::vector<int> nodes_;  // cluster node index per job slot
  std::unique_ptr<net::Mailbox> mailbox_;
  std::vector<rtc::Coordinator*> coords_;  // by job slot (null = detached)
  std::vector<int> coord_ids_;             // by job slot

  struct Match {
    int arrived = 0;
    std::vector<int> waiters;  // ranks whose arrival has not fired yet
    // Lazily created per-node conditions for waiters of this point.
    std::map<int, kernel::CondId> node_conds;
  };
  std::map<MatchKey, Match> matches_;

  std::vector<RankState> rank_states_;                    // by rank
  std::vector<std::map<kernel::Tid, int>> tid_to_rank_;   // by job slot
  std::vector<int> node_remaining_;                       // by job slot
  std::vector<kernel::Tid> orted_tids_;                   // by job slot
  std::vector<kernel::CondId> node_done_conds_;           // by job slot
  kernel::Policy rank_policy_ = kernel::Policy::kNormal;
  int rank_rt_prio_ = 0;
  std::function<void()> on_finish_;
  fault::FaultReport fault_report_;
  int ranks_alive_ = 0;
  bool launched_ = false;
  bool finished_ = false;
  bool aborted_ = false;
  bool failed_ = false;
  SimTime start_time_ = 0;
  SimTime finish_time_ = 0;
};

}  // namespace hpcs::cluster
