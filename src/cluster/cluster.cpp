#include "cluster/cluster.h"

#include <algorithm>
#include <stdexcept>

#include "mpi/rank_behavior.h"
#include "rtc/coordinator.h"
#include "util/rng.h"

namespace hpcs::cluster {

using kernel::Policy;
using kernel::Task;
using kernel::Tid;

Cluster::Cluster(sim::Engine& engine, ClusterConfig config)
    : engine_(engine), config_(config) {
  if (config_.nodes <= 0) {
    throw std::invalid_argument("Cluster: nodes must be positive");
  }
  net::FabricConfig fabric_config =
      config_.fabric.value_or(
          net::FabricConfig::uniform(config_.nodes, 10 * kMicrosecond));
  fabric_config.nodes = config_.nodes;
  fabric_ = std::make_unique<net::Fabric>(fabric_config);
  util::SplitMix64 seeder(config_.seed);
  nodes_.reserve(static_cast<std::size_t>(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    auto node = std::make_unique<kernel::Kernel>(engine_, config_.node);
    if (config_.install_hpl) hpl::install(*node, config_.hpl_options);
    node->boot();
    if (config_.spawn_daemons) {
      workloads::NoiseConfig noise = config_.noise;
      noise.seed = seeder.next();  // independent daemon phases per node
      workloads::spawn_standard_node_daemons(*node, noise);
    }
    nodes_.push_back(std::move(node));
  }
}

Cluster::~Cluster() = default;

/// The per-node launcher daemon (think Open MPI's orted): forks the node's
/// local ranks, then blocks until they all exited.
class OrtedBehavior : public kernel::Behavior {
 public:
  OrtedBehavior(ClusterJob& job, int slot, Policy policy, int rt_prio,
                kernel::CondId done_cond)
      : job_(job), slot_(slot), policy_(policy), rt_prio_(rt_prio),
        done_cond_(done_cond) {}

  kernel::Action next(kernel::Kernel&, Task& self) override {
    switch (step_++) {
      case 0:
        return kernel::Action::compute(300 * kMicrosecond);  // job setup
      case 1:
        job_.spawn_local_ranks(slot_, policy_, rt_prio_, self.tid);
        return kernel::Action::wait(done_cond_, 0);
      default:
        return kernel::Action::exit_task();
    }
  }

 private:
  ClusterJob& job_;
  int slot_;
  Policy policy_;
  int rt_prio_;
  kernel::CondId done_cond_;
  int step_ = 0;
};

namespace {
std::vector<int> all_nodes(const Cluster& cluster) {
  std::vector<int> nodes(static_cast<std::size_t>(cluster.num_nodes()));
  for (int i = 0; i < cluster.num_nodes(); ++i)
    nodes[static_cast<std::size_t>(i)] = i;
  return nodes;
}
}  // namespace

ClusterJob::ClusterJob(Cluster& cluster, mpi::MpiConfig config,
                       mpi::Program program)
    : ClusterJob(cluster, config, std::move(program), all_nodes(cluster)) {}

ClusterJob::ClusterJob(Cluster& cluster, mpi::MpiConfig config,
                       mpi::Program program, std::vector<int> nodes)
    : cluster_(cluster), config_(config), program_(std::move(program)),
      nodes_(std::move(nodes)) {
  program_.validate();
  if (nodes_.empty()) {
    throw std::invalid_argument("ClusterJob: node set must not be empty");
  }
  std::vector<bool> seen(static_cast<std::size_t>(cluster.num_nodes()), false);
  for (int n : nodes_) {
    if (n < 0 || n >= cluster.num_nodes()) {
      throw std::invalid_argument("ClusterJob: node index out of range");
    }
    if (seen[static_cast<std::size_t>(n)]) {
      throw std::invalid_argument("ClusterJob: duplicate node in node set");
    }
    seen[static_cast<std::size_t>(n)] = true;
  }
  if (config_.nranks % static_cast<int>(nodes_.size()) != 0) {
    throw std::invalid_argument(
        "ClusterJob: total ranks must divide evenly across the job's nodes");
  }
  tid_to_rank_.resize(nodes_.size());
  node_remaining_.resize(nodes_.size(), 0);
  orted_tids_.resize(nodes_.size(), kernel::kInvalidTid);
  node_done_conds_.resize(nodes_.size(), kernel::kInvalidCond);
  coords_.resize(nodes_.size(), nullptr);
  coord_ids_.resize(nodes_.size(), 0);
  rank_states_.resize(static_cast<std::size_t>(config_.nranks));
  mailbox_ = std::make_unique<net::Mailbox>(
      cluster_.engine(), cluster_.fabric(),
      [this](int node) -> kernel::Kernel& { return cluster_.node(node); },
      [this](int rank) { return node_of_rank(rank); }, config_.nranks);
}

void ClusterJob::attach_coordinator(int slot, rtc::Coordinator& coordinator) {
  if (slot < 0 || slot >= static_cast<int>(nodes_.size())) {
    throw std::invalid_argument("attach_coordinator: slot out of range");
  }
  const auto uslot = static_cast<std::size_t>(slot);
  if (coords_[uslot] != nullptr) {
    throw std::logic_error("attach_coordinator: slot already attached");
  }
  coords_[uslot] = &coordinator;
  coord_ids_[uslot] = coordinator.register_runtime();
}

rtc::Coordinator* ClusterJob::coordinator(int rank) {
  return coords_[static_cast<std::size_t>(slot_of_rank(rank))];
}

int ClusterJob::coordinator_id(int rank) const {
  return coord_ids_[static_cast<std::size_t>(slot_of_rank(rank))];
}

int ClusterJob::total_ranks() const { return config_.nranks; }

int ClusterJob::node_of_rank(int rank) const {
  return nodes_.at(static_cast<std::size_t>(slot_of_rank(rank)));
}

void ClusterJob::launch(Policy policy, int rt_prio) {
  if (launched_) throw std::logic_error("ClusterJob::launch called twice");
  launched_ = true;
  rank_policy_ = policy;
  rank_rt_prio_ = rt_prio;
  start_time_ = cluster_.engine().now();
  ranks_alive_ = config_.nranks;
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    kernel::Kernel& k = cluster_.node(nodes_[slot]);
    node_done_conds_[slot] = k.cond_create();
    node_remaining_[slot] = ranks_per_node();
    k.add_exit_listener([this, slot](Task& t) {
      on_task_exit(static_cast<int>(slot), t);
    });
    kernel::SpawnSpec spec;
    spec.name = "orted/" + std::to_string(nodes_[slot]);
    spec.policy = Policy::kNormal;  // the launcher itself is a normal daemon
    spec.behavior = std::make_unique<OrtedBehavior>(
        *this, static_cast<int>(slot), policy, rt_prio,
        node_done_conds_[slot]);
    orted_tids_[slot] = k.spawn(std::move(spec));
  }
}

void ClusterJob::spawn_local_ranks(int slot, Policy policy, int rt_prio,
                                   Tid parent) {
  const auto uslot = static_cast<std::size_t>(slot);
  const int per_node = ranks_per_node();
  if (aborted_) {
    // The job died while this orted was still setting up: fork nothing and
    // account the never-born ranks as gone (which also releases the orted).
    for (int local = 0; local < per_node; ++local) rank_gone(slot);
    return;
  }
  kernel::Kernel& k = cluster_.node(nodes_[uslot]);
  for (int local = 0; local < per_node; ++local) {
    const int rank = slot * per_node + local;
    kernel::SpawnSpec spec;
    spec.name = "rank" + std::to_string(rank);
    spec.policy = policy;
    spec.rt_prio = rt_prio;
    spec.parent = parent;
    spec.behavior = std::make_unique<mpi::RankBehavior>(*this, rank);
    const Tid tid = k.spawn(std::move(spec));
    RankState& rs = rank_states_[static_cast<std::size_t>(rank)];
    rs.tid = tid;
    rs.progress_anchor = cluster_.engine().now();
    tid_to_rank_[uslot][tid] = rank;
  }
}

void ClusterJob::on_task_exit(int slot, Task& t) {
  const auto& local = tid_to_rank_[static_cast<std::size_t>(slot)];
  auto it = local.find(t.tid);
  if (it == local.end()) return;
  const int rank = it->second;
  RankState& rs = rank_states_[static_cast<std::size_t>(rank)];
  if (rs.tid != t.tid) return;  // a previous incarnation, already handled
  if (t.killed) {
    if (aborted_) {
      // Our own abort kill: no detector round-trip needed.
      rs.dead = true;
      rank_gone(slot);
      return;
    }
    // The failure detector notices after the heartbeat timeout.
    rs.death_time = cluster_.engine().now();
    const Tid tid = t.tid;
    cluster_.engine().schedule_after(
        config_.fault_detect_latency,
        [this, rank, tid] { handle_rank_death(rank, tid); });
    return;
  }
  rs.finished = true;
  rank_gone(slot);
}

bool ClusterJob::inject_rank_failure(int rank) {
  if (!launched_ || rank < 0 || rank >= config_.nranks) return false;
  RankState& rs = rank_states_[static_cast<std::size_t>(rank)];
  if (rs.dead || rs.finished || rs.tid == kernel::kInvalidTid) return false;
  return cluster_.node(node_of_rank(rank)).kill_task(rs.tid);
}

std::uint64_t ClusterJob::rank_sync_count(int rank) const {
  if (rank < 0 || rank >= static_cast<int>(rank_states_.size())) return 0;
  return rank_states_[static_cast<std::size_t>(rank)].synced;
}

void ClusterJob::handle_rank_death(int rank, Tid tid) {
  RankState& rs = rank_states_[static_cast<std::size_t>(rank)];
  if (rs.tid != tid || rs.dead || rs.finished) return;  // stale detection
  rs.dead = true;
  fault_report_.add({cluster_.engine().now(),
                     fault::FaultKind::kRankDeathDetected, -1, rank, ""});
  // Everything since the last committed sync point is gone, including a
  // collective traversal that fired but never committed.
  if (rs.death_time > rs.progress_anchor) {
    fault_report_.lost_work_ns += rs.death_time - rs.progress_anchor;
  }
  // Void the corpse's pending flat arrival so no match point fires (or
  // waits) on its behalf; surviving peers keep waiting for the replacement.
  // (Stepwise collectives need no voiding: the replacement replays the dead
  // rank's schedule and the mailbox dedups its already-sent messages.)
  if (rs.waiting) {
    rs.waiting = false;
    auto mit = matches_.find(rs.wait_key);
    if (mit != matches_.end()) {
      Match& m = mit->second;
      m.arrived -= 1;
      m.waiters.erase(std::find(m.waiters.begin(), m.waiters.end(), rank));
      if (m.arrived <= 0) matches_.erase(mit);
    }
  }
  if (!aborted_ && config_.restart_failed_ranks &&
      rs.restarts < config_.max_restarts) {
    // Detection latency already elapsed + the respawn delay still to come.
    fault_report_.restart_overhead_ns +=
        (cluster_.engine().now() - rs.death_time) + config_.restart_delay;
    cluster_.engine().schedule_after(
        config_.restart_delay, [this, rank, tid] { respawn_rank(rank, tid); });
  } else {
    fault_report_.add({cluster_.engine().now(), fault::FaultKind::kJobAbort,
                       -1, rank, "unrecoverable rank death"});
    if (aborted_ || finished_) {
      rank_gone(slot_of_rank(rank));  // do_abort will not run again
    } else {
      do_abort();  // accounts this corpse along with the others
    }
  }
}

void ClusterJob::respawn_rank(int rank, Tid old_tid) {
  RankState& rs = rank_states_[static_cast<std::size_t>(rank)];
  if (aborted_ || finished_ || rs.tid != old_tid || !rs.dead) return;
  rs.restarts += 1;
  rs.dead = false;
  const int slot = slot_of_rank(rank);
  kernel::Kernel& k = cluster_.node(nodes_[static_cast<std::size_t>(slot)]);
  kernel::SpawnSpec spec;
  spec.name =
      "rank" + std::to_string(rank) + ".r" + std::to_string(rs.restarts);
  spec.policy = rank_policy_;
  spec.rt_prio = rank_rt_prio_;
  spec.parent = orted_tids_[static_cast<std::size_t>(slot)];
  // Lightweight checkpoint restart: replay the program fast-forwarding past
  // the `synced` sync points this rank already committed.  A fired but
  // uncommitted match point is redone, not fast-forwarded past.
  spec.behavior = std::make_unique<mpi::RankBehavior>(*this, rank, rs.synced,
                                                      rs.fired_uncommitted);
  rs.progress_anchor = cluster_.engine().now();
  const Tid tid = k.spawn(std::move(spec));
  rs.tid = tid;
  tid_to_rank_[static_cast<std::size_t>(slot)][tid] = rank;
  fault_report_.add({cluster_.engine().now(), fault::FaultKind::kRankRestart,
                     -1, rank,
                     "ff=" + std::to_string(rs.synced) +
                         (rs.fired_uncommitted ? "+redo" : "")});
}

void ClusterJob::abort() { do_abort(); }

void ClusterJob::do_abort() {
  if (!launched_ || finished_ || aborted_) return;
  aborted_ = true;
  failed_ = true;
  // Kill every rank that exists; exit listeners drain ranks_alive_ through
  // the normal path.  Ranks whose orted has not forked them yet are drained
  // by spawn_local_ranks when it wakes; detected corpses (restart pending)
  // and undetected ones (detector in flight, no body to kill) are accounted
  // here.
  for (int rank = 0; rank < config_.nranks; ++rank) {
    RankState& rs = rank_states_[static_cast<std::size_t>(rank)];
    if (rs.finished) continue;
    const int slot = slot_of_rank(rank);
    if (rs.dead) {
      rank_gone(slot);
      continue;
    }
    if (rs.tid == kernel::kInvalidTid) continue;  // not forked yet
    if (!cluster_.node(nodes_[static_cast<std::size_t>(slot)])
             .kill_task(rs.tid)) {
      rs.dead = true;
      rank_gone(slot);
    }
  }
}

void ClusterJob::rank_gone(int slot) {
  const auto uslot = static_cast<std::size_t>(slot);
  if (--node_remaining_[uslot] == 0) {
    cluster_.node(nodes_[uslot]).cond_signal(node_done_conds_[uslot]);
  }
  if (--ranks_alive_ == 0 && !finished_) {
    finished_ = true;
    finish_time_ = cluster_.engine().now();
    if (on_finish_) on_finish_();
  }
}

std::optional<kernel::CondId> ClusterJob::arrive(std::uint32_t site,
                                                 std::uint64_t visit,
                                                 std::uint32_t pair_id,
                                                 int needed, int rank) {
  const int my_node = node_of_rank(rank);
  const auto key = std::make_tuple(site, visit, pair_id);
  auto [it, inserted] = matches_.try_emplace(key);
  Match& m = it->second;
  m.arrived += 1;
  if (m.arrived >= needed) {
    // Fired: every participant matched — restart checkpoints do NOT advance
    // yet (the credit lands in sync_commit() once each rank finishes paying
    // the collective cost).  Release local waiters immediately and remote
    // waiters after the fabric's delivery delay.
    for (int w : m.waiters) {
      RankState& ws = rank_states_[static_cast<std::size_t>(w)];
      ws.fired_uncommitted = true;
      ws.waiting = false;
    }
    if (rank >= 0 && rank < static_cast<int>(rank_states_.size())) {
      rank_states_[static_cast<std::size_t>(rank)].fired_uncommitted = true;
    }
    const Match fired = std::move(m);
    matches_.erase(it);
    for (const auto& [node, cond] : fired.node_conds) {
      kernel::Kernel* k = &cluster_.node(node);
      if (node == my_node) {
        k->cond_signal(cond);
      } else {
        const SimTime at = cluster_.fabric().deliver(
            my_node, node, 0, cluster_.engine().now());
        cluster_.engine().schedule_at(at,
                                      [k, c = cond] { k->cond_signal(c); });
      }
    }
    return std::nullopt;
  }
  m.waiters.push_back(rank);
  if (rank >= 0 && rank < static_cast<int>(rank_states_.size())) {
    RankState& rs = rank_states_[static_cast<std::size_t>(rank)];
    rs.waiting = true;
    rs.wait_key = key;
  }
  auto [cit, fresh] = m.node_conds.try_emplace(my_node, kernel::kInvalidCond);
  if (fresh) cit->second = cluster_.node(my_node).cond_create();
  return cit->second;
}

void ClusterJob::collective_complete(std::uint32_t site, std::uint64_t visit,
                                     int rank) {
  mailbox_->complete(site, visit, rank);
  if (rank >= 0 && rank < static_cast<int>(rank_states_.size())) {
    RankState& rs = rank_states_[static_cast<std::size_t>(rank)];
    rs.synced += 1;
    rs.progress_anchor = cluster_.engine().now();
  }
}

void ClusterJob::sync_commit(int rank) {
  if (rank < 0 || rank >= static_cast<int>(rank_states_.size())) return;
  RankState& rs = rank_states_[static_cast<std::size_t>(rank)];
  rs.synced += 1;
  rs.fired_uncommitted = false;
  rs.progress_anchor = cluster_.engine().now();
}

util::Rng ClusterJob::rank_rng(int rank) const {
  return util::Rng(config_.seed)
      .substream(0x5a5a5a5aULL + static_cast<std::uint64_t>(rank));
}

double ClusterJob::run_speed_factor() const {
  if (config_.run_speed_sigma == 0.0) return 1.0;
  util::Rng rng = util::Rng(config_.seed).substream(0xfaceULL);
  return rng.lognormal(0.0, config_.run_speed_sigma);
}

}  // namespace hpcs::cluster
