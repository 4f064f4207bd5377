#include "batch/replay.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "batch/allocator.h"
#include "batch/job.h"
#include "cluster/partition.h"
#include "sim/engine.h"
#include "sim/sharded.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hpcs::batch {
namespace {

SimTime align_up(SimTime t, SimDuration q) { return (t + q - 1) / q * q; }

net::FabricConfig effective_fabric(const ReplayConfig& config) {
  net::FabricConfig fabric = config.fabric;
  fabric.nodes = config.nodes;
  return fabric;
}

/// Per-(job, node) noise draw in [0, 1): a stateless hash, identical
/// however the run is partitioned (same formula as scale.cpp).
double node_noise_u01(std::uint64_t seed, std::uint32_t job_id, int node) {
  util::SplitMix64 h(seed ^
                     (static_cast<std::uint64_t>(job_id) + 1) *
                         0x9e3779b97f4a7c15ULL ^
                     (static_cast<std::uint64_t>(node) + 1) *
                         0xbf58476d1ce4e5b9ULL);
  return static_cast<double>(h.next() >> 11) * 0x1.0p-53;
}

/// A job in (or between) shard queues.  The key (arrival, id) is globally
/// unique, so queue inserts commute and ordering is identical in serial
/// and sharded runs.  Suspend/resume state rides along: `work_total` is
/// fixed at first dispatch (the image pins the work), `committed` is what
/// checkpoint commits banked.
struct RJob {
  SimTime arrival = 0;
  std::uint32_t id = 0;  // internal 1-based id (input index + 1)
  std::int32_t nodes = 0;
  std::int32_t home_shard = 0;
  std::int32_t forwards = 0;
  std::int32_t queue = 0;
  std::int32_t user = 0;
  std::int32_t preempts = 0;
  SimDuration base_runtime = 0;
  SimDuration estimate = 0;
  SimDuration work_total = 0;     // noisy runtime, set at first dispatch
  SimDuration committed = 0;      // work banked at checkpoint commits
  SimDuration lost = 0;           // discarded by suspensions
  SimTime first_start = kNoPromise;
};

struct RunningRep {
  RJob job;
  std::vector<int> alloc;  // shard-local node ids
  SimTime start = 0;       // this incarnation's dispatch
  SimDuration startup = 0; // restart-read cost paid this incarnation
  SimTime est_end = 0;     // start + walltime estimate (backfill planning)
};

class Driver {
 public:
  virtual ~Driver() = default;
  virtual void local(int shard, SimTime when, std::function<void()> fn) = 0;
  virtual void remote(int src, int dst, SimTime when,
                      std::function<void()> fn) = 0;
};

class SerialDriver final : public Driver {
 public:
  sim::Engine engine;
  void local(int, SimTime when, std::function<void()> fn) override {
    engine.schedule_at(when, std::move(fn));
  }
  void remote(int, int, SimTime when, std::function<void()> fn) override {
    engine.schedule_at(when, std::move(fn));
  }
};

class ShardedDriver final : public Driver {
 public:
  ShardedDriver(int shards, SimDuration lookahead)
      : engine(shards, lookahead) {}
  sim::ShardedEngine engine;
  void local(int shard, SimTime when, std::function<void()> fn) override {
    engine.shard(shard).schedule_at(when, std::move(fn));
  }
  void remote(int src, int dst, SimTime when,
              std::function<void()> fn) override {
    engine.send(src, dst, when, std::move(fn));
  }
};

class ReplaySim {
 public:
  ReplaySim(const ReplayConfig& config, const std::vector<JobSpec>& specs,
            Driver& driver)
      : cfg_(config),
        drv_(driver),
        partition_(effective_fabric(config), config.shards),
        xlat_(partition_.lookahead()) {
    if (cfg_.cycle < 2) {
      throw std::invalid_argument(
          "ReplayConfig: cycle must be >= 2ns (decisions run at cycle+1)");
    }
    if (cfg_.node_noise < 0.0) {
      throw std::invalid_argument("ReplayConfig: node_noise must be >= 0");
    }
    queues_ = cfg_.queues.empty() ? default_queues() : cfg_.queues;
    validate_queues(queues_);
    shards_.resize(static_cast<std::size_t>(cfg_.shards));
    for (int s = 0; s < cfg_.shards; ++s) {
      ShardRep& sh = shards_[static_cast<std::size_t>(s)];
      sh.base_node = partition_.first_node(s);
      sh.alloc = std::make_unique<NodeAllocator>(partition_.node_count(s),
                                                 cfg_.allocator_block);
      sh.known_free.resize(static_cast<std::size_t>(cfg_.shards));
      for (int k = 0; k < cfg_.shards; ++k) {
        sh.known_free[static_cast<std::size_t>(k)] = partition_.node_count(k);
      }
      sh.advertised_free = partition_.node_count(s);
      sh.fairshare = FairshareTracker(cfg_.fairshare);
      sh.queue_nodes_used.assign(queues_.size(), 0);
    }
    build_workload(specs);
  }

  void seed_events() {
    for (int s = 0; s < cfg_.shards; ++s) schedule_next_arrival(s);
  }

  ReplayResult collect() const;

 private:
  /// One fairshare debit, parked until the next pass.  Floating-point
  /// accumulation does not commute, so same-instant finish events must not
  /// touch the tracker directly — each pass applies its backlog in job-id
  /// order, which serial and sharded runs agree on.
  struct Charge {
    std::uint32_t job_id = 0;
    std::int32_t user = 0;
    double node_seconds = 0.0;
    SimTime at = 0;
  };

  struct ShardRep {
    int base_node = 0;
    std::unique_ptr<NodeAllocator> alloc;  // shard-local node ids
    std::map<std::pair<SimTime, std::uint32_t>, RJob> queue;
    std::map<std::uint32_t, RunningRep> running;  // by job id
    std::vector<int> known_free;
    int advertised_free = -1;
    bool pass_pending = false;
    std::size_t next_arrival = 0;
    FairshareTracker fairshare;
    std::vector<Charge> pending_charges;
    std::vector<int> queue_nodes_used;  // per execution queue
    // Results, merged after the run.
    std::vector<std::pair<std::uint32_t, ReplayJobOutcome>> done;
    std::uint64_t forwards = 0;
    std::uint64_t gossip_received = 0;
    std::uint64_t preemptions = 0;
    SimDuration busy_node_ns = 0;
  };

  void build_workload(const std::vector<JobSpec>& specs) {
    total_jobs_ = specs.size();
    rejected_.resize(total_jobs_);
    arrivals_.resize(static_cast<std::size_t>(cfg_.shards));
    const int width_cap = partition_.min_shard_nodes();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const JobSpec& spec = specs[i];
      RJob job;
      job.arrival = align_up(std::max<SimTime>(spec.arrival, 0), cfg_.cycle);
      job.id = static_cast<std::uint32_t>(i) + 1;
      // Every job must fit the smallest shard, or it could starve forever
      // in a federated queue.
      job.nodes = std::clamp(spec.nodes, 1, width_cap);
      job.home_shard = static_cast<std::int32_t>(job.id) % cfg_.shards;
      job.user = spec.user;
      job.base_runtime = std::max<SimDuration>(ideal_runtime(spec), 1);
      job.estimate =
          spec.estimate > 0 ? spec.estimate : job.base_runtime;
      job.queue = route_queue(queues_, job.nodes, job.estimate);
      if (job.queue < 0) {
        // Admission control: recorded up front, never enters a queue.
        ReplayJobOutcome& out = rejected_[i];
        out.arrival = job.arrival;
        out.queue = -1;
        out.user = job.user;
        out.home_shard = -1;
        was_rejected_.push_back(true);
        continue;
      }
      was_rejected_.push_back(false);
      arrivals_[static_cast<std::size_t>(job.home_shard)].push_back(job);
    }
    for (auto& stream : arrivals_) {
      std::sort(stream.begin(), stream.end(),
                [](const RJob& a, const RJob& b) {
                  if (a.arrival != b.arrival) return a.arrival < b.arrival;
                  return a.id < b.id;
                });
    }
  }

  // --- event handlers (mutations land on grid instants and commute) --------

  void schedule_next_arrival(int s) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    const auto& stream = arrivals_[static_cast<std::size_t>(s)];
    if (sh.next_arrival >= stream.size()) return;
    const SimTime at = stream[sh.next_arrival].arrival;
    drv_.local(s, at, [this, s, at] { on_arrival_batch(s, at); });
  }

  void on_arrival_batch(int s, SimTime at) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    const auto& stream = arrivals_[static_cast<std::size_t>(s)];
    while (sh.next_arrival < stream.size() &&
           stream[sh.next_arrival].arrival == at) {
      const RJob& job = stream[sh.next_arrival++];
      sh.queue.emplace(std::make_pair(job.arrival, job.id), job);
    }
    schedule_next_arrival(s);
    request_pass(s, at);
  }

  void request_pass(int s, SimTime grid_now) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    if (sh.pass_pending) return;
    sh.pass_pending = true;
    const SimTime at = grid_now + 1;
    drv_.local(s, at, [this, s, at] { do_pass(s, at); });
  }

  /// The policy cycle, run once per instant at grid+1: order the shard's
  /// queue by (queue priority, decayed fairshare usage, arrival), then
  /// dispatch in order with EASY backfill behind the first blocked head.
  /// A blocked head may first preempt lower-priority running jobs, then
  /// try migrating to a reportedly freer shard.
  void do_pass(int s, SimTime t) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    sh.pass_pending = false;
    const SimTime grid = t - 1;
    apply_pending_charges(sh);

    // Candidate order snapshot (keys are stable; decayed usage read once).
    std::vector<std::pair<SimTime, std::uint32_t>> order;
    order.reserve(sh.queue.size());
    for (const auto& [key, job] : sh.queue) order.push_back(key);
    const bool fair = cfg_.fairshare.enabled;
    std::map<std::int32_t, double> usage;
    if (fair) {
      for (const auto& [key, job] : sh.queue) {
        usage.emplace(job.user, sh.fairshare.usage(job.user, grid));
      }
    }
    std::stable_sort(
        order.begin(), order.end(),
        [&](const std::pair<SimTime, std::uint32_t>& a,
            const std::pair<SimTime, std::uint32_t>& b) {
          const RJob& ja = sh.queue.find(a)->second;
          const RJob& jb = sh.queue.find(b)->second;
          const int pa = queues_[static_cast<std::size_t>(ja.queue)].priority;
          const int pb = queues_[static_cast<std::size_t>(jb.queue)].priority;
          if (pa != pb) return pa > pb;
          if (fair) {
            const double ua = usage.find(ja.user)->second;
            const double ub = usage.find(jb.user)->second;
            if (ua != ub) return ua < ub;
          }
          if (a.first != b.first) return a.first < b.first;
          return a.second < b.second;
        });

    bool head_blocked = false;
    bool preempted_this_pass = false;
    SimTime resv = kNoPromise;
    int spare_at_resv = 0;
    for (const auto& key : order) {
      const auto qit = sh.queue.find(key);
      if (qit == sh.queue.end()) continue;  // defensive
      const RJob& job = qit->second;
      const QueueConfig& q = queues_[static_cast<std::size_t>(job.queue)];
      // A job blocked purely by its queue's node limit is skipped, never a
      // head: it must not block the other queues.
      if (q.node_limit > 0 &&
          sh.queue_nodes_used[static_cast<std::size_t>(job.queue)] +
                  job.nodes >
              q.node_limit) {
        continue;
      }
      const bool fits = job.nodes <= sh.alloc->free_count();
      if (!head_blocked) {
        if (fits) {
          RJob j = job;
          sh.queue.erase(qit);
          dispatch(s, t, std::move(j));
          continue;
        }
        // Blocked head: suspend lower-priority running jobs (at most one
        // preemption wave per pass), else migrate, else reserve+backfill.
        if (cfg_.preempt.enabled && !preempted_this_pass &&
            try_preempt(s, grid, job)) {
          preempted_this_pass = true;
          RJob j = job;
          sh.queue.erase(qit);
          dispatch(s, t, std::move(j));
          continue;
        }
        const int target = pick_target(s, job.nodes);
        if (job.forwards < cfg_.max_forwards && target >= 0) {
          RJob j = job;
          sh.queue.erase(qit);
          forward(s, target, t, std::move(j));
          continue;
        }
        head_blocked = true;
        const auto [when, avail] = reservation_for(sh, grid, job.nodes);
        resv = when;
        spare_at_resv = avail - job.nodes;
        continue;
      }
      // Backfill behind the head's reservation: safe if (estimated) done
      // before it, or running beside it on nodes it does not need.
      if (!fits) continue;
      const bool before_resv =
          resv == kNoPromise || grid + job.estimate <= resv;
      const bool beside_resv = resv != kNoPromise && job.nodes <= spare_at_resv;
      if (before_resv || beside_resv) {
        if (!before_resv) spare_at_resv -= job.nodes;
        RJob j = job;
        sh.queue.erase(qit);
        dispatch(s, t, std::move(j));
      }
    }

    const int free_now = sh.alloc->free_count();
    if (free_now != sh.advertised_free) {
      sh.advertised_free = free_now;
      broadcast_free(s, t, free_now);
    }
  }

  /// Earliest instant `need` nodes are expected free, per running jobs'
  /// walltime estimates (the EASY sweep, no advance windows at this level).
  std::pair<SimTime, int> reservation_for(const ShardRep& sh, SimTime grid,
                                          int need) const {
    int avail = sh.alloc->free_count();
    if (avail >= need) return {grid, avail};
    std::vector<std::pair<SimTime, int>> ends;
    ends.reserve(sh.running.size());
    for (const auto& [id, r] : sh.running) {
      ends.emplace_back(std::max(r.est_end, grid),
                        static_cast<int>(r.alloc.size()));
    }
    std::sort(ends.begin(), ends.end());
    SimTime reservation = kNoPromise;
    for (const auto& [end, nodes] : ends) {
      if (reservation == kNoPromise) {
        avail += nodes;
        if (avail >= need) reservation = end;
      } else if (end <= reservation) {
        avail += nodes;
      }
    }
    if (reservation == kNoPromise) return {kNoPromise, 0};
    return {reservation, avail};
  }

  int pick_target(int s, int need) const {
    const ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    int best = -1;
    int best_free = 0;
    for (int k = 0; k < cfg_.shards; ++k) {
      if (k == s) continue;
      const int free = sh.known_free[static_cast<std::size_t>(k)];
      if (free >= need && free > best_free) {
        best = k;
        best_free = free;
      }
    }
    return best;
  }

  void dispatch(int s, SimTime t, RJob job) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    auto nodes = sh.alloc->allocate(job.nodes);
    if (!nodes) {
      throw std::logic_error("ReplaySim: allocation unexpectedly failed");
    }
    if (job.work_total == 0) {
      // First dispatch: the job runs at the speed of its unluckiest node;
      // the checkpoint image then pins this work across suspensions.
      double worst = 0.0;
      for (const int local : *nodes) {
        worst = std::max(
            worst, node_noise_u01(cfg_.seed, job.id, sh.base_node + local));
      }
      job.work_total = std::max<SimDuration>(
          1, static_cast<SimDuration>(static_cast<double>(job.base_runtime) *
                                      (1.0 + cfg_.node_noise * worst)));
    }
    RunningRep run;
    run.start = t;
    run.startup =
        job.committed > 0
            ? ckpt::pfs_transfer_time(
                  cfg_.ckpt.pfs,
                  cfg_.ckpt.bytes_per_node *
                      static_cast<std::uint64_t>(job.nodes))
            : 0;
    run.est_end = t + std::max<SimDuration>(job.estimate, 1);
    if (job.first_start == kNoPromise) job.first_start = t;
    sh.queue_nodes_used[static_cast<std::size_t>(job.queue)] += job.nodes;
    const SimDuration remaining = job.work_total - job.committed;
    const SimTime finish = align_up(t + run.startup + remaining, cfg_.cycle);
    const std::uint32_t id = job.id;
    const std::int32_t incarnation = job.preempts;
    run.job = std::move(job);
    run.alloc = std::move(*nodes);
    auto [it, inserted] = sh.running.emplace(id, std::move(run));
    if (!inserted) throw std::logic_error("ReplaySim: job dispatched twice");
    drv_.local(s, finish, [this, s, finish, id, incarnation] {
      on_finish(s, finish, id, incarnation);
    });
  }

  void on_finish(int s, SimTime t, std::uint32_t id,
                 std::int32_t incarnation) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    const auto it = sh.running.find(id);
    // Staleness guard: a suspension bumped the incarnation, so the old
    // finish event no longer matches and is dropped.
    if (it == sh.running.end() || it->second.job.preempts != incarnation) {
      return;
    }
    RunningRep& run = it->second;
    release_allocation(sh, run, t);
    ReplayJobOutcome out;
    out.arrival = run.job.arrival;
    out.start = run.job.first_start;
    out.finish = t;
    out.home_shard = run.job.home_shard;
    out.ran_shard = s;
    out.forwards = run.job.forwards;
    out.queue = run.job.queue;
    out.user = run.job.user;
    out.preempts = run.job.preempts;
    out.preempt_lost = run.job.lost;
    sh.done.emplace_back(id, out);
    sh.running.erase(it);
    request_pass(s, t);
  }

  /// Shared teardown for finish and suspension: nodes back, usage charged
  /// (deferred — see Charge).
  void release_allocation(ShardRep& sh, RunningRep& run, SimTime now) {
    sh.alloc->release(run.alloc);
    const SimDuration span = now > run.start ? now - run.start : 0;
    sh.busy_node_ns += static_cast<SimDuration>(run.alloc.size()) * span;
    sh.queue_nodes_used[static_cast<std::size_t>(run.job.queue)] -=
        run.job.nodes;
    if (cfg_.fairshare.enabled) {
      sh.pending_charges.push_back(
          {run.job.id, run.job.user,
           static_cast<double>(run.alloc.size()) * to_seconds(span), now});
    }
  }

  /// Drain the charge backlog in job-id order (the tracker decays lazily,
  /// so applying an instant-t charge from the pass at t+1 is exact).
  void apply_pending_charges(ShardRep& sh) {
    if (sh.pending_charges.empty()) return;
    std::sort(sh.pending_charges.begin(), sh.pending_charges.end(),
              [](const Charge& a, const Charge& b) {
                if (a.at != b.at) return a.at < b.at;
                return a.job_id < b.job_id;
              });
    for (const Charge& c : sh.pending_charges) {
      sh.fairshare.charge(c.user, c.node_seconds, c.at);
    }
    sh.pending_charges.clear();
  }

  /// Suspend enough lower-priority running jobs for the blocked `head`;
  /// true when the freed nodes make it fit.  Runs inside the pass, so all
  /// state is shard-local and the decision is deterministic.
  bool try_preempt(int s, SimTime grid, const RJob& head) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    const int head_prio =
        queues_[static_cast<std::size_t>(head.queue)].priority;
    const int need = head.nodes - sh.alloc->free_count();
    if (need <= 0) return false;
    struct Victim {
      int prio;
      SimTime start;
      std::uint32_t id;
      int nodes;
    };
    std::vector<Victim> cands;
    for (const auto& [id, run] : sh.running) {
      const int prio =
          queues_[static_cast<std::size_t>(run.job.queue)].priority;
      if (prio > head_prio - cfg_.preempt.min_priority_gap) continue;
      // Anti-livelock floor: a job suspended max_preempts times becomes
      // non-preemptable and will eventually drain.
      if (run.job.preempts >= cfg_.preempt.max_preempts) continue;
      cands.push_back(
          {prio, run.start, id, static_cast<int>(run.alloc.size())});
    }
    // Lowest priority first; among equals the youngest start (least sunk
    // work past its last commit), ids descending for a total order.
    std::sort(cands.begin(), cands.end(),
              [](const Victim& a, const Victim& b) {
                if (a.prio != b.prio) return a.prio < b.prio;
                if (a.start != b.start) return a.start > b.start;
                return a.id > b.id;
              });
    int gain = 0;
    std::size_t take = 0;
    for (; take < cands.size() && gain < need; ++take) {
      gain += cands[take].nodes;
    }
    if (gain < need) return false;
    for (std::size_t i = 0; i < take; ++i) suspend(s, grid, cands[i].id);
    return true;
  }

  /// Suspend one running job: bank the work its periodic checkpoint
  /// commits covered, lose the rest, and requeue it here at its original
  /// arrival (so it keeps its seniority within its priority level).
  void suspend(int s, SimTime grid, std::uint32_t id) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    const auto it = sh.running.find(id);
    RunningRep& run = it->second;
    release_allocation(sh, run, grid);
    ++sh.preemptions;
    RJob job = std::move(run.job);
    const SimDuration elapsed = grid > run.start ? grid - run.start : 0;
    const SimDuration worked =
        elapsed > run.startup ? elapsed - run.startup : 0;
    SimDuration newly = 0;
    if (cfg_.ckpt.interval > 0) {
      newly = worked / cfg_.ckpt.interval * cfg_.ckpt.interval;
    }
    // Never bank the job to completion: a suspension always costs at
    // least the tail past the last commit.
    newly = std::min(newly, job.work_total - job.committed - 1);
    job.committed += newly;
    job.lost += elapsed - newly;
    ++job.preempts;  // voids the in-flight finish event
    sh.running.erase(it);
    sh.queue.emplace(std::make_pair(job.arrival, job.id), std::move(job));
    // The requeued victim waits for the next pass; the caller dispatches
    // the head onto the freed nodes within this one.
  }

  void forward(int src, int dst, SimTime t, RJob job) {
    ShardRep& sh = shards_[static_cast<std::size_t>(src)];
    ++sh.forwards;
    // Debit our estimate so one pass does not herd every blocked job at
    // the same target; the next gossip from `dst` restores the truth.
    sh.known_free[static_cast<std::size_t>(dst)] -= job.nodes;
    ++job.forwards;
    const SimTime when = align_up(t + xlat_, cfg_.cycle);
    drv_.remote(src, dst, when,
                [this, dst, when, job] { on_transfer(dst, when, job); });
  }

  void on_transfer(int s, SimTime t, const RJob& job) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    sh.queue.emplace(std::make_pair(job.arrival, job.id), job);
    request_pass(s, t);
  }

  void broadcast_free(int s, SimTime t, int free) {
    const SimTime when = align_up(t + xlat_, cfg_.cycle);
    for (int k = 0; k < cfg_.shards; ++k) {
      if (k == s) continue;
      drv_.remote(s, k, when,
                  [this, k, when, s, free] { on_gossip(k, when, s, free); });
    }
  }

  void on_gossip(int s, SimTime t, int from, int free) {
    ShardRep& sh = shards_[static_cast<std::size_t>(s)];
    ++sh.gossip_received;
    sh.known_free[static_cast<std::size_t>(from)] = free;
    if (!sh.queue.empty()) request_pass(s, t);
  }

  const ReplayConfig cfg_;
  Driver& drv_;
  cluster::ShardPartition partition_;
  SimDuration xlat_;
  std::vector<QueueConfig> queues_;
  std::vector<ShardRep> shards_;
  std::vector<std::vector<RJob>> arrivals_;  // per home shard, sorted
  std::vector<ReplayJobOutcome> rejected_;   // by input index (sparse)
  std::vector<bool> was_rejected_;
  std::size_t total_jobs_ = 0;
};

ReplayResult ReplaySim::collect() const {
  ReplayResult result;
  result.jobs.resize(total_jobs_);
  std::vector<bool> seen(total_jobs_, false);
  for (std::size_t i = 0; i < total_jobs_; ++i) {
    if (was_rejected_[i]) {
      result.jobs[i] = rejected_[i];
      seen[i] = true;
      ++result.rejected;
    }
  }
  SimTime first_arrival = kNoPromise;
  SimTime last_finish = 0;
  SimDuration busy_total = 0;
  for (const ShardRep& sh : shards_) {
    if (!sh.queue.empty() || !sh.running.empty()) {
      throw std::logic_error("ReplaySim: shard did not drain");
    }
    result.forwards += sh.forwards;
    result.gossip_messages += sh.gossip_received;
    result.preemptions += sh.preemptions;
    busy_total += sh.busy_node_ns;
    for (const auto& [id, outcome] : sh.done) {
      const std::size_t ix = static_cast<std::size_t>(id) - 1;
      if (ix >= total_jobs_ || seen[ix]) {
        throw std::logic_error("ReplaySim: duplicate or out-of-range job id");
      }
      seen[ix] = true;
      result.jobs[ix] = outcome;
      first_arrival = std::min(first_arrival, outcome.arrival);
      last_finish = std::max(last_finish, outcome.finish);
    }
  }
  for (std::size_t i = 0; i < total_jobs_; ++i) {
    if (!seen[i]) {
      throw std::logic_error("ReplaySim: job " + std::to_string(i + 1) +
                             " never finished (replay did not drain)");
    }
  }
  if (first_arrival != kNoPromise && last_finish > first_arrival) {
    result.makespan = last_finish - first_arrival;
  }
  util::Samples waits;
  util::Samples slowdowns;
  std::vector<util::Samples> queue_waits(queues_.size());
  std::vector<util::Samples> queue_slowdowns(queues_.size());
  std::vector<int> queue_jobs(queues_.size(), 0);
  std::map<std::int32_t, util::Samples> user_slowdowns;
  const double tau_s = to_seconds(cfg_.tau);
  for (const ReplayJobOutcome& job : result.jobs) {
    if (job.queue < 0) continue;  // rejected
    result.preempt_lost_s += to_seconds(job.preempt_lost);
    const double wait_s = to_seconds(job.start - job.arrival);
    const double run_s = to_seconds(job.finish - job.start);
    const double slow = util::bounded_slowdown(wait_s, run_s, tau_s);
    waits.add(wait_s);
    slowdowns.add(slow);
    const auto q = static_cast<std::size_t>(job.queue);
    ++queue_jobs[q];
    queue_waits[q].add(wait_s);
    queue_slowdowns[q].add(slow);
    user_slowdowns[job.user].add(slow);
  }
  if (!waits.empty()) {
    result.mean_wait_s = waits.mean();
    result.p95_wait_s = waits.percentile(95.0);
    result.mean_slowdown = slowdowns.mean();
  }
  if (!user_slowdowns.empty()) {
    std::vector<double> user_means;
    user_means.reserve(user_slowdowns.size());
    for (const auto& [user, samples] : user_slowdowns) {
      user_means.push_back(samples.mean());
    }
    result.user_fairness = util::jains_fairness_index(user_means);
  }
  result.queues.resize(queues_.size());
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    result.queues[q].name = queues_[q].name;
    result.queues[q].jobs = queue_jobs[q];
    if (!queue_waits[q].empty()) {
      result.queues[q].mean_wait_s = queue_waits[q].mean();
      result.queues[q].mean_slowdown = queue_slowdowns[q].mean();
    }
  }
  if (result.makespan > 0) {
    result.utilization =
        static_cast<double>(busy_total) /
        (static_cast<double>(partition_.num_nodes()) *
         static_cast<double>(result.makespan));
  }
  return result;
}

}  // namespace

std::uint64_t ReplayResult::checksum() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto fold = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ReplayJobOutcome& job = jobs[i];
    fold(i);
    fold(job.arrival);
    fold(job.start);
    fold(job.finish);
    fold(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(job.ran_shard)));
    fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(job.forwards)));
    fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(job.queue)));
    fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(job.preempts)));
  }
  return h;
}

SimDuration replay_lookahead(const ReplayConfig& config) {
  return cluster::ShardPartition(effective_fabric(config), config.shards)
      .lookahead();
}

ReplayResult run_replay_serial(const ReplayConfig& config,
                               const std::vector<JobSpec>& specs) {
  SerialDriver driver;
  ReplaySim sim(config, specs, driver);
  sim.seed_events();
  driver.engine.run();
  ReplayResult result = sim.collect();
  result.events = driver.engine.dispatched();
  result.rounds = 0;
  return result;
}

ReplayResult run_replay_sharded(const ReplayConfig& config,
                                const std::vector<JobSpec>& specs,
                                int threads) {
  ShardedDriver driver(config.shards, replay_lookahead(config));
  ReplaySim sim(config, specs, driver);
  sim.seed_events();
  driver.engine.run(threads);
  ReplayResult result = sim.collect();
  result.events = driver.engine.stats().dispatched;
  result.rounds = driver.engine.stats().rounds;
  result.inline_rounds = driver.engine.stats().inline_rounds;
  return result;
}

}  // namespace hpcs::batch
