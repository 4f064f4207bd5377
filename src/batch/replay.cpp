#include "batch/replay.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "batch/federated.h"
#include "batch/job.h"
#include "util/stats.h"

namespace hpcs::batch {
namespace {

using federated::align_up;

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

/// The policy's own per-shard state; the core adds queue, allocator, gossip.
struct ReplayShard {
  std::map<std::uint32_t, RunningRep> running;  // by job id
  FairshareTracker fairshare;
  std::vector<Charge> pending_charges;
  std::vector<int> queue_nodes_used;  // per execution queue
  std::uint64_t preemptions = 0;
};

class ReplaySim;
using ReplayCore =
    federated::FederatedCore<ReplaySim, RJob, ReplayJobOutcome, ReplayShard>;

class ReplaySim final : public ReplayCore {
  friend ReplayCore;

 public:
  ReplaySim(federated::Driver& driver, const ReplayConfig& config,
            const std::vector<JobSpec>& specs)
      : ReplayCore(driver, config, "Replay", 1), cfg_(config) {
    queues_ = cfg_.queues.empty() ? default_queues() : cfg_.queues;
    validate_queues(queues_);
    for (Shard& sh : shards_) {
      sh.fairshare = FairshareTracker(cfg_.fairshare);
      sh.queue_nodes_used.assign(queues_.size(), 0);
    }
    build_workload(specs);
  }

  ReplayResult collect() const;

 private:
  void build_workload(const std::vector<JobSpec>& specs) {
    total_jobs_ = specs.size();
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
        // Admission control: recorded up front (queue and home shard -1),
        // never enters a queue.
        ReplayJobOutcome out;
        out.arrival = job.arrival;
        out.user = job.user;
        rejected_.emplace_back(i, out);
        continue;
      }
      add_arrival(job);
    }
    sort_arrivals();
  }

  /// The policy cycle, run once per instant at grid+1: order the shard's
  /// queue by (queue priority, decayed fairshare usage, arrival), then
  /// dispatch in order with EASY backfill behind the first blocked head.
  /// A blocked head may first preempt lower-priority running jobs, then
  /// try migrating to a reportedly freer shard.
  void pass(int s, SimTime t) {
    Shard& sh = shard(s);
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
          if (priority(ja) != priority(jb)) return priority(ja) > priority(jb);
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
    EasyReservation resv;
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
          dispatch(s, t, qit);
          continue;
        }
        // Blocked head: suspend lower-priority running jobs (at most one
        // preemption wave per pass), else migrate, else reserve+backfill.
        if (cfg_.preempt.enabled && !preempted_this_pass &&
            try_preempt(s, grid, job)) {
          preempted_this_pass = true;
          dispatch(s, t, qit);
          continue;
        }
        if (try_forward(s, t, qit)) continue;
        // The EASY sweep over running jobs' walltime estimates (no advance
        // windows at this level).
        head_blocked = true;
        std::vector<std::pair<SimTime, int>> ends;
        ends.reserve(sh.running.size());
        for (const auto& [id, r] : sh.running) {
          ends.emplace_back(r.est_end, static_cast<int>(r.alloc.size()));
        }
        resv = easy_reservation(grid, job.nodes, job.estimate,
                                sh.alloc->free_count(), std::move(ends));
        continue;
      }
      // Backfill behind the head's reservation: safe if (estimated) done
      // before it, or running beside it on nodes it does not need.
      if (!fits) continue;
      const int cost = resv.backfill_cost(grid, job.nodes, job.estimate);
      if (cost >= 0) {
        resv.spare -= cost;
        dispatch(s, t, qit);
      }
    }
  }

  /// Start the queued job at `qit` on this shard's free nodes.
  void dispatch(int s, SimTime t, Queue::iterator qit) {
    Shard& sh = shard(s);
    RJob job = std::move(qit->second);
    sh.queue.erase(qit);
    auto nodes = sh.alloc->allocate(job.nodes);
    if (!nodes) {
      throw std::logic_error("ReplaySim: allocation unexpectedly failed");
    }
    if (job.work_total == 0) {
      // First dispatch: the job runs at the speed of its unluckiest node;
      // the checkpoint image then pins this work across suspensions.
      const double worst = worst_noise(sh, job.id, *nodes);
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
    Shard& sh = shard(s);
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
  void release_allocation(Shard& sh, RunningRep& run, SimTime now) {
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
  void apply_pending_charges(Shard& sh) {
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
    Shard& sh = shard(s);
    const int need = head.nodes - sh.alloc->free_count();
    if (need <= 0) return false;
    std::vector<PreemptCandidate> running;
    running.reserve(sh.running.size());
    for (const auto& [id, run] : sh.running) {
      running.push_back({priority(run.job), run.job.preempts, run.start, id,
                         static_cast<int>(run.alloc.size()), id});
    }
    const std::vector<PreemptCandidate> victims = choose_victims(
        std::move(running), priority(head), need, cfg_.preempt);
    for (const PreemptCandidate& v : victims) {
      suspend(s, grid, static_cast<std::uint32_t>(v.ref));
    }
    return !victims.empty();
  }

  int priority(const RJob& job) const {
    return queues_[static_cast<std::size_t>(job.queue)].priority;
  }

  /// Suspend one running job: bank the work its periodic checkpoint
  /// commits covered, lose the rest, and requeue it here at its original
  /// arrival (so it keeps its seniority within its priority level).
  void suspend(int s, SimTime grid, std::uint32_t id) {
    Shard& sh = shard(s);
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
    enqueue(sh, job);
    // The requeued victim waits for the next pass; the caller dispatches
    // the head onto the freed nodes within this one.
  }

  const ReplayConfig cfg_;
  std::vector<QueueConfig> queues_;
  /// Jobs no queue admits, by input index.
  std::vector<std::pair<std::size_t, ReplayJobOutcome>> rejected_;
};

ReplayResult ReplaySim::collect() const {
  ReplayResult result;
  result.jobs.resize(total_jobs_);
  std::vector<bool> seen(total_jobs_, false);
  for (const auto& [i, outcome] : rejected_) {
    result.jobs[i] = outcome;
    seen[i] = true;
  }
  result.rejected = static_cast<int>(rejected_.size());
  for (const Shard& sh : shards_) {
    if (!sh.running.empty()) {
      throw std::logic_error("ReplaySim: shard did not drain");
    }
    result.preemptions += sh.preemptions;
  }
  merge(result, std::move(seen));
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
  return result;
}

}  // namespace

std::uint64_t ReplayResult::checksum() const {
  std::uint64_t h = federated::kFnvBasis;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ReplayJobOutcome& job = jobs[i];
    h = federated::fnv1a(h, {i, job.arrival, job.start, job.finish,
                             static_cast<std::uint32_t>(job.ran_shard),
                             static_cast<std::uint32_t>(job.forwards),
                             static_cast<std::uint32_t>(job.queue),
                             static_cast<std::uint32_t>(job.preempts)});
  }
  return h;
}

SimDuration replay_lookahead(const ReplayConfig& config) {
  return federated::partition(config).lookahead();
}

ReplayResult run_replay_serial(const ReplayConfig& config,
                               const std::vector<JobSpec>& specs) {
  return federated::run_serial<ReplaySim>(config, specs);
}

ReplayResult run_replay_sharded(const ReplayConfig& config,
                                const std::vector<JobSpec>& specs,
                                int threads) {
  return federated::run_sharded<ReplaySim>(threads, config, specs);
}

}  // namespace hpcs::batch
