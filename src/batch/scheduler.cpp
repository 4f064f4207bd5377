#include "batch/scheduler.h"

#include <algorithm>
#include <climits>
#include <stdexcept>

#include "perf/schedstat.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hpcs::batch {

const char* batch_policy_name(BatchPolicy policy) {
  switch (policy) {
    case BatchPolicy::kFcfs: return "fcfs";
    case BatchPolicy::kSjf: return "sjf";
    case BatchPolicy::kEasy: return "easy";
    case BatchPolicy::kEasyCp: return "easy-cp";
  }
  return "?";
}

BatchScheduler::BatchScheduler(cluster::Cluster& cluster, BatchConfig config)
    : cluster_(cluster), config_(std::move(config)),
      allocator_(cluster.num_nodes(), config_.allocator_block,
                 config_.allocator_policy) {
  queues_ = config_.queues.empty() ? default_queues() : config_.queues;
  validate_queues(queues_);
  queue_nodes_used_.assign(queues_.size(), 0);
  fairshare_ = FairshareTracker(config_.fairshare);
  validate_reservations(config_.reservations, cluster.num_nodes());
  resv_holds_.resize(config_.reservations.size());
  {
    const SimTime now = cluster_.engine().now();
    for (std::size_t i = 0; i < config_.reservations.size(); ++i) {
      const Reservation& r = config_.reservations[i];
      cluster_.engine().schedule_at(std::max(r.start, now),
                                    [this, i] { reservation_open(i); });
      cluster_.engine().schedule_at(std::max(r.end, now),
                                    [this, i] { reservation_close(i); });
    }
  }
  for (const NodeFault& fault : config_.node_faults) {
    cluster_.engine().schedule_at(
        std::max(fault.at, cluster_.engine().now()), [this, fault] {
          if (fault.online) {
            node_online(fault.node);
          } else {
            node_offline(fault.node);
          }
        });
  }
  if (config_.campaign.enabled()) {
    const SimTime now = cluster_.engine().now();
    for (const fault::NodeOutage& outage : fault::campaign_outages(
             config_.campaign, config_.seed, config_.campaign_repair)) {
      cluster_.engine().schedule_at(
          std::max(outage.down, now),
          [this, node = outage.node] { node_offline(node); });
      if (outage.up != fault::kNoRepair) {
        cluster_.engine().schedule_at(
            std::max(outage.up, now),
            [this, node = outage.node] { node_online(node); });
      }
    }
  }
}

BatchScheduler::~BatchScheduler() = default;

void BatchScheduler::submit(JobSpec spec) {
  if (spec.nodes < 1 || spec.nodes > cluster_.num_nodes()) {
    throw std::invalid_argument(
        "BatchScheduler: job wants more nodes than the cluster has");
  }
  if (spec.ranks_per_node < 1) {
    throw std::invalid_argument("BatchScheduler: ranks_per_node must be >= 1");
  }
  if (spec.name.empty()) spec.name = "job" + std::to_string(spec.id);
  if (spec.estimate == 0) spec.estimate = ideal_runtime(spec);
  if (!spec.deps.empty()) wf_used_ = true;
  // Route to the first queue admitting the job's shape; admission control
  // rejects a job no queue takes (its arrival event still fires so
  // workflow descendants get canceled, but it never queues).
  const int qidx = route_queue(queues_, spec.nodes, spec.estimate);
  const std::size_t record = records_.size();
  records_.push_back(JobRecord{});
  records_[record].spec = std::move(spec);
  records_[record].queue = qidx < 0 ? 0 : qidx;
  if (qidx < 0) records_[record].state = JobState::kRejected;
  const SimTime now = cluster_.engine().now();
  cluster_.engine().schedule_at(std::max(records_[record].spec.arrival, now),
                                [this, record] { on_arrival(record); });
}

void BatchScheduler::submit_all(const std::vector<JobSpec>& specs) {
  for (const JobSpec& spec : specs) submit(spec);
}

void BatchScheduler::on_arrival(std::size_t record) {
  JobRecord& rec = records_[record];
  if (rec.state == JobState::kCanceled) return;  // a dependency already failed
  if (rec.state == JobState::kRejected) {
    // A rejected job can never produce its outputs: its workflow subtree is
    // unrunnable and must not keep all_done() waiting.
    if (dag_engaged()) {
      ensure_dag();
      cancel_descendants(record);
    }
    return;
  }
  first_arrival_ = std::min(first_arrival_, cluster_.engine().now());
  if (dag_engaged()) {
    ensure_dag();
    if (!dag_.is_ready(rec.spec.id)) {
      rec.state = JobState::kHeld;
      ++held_;
      return;  // release_record() queues it once the last dependency ends
    }
  }
  rec.state = JobState::kQueued;
  rec.ready = cluster_.engine().now();
  queue_.push_back(record);
  sample_queue_depth();
  request_pass();
}

void BatchScheduler::ensure_dag() {
  if (dag_registered_ == records_.size()) return;
  for (; dag_registered_ < records_.size(); ++dag_registered_) {
    const JobSpec& spec = records_[dag_registered_].spec;
    if (!id_index_.emplace(spec.id, dag_registered_).second) {
      throw std::invalid_argument("BatchScheduler: duplicate job id " +
                                  std::to_string(spec.id) +
                                  " in workflow mode");
    }
    dag_.add_task(spec.id, ideal_runtime(spec), spec.deps);
  }
  dag_.finalize();  // throws on unknown dependencies or cycles
}

void BatchScheduler::release_record(std::size_t record) {
  JobRecord& rec = records_[record];
  // kPending records consult the DAG when their arrival event fires; only
  // jobs that arrived and were parked need an explicit release.
  if (rec.state != JobState::kHeld) return;
  --held_;
  rec.state = JobState::kQueued;
  rec.ready = cluster_.engine().now();
  queue_.push_back(record);
  sample_queue_depth();
  request_pass();
}

void BatchScheduler::cancel_descendants(std::size_t record) {
  if (!dag_engaged() || !dag_.finalized()) return;
  for (const int id : dag_.descendants(records_[record].spec.id)) {
    const auto it = id_index_.find(id);
    if (it == id_index_.end()) continue;
    JobRecord& dep = records_[it->second];
    if (dep.state == JobState::kHeld) {
      --held_;
      dep.state = JobState::kCanceled;
    } else if (dep.state == JobState::kPending) {
      dep.state = JobState::kCanceled;  // its arrival event will no-op
    }
  }
}

void BatchScheduler::request_pass() {
  if (pass_pending_) return;
  pass_pending_ = true;
  // 0-delay: one coalesced pass per instant, and dispatch work (task
  // spawning) always happens at a clean event boundary rather than inside
  // whatever kernel callback released the nodes.
  cluster_.engine().schedule_after(0, [this] {
    pass_pending_ = false;
    schedule_pass();
  });
}

EasyReservation BatchScheduler::reservation_for(std::size_t record) const {
  const SimTime now = cluster_.engine().now();
  // Running jobs return their nodes at their estimated ends; an upcoming
  // reservation window dips the pool while it is open.
  std::vector<std::pair<SimTime, int>> changes;
  changes.reserve(running_.size() + 2 * config_.reservations.size());
  for (const Running& r : running_) {
    changes.emplace_back(r.est_end,
                         static_cast<int>(records_[r.record].nodes.size()));
  }
  for (std::size_t i = 0; i < config_.reservations.size(); ++i) {
    const Reservation& r = config_.reservations[i];
    if (r.end <= now) continue;
    if (r.start <= now) {
      // Already open: its held nodes come back when the window closes.
      changes.emplace_back(r.end, static_cast<int>(resv_holds_[i].size()));
    } else {
      changes.emplace_back(r.start, -r.nodes);
      changes.emplace_back(r.end, r.nodes);
    }
  }
  // The promise must also clear the advance-reservation admission control
  // a dispatch then would face, or EASY would promise starts it cannot
  // deliver (reservation violations).
  const JobSpec& spec = records_[record].spec;
  return easy_reservation(now, spec.nodes, spec.estimate,
                          allocator_.free_count(), std::move(changes),
                          config_.reservations);
}

void BatchScheduler::reservation_open(std::size_t index) {
  const Reservation& r = config_.reservations[index];
  // Dispatch admission control keeps this capacity free; coming up short
  // means node failures (or overruns past estimates) ate the promise.
  const int want = std::min(r.nodes, allocator_.free_count());
  if (want < r.nodes) ++reservation_shortfalls_;
  if (want > 0) {
    if (auto nodes = allocator_.allocate(want)) {
      resv_holds_[index] = std::move(*nodes);
    }
  }
}

void BatchScheduler::reservation_close(std::size_t index) {
  if (!resv_holds_[index].empty()) {
    allocator_.release(resv_holds_[index]);
    resv_holds_[index].clear();
  }
  request_pass();
}

bool BatchScheduler::queue_sorted() const {
  if (config_.policy == BatchPolicy::kSjf ||
      config_.policy == BatchPolicy::kEasyCp) {
    return true;
  }
  return config_.fairshare.enabled || queues_.size() > 1 ||
         queues_.front().priority != 0;
}

void BatchScheduler::order_queue() {
  const SimTime now = cluster_.engine().now();
  // Snapshot decayed usage once per pass: the decay depends on `now`, and a
  // comparator must stay a strict weak order while the sort runs.
  std::map<int, double> usage;
  if (config_.fairshare.enabled) {
    for (const std::size_t idx : queue_) {
      const int user = records_[idx].spec.user;
      usage.emplace(user, fairshare_.usage(user, now));
    }
  }
  std::stable_sort(
      queue_.begin(), queue_.end(), [&](std::size_t a, std::size_t b) {
        const JobRecord& ra = records_[a];
        const JobRecord& rb = records_[b];
        const int pa = queues_[ra.queue].priority;
        const int pb = queues_[rb.queue].priority;
        if (pa != pb) return pa > pb;
        if (config_.fairshare.enabled) {
          const double ua = usage.find(ra.spec.user)->second;
          const double ub = usage.find(rb.spec.user)->second;
          if (ua != ub) return ua < ub;
        }
        if (config_.policy == BatchPolicy::kSjf &&
            ra.spec.estimate != rb.spec.estimate) {
          return ra.spec.estimate < rb.spec.estimate;
        }
        if (config_.policy == BatchPolicy::kEasyCp) {
          const SimDuration ba = dag_.bottom_level(ra.spec.id);
          const SimDuration bb = dag_.bottom_level(rb.spec.id);
          if (ba != bb) return ba > bb;
        }
        if (ra.spec.arrival != rb.spec.arrival) {
          return ra.spec.arrival < rb.spec.arrival;
        }
        return ra.spec.id < rb.spec.id;
      });
}

void BatchScheduler::schedule_pass() {
  if (queue_sorted() && !queue_.empty()) {
    // The PBS-style policy cycle: queue priority first, then the owner's
    // decayed fairshare usage, then the base policy's key — the estimate
    // (SJF) or the critical-path priority (EASY-CP), whose reservation must
    // go to the ready job gating the heaviest unfinished subtree.
    if (config_.policy == BatchPolicy::kEasyCp) ensure_dag();
    order_queue();
  }
  // A job blocked purely by its queue's node limit must not head-block
  // other queues, so the effective head is the first job whose queue still
  // has headroom (always the literal front without per-queue limits).
  const auto limit_blocked = [this](std::size_t record) {
    const JobRecord& rec = records_[record];
    const QueueConfig& q = queues_[rec.queue];
    return q.node_limit > 0 &&
           queue_nodes_used_[rec.queue] + rec.spec.nodes > q.node_limit;
  };
  while (!queue_.empty()) {
    std::size_t hi = 0;
    while (hi < queue_.size() && limit_blocked(queue_[hi])) ++hi;
    if (hi == queue_.size()) break;
    const std::size_t head = queue_[hi];
    if (promise_holder_ != kNoHolder && promise_holder_ != head) {
      // Only the head holds an EASY promise: the job that lost the head
      // gives its promise up.
      records_[promise_holder_].promised_start = kNoPromise;
      promise_holder_ = kNoHolder;
      ++reservation_displacements_;
    }
    if (try_dispatch(head)) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(hi));
      continue;
    }
    // Suspend/requeue preemption: clear lower-priority running jobs for
    // the blocked head; their finish events trigger the next pass.
    if (config_.preempt.enabled && preempt_in_flight_ == 0 &&
        preempt_for(head)) {
      break;
    }
    if (config_.policy != BatchPolicy::kEasy &&
        config_.policy != BatchPolicy::kEasyCp) {
      break;
    }

    // EASY: reserve for the head, then backfill behind the reservation.
    JobRecord& head_rec = records_[head];
    EasyReservation resv = reservation_for(head);
    if (resv.at != kNoPromise && resv.at < head_rec.promised_start) {
      head_rec.promised_start = resv.at;
    }
    promise_holder_ = head;
    const SimTime now = cluster_.engine().now();
    for (std::size_t qi = hi + 1; qi < queue_.size();) {
      const std::size_t idx = queue_[qi];
      const JobSpec& spec = records_[idx].spec;
      if (spec.nodes > allocator_.free_count()) {
        ++qi;
        continue;
      }
      const int cost = resv.backfill_cost(now, spec.nodes, spec.estimate);
      if (cost >= 0 && try_dispatch(idx)) {
        ++backfills_;
        resv.spare -= cost;
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(qi));
      } else {
        ++qi;
      }
    }
    break;  // head stays blocked until something completes
  }
  sample_queue_depth();
}

bool BatchScheduler::try_dispatch(std::size_t record) {
  JobRecord& rec = records_[record];
  const QueueConfig& q = queues_[rec.queue];
  if (q.node_limit > 0 &&
      queue_nodes_used_[rec.queue] + rec.spec.nodes > q.node_limit) {
    return false;
  }
  if (!config_.reservations.empty()) {
    const int spare_after = allocator_.free_count() - rec.spec.nodes;
    if (spare_after < 0 ||
        !admits_reservations(config_.reservations, cluster_.engine().now(),
                             rec.spec.estimate, spare_after)) {
      return false;
    }
  }
  auto nodes = allocator_.allocate(rec.spec.nodes);
  if (!nodes) return false;
  rec.nodes = std::move(*nodes);
  rec.contiguous = allocator_.last_allocation_contiguous();
  rec.state = JobState::kRunning;
  rec.start = cluster_.engine().now();
  queue_nodes_used_[rec.queue] += rec.spec.nodes;
  if (rec.promised_start != kNoPromise && rec.start > rec.promised_start) {
    ++reservation_violations_;
  }
  if (record == promise_holder_) promise_holder_ = kNoHolder;

  mpi::MpiConfig mc = config_.mpi;
  mc.nranks = rec.spec.nodes * rec.spec.ranks_per_node;
  // Per-(job, incarnation) stream, independent of dispatch order.  An
  // incarnation is a resubmit (node failure) or a preemption resume; with
  // neither this reduces to the original resubmit-only formula.
  mc.seed = util::SplitMix64(
                config_.seed ^
                (0x9e3779b97f4a7c15ULL *
                 static_cast<std::uint64_t>(rec.spec.id)) ^
                static_cast<std::uint64_t>(rec.resubmits + rec.preempts))
                .next();

  // A preempted job resumes from its last committed sync point: the ranks
  // re-run only the iterations not yet banked in a checkpoint.
  JobSpec prog_spec = rec.spec;
  if (rec.committed_iters > 0) {
    prog_spec.iterations =
        std::max(1, rec.spec.iterations - rec.committed_iters);
  }

  Running run;
  run.record = record;
  run.job = std::make_unique<cluster::ClusterJob>(
      cluster_, mc, build_job_program(prog_spec), rec.nodes);
  run.est_end = rec.start + std::max<SimDuration>(rec.spec.estimate, 1);
  run.job->set_on_finish([this, record] { handle_finish(record); });
  run.job->launch(config_.rank_policy, config_.rt_prio);
  running_.push_back(std::move(run));
  return true;
}

bool BatchScheduler::preempt_for(std::size_t record) {
  const JobRecord& head = records_[record];
  const int need = head.spec.nodes - allocator_.free_count();
  if (need <= 0) return false;  // blocked by limits/reservations, not nodes
  std::vector<PreemptCandidate> running;
  running.reserve(running_.size());
  for (const Running& r : running_) {
    const JobRecord& v = records_[r.record];
    running.push_back({queues_[v.queue].priority, v.preempts, v.start,
                       v.spec.id, static_cast<int>(v.nodes.size()),
                       r.record});
  }
  const std::vector<PreemptCandidate> victims = choose_victims(
      std::move(running), queues_[head.queue].priority, need, config_.preempt);
  for (const PreemptCandidate& c : victims) {
    const std::size_t victim = c.ref;
    // abort() can finish a job reentrantly and mutate running_, so each
    // victim is re-found by record index rather than held by iterator.
    const auto it = std::find_if(
        running_.begin(), running_.end(),
        [victim](const Running& r) { return r.record == victim; });
    if (it == running_.end()) continue;
    ++records_[victim].preempts;
    ++preemptions_;
    ++preempt_in_flight_;
    it->preempted = true;
    it->job->abort();
  }
  return !victims.empty();
}

void BatchScheduler::handle_finish(std::size_t record) {
  JobRecord& rec = records_[record];
  const auto it = std::find_if(
      running_.begin(), running_.end(),
      [record](const Running& r) { return r.record == record; });
  if (it == running_.end()) return;  // already reaped (defensive)
  const bool failed = it->job->failed();
  const bool preempted = it->preempted;
  // The restart point is the slowest rank's committed sync count — read
  // before the job object is parked.
  int min_sync = 0;
  if (preempted) {
    min_sync = INT_MAX;
    for (int rank = 0; rank < it->job->total_ranks(); ++rank) {
      min_sync = std::min(
          min_sync, static_cast<int>(it->job->rank_sync_count(rank)));
    }
  }
  rec.finish = cluster_.engine().now();
  last_finish_ = std::max(last_finish_, rec.finish);
  busy_node_time_ +=
      static_cast<SimDuration>(rec.nodes.size()) * (rec.finish - rec.start);
  allocator_.release(rec.nodes);
  queue_nodes_used_[rec.queue] -= static_cast<int>(rec.nodes.size());
  if (config_.fairshare.enabled) {
    fairshare_.charge(rec.spec.user,
                      static_cast<double>(rec.nodes.size()) *
                          to_seconds(rec.finish - rec.start),
                      rec.finish);
  }
  // The ClusterJob invoked us from inside its own finish path; it cannot be
  // destroyed here, so park it.
  retired_.push_back(std::move(it->job));
  running_.erase(it);

  const bool resubmit = !preempted && failed && config_.resubmit_failed &&
                        rec.resubmits < config_.max_resubmits;
  if (preempted || resubmit) {
    // Suspend/requeue or resubmit: re-enter the queue at the original
    // arrival time.  A suspension banks the iterations the slowest rank
    // committed at sync points (the first sync is the init barrier) and
    // loses the rest.
    if (preempted) {
      --preempt_in_flight_;
      const int remaining = rec.spec.iterations - rec.committed_iters;
      const int newly = std::clamp(min_sync - 1, 0, remaining - 1);
      rec.committed_iters += newly;
      const SimDuration kept =
          static_cast<SimDuration>(newly) * rec.spec.grain;
      const SimDuration ran = rec.finish - rec.start;
      rec.preempt_lost += ran > kept ? ran - kept : 0;
    } else {
      ++rec.resubmits;
    }
    rec.state = JobState::kQueued;
    rec.nodes.clear();
    rec.start = 0;
    rec.finish = 0;
    rec.promised_start = kNoPromise;
    queue_.push_back(record);
    sample_queue_depth();
  } else {
    rec.state = failed ? JobState::kFailed : JobState::kFinished;
    if (dag_engaged() && dag_.finalized() && dag_.contains(rec.spec.id)) {
      if (failed) {
        // The job can never produce its results: everything downstream is
        // unrunnable and must not keep all_done() waiting.
        cancel_descendants(record);
      } else {
        for (const int id : dag_.mark_finished(rec.spec.id)) {
          const auto child = id_index_.find(id);
          if (child != id_index_.end()) release_record(child->second);
        }
      }
    }
  }
  request_pass();
}

void BatchScheduler::node_offline(int node) {
  const NodeState prev = allocator_.set_offline(node);
  if (prev == NodeState::kOffline) return;
  ++node_failures_;
  if (prev == NodeState::kBusy) {
    cluster::ClusterJob* victim = nullptr;
    for (const Running& r : running_) {
      const auto& nodes = records_[r.record].nodes;
      if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) {
        victim = r.job.get();
        break;
      }
    }
    // abort() may finish the job reentrantly (all ranks already dead), so
    // it runs after the search; the retired_ parking keeps `victim` alive.
    if (victim != nullptr) victim->abort();
  }
  request_pass();
}

void BatchScheduler::node_online(int node) {
  allocator_.set_online(node);
  request_pass();
}

bool BatchScheduler::all_done() const {
  if (!queue_.empty() || !running_.empty()) return false;
  for (const JobRecord& rec : records_) {
    if (rec.state == JobState::kPending || rec.state == JobState::kHeld ||
        rec.state == JobState::kQueued || rec.state == JobState::kRunning) {
      return false;
    }
  }
  return true;
}

void BatchScheduler::sample_queue_depth() {
  const SimTime now = cluster_.engine().now();
  const int depth = queue_depth();
  if (!queue_samples_.empty()) {
    auto& [when, last_depth] = queue_samples_.back();
    if (last_depth == depth) return;
    if (when == now) {
      last_depth = depth;
      return;
    }
  }
  queue_samples_.emplace_back(now, depth);
}

BatchMetrics BatchScheduler::metrics() const {
  BatchMetrics m;
  m.jobs = static_cast<int>(records_.size());
  m.preemptions = static_cast<int>(preemptions_);
  const double tau_s = to_seconds(config_.tau);
  util::Samples waits;
  util::Samples slowdowns;
  std::vector<util::Samples> queue_waits(queues_.size());
  std::vector<util::Samples> queue_slowdowns(queues_.size());
  std::vector<int> queue_jobs(queues_.size(), 0);
  std::map<int, util::Samples> user_slowdowns;
  for (const JobRecord& rec : records_) {
    if (rec.state == JobState::kFailed) ++m.failed;
    if (rec.state == JobState::kRejected) {
      ++m.rejected;
      continue;
    }
    ++queue_jobs[static_cast<std::size_t>(rec.queue)];
    m.preempt_lost_s += to_seconds(rec.preempt_lost);
    if (rec.state != JobState::kFinished) continue;
    ++m.finished;
    const double wait_s = to_seconds(rec.wait());
    const double slow =
        util::bounded_slowdown(wait_s, to_seconds(rec.run()), tau_s);
    waits.add(wait_s);
    slowdowns.add(slow);
    queue_waits[static_cast<std::size_t>(rec.queue)].add(wait_s);
    queue_slowdowns[static_cast<std::size_t>(rec.queue)].add(slow);
    user_slowdowns[rec.spec.user].add(slow);
  }
  if (!waits.empty()) {
    m.mean_wait_s = waits.mean();
    m.mean_slowdown = slowdowns.mean();
    m.p95_slowdown = slowdowns.percentile(95.0);
    m.max_slowdown = slowdowns.max();
    m.jain_fairness = util::jains_fairness_index(slowdowns.values());
  }
  // Jain's index over per-user mean slowdowns — the fairshare headline.
  if (!user_slowdowns.empty()) {
    std::vector<double> user_means;
    user_means.reserve(user_slowdowns.size());
    for (const auto& [user, samples] : user_slowdowns) {
      user_means.push_back(samples.mean());
    }
    m.user_fairness = util::jains_fairness_index(user_means);
  }
  m.queues.resize(queues_.size());
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    m.queues[q].name = queues_[q].name;
    m.queues[q].jobs = queue_jobs[q];
    m.queues[q].finished = static_cast<int>(queue_slowdowns[q].count());
    if (!queue_waits[q].empty()) {
      m.queues[q].mean_wait_s = queue_waits[q].mean();
      m.queues[q].mean_slowdown = queue_slowdowns[q].mean();
    }
  }
  if (first_arrival_ != kNoPromise && last_finish_ > first_arrival_) {
    const SimDuration makespan = last_finish_ - first_arrival_;
    m.makespan_s = to_seconds(makespan);
    m.utilization = static_cast<double>(busy_node_time_) /
                    (static_cast<double>(makespan) *
                     static_cast<double>(allocator_.total()));
    // Time-weighted queue depth over the makespan.
    double depth_integral = 0.0;
    for (std::size_t i = 0; i < queue_samples_.size(); ++i) {
      const SimTime begin = std::max(queue_samples_[i].first, first_arrival_);
      const SimTime end = i + 1 < queue_samples_.size()
                              ? std::min(queue_samples_[i + 1].first,
                                         last_finish_)
                              : last_finish_;
      if (end > begin) {
        depth_integral += static_cast<double>(queue_samples_[i].second) *
                          to_seconds(end - begin);
      }
    }
    m.mean_queue_depth = depth_integral / m.makespan_s;
  }
  if (wf_used_ && dag_.finalized()) {
    util::Samples stalls;
    SimTime wf_first = kNoPromise;
    SimTime wf_last = 0;
    for (const JobRecord& rec : records_) {
      if (rec.state == JobState::kCanceled) ++m.canceled;
      if (rec.state != JobState::kFinished) continue;
      wf_first = std::min(wf_first, rec.spec.arrival);
      wf_last = std::max(wf_last, rec.finish);
      stalls.add(to_seconds(rec.dep_stall()));
    }
    m.critical_path_s = to_seconds(dag_.critical_path());
    if (wf_first != kNoPromise && wf_last > wf_first) {
      m.workflow_makespan_s = to_seconds(wf_last - wf_first);
      if (m.critical_path_s > 0.0) {
        m.cp_stretch = m.workflow_makespan_s / m.critical_path_s;
      }
    }
    if (!stalls.empty()) {
      m.mean_dep_stall_s = stalls.mean();
      m.max_dep_stall_s = stalls.max();
    }
  }
  return m;
}

double BatchScheduler::measured_node_utilization() const {
  double total = 0.0;
  for (int n = 0; n < cluster_.num_nodes(); ++n) {
    total += perf::machine_utilization(cluster_.node(n));
  }
  return cluster_.num_nodes() > 0 ? total / cluster_.num_nodes() : 0.0;
}

}  // namespace hpcs::batch
