#include "batch/scale.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "batch/federated.h"
#include "batch/job.h"
#include "util/stats.h"

namespace hpcs::batch {
namespace {

using federated::align_up;

/// A job as it sits in (or moves between) shard queues.  The key
/// (arrival, id) is globally unique, so queue inserts commute and FCFS
/// order is identical in serial and sharded runs.
struct QueuedJob {
  SimTime arrival = 0;
  std::uint32_t id = 0;
  std::int32_t nodes = 0;
  std::int32_t home_shard = 0;
  std::int32_t forwards = 0;
  SimDuration base_runtime = 0;
};
// 100k-job arrival streams, the queues and every transfer carry it.
static_assert(sizeof(QueuedJob) == 32);

// --- checkpoint/fault mode ---------------------------------------------------
// Active only when ScaleConfig::ckpt.enabled or the campaign is on;
// otherwise a job is one dispatch->finish timer (see dispatch).  The same
// determinism contract holds: every event handler only *buffers* its
// payload into an ordered per-shard structure at a grid instant (inserts
// keyed by globally-unique ids commute), and the coalesced pass at grid+1
// drains the buffers in canonical order.  All PFS state lives on shard 0
// and is touched only from its pass; other shards talk to it through
// grid-aligned messages with the same cross-shard latency as forwards.

/// Where a running job is in its checkpoint cycle.
enum class Phase : std::uint8_t {
  kCompute,     // executing its current segment
  kStalled,     // selfish: interval expired, waiting out the PFS write
  kWriting,     // cooperative: inside its granted write slot
  kDown,        // a campaign failure knocked it out; rebooting
  kRestarting,  // rebooted, reading its checkpoint image back
};

/// Segment-event kinds, processed in this (canonical) order per job.
enum SegEventKind : int {
  kFinish = 0,      // final segment's compute would complete
  kCkptDue = 1,     // selfish: interval expired
  kWriteBegin = 2,  // cooperative: granted slot opens
  kWriteDone = 3,   // cooperative: write slot complete
  kRecover = 4,     // downtime over
};

enum IoKind : int { kIoWrite = 0, kIoReserve = 1, kIoRead = 2 };

struct IoRequest {
  int kind = kIoWrite;
  std::uint32_t seg = 0;
  int src_shard = 0;
  std::uint64_t bytes = 0;
  SimTime earliest = 0;  // kIoReserve: no slot before this
};

struct IoReply {
  int kind = kIoWrite;
  std::uint32_t seg = 0;
  SimTime slot_start = 0;
  SimTime slot_end = 0;
};

/// A dispatched job progressing through checkpointed compute segments.
/// `seg` is bumped at every segment start and on failure, so stale events
/// and stale IO replies (their tags no longer match) are dropped — the
/// staleness guard that keeps in-flight messages harmless.
struct RunningJob {
  QueuedJob job;
  std::vector<int> alloc;      // shard-local node ids
  SimTime start = 0;           // dispatch time (outcome.start)
  SimDuration work_total = 0;  // noisy compute the job needs
  SimDuration done = 0;        // work banked in committed checkpoints
  std::uint32_t seg = 0;
  SimTime seg_start = 0;       // current segment began (last commit point)
  SimDuration seg_work = 0;    // selfish: work this segment banks
  SimDuration covered = 0;     // cooperative: work the in-flight write banks
  SimDuration write_dur = 0;   // cooperative: granted slot length
  SimTime stall_from = 0;      // selfish: pre-write stall began
  SimTime fail_time = 0;
  SimDuration interval = 0;    // current interval (stretches under load)
  SimDuration base_interval = 0;
  Phase phase = Phase::kCompute;
};

/// The policy's own per-shard state; the core adds queue, allocator, gossip.
struct ScaleShard {
  // --- workflow mode -------------------------------------------------------
  // Jobs homed here that still wait on dependencies: the unfinished-parent
  // count, and the parked job itself.  Release messages decrement the
  // count (decrements commute); the one that zeroes it queues the job.
  std::map<std::uint32_t, int> wf_waiting;
  std::map<std::uint32_t, QueuedJob> wf_held;
  std::uint64_t dep_releases = 0;
  std::uint64_t released_jobs = 0;
  SimDuration dep_stall_ns = 0;  // release time - arrival, summed
  // --- checkpoint/fault mode (use_segments_) -------------------------------
  std::map<std::uint32_t, RunningJob> running;  // by job id
  /// Local node -> ids of jobs running there.  Exclusive mode keeps the
  /// set at one entry; shared-node mode is why it is a set — a failure
  /// must charge EVERY co-located job, not just one owner.
  std::map<int, std::set<std::uint32_t>> node_occupants;
  // This-instant buffers, drained by the next pass in canonical order.
  std::set<int> pending_failures;  // local node ids
  std::set<std::tuple<std::uint32_t, std::uint32_t, int>>
      pending_events;  // (job, seg, kind)
  std::map<std::pair<std::uint32_t, std::uint32_t>, IoReply>
      pending_replies;  // (job, seg)
  std::size_t next_failure = 0;  // cursor into failures_[shard]
  // Checkpoint/fault accounting (merged into ScaleResult::ckpt).
  ScaleCkptStats ckpt;
  SimDuration span_node_ns = 0;   // node-weighted dispatched->finish
  SimDuration ideal_node_ns = 0;  // node-weighted noisy compute demand
  SimDuration interval_sum_ns = 0;
  std::uint64_t interval_jobs = 0;
};

class ScaleSim;
using ScaleCore =
    federated::FederatedCore<ScaleSim, QueuedJob, ScaleJobOutcome, ScaleShard>;

class ScaleSim final : public ScaleCore {
  friend ScaleCore;

 public:
  ScaleSim(federated::Driver& driver, const ScaleConfig& config)
      : ScaleCore(driver, config, "Scale",
                  config.share.enabled ? config.share.slots_per_node : 1),
        cfg_(config),
        pfs_(config.ckpt.pfs) {
    // (The allocators already rejected slots_per_node < 1.)
    if (cfg_.share.enabled && cfg_.share.contention < 0.0) {
      throw std::invalid_argument("ScaleShareConfig: contention must be >= 0");
    }
    campaign_ = cfg_.campaign;
    campaign_.nodes = cfg_.nodes;
    use_segments_ = cfg_.ckpt.enabled || campaign_.enabled();
    if (use_segments_ && cfg_.ckpt.downtime < cfg_.cycle) {
      throw std::invalid_argument(
          "ScaleCkptConfig: downtime must be >= one scheduler cycle");
    }
    // After the shard structures exist: workflow mode parks held jobs
    // directly on their home shard.
    build_workload();
    build_campaign();
  }

  void seed_events() {
    for (int s = 0; s < cfg_.shards; ++s) {
      schedule_next_arrival(s);
      schedule_next_failure(s);
    }
  }

  ScaleResult collect() const;

 private:
  void build_workload() {
    if (cfg_.wf.enabled) {
      build_workflows();
      return;
    }
    ArrivalConfig arrivals = cfg_.arrivals;
    // Every job must fit the smallest shard, or it could starve forever in
    // a federated FCFS queue.
    arrivals.max_nodes =
        std::min(arrivals.max_nodes, partition_.min_shard_nodes());
    const std::vector<JobSpec> specs =
        generate_arrivals(arrivals, cfg_.seed);
    total_jobs_ = specs.size();
    for (const JobSpec& spec : specs) {
      QueuedJob job;
      job.arrival = align_up(spec.arrival, cfg_.cycle);
      job.id = static_cast<std::uint32_t>(spec.id);
      job.nodes = spec.nodes;
      job.home_shard = static_cast<std::int32_t>(job.id) % cfg_.shards;
      job.base_runtime = ideal_runtime(spec);
      add_arrival(job);
    }
    sort_arrivals();
  }

  void build_workflows() {
    if (cfg_.wf.instances < 1) {
      throw std::invalid_argument(
          "ScaleWorkflowConfig: instances must be >= 1");
    }
    wf::DagGenConfig gen = cfg_.wf.dag;
    // Every task must fit the smallest shard (same rule as the arrival
    // stream's max_nodes clamp).
    gen.max_nodes = std::min(gen.max_nodes, partition_.min_shard_nodes());
    int next_id = 1;
    for (int w = 0; w < cfg_.wf.instances; ++w) {
      gen.first_id = next_id;
      const std::vector<wf::TaskSpec> tasks =
          wf::generate_dag(gen, cfg_.seed);
      const SimTime arrival = align_up(
          static_cast<SimTime>(w) * cfg_.wf.spacing, cfg_.cycle);
      wf_ranges_.emplace_back(next_id,
                              next_id + static_cast<int>(tasks.size()));
      wf_cp_.push_back(wf::dag_from_tasks(tasks).critical_path());
      next_id += static_cast<int>(tasks.size());
      for (const wf::TaskSpec& task : tasks) {
        QueuedJob job;
        job.arrival = arrival;
        job.id = static_cast<std::uint32_t>(task.id);
        job.nodes = task.nodes;
        job.home_shard = static_cast<std::int32_t>(job.id) % cfg_.shards;
        job.base_runtime = wf::task_ideal_runtime(task);
        for (const int dep : task.deps) {
          wf_dependents_[static_cast<std::uint32_t>(dep)].push_back(job.id);
        }
        Shard& home = shard(job.home_shard);
        if (task.deps.empty()) {
          add_arrival(job);
        } else {
          home.wf_waiting.emplace(job.id, static_cast<int>(task.deps.size()));
          home.wf_held.emplace(job.id, job);
        }
      }
    }
    total_jobs_ = static_cast<std::size_t>(next_id - 1);
    sort_arrivals();
  }

  void build_campaign() {
    failures_.resize(static_cast<std::size_t>(cfg_.shards));
    if (!campaign_.enabled()) return;
    for (const fault::NodeFailure& f :
         fault::generate_campaign(campaign_, cfg_.seed)) {
      const int shard = partition_.shard_of_node(f.node);
      failures_[static_cast<std::size_t>(shard)].emplace_back(
          align_up(f.at, cfg_.cycle), f.node - partition_.first_node(shard));
    }
    // Grid alignment can reorder; restore (at, local node) order per shard.
    for (auto& stream : failures_) {
      std::sort(stream.begin(), stream.end());
    }
  }

  // --- event handlers --------------------------------------------------------
  // Mutations (arrival, transfer, finish, gossip) land on grid instants and
  // commute; the pass at grid+1 sees the complete instant state.

  void schedule_next_failure(int s) {
    const auto& stream = failures_[static_cast<std::size_t>(s)];
    const Shard& sh = shard(s);
    if (sh.next_failure >= stream.size()) return;
    const SimTime at = stream[sh.next_failure].first;
    drv_.local(s, at, [this, s, at] { on_failure_batch(s, at); });
  }

  void on_failure_batch(int s, SimTime at) {
    Shard& sh = shard(s);
    const auto& stream = failures_[static_cast<std::size_t>(s)];
    while (sh.next_failure < stream.size() &&
           stream[sh.next_failure].first == at) {
      sh.pending_failures.insert(stream[sh.next_failure++].second);
    }
    schedule_next_failure(s);
    request_pass(s, at);
  }

  void pass(int s, SimTime t) {
    Shard& sh = shard(s);
    if (use_segments_) {
      // Fixed phase order, canonical within each phase: failures first (so
      // same-instant replies/events for a just-failed segment go stale),
      // then IO replies, then segment events, then (shard 0) the PFS queue.
      process_failures(s, t);
      process_replies(s, t);
      process_events(s, t);
      if (s == kIoShard) serve_io(t);
    }
    while (!sh.queue.empty()) {
      const auto head = sh.queue.begin();
      if (head->second.nodes <= sh.alloc->free_slots()) {
        const QueuedJob job = head->second;
        sh.queue.erase(head);
        dispatch(s, t, job);
        continue;
      }
      // Strict FCFS locally, but a blocked head may migrate to the shard
      // with the best (gossip-known) free capacity.
      if (!try_forward(s, t, head)) break;
    }
  }

  void dispatch(int s, SimTime t, const QueuedJob& job) {
    Shard& sh = shard(s);
    auto nodes = sh.alloc->allocate_slots(job.nodes);
    // free capacity >= request was checked; the allocator gathers fragments.
    if (!nodes) {
      throw std::logic_error("ScaleSim: allocation unexpectedly failed");
    }
    // The job runs at the speed of its unluckiest node (noise resonance):
    // stretch the ideal runtime by the worst per-(job, node) draw.
    double stretch =
        1.0 + cfg_.node_noise * worst_noise(sh, job.id, *nodes);
    if (cfg_.share.enabled) {
      // Co-located jobs time-share the node: pay for the most crowded node
      // in the allocation, occupancy sampled right after placement (the
      // pass is the canonical decision point, so this is deterministic).
      int max_occupancy = 1;
      for (const int local : *nodes) {
        max_occupancy = std::max(max_occupancy, sh.alloc->busy_slots(local));
      }
      stretch *= 1.0 + cfg_.share.contention *
                           static_cast<double>(max_occupancy - 1);
    }
    const auto runtime = static_cast<SimDuration>(
        static_cast<double>(job.base_runtime) * stretch);
    if (use_segments_) {
      RunningJob rj;
      rj.job = job;
      rj.alloc = std::move(*nodes);
      rj.start = t;
      rj.work_total = runtime == 0 ? 1 : runtime;
      rj.base_interval = rj.interval = choose_interval(rj.alloc.size());
      if (rj.base_interval > 0) {
        sh.interval_sum_ns += rj.base_interval;
        ++sh.interval_jobs;
      }
      for (const int local : rj.alloc) {
        sh.node_occupants[local].insert(job.id);
      }
      auto [it, inserted] = sh.running.emplace(job.id, std::move(rj));
      if (!inserted) throw std::logic_error("ScaleSim: job dispatched twice");
      start_segment(s, t, it->second);
      return;
    }
    // Without checkpoints or faults a job is one dispatch->finish timer, not
    // a one-segment run (DESIGN.md §10 says why).
    const SimTime finish = align_up(t + runtime, cfg_.cycle);
    drv_.local(s, finish,
               [this, s, finish, job, start = t, alloc = std::move(*nodes)] {
                 retire(s, job, start, finish, finish, alloc);
                 request_pass(s, finish);
               });
  }

  /// The job is done at `stamp`: slots back, outcome recorded, dependents
  /// told.  `t` is the current event time (a pass may retire a job whose
  /// compute ended earlier in the window).
  void retire(int s, const QueuedJob& job, SimTime start, SimTime stamp,
              SimTime t, const std::vector<int>& slots) {
    Shard& sh = shard(s);
    sh.alloc->release_slots(slots);
    sh.busy_node_ns += static_cast<SimDuration>(slots.size()) *
                       (stamp > start ? stamp - start : 0);
    ScaleJobOutcome outcome;
    outcome.arrival = job.arrival;
    outcome.start = start;
    outcome.finish = stamp;
    outcome.home_shard = job.home_shard;
    outcome.ran_shard = s;
    outcome.forwards = job.forwards;
    sh.done.emplace_back(job.id, outcome);
    notify_dependents(s, stamp, t, job.id);
  }

  /// Workflow mode: message every dependent's home shard that one parent is
  /// done.  Same grid-aligned fabric latency as job forwards; `stamp` is
  /// the finish instant, `t` the current event time (they differ when a
  /// pass retires a job whose compute ended earlier in the window).
  void notify_dependents(int s, SimTime stamp, SimTime t,
                         std::uint32_t job_id) {
    if (!cfg_.wf.enabled) return;
    const auto it = wf_dependents_.find(job_id);
    if (it == wf_dependents_.end()) return;
    const SimTime when = landing(std::max(stamp, t));
    for (const std::uint32_t dep : it->second) {
      const int dst = static_cast<int>(dep) % cfg_.shards;
      drv_.remote(s, dst, when,
                  [this, dst, when, dep] { on_dep_release(dst, when, dep); });
    }
  }

  void on_dep_release(int s, SimTime t, std::uint32_t job_id) {
    Shard& sh = shard(s);
    ++sh.dep_releases;
    const auto waiting = sh.wf_waiting.find(job_id);
    if (waiting == sh.wf_waiting.end()) {
      throw std::logic_error("ScaleSim: dependency release for unheld job");
    }
    if (--waiting->second > 0) return;
    sh.wf_waiting.erase(waiting);
    const auto held = sh.wf_held.find(job_id);
    QueuedJob job = held->second;
    sh.wf_held.erase(held);
    sh.dep_stall_ns += t > job.arrival ? t - job.arrival : 0;
    ++sh.released_jobs;
    enqueue(sh, job);
    request_pass(s, t);
  }

  // --- checkpoint/fault handlers (pass context, t = grid + 1) ----------------

  /// Earliest grid instant >= `at` that is still schedulable from a pass.
  SimTime next_event_time(SimTime at, SimTime t) const {
    return align_up(std::max(at, t), cfg_.cycle);
  }

  std::uint64_t bytes_for(const RunningJob& rj) const {
    return cfg_.ckpt.bytes_per_node * rj.alloc.size();
  }

  /// Young/Daly interval for a job of `width` nodes (0 = no checkpoints).
  SimDuration choose_interval(std::size_t width) const {
    const ScaleCkptConfig& ck = cfg_.ckpt;
    if (!ck.enabled) return 0;
    double interval_s = 0.0;
    if (ck.interval_policy == ckpt::IntervalPolicy::kFixed) {
      interval_s = to_seconds(ck.fixed_interval);
    } else {
      const SimDuration mtbf =
          ck.node_mtbf > 0 ? ck.node_mtbf : campaign_.node_mtbf;
      if (mtbf == 0) return 0;  // nothing to optimise against
      const double write_s =
          to_seconds(pfs_.transfer_time(cfg_.ckpt.bytes_per_node * width));
      const double job_mtbf =
          ckpt::job_mtbf_s(to_seconds(mtbf), static_cast<int>(width));
      interval_s = ckpt::pick_interval_s(ck.interval_policy, write_s, job_mtbf,
                                         to_seconds(ck.fixed_interval));
    }
    interval_s *= ck.interval_scale;
    const auto interval = static_cast<SimDuration>(interval_s * 1e9);
    // Floor: the reservation round trip must fit inside one interval.
    return std::max(interval, 4 * (xlat_ + cfg_.cycle));
  }

  void schedule_seg_event(int s, SimTime when, std::uint32_t job_id,
                          std::uint32_t seg, int kind) {
    drv_.local(s, when, [this, s, when, job_id, seg, kind] {
      shard(s).pending_events.emplace(job_id, seg, kind);
      request_pass(s, when);
    });
  }

  /// Ask the PFS (on kIoShard) to serve `kind` for the job's current
  /// segment.
  void send_io(int s, SimTime t, const RunningJob& rj, int kind,
               SimTime earliest = 0) {
    const IoRequest req{kind, rj.seg, s, bytes_for(rj), earliest};
    const std::uint32_t job_id = rj.job.id;
    const SimTime when = landing(t);
    drv_.remote(s, kIoShard, when, [this, job_id, req, when] {
      pending_io_.emplace(std::make_pair(job_id, req.seg), req);
      request_pass(kIoShard, when);
    });
  }

  /// Graceful degradation: a slot slipping far past the asked-for time
  /// means the PFS is saturated — back off the interval instead of letting
  /// every checkpoint stall the schedule.
  void maybe_stretch(Shard& sh, RunningJob& rj, SimDuration slip) {
    if (rj.base_interval == 0) return;
    if (static_cast<double>(slip) <=
        cfg_.ckpt.stretch_threshold * static_cast<double>(rj.interval)) {
      return;
    }
    const auto cap = static_cast<SimDuration>(
        static_cast<double>(rj.base_interval) * cfg_.ckpt.max_stretch);
    const auto next = static_cast<SimDuration>(
        static_cast<double>(rj.interval) * cfg_.ckpt.stretch_factor);
    if (rj.interval >= cap) return;
    rj.interval = std::min(next, cap);
    ++sh.ckpt.interval_stretches;
  }

  /// Begin a compute segment at grid instant t-1: run to completion if the
  /// remaining work fits one interval, otherwise line up the segment's
  /// checkpoint (selfish: a timer; cooperative: a PFS reservation).
  void start_segment(int s, SimTime t, RunningJob& rj) {
    const SimTime grid = t - 1;
    rj.seg += 1;
    rj.seg_start = grid;
    rj.phase = Phase::kCompute;
    const SimDuration left = rj.work_total - rj.done;
    if (rj.interval > 0 && left > rj.interval) {
      if (cfg_.ckpt.coordinator == ckpt::CoordPolicy::kCooperative) {
        send_io(s, t, rj, kIoReserve, grid + rj.interval);
      } else {
        rj.seg_work = rj.interval;
        schedule_seg_event(s, next_event_time(grid + rj.interval, t),
                           rj.job.id, rj.seg, kCkptDue);
      }
      return;
    }
    schedule_seg_event(s, next_event_time(grid + left, t), rj.job.id, rj.seg,
                       kFinish);
  }

  /// A segmented job is done: retire it, plus the waste bookkeeping.  `t`
  /// is the pass time, needed to schedule dependency releases in the future.
  void complete_job(int s, SimTime stamp, SimTime t, std::uint32_t job_id) {
    Shard& sh = shard(s);
    auto it = sh.running.find(job_id);
    RunningJob& rj = it->second;
    for (const int local : rj.alloc) {
      auto occ = sh.node_occupants.find(local);
      if (occ == sh.node_occupants.end()) continue;  // repeated slot entry
      occ->second.erase(job_id);
      if (occ->second.empty()) sh.node_occupants.erase(occ);
    }
    const SimDuration span = stamp > rj.start ? stamp - rj.start : 0;
    const auto width = static_cast<SimDuration>(rj.alloc.size());
    sh.span_node_ns += width * span;
    sh.ideal_node_ns += width * std::min(rj.work_total, span);
    retire(s, rj.job, rj.start, stamp, t, rj.alloc);
    sh.running.erase(it);
    // The pass's dispatch loop runs right after this and sees the freed
    // nodes; no extra pass request is needed.
  }

  void process_failures(int s, SimTime t) {
    Shard& sh = shard(s);
    if (sh.pending_failures.empty()) return;
    const SimTime grid = t - 1;
    const auto failed = std::move(sh.pending_failures);
    sh.pending_failures.clear();
    for (const int local : failed) {
      const auto occ = sh.node_occupants.find(local);
      if (occ == sh.node_occupants.end() || occ->second.empty()) {
        ++sh.ckpt.failures_idle;
        continue;
      }
      // Every co-located job loses the node — a shared node's failure is
      // charged to ALL its occupants, not just one owner.  Set iteration
      // is ascending-id, so the knockback order is canonical.
      for (const std::uint32_t job_id : occ->second) {
        ++sh.ckpt.failures_hit;
        RunningJob& rj = sh.running.at(job_id);
        if (rj.phase == Phase::kDown || rj.phase == Phase::kRestarting) {
          continue;  // already rebooting; one recovery covers the job
        }
        // Knocked back to the last committed checkpoint: everything since
        // seg_start is gone — including a write in flight, which earns no
        // credit (the partial image is useless).
        sh.ckpt.lost_work_ns += grid > rj.seg_start ? grid - rj.seg_start : 0;
        if (rj.phase == Phase::kStalled || rj.phase == Phase::kWriting) {
          ++sh.ckpt.aborted_writes;
        }
        rj.seg += 1;  // void in-flight events and IO replies
        rj.phase = Phase::kDown;
        rj.fail_time = grid;
        schedule_seg_event(s, next_event_time(grid + cfg_.ckpt.downtime, t),
                           job_id, rj.seg, kRecover);
      }
    }
  }

  void process_replies(int s, SimTime t) {
    Shard& sh = shard(s);
    if (sh.pending_replies.empty()) return;
    const SimTime grid = t - 1;
    const auto replies = std::move(sh.pending_replies);
    sh.pending_replies.clear();
    for (const auto& [key, rep] : replies) {
      const std::uint32_t job_id = key.first;
      auto it = sh.running.find(job_id);
      if (it == sh.running.end() || it->second.seg != rep.seg) continue;
      RunningJob& rj = it->second;
      switch (rep.kind) {
        case kIoWrite: {  // selfish: the blocking write completed
          if (rj.phase != Phase::kStalled) break;
          const SimDuration write = rep.slot_end - rep.slot_start;
          const SimDuration stalled =
              grid > rj.stall_from ? grid - rj.stall_from : 0;
          sh.ckpt.ckpt_write_ns += write;
          sh.ckpt.ckpt_stall_ns += stalled > write ? stalled - write : 0;
          ++sh.ckpt.checkpoints;
          rj.done += rj.seg_work;
          maybe_stretch(sh, rj, stalled > write ? stalled - write : 0);
          start_segment(s, t, rj);
          break;
        }
        case kIoReserve: {  // cooperative: our write slot is booked
          if (rj.phase != Phase::kCompute) break;
          const SimTime finish_at = rj.seg_start + (rj.work_total - rj.done);
          const SimTime wanted = rj.seg_start + rj.interval;
          maybe_stretch(sh, rj,
                        rep.slot_start > wanted ? rep.slot_start - wanted : 0);
          if (rep.slot_start >= finish_at) {
            // Saturation pushed the slot past our finish: skip this
            // checkpoint and run the segment to completion.
            schedule_seg_event(s, next_event_time(finish_at, t), job_id,
                               rj.seg, kFinish);
          } else {
            rj.write_dur = rep.slot_end - rep.slot_start;
            schedule_seg_event(s, next_event_time(rep.slot_start, t), job_id,
                               rj.seg, kWriteBegin);
          }
          break;
        }
        case kIoRead: {  // restart image loaded; resume from the checkpoint
          if (rj.phase != Phase::kRestarting) break;
          sh.ckpt.restart_stall_ns +=
              grid > rj.fail_time ? grid - rj.fail_time : 0;
          ++sh.ckpt.restarts;
          start_segment(s, t, rj);
          break;
        }
      }
    }
  }

  void process_events(int s, SimTime t) {
    Shard& sh = shard(s);
    if (sh.pending_events.empty()) return;
    const SimTime grid = t - 1;
    const auto events = std::move(sh.pending_events);
    sh.pending_events.clear();
    for (const auto& [job_id, seg, kind] : events) {
      auto it = sh.running.find(job_id);
      if (it == sh.running.end() || it->second.seg != seg) continue;
      RunningJob& rj = it->second;
      switch (kind) {
        case kFinish: {
          if (rj.phase != Phase::kCompute) break;
          complete_job(s, grid, t, job_id);
          break;
        }
        case kCkptDue: {  // selfish: stall and push the write at the PFS
          if (rj.phase != Phase::kCompute) break;
          rj.phase = Phase::kStalled;
          rj.stall_from = grid;
          send_io(s, t, rj, kIoWrite);
          break;
        }
        case kWriteBegin: {  // cooperative: slot open, stop computing
          if (rj.phase != Phase::kCompute) break;
          const SimTime finish_at = rj.seg_start + (rj.work_total - rj.done);
          if (grid >= finish_at) {
            // The slot slipped past the work: the job finished computing
            // before its write began — no final checkpoint needed.
            complete_job(s, align_up(finish_at, cfg_.cycle), t, job_id);
            break;
          }
          rj.covered = grid - rj.seg_start;
          rj.phase = Phase::kWriting;
          schedule_seg_event(s, next_event_time(grid + rj.write_dur, t),
                             job_id, rj.seg, kWriteDone);
          break;
        }
        case kWriteDone: {  // cooperative: image committed
          if (rj.phase != Phase::kWriting) break;
          rj.done += rj.covered;
          ++sh.ckpt.checkpoints;
          sh.ckpt.ckpt_write_ns += rj.write_dur;
          start_segment(s, t, rj);
          break;
        }
        case kRecover: {  // reboot done; read the image back (if any)
          if (rj.phase != Phase::kDown) break;
          if (rj.done > 0) {
            rj.phase = Phase::kRestarting;
            send_io(s, t, rj, kIoRead);
          } else {
            // Nothing checkpointed yet: restart from scratch directly.
            sh.ckpt.restart_stall_ns +=
                grid > rj.fail_time ? grid - rj.fail_time : 0;
            ++sh.ckpt.restarts;
            start_segment(s, t, rj);
          }
          break;
        }
      }
    }
  }

  /// Shard 0 only: drain the PFS request queue in (job, seg) order against
  /// the busy horizons and message the grants back.
  void serve_io(SimTime t) {
    if (pending_io_.empty()) return;
    const SimTime grid = t - 1;
    const auto requests = std::move(pending_io_);
    pending_io_.clear();
    for (const auto& [key, req] : requests) {
      const std::uint32_t job_id = key.first;
      ckpt::PfsGrant grant;
      switch (req.kind) {
        case kIoWrite: grant = pfs_.write(req.bytes, grid); break;
        case kIoReserve:
          grant = pfs_.reserve(req.bytes, grid, req.earliest);
          break;
        case kIoRead: grant = pfs_.read(req.bytes, grid); break;
      }
      // Reservations answer immediately (the slot may be far out); reads
      // and blocking writes answer when the transfer completes.
      const SimTime base = req.kind == kIoReserve ? grid : grant.end;
      const SimTime when = landing(std::max(base, t));
      IoReply rep;
      rep.kind = req.kind;
      rep.seg = req.seg;
      rep.slot_start = grant.start;
      rep.slot_end = grant.end;
      const int dst = req.src_shard;
      drv_.remote(kIoShard, dst, when, [this, dst, job_id, rep, when] {
        shard(dst).pending_replies.emplace(std::make_pair(job_id, rep.seg),
                                           rep);
        request_pass(dst, when);
      });
    }
  }

  ScaleConfig cfg_;

  // --- checkpoint/fault state ------------------------------------------------
  /// The shard that owns the PFS model: all PfsModel mutation happens inside
  /// its pass, so the busy horizons advance in one deterministic order.
  static constexpr int kIoShard = 0;
  /// True when either checkpointing or a fault campaign is on: jobs then run
  /// as segments driven by the event handlers above instead of one
  /// dispatch->finish timer.
  bool use_segments_ = false;
  fault::CampaignConfig campaign_;  // cfg_.campaign with nodes overridden
  ckpt::PfsModel pfs_;
  /// Per shard: the campaign's failures mapped to (grid-aligned time, local
  /// node), sorted, delivered by the chained schedule_next_failure events.
  std::vector<std::vector<std::pair<SimTime, int>>> failures_;
  /// IO requests landed on shard 0, drained by serve_io in (job, seg) order.
  std::map<std::pair<std::uint32_t, std::uint32_t>, IoRequest> pending_io_;

  // --- workflow state --------------------------------------------------------
  /// job id -> ids of jobs waiting on it (read-only after construction).
  std::map<std::uint32_t, std::vector<std::uint32_t>> wf_dependents_;
  /// Per instance: [first id, past-last id) and the ideal critical path.
  std::vector<std::pair<int, int>> wf_ranges_;
  std::vector<SimDuration> wf_cp_;
};

ScaleResult ScaleSim::collect() const {
  ScaleResult result;
  result.jobs.resize(total_jobs_);
  merge(result, std::vector<bool>(total_jobs_, false));
  SimDuration span_total = 0;
  SimDuration ideal_total = 0;
  SimDuration interval_sum = 0;
  std::uint64_t interval_jobs = 0;
  SimDuration dep_stall_total = 0;
  std::uint64_t released_total = 0;
  for (const Shard& sh : shards_) {
    result.dep_releases += sh.dep_releases;
    dep_stall_total += sh.dep_stall_ns;
    released_total += sh.released_jobs;
    result.ckpt.checkpoints += sh.ckpt.checkpoints;
    result.ckpt.aborted_writes += sh.ckpt.aborted_writes;
    result.ckpt.failures_hit += sh.ckpt.failures_hit;
    result.ckpt.failures_idle += sh.ckpt.failures_idle;
    result.ckpt.restarts += sh.ckpt.restarts;
    result.ckpt.interval_stretches += sh.ckpt.interval_stretches;
    result.ckpt.ckpt_write_ns += sh.ckpt.ckpt_write_ns;
    result.ckpt.ckpt_stall_ns += sh.ckpt.ckpt_stall_ns;
    result.ckpt.lost_work_ns += sh.ckpt.lost_work_ns;
    result.ckpt.restart_stall_ns += sh.ckpt.restart_stall_ns;
    span_total += sh.span_node_ns;
    ideal_total += sh.ideal_node_ns;
    interval_sum += sh.interval_sum_ns;
    interval_jobs += sh.interval_jobs;
  }
  util::Samples waits;
  util::OnlineStats slowdowns;
  result.wait_hist = util::Histogram(0.0, cfg_.wait_hist_max_s, 40);
  const double tau_s = to_seconds(cfg_.cycle);
  for (const ScaleJobOutcome& job : result.jobs) {
    const double wait_s = to_seconds(job.start - job.arrival);
    const double run_s = to_seconds(job.finish - job.start);
    waits.add(wait_s);
    slowdowns.add(util::bounded_slowdown(wait_s, run_s, tau_s));
    result.wait_hist.add(wait_s);
  }
  if (!waits.empty()) {
    result.mean_wait_s = waits.mean();
    result.p95_wait_s = waits.percentile(95.0);
    result.mean_slowdown = slowdowns.mean();
  }
  if (use_segments_) {
    if (span_total > 0) {
      result.ckpt.waste_frac =
          std::max(0.0, 1.0 - static_cast<double>(ideal_total) /
                                  static_cast<double>(span_total));
    }
    if (interval_jobs > 0) {
      result.ckpt.mean_interval_s =
          to_seconds(interval_sum) / static_cast<double>(interval_jobs);
    }
    result.ckpt.pfs = pfs_.stats();
  }
  if (cfg_.wf.enabled && !wf_ranges_.empty()) {
    double makespan_sum = 0.0;
    double stretch_sum = 0.0;
    for (std::size_t w = 0; w < wf_ranges_.size(); ++w) {
      SimTime inst_first = kNoPromise;
      SimTime inst_last = 0;
      for (int id = wf_ranges_[w].first; id < wf_ranges_[w].second; ++id) {
        const ScaleJobOutcome& job =
            result.jobs[static_cast<std::size_t>(id) - 1];
        inst_first = std::min(inst_first, job.arrival);
        inst_last = std::max(inst_last, job.finish);
      }
      const double makespan_s = to_seconds(inst_last - inst_first);
      makespan_sum += makespan_s;
      if (wf_cp_[w] > 0) {
        stretch_sum += makespan_s / to_seconds(wf_cp_[w]);
      }
    }
    const auto n = static_cast<double>(wf_ranges_.size());
    result.wf_makespan_s = makespan_sum / n;
    result.wf_cp_stretch = stretch_sum / n;
    if (released_total > 0) {
      result.wf_dep_stall_s =
          to_seconds(dep_stall_total) / static_cast<double>(released_total);
    }
  }
  return result;
}

}  // namespace

std::uint64_t ScaleResult::checksum() const {
  std::uint64_t h = federated::kFnvBasis;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScaleJobOutcome& job = jobs[i];
    h = federated::fnv1a(h, {i, job.arrival, job.start, job.finish,
                             static_cast<std::uint32_t>(job.home_shard),
                             static_cast<std::uint32_t>(job.ran_shard),
                             static_cast<std::uint32_t>(job.forwards)});
  }
  return h;
}

SimDuration scale_lookahead(const ScaleConfig& config) {
  return federated::partition(config).lookahead();
}

ScaleResult run_scale_serial(const ScaleConfig& config) {
  return federated::run_serial<ScaleSim>(config);
}

ScaleResult run_scale_sharded(const ScaleConfig& config, int threads) {
  return federated::run_sharded<ScaleSim>(threads, config);
}

}  // namespace hpcs::batch
