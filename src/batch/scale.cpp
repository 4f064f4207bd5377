#include "batch/scale.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
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

net::FabricConfig effective_fabric(const ScaleConfig& config) {
  net::FabricConfig fabric = config.fabric;
  fabric.nodes = config.nodes;
  return fabric;
}

/// Per-(job, node) noise draw in [0, 1): a stateless hash, so it costs no
/// shared RNG state and is identical however the run is partitioned.
double node_noise_u01(std::uint64_t seed, std::uint32_t job_id, int node) {
  util::SplitMix64 h(seed ^
                     (static_cast<std::uint64_t>(job_id) + 1) *
                         0x9e3779b97f4a7c15ULL ^
                     (static_cast<std::uint64_t>(node) + 1) *
                         0xbf58476d1ce4e5b9ULL);
  return static_cast<double>(h.next() >> 11) * 0x1.0p-53;
}

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

// --- checkpoint/fault mode ---------------------------------------------------
// Active only when ScaleConfig::ckpt.enabled or the campaign is on; the
// legacy dispatch->finish fast path is untouched otherwise.  The same
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

/// How handlers schedule events: the only difference between the serial
/// reference and the sharded run.
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

class ScaleSim {
 public:
  ScaleSim(const ScaleConfig& config, Driver& driver)
      : cfg_(config),
        drv_(driver),
        partition_(effective_fabric(config), config.shards),
        xlat_(partition_.lookahead()),
        pfs_(config.ckpt.pfs) {
    if (cfg_.cycle < 2) {
      throw std::invalid_argument(
          "ScaleConfig: cycle must be >= 2ns (decisions run at cycle+1)");
    }
    if (cfg_.node_noise < 0.0) {
      throw std::invalid_argument("ScaleConfig: node_noise must be >= 0");
    }
    if (cfg_.share.enabled &&
        (cfg_.share.slots_per_node < 1 || cfg_.share.contention < 0.0)) {
      throw std::invalid_argument(
          "ScaleShareConfig: slots_per_node must be >= 1, contention >= 0");
    }
    slots_per_node_ = cfg_.share.enabled ? cfg_.share.slots_per_node : 1;
    campaign_ = cfg_.campaign;
    campaign_.nodes = cfg_.nodes;
    use_segments_ = cfg_.ckpt.enabled || campaign_.enabled();
    if (use_segments_ && cfg_.ckpt.downtime < cfg_.cycle) {
      throw std::invalid_argument(
          "ScaleCkptConfig: downtime must be >= one scheduler cycle");
    }
    shards_.resize(static_cast<std::size_t>(cfg_.shards));
    for (int s = 0; s < cfg_.shards; ++s) {
      ShardSched& sh = shards_[static_cast<std::size_t>(s)];
      sh.base_node = partition_.first_node(s);
      sh.alloc = std::make_unique<NodeAllocator>(
          partition_.node_count(s), cfg_.allocator_block,
          AllocPolicy::kBestFit, slots_per_node_);
      // All capacity bookkeeping (gossip, forwarding) is in slots; with
      // slots_per_node == 1 a slot IS a node and nothing changes.
      sh.known_free.resize(static_cast<std::size_t>(cfg_.shards));
      for (int k = 0; k < cfg_.shards; ++k) {
        sh.known_free[static_cast<std::size_t>(k)] =
            partition_.node_count(k) * slots_per_node_;
      }
      sh.advertised_free = partition_.node_count(s) * slots_per_node_;
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
  struct ShardSched {
    int base_node = 0;
    std::unique_ptr<NodeAllocator> alloc;  // shard-local node ids
    std::map<std::pair<SimTime, std::uint32_t>, QueuedJob> queue;
    std::vector<int> known_free;  // last gossiped free count per shard
    int advertised_free = -1;     // what we last broadcast
    bool pass_pending = false;
    std::size_t next_arrival = 0;  // cursor into arrivals_[shard]
    // Results, merged after the run.
    std::vector<std::pair<std::uint32_t, ScaleJobOutcome>> done;
    std::uint64_t forwards = 0;
    std::uint64_t gossip_received = 0;
    SimDuration busy_node_ns = 0;
    // --- workflow mode -----------------------------------------------------
    // Jobs homed here that still wait on dependencies: the unfinished-parent
    // count, and the parked job itself.  Release messages decrement the
    // count (decrements commute); the one that zeroes it queues the job.
    std::map<std::uint32_t, int> wf_waiting;
    std::map<std::uint32_t, QueuedJob> wf_held;
    std::uint64_t dep_releases = 0;
    std::uint64_t released_jobs = 0;
    SimDuration dep_stall_ns = 0;  // release time - arrival, summed
    // --- checkpoint/fault mode (use_segments_) -----------------------------
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
    arrivals_.resize(static_cast<std::size_t>(cfg_.shards));
    for (const JobSpec& spec : specs) {
      QueuedJob job;
      job.arrival = align_up(spec.arrival, cfg_.cycle);
      job.id = static_cast<std::uint32_t>(spec.id);
      job.nodes = spec.nodes;
      job.home_shard = static_cast<std::int32_t>(job.id) % cfg_.shards;
      job.base_runtime = ideal_runtime(spec);
      arrivals_[static_cast<std::size_t>(job.home_shard)].push_back(job);
    }
    // Per-shard arrival streams in (arrival, id) order for the chained
    // arrival events.
    for (auto& stream : arrivals_) {
      std::sort(stream.begin(), stream.end(),
                [](const QueuedJob& a, const QueuedJob& b) {
                  if (a.arrival != b.arrival) return a.arrival < b.arrival;
                  return a.id < b.id;
                });
    }
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
    arrivals_.resize(static_cast<std::size_t>(cfg_.shards));
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
        ShardSched& home = shards_[static_cast<std::size_t>(job.home_shard)];
        if (task.deps.empty()) {
          arrivals_[static_cast<std::size_t>(job.home_shard)].push_back(job);
        } else {
          home.wf_waiting.emplace(job.id, static_cast<int>(task.deps.size()));
          home.wf_held.emplace(job.id, job);
        }
      }
    }
    total_jobs_ = static_cast<std::size_t>(next_id - 1);
    for (auto& stream : arrivals_) {
      std::sort(stream.begin(), stream.end(),
                [](const QueuedJob& a, const QueuedJob& b) {
                  if (a.arrival != b.arrival) return a.arrival < b.arrival;
                  return a.id < b.id;
                });
    }
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

  void schedule_next_arrival(int s) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    const auto& stream = arrivals_[static_cast<std::size_t>(s)];
    if (sh.next_arrival >= stream.size()) return;
    const SimTime at = stream[sh.next_arrival].arrival;
    drv_.local(s, at, [this, s, at] { on_arrival_batch(s, at); });
  }

  void on_arrival_batch(int s, SimTime at) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    const auto& stream = arrivals_[static_cast<std::size_t>(s)];
    while (sh.next_arrival < stream.size() &&
           stream[sh.next_arrival].arrival == at) {
      const QueuedJob& job = stream[sh.next_arrival++];
      sh.queue.emplace(std::make_pair(job.arrival, job.id), job);
    }
    schedule_next_arrival(s);
    request_pass(s, at);
  }

  void schedule_next_failure(int s) {
    const auto& stream = failures_[static_cast<std::size_t>(s)];
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    if (sh.next_failure >= stream.size()) return;
    const SimTime at = stream[sh.next_failure].first;
    drv_.local(s, at, [this, s, at] { on_failure_batch(s, at); });
  }

  void on_failure_batch(int s, SimTime at) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    const auto& stream = failures_[static_cast<std::size_t>(s)];
    while (sh.next_failure < stream.size() &&
           stream[sh.next_failure].first == at) {
      sh.pending_failures.insert(stream[sh.next_failure++].second);
    }
    schedule_next_failure(s);
    request_pass(s, at);
  }

  void request_pass(int s, SimTime grid_now) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    if (sh.pass_pending) return;
    sh.pass_pending = true;
    const SimTime at = grid_now + 1;
    drv_.local(s, at, [this, s, at] { do_pass(s, at); });
  }

  void do_pass(int s, SimTime t) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    sh.pass_pending = false;
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
      QueuedJob job = head->second;
      if (job.nodes <= free_capacity(sh)) {
        sh.queue.erase(head);
        dispatch(s, t, job);
        continue;
      }
      // Strict FCFS locally, but a blocked head may migrate to the shard
      // with the best (gossip-known) free capacity.
      const int target = pick_target(s, job.nodes);
      if (job.forwards >= cfg_.max_forwards || target < 0) break;
      sh.queue.erase(head);
      forward(s, target, t, job);
    }
    const int free_now = free_capacity(sh);
    if (free_now != sh.advertised_free) {
      sh.advertised_free = free_now;
      broadcast_free(s, t, free_now);
    }
  }

  /// Schedulable capacity of a shard, in the workload's units: nodes when
  /// exclusive, slots when shared.
  int free_capacity(const ShardSched& sh) const {
    return cfg_.share.enabled ? sh.alloc->free_slots()
                              : sh.alloc->free_count();
  }

  void release_capacity(ShardSched& sh, const std::vector<int>& alloc) {
    if (cfg_.share.enabled) {
      sh.alloc->release_slots(alloc);
    } else {
      sh.alloc->release(alloc);
    }
  }

  int pick_target(int s, int need) const {
    const ShardSched& sh = shards_[static_cast<std::size_t>(s)];
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

  void dispatch(int s, SimTime t, const QueuedJob& job) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    auto nodes = cfg_.share.enabled ? sh.alloc->allocate_slots(job.nodes)
                                    : sh.alloc->allocate(job.nodes);
    // free capacity >= request was checked; the allocator gathers fragments.
    if (!nodes) {
      throw std::logic_error("ScaleSim: allocation unexpectedly failed");
    }
    // The job runs at the speed of its unluckiest node (noise resonance):
    // stretch the ideal runtime by the worst per-(job, node) draw.  (In
    // shared mode the slot list repeats node ids; max over repeats is free.)
    double worst = 0.0;
    for (const int local : *nodes) {
      worst = std::max(
          worst, node_noise_u01(cfg_.seed, job.id, sh.base_node + local));
    }
    double stretch = 1.0 + cfg_.node_noise * worst;
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
    const SimTime finish = align_up(t + runtime, cfg_.cycle);
    drv_.local(s, finish,
               [this, s, finish, job, start = t, alloc = std::move(*nodes)] {
                 on_finish(s, finish, job, start, alloc);
               });
  }

  void on_finish(int s, SimTime t, const QueuedJob& job, SimTime start,
                 const std::vector<int>& nodes) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    release_capacity(sh, nodes);
    sh.busy_node_ns +=
        static_cast<SimDuration>(nodes.size()) * (t - start);
    ScaleJobOutcome outcome;
    outcome.arrival = job.arrival;
    outcome.start = start;
    outcome.finish = t;
    outcome.home_shard = job.home_shard;
    outcome.ran_shard = s;
    outcome.forwards = job.forwards;
    sh.done.emplace_back(job.id, outcome);
    notify_dependents(s, t, t, job.id);
    request_pass(s, t);
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
    const SimTime when = align_up(std::max(stamp, t) + xlat_, cfg_.cycle);
    for (const std::uint32_t dep : it->second) {
      const int dst = static_cast<int>(dep) % cfg_.shards;
      drv_.remote(s, dst, when,
                  [this, dst, when, dep] { on_dep_release(dst, when, dep); });
    }
  }

  void on_dep_release(int s, SimTime t, std::uint32_t job_id) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
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
    sh.queue.emplace(std::make_pair(job.arrival, job.id), job);
    request_pass(s, t);
  }

  void forward(int src, int dst, SimTime t, QueuedJob job) {
    ShardSched& sh = shards_[static_cast<std::size_t>(src)];
    ++sh.forwards;
    // Debit our estimate so one pass does not herd every blocked job at the
    // same target; the next gossip from `dst` restores the truth.
    sh.known_free[static_cast<std::size_t>(dst)] -= job.nodes;
    ++job.forwards;
    const SimTime when = align_up(t + xlat_, cfg_.cycle);
    drv_.remote(src, dst, when,
                [this, dst, when, job] { on_transfer(dst, when, job); });
  }

  void on_transfer(int s, SimTime t, const QueuedJob& job) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
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
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    ++sh.gossip_received;
    sh.known_free[static_cast<std::size_t>(from)] = free;
    // A blocked queue may now have somewhere to go.
    if (!sh.queue.empty()) request_pass(s, t);
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
      shards_[static_cast<std::size_t>(s)].pending_events.emplace(job_id, seg,
                                                                  kind);
      request_pass(s, when);
    });
  }

  void send_io(int s, SimTime t, std::uint32_t job_id, IoRequest req) {
    const SimTime when = align_up(t + xlat_, cfg_.cycle);
    drv_.remote(s, kIoShard, when, [this, job_id, req, when] {
      pending_io_.emplace(std::make_pair(job_id, req.seg), req);
      request_pass(kIoShard, when);
    });
  }

  /// Graceful degradation: a slot slipping far past the asked-for time
  /// means the PFS is saturated — back off the interval instead of letting
  /// every checkpoint stall the schedule.
  void maybe_stretch(ShardSched& sh, RunningJob& rj, SimDuration slip) {
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
        IoRequest req;
        req.kind = kIoReserve;
        req.seg = rj.seg;
        req.src_shard = s;
        req.bytes = bytes_for(rj);
        req.earliest = grid + rj.interval;
        send_io(s, t, rj.job.id, req);
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

  /// The job is done: release its nodes and record the outcome, exactly as
  /// the legacy on_finish does, plus the waste bookkeeping.  `t` is the
  /// pass time, needed to schedule dependency releases in the future.
  void complete_job(int s, SimTime stamp, SimTime t, std::uint32_t job_id) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
    auto it = sh.running.find(job_id);
    RunningJob& rj = it->second;
    release_capacity(sh, rj.alloc);
    for (const int local : rj.alloc) {
      auto occ = sh.node_occupants.find(local);
      if (occ == sh.node_occupants.end()) continue;  // repeated slot entry
      occ->second.erase(job_id);
      if (occ->second.empty()) sh.node_occupants.erase(occ);
    }
    const SimDuration span = stamp > rj.start ? stamp - rj.start : 0;
    const auto width = static_cast<SimDuration>(rj.alloc.size());
    sh.busy_node_ns += width * span;
    sh.span_node_ns += width * span;
    sh.ideal_node_ns += width * std::min(rj.work_total, span);
    ScaleJobOutcome outcome;
    outcome.arrival = rj.job.arrival;
    outcome.start = rj.start;
    outcome.finish = stamp;
    outcome.home_shard = rj.job.home_shard;
    outcome.ran_shard = s;
    outcome.forwards = rj.job.forwards;
    sh.done.emplace_back(job_id, outcome);
    const std::uint32_t id = rj.job.id;
    sh.running.erase(it);
    notify_dependents(s, stamp, t, id);
    // The pass's dispatch loop runs right after this and sees the freed
    // nodes; no extra pass request is needed.
  }

  void process_failures(int s, SimTime t) {
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
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
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
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
    ShardSched& sh = shards_[static_cast<std::size_t>(s)];
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
          IoRequest req;
          req.kind = kIoWrite;
          req.seg = rj.seg;
          req.src_shard = s;
          req.bytes = bytes_for(rj);
          send_io(s, t, job_id, req);
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
            IoRequest req;
            req.kind = kIoRead;
            req.seg = rj.seg;
            req.src_shard = s;
            req.bytes = bytes_for(rj);
            send_io(s, t, job_id, req);
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
      const SimTime when = align_up(std::max(base, t) + xlat_, cfg_.cycle);
      IoReply rep;
      rep.kind = req.kind;
      rep.seg = req.seg;
      rep.slot_start = grant.start;
      rep.slot_end = grant.end;
      const int dst = req.src_shard;
      drv_.remote(kIoShard, dst, when, [this, dst, job_id, rep, when] {
        shards_[static_cast<std::size_t>(dst)].pending_replies.emplace(
            std::make_pair(job_id, rep.seg), rep);
        request_pass(dst, when);
      });
    }
  }

  ScaleConfig cfg_;
  Driver& drv_;
  cluster::ShardPartition partition_;
  SimDuration xlat_;  // cross-shard latency == conservative lookahead
  std::size_t total_jobs_ = 0;
  std::vector<std::vector<QueuedJob>> arrivals_;  // per home shard, sorted
  std::vector<ShardSched> shards_;

  // --- checkpoint/fault state ------------------------------------------------
  /// The shard that owns the PFS model: all PfsModel mutation happens inside
  /// its pass, so the busy horizons advance in one deterministic order.
  static constexpr int kIoShard = 0;
  /// True when either checkpointing or a fault campaign is on: jobs then run
  /// as segments driven by the event handlers above instead of one
  /// dispatch->finish timer (the legacy path, kept bit-identical when off).
  bool use_segments_ = false;
  /// 1 unless shared-node mode is on (then cfg_.share.slots_per_node).
  int slots_per_node_ = 1;
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
  std::vector<bool> seen(total_jobs_, false);
  SimTime first_arrival = kNoPromise;
  SimTime last_finish = 0;
  SimDuration busy_total = 0;
  SimDuration span_total = 0;
  SimDuration ideal_total = 0;
  SimDuration interval_sum = 0;
  std::uint64_t interval_jobs = 0;
  SimDuration dep_stall_total = 0;
  std::uint64_t released_total = 0;
  for (const ShardSched& sh : shards_) {
    result.forwards += sh.forwards;
    result.gossip_messages += sh.gossip_received;
    busy_total += sh.busy_node_ns;
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
    for (const auto& [id, outcome] : sh.done) {
      const std::size_t ix = static_cast<std::size_t>(id) - 1;  // 1-based ids
      if (ix >= total_jobs_ || seen[ix]) {
        throw std::logic_error("ScaleSim: duplicate or out-of-range job id");
      }
      seen[ix] = true;
      result.jobs[ix] = outcome;
      first_arrival = std::min(first_arrival, outcome.arrival);
      last_finish = std::max(last_finish, outcome.finish);
    }
  }
  for (std::size_t i = 0; i < total_jobs_; ++i) {
    if (!seen[i]) {
      throw std::logic_error("ScaleSim: job " + std::to_string(i + 1) +
                             " never finished (scenario did not drain)");
    }
  }
  result.makespan =
      total_jobs_ == 0 ? 0 : last_finish - first_arrival;
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
  if (result.makespan > 0) {
    // Capacity is slot-time: nodes x slots_per_node (slots == nodes when
    // exclusive), matching the slot-granular busy accounting.
    result.utilization =
        static_cast<double>(busy_total) /
        (static_cast<double>(partition_.num_nodes()) *
         static_cast<double>(slots_per_node_) *
         static_cast<double>(result.makespan));
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
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto fold = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScaleJobOutcome& job = jobs[i];
    fold(i);
    fold(job.arrival);
    fold(job.start);
    fold(job.finish);
    fold(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(job.home_shard)));
    fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(job.ran_shard)));
    fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(job.forwards)));
  }
  return h;
}

SimDuration scale_lookahead(const ScaleConfig& config) {
  return cluster::ShardPartition(effective_fabric(config), config.shards)
      .lookahead();
}

ScaleResult run_scale_serial(const ScaleConfig& config) {
  SerialDriver driver;
  ScaleSim sim(config, driver);
  sim.seed_events();
  driver.engine.run();
  ScaleResult result = sim.collect();
  result.events = driver.engine.dispatched();
  result.rounds = 0;
  return result;
}

ScaleResult run_scale_sharded(const ScaleConfig& config, int threads) {
  ShardedDriver driver(config.shards, scale_lookahead(config));
  ScaleSim sim(config, driver);
  sim.seed_events();
  driver.engine.run(threads);
  ScaleResult result = sim.collect();
  result.events = driver.engine.stats().dispatched;
  result.rounds = driver.engine.stats().rounds;
  result.inline_rounds = driver.engine.stats().inline_rounds;
  return result;
}

}  // namespace hpcs::batch
