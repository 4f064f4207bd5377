// The federated scheduling core under batch/scale.cpp and batch/replay.cpp
// (internal to those two files): one cluster split into leaf-aligned
// shards (cluster::ShardPartition), each scheduling its own NodeAllocator.
// Determinism contract: every mutation (arrival, transfer, finish, gossip)
// lands on a multiple of the scheduler cycle and commutes — queue inserts
// keyed by the globally-unique (arrival, id), allocator releases,
// per-source gossip slots — and decisions run in one coalesced pass per
// shard at grid + 1, after every same-instant mutation.  Shards hear of
// each other only through grid-aligned messages at least the partition's
// lookahead apart, so serial and sharded runs are bit-identical.
//
// Free-capacity gossip is coalesced: each shard keeps one inbox ordered by
// landing instant, and one landing event per (shard, instant) applies every
// value landing then and requests at most one pass.  A serial run posts a
// broadcast at once; a sharded one at the next barrier, through the
// engine's post-exchange hook, so both runs dispatch the same events.
//
// The policy is the CRTP `Sim`: it supplies pass(s, t) and collect().
// `Job` is its queue record (arrival, id, nodes, home_shard, forwards),
// `Outcome` its per-job result (arrival, finish), `ShardExt` its own
// per-shard state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "batch/allocator.h"
#include "batch/job.h"
#include "cluster/partition.h"
#include "sim/engine.h"
#include "sim/sharded.h"
#include "util/rng.h"
#include "util/time.h"

namespace hpcs::batch::federated {

inline SimTime align_up(SimTime t, SimDuration q) { return (t + q - 1) / q * q; }

/// FNV-1a over 64-bit words, byte by byte, from `h` (start at kFnvBasis):
/// folded over every outcome tuple, one word pins a whole schedule.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv1a(std::uint64_t h,
                           std::initializer_list<std::uint64_t> words) {
  for (const std::uint64_t v : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// A config's shard partition, over its fabric sized to its cluster.
template <class Config>
cluster::ShardPartition partition(const Config& config) {
  net::FabricConfig fabric = config.fabric;
  fabric.nodes = config.nodes;
  return cluster::ShardPartition(fabric, config.shards);
}

/// Where handlers schedule events: the only difference between the serial
/// reference and the sharded run, where cross-shard events are messages.
class Driver {
 public:
  explicit Driver(sim::Engine& engine) : serial_(&engine) {}
  explicit Driver(sim::ShardedEngine& engine) : sharded_(&engine) {}
  void local(int shard, SimTime when, std::function<void()> fn) {
    (serial_ != nullptr ? *serial_ : sharded_->shard(shard))
        .schedule_at(when, std::move(fn));
  }
  void remote(int src, int dst, SimTime when, std::function<void()> fn) {
    if (serial_ != nullptr) {
      serial_->schedule_at(when, std::move(fn));
    } else {
      sharded_->send(src, dst, when, std::move(fn));
    }
  }
  bool serial() const { return serial_ != nullptr; }
  /// Sharded runs: run `fn` at every barrier (nullptr clears it).
  void at_barrier(std::function<void()> fn) {
    if (sharded_ != nullptr) sharded_->set_post_exchange(std::move(fn));
  }

 private:
  sim::Engine* serial_ = nullptr;
  sim::ShardedEngine* sharded_ = nullptr;
};

template <class Sim, class Job, class Outcome, class ShardExt>
class FederatedCore {
 public:
  void seed_events() {
    for (int s = 0; s < shard_count(); ++s) schedule_next_arrival(s);
  }

  FederatedCore(const FederatedCore&) = delete;
  FederatedCore& operator=(const FederatedCore&) = delete;
  ~FederatedCore() { drv_.at_barrier(nullptr); }

 protected:
  using Queue = std::map<std::pair<SimTime, std::uint32_t>, Job>;
  /// One free-capacity value on its way to a shard.
  struct Gossip {
    SimTime when;  // landing instant
    int from;
    int free;
  };
  struct Shard : ShardExt {
    int base_node = 0;
    std::unique_ptr<NodeAllocator> alloc;  // shard-local node ids
    Queue queue;                  // by the globally-unique (arrival, id)
    std::vector<int> known_free;  // last gossiped free slots per shard
    int advertised_free = -1;     // what we last broadcast
    // By landing instant, in post order within one; drained from the front.
    std::vector<Gossip> gossip_in;
    // Sharded runs: this window's broadcasts (landing, free), published at
    // the next barrier.
    std::vector<std::pair<SimTime, int>> gossip_out;
    bool pass_pending = false;
    std::size_t next_arrival = 0;  // cursor into arrivals_[shard]
    // Results, merged after the run.
    std::vector<std::pair<std::uint32_t, Outcome>> done;
    std::uint64_t forwards = 0;
    std::uint64_t gossip_received = 0;
    SimDuration busy_node_ns = 0;
  };

  /// `name` prefixes error messages ("Scale" -> "ScaleConfig: ...").  All
  /// capacity bookkeeping (gossip, forwarding) is in slots, which are
  /// nodes when slots_per_node == 1.
  template <class Config>
  FederatedCore(Driver& driver, const Config& config, const char* name,
                int slots_per_node)
      : drv_(driver),
        partition_(partition(config)),
        xlat_(partition_.lookahead()),
        slots_per_node_(slots_per_node),
        name_(name),
        cycle_(config.cycle),
        max_forwards_(config.max_forwards),
        seed_(config.seed) {
    if (config.cycle < 2) {
      throw std::invalid_argument(
          name_ + "Config: cycle must be >= 2ns (decisions run at cycle+1)");
    }
    if (config.node_noise < 0.0) {
      throw std::invalid_argument(name_ + "Config: node_noise must be >= 0");
    }
    shards_.resize(static_cast<std::size_t>(config.shards));
    arrivals_.resize(shards_.size());
    for (int s = 0; s < config.shards; ++s) {
      Shard& sh = shard(s);
      sh.base_node = partition_.first_node(s);
      sh.alloc = std::make_unique<NodeAllocator>(
          partition_.node_count(s), config.allocator_block,
          AllocPolicy::kBestFit, slots_per_node);
      for (int k = 0; k < config.shards; ++k) {
        sh.known_free.push_back(partition_.node_count(k) * slots_per_node);
      }
      sh.advertised_free = sh.known_free[static_cast<std::size_t>(s)];
    }
    drv_.at_barrier([this] { publish_window(); });
  }

  Shard& shard(int s) { return shards_[static_cast<std::size_t>(s)]; }
  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// The grid instant a message sent at `t` reaches another shard.
  SimTime landing(SimTime t) const { return align_up(t + xlat_, cycle_); }

  static void enqueue(Shard& sh, const Job& job) {
    sh.queue.emplace(std::make_pair(job.arrival, job.id), job);
  }

  /// Append a job to its home shard's arrival stream; sort_arrivals() puts
  /// each stream in (arrival, id) order once every job is in.
  void add_arrival(const Job& job) {
    arrivals_[static_cast<std::size_t>(job.home_shard)].push_back(job);
  }
  void sort_arrivals() {
    for (auto& stream : arrivals_) {
      std::sort(stream.begin(), stream.end(), [](const Job& a, const Job& b) {
        if (a.arrival != b.arrival) return a.arrival < b.arrival;
        return a.id < b.id;
      });
    }
  }

  /// One event per distinct arrival instant, each chaining the next.
  void schedule_next_arrival(int s) {
    const Shard& sh = shard(s);
    const auto& stream = arrivals_[static_cast<std::size_t>(s)];
    if (sh.next_arrival >= stream.size()) return;
    const SimTime at = stream[sh.next_arrival].arrival;
    drv_.local(s, at, [this, s, at] { on_arrival_batch(s, at); });
  }

  void request_pass(int s, SimTime grid_now) {
    Shard& sh = shard(s);
    if (sh.pass_pending) return;
    sh.pass_pending = true;
    const SimTime at = grid_now + 1;
    drv_.local(s, at, [this, s, at] { run_pass(s, at); });
  }

  /// The worst per-(job, node) noise draw in [0, 1) over an allocation: a
  /// job runs at its unluckiest node's speed.  A stateless hash, identical
  /// however the run is partitioned.
  double worst_noise(const Shard& sh, std::uint32_t job_id,
                     const std::vector<int>& nodes) const {
    double worst = 0.0;
    for (const int local : nodes) {
      util::SplitMix64 h(
          seed_ ^ (static_cast<std::uint64_t>(job_id) + 1) *
                      0x9e3779b97f4a7c15ULL ^
          (static_cast<std::uint64_t>(sh.base_node + local) + 1) *
              0xbf58476d1ce4e5b9ULL);
      worst = std::max(worst, static_cast<double>(h.next() >> 11) * 0x1.0p-53);
    }
    return worst;
  }

  /// A blocked queued job may migrate to the shard with the most
  /// gossip-known free capacity, at most max_forwards times.  True when it
  /// left the queue.
  bool try_forward(int s, SimTime t, typename Queue::iterator it) {
    const int target = pick_target(s, it->second.nodes);
    if (it->second.forwards >= max_forwards_ || target < 0) return false;
    Job job = std::move(it->second);
    Shard& sh = shard(s);
    sh.queue.erase(it);
    ++sh.forwards;
    // Debit our estimate so one pass does not herd every blocked job at the
    // same target; the next gossip from `target` restores the truth.
    sh.known_free[static_cast<std::size_t>(target)] -= job.nodes;
    ++job.forwards;
    const SimTime when = landing(t);
    drv_.remote(s, target, when,
                [this, target, when, job] { on_transfer(target, when, job); });
    return true;
  }

  /// Merge every shard's outcomes and totals into `result`, whose jobs are
  /// indexed by id - 1 (`seen` marks those the policy filled itself).
  /// Throws when a shard kept queued jobs or a job is missing or repeated.
  template <class Result>
  void merge(Result& result, std::vector<bool> seen) const {
    const auto fail = [this](const std::string& what) {
      throw std::logic_error(name_ + "Sim: " + what);
    };
    SimTime first_arrival = kNoPromise;
    SimTime last_finish = 0;
    SimDuration busy_total = 0;
    for (const Shard& sh : shards_) {
      if (!sh.queue.empty()) fail("shard did not drain");
      result.forwards += sh.forwards;
      result.gossip_messages += sh.gossip_received;
      busy_total += sh.busy_node_ns;
      for (const auto& [id, outcome] : sh.done) {
        const std::size_t ix = static_cast<std::size_t>(id) - 1;  // 1-based
        if (ix >= seen.size() || seen[ix]) fail("duplicate or bad job id");
        seen[ix] = true;
        result.jobs[ix] = outcome;
        first_arrival = std::min(first_arrival, outcome.arrival);
        last_finish = std::max(last_finish, outcome.finish);
      }
    }
    const auto missing = std::find(seen.begin(), seen.end(), false);
    if (missing != seen.end()) {
      fail("job " + std::to_string(missing - seen.begin() + 1) +
           " never finished (run did not drain)");
    }
    if (first_arrival != kNoPromise && last_finish > first_arrival) {
      result.makespan = last_finish - first_arrival;
      // Busy slot-time over slot capacity.
      result.utilization =
          static_cast<double>(busy_total) /
          (static_cast<double>(partition_.num_nodes()) *
           static_cast<double>(slots_per_node_) *
           static_cast<double>(result.makespan));
    }
  }

  Driver& drv_;
  cluster::ShardPartition partition_;
  SimDuration xlat_;  // cross-shard latency == conservative lookahead
  int slots_per_node_;
  std::size_t total_jobs_ = 0;
  std::vector<Shard> shards_;

 private:
  /// The policy's decisions, then a gossip broadcast when the shard's free
  /// capacity changed.
  void run_pass(int s, SimTime t) {
    Shard& sh = shard(s);
    sh.pass_pending = false;
    static_cast<Sim*>(this)->pass(s, t);
    const int free_now = sh.alloc->free_slots();
    if (free_now == sh.advertised_free) return;
    sh.advertised_free = free_now;
    // Other shards' inboxes belong to other threads until the barrier.
    if (drv_.serial()) {
      publish(s, landing(t), free_now);
    } else {
      sh.gossip_out.emplace_back(landing(t), free_now);
    }
  }

  /// The barrier's half of a sharded broadcast: every shard's posts of the
  /// window, in shard order and each in post order.
  void publish_window() {
    for (int s = 0; s < shard_count(); ++s) {
      Shard& sh = shard(s);
      for (const auto& [when, free] : sh.gossip_out) publish(s, when, free);
      sh.gossip_out.clear();
    }
  }

  /// Post `free` from `from` to every other shard for instant `when`, with
  /// a landing event where the inbox holds no post for it yet.  A barrier
  /// can publish out of landing order, when its window spans several pass
  /// instants, so a post goes in after every post for `when` or earlier.
  void publish(int from, SimTime when, int free) {
    for (int k = 0; k < shard_count(); ++k) {
      if (k == from) continue;
      std::vector<Gossip>& inbox = shard(k).gossip_in;
      const auto at = std::upper_bound(
          inbox.begin(), inbox.end(), when,
          [](SimTime w, const Gossip& g) { return w < g.when; });
      const bool fresh = at == inbox.begin() || (at - 1)->when != when;
      inbox.insert(at, Gossip{when, from, free});
      if (fresh) drv_.local(k, when, [this, k] { on_gossip(k); });
    }
  }

  void on_arrival_batch(int s, SimTime at) {
    Shard& sh = shard(s);
    const auto& stream = arrivals_[static_cast<std::size_t>(s)];
    while (sh.next_arrival < stream.size() &&
           stream[sh.next_arrival].arrival == at) {
      enqueue(sh, stream[sh.next_arrival++]);
    }
    schedule_next_arrival(s);
    request_pass(s, at);
  }

  int pick_target(int s, int need) const {
    const Shard& sh = shards_[static_cast<std::size_t>(s)];
    int best = -1;
    int best_free = 0;
    for (int k = 0; k < shard_count(); ++k) {
      if (k == s) continue;
      const int free = sh.known_free[static_cast<std::size_t>(k)];
      if (free >= need && free > best_free) {
        best = k;
        best_free = free;
      }
    }
    return best;
  }

  void on_transfer(int s, SimTime t, const Job& job) {
    enqueue(shard(s), job);
    request_pass(s, t);
  }

  /// The landing event of the inbox's front instant: every value landing
  /// then, in post order.  A source posts at most once per landing instant
  /// (its passes are a cycle apart), so the values commute.
  void on_gossip(int s) {
    Shard& sh = shard(s);
    std::vector<Gossip>& inbox = sh.gossip_in;
    const SimTime t = inbox.front().when;
    auto it = inbox.begin();
    for (; it != inbox.end() && it->when == t; ++it) {
      sh.known_free[static_cast<std::size_t>(it->from)] = it->free;
    }
    inbox.erase(inbox.begin(), it);
    ++sh.gossip_received;
    // A blocked queue may now have somewhere to go.
    if (!sh.queue.empty()) request_pass(s, t);
  }

  std::string name_;
  SimDuration cycle_;
  int max_forwards_;
  std::uint64_t seed_;
  std::vector<std::vector<Job>> arrivals_;  // per home shard, sorted
};

/// Run `Sim` on the serial reference engine, or on a sim::ShardedEngine
/// with `threads` workers (0 picks hardware concurrency).
template <class Sim, class... Inputs>
auto run_serial(const Inputs&... inputs) {
  sim::Engine engine;
  Driver driver(engine);
  Sim sim(driver, inputs...);
  sim.seed_events();
  engine.run();
  auto result = sim.collect();
  result.events = engine.dispatched();
  return result;
}

template <class Sim, class Config, class... Inputs>
auto run_sharded(int threads, const Config& config, const Inputs&... inputs) {
  sim::ShardedEngine engine(config.shards, partition(config).lookahead());
  Driver driver(engine);
  Sim sim(driver, config, inputs...);
  sim.seed_events();
  engine.run(threads);
  auto result = sim.collect();
  result.events = engine.stats().dispatched;
  result.rounds = engine.stats().rounds;
  result.inline_rounds = engine.stats().inline_rounds;
  return result;
}

}  // namespace hpcs::batch::federated
