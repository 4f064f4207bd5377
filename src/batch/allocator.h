// Topology-aware node allocation for the batch scheduler.
//
// Nodes are numbered 0..N-1 and grouped into fixed-size blocks (a chassis /
// leaf switch: nodes in one block are "close").  allocate() prefers the
// best-fit contiguous run — ties broken toward block-aligned starts — and
// falls back to gathering fragments only when no single run fits, mirroring
// how production allocators trade locality against utilisation.  Nodes lost
// to fault injection are marked offline and simply drop out of the pool;
// conservation (free + busy + offline == total) is checkable at any instant.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hpcs::batch {

enum class NodeState : std::uint8_t { kFree, kBusy, kOffline };

/// Placement policy.  kBestFit is the production default (contiguous runs,
/// block-aligned).  kScatter deliberately stripes an allocation across
/// blocks — the worst case for network locality — so experiments can
/// measure what leaf-switch locality is worth once links contend.
enum class AllocPolicy : std::uint8_t { kBestFit, kScatter };

const char* alloc_policy_name(AllocPolicy policy);

struct AllocatorStats {
  std::uint64_t allocations = 0;
  std::uint64_t releases = 0;
  std::uint64_t contiguous = 0;  // allocations served by one run
  std::uint64_t fragmented = 0;  // allocations gathered from several runs
};

class NodeAllocator {
 public:
  /// `block` is the chassis size used for alignment preference (clamped to
  /// [1, nodes]).  `slots_per_node` > 1 enables shared-node mode: a node
  /// holds that many job slots and allocate_slots() may pack several jobs
  /// onto one node.  At the default 1 every node is exclusive and the slot
  /// calls are the node calls, at the same cost.
  explicit NodeAllocator(int nodes, int block = 4,
                         AllocPolicy policy = AllocPolicy::kBestFit,
                         int slots_per_node = 1);

  /// Hand out `n` whole nodes (sorted ids), or nullopt when fewer than `n`
  /// are free.  Never returns offline nodes.  In shared-node mode this
  /// claims every slot of each picked node (an exclusive job).
  std::optional<std::vector<int>> allocate(int n);

  /// Shared-node mode: hand out `n` slots as a sorted node-id list, one
  /// entry per slot (a node granted k slots appears k times).  Packs
  /// partially-occupied nodes first (ascending id) so co-location is
  /// maximised and whole nodes stay available for exclusive jobs; any
  /// remainder claims whole free nodes through the placement policy.
  /// Returns nullopt when fewer than `n` schedulable slots exist.  With
  /// slots_per_node == 1 this is exactly allocate().
  std::optional<std::vector<int>> allocate_slots(int n);

  /// Return a slot allocation (the exact vector allocate_slots returned).
  /// A node's last released slot frees the node; slots on nodes that went
  /// offline under the job are dropped (the node stays out of the pool).
  void release_slots(const std::vector<int>& slots);

  /// Return an allocation.  Busy nodes become free; nodes marked offline
  /// while the job ran stay offline (they re-enter the pool via
  /// set_online).
  void release(const std::vector<int>& nodes);

  /// Take a node out of the pool (fault injection).  Works in any state:
  /// a busy node's job is the caller's problem (the scheduler aborts it);
  /// the node itself is gone immediately.  Returns the previous state.
  NodeState set_offline(int node);
  /// Repaired node rejoins the free pool.  No-op unless offline.
  void set_online(int node);

  NodeState state(int node) const;
  int total() const { return static_cast<int>(states_.size()); }
  int free_count() const { return free_; }
  int busy_count() const { return busy_; }
  int offline_count() const { return offline_; }
  int slots_per_node() const { return slots_per_node_; }
  /// Occupied slots on `node` (0 unless shared-node mode put jobs there).
  /// Offline nodes keep their occupant count until the jobs release — that
  /// is how a fault on a shared node knows every co-located victim.
  int busy_slots(int node) const;
  /// Schedulable slots across free and (partially) busy nodes; offline
  /// nodes contribute nothing regardless of their occupants.  With
  /// slots_per_node == 1 this is free_count(), at the same cost.
  int free_slots() const;
  /// True when the most recent allocate() was one contiguous run.
  bool last_allocation_contiguous() const { return last_contiguous_; }
  const AllocatorStats& stats() const { return stats_; }

  /// Audit the cached counts against a recount of the state array; throws
  /// std::logic_error on mismatch (used by the batch invariant tests).
  void check_conservation() const;

  std::string describe() const;

 private:
  struct Run {
    int start = 0;
    int length = 0;
  };
  std::vector<Run> free_runs() const;
  void check_node(int node) const;
  std::vector<int> pick_best_fit(int n, const std::vector<Run>& runs);
  std::vector<int> pick_scattered(int n);

  std::vector<NodeState> states_;
  std::vector<int> slot_busy_;  // occupied slots per node (shared mode)
  int block_;
  AllocPolicy policy_;
  int slots_per_node_;
  int free_ = 0;
  int busy_ = 0;
  int offline_ = 0;
  bool last_contiguous_ = false;
  AllocatorStats stats_;
};

}  // namespace hpcs::batch
