// The simulated interconnect: a switch-tier topology graph with a
// LogGP-style point-to-point cost model and per-link FIFO contention.
//
// The paper's cluster-scale argument is that OS noise is amplified by global
// synchronisation *over a network*; a constant per-hop latency cannot show
// that, because neither congestion nor locality can feed back into job
// runtime.  The Fabric models the three levels a message crosses in a real
// machine — intra-node shared memory, the node's NIC into a leaf switch, and
// the leaf's uplink into a spine — as directed links, each with a latency
// (L), a serialisation cost per byte (1/bandwidth, the G of LogGP), and a
// busy-until horizon: messages that hit a busy link queue behind it FIFO, so
// congestion *emerges* from traffic instead of being a parameter.  The o
// (CPU overhead) term is charged to the sending/receiving rank's task by the
// MPI layer, which is what couples scheduling noise to message timing.
//
// Calls are made from inside engine events with a monotonic clock, so link
// state evolves deterministically and whole runs stay bit-reproducible
// (Mohammed et al. make the case that realistic HPC simulation needs exactly
// this kind of calibrated network-cost model).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/time.h"

namespace hpcs::net {

/// Per-link cost parameters: one-way traversal latency plus serialisation
/// time per byte (the reciprocal bandwidth; 0.001 ns/byte = 1 TB/s).
struct LinkParams {
  SimDuration latency = 0;
  double ns_per_byte = 0.0;
};

struct FabricConfig {
  int nodes = 1;
  /// Leaf-switch radix: nodes [k*r, (k+1)*r) share leaf switch k.  Matches
  /// the batch allocator's chassis block, so contiguous allocations stay
  /// under one leaf and scattered ones cross the spine.
  int nodes_per_switch = 4;
  /// Intra-node transport (shared memory): ~20 GB/s, sub-microsecond.
  LinkParams local{200 * kNanosecond, 0.00005};
  /// Node <-> leaf switch (the NIC): ~10 Gb/s.
  LinkParams nic{1 * kMicrosecond, 0.0008};
  /// Leaf <-> spine uplink, 2:1 oversubscribed relative to the NICs.
  LinkParams uplink{2 * kMicrosecond, 0.0016};
  /// CPU overhead (the o of LogGP) charged to the sender / receiver task per
  /// message by the MPI layer.  This is on purpose *task* time, not link
  /// time: a preempted rank cannot inject its message.
  SimDuration send_overhead = 500 * kNanosecond;
  SimDuration recv_overhead = 500 * kNanosecond;
  /// Reroute penalty while a block's uplink is failed: traffic crawls over a
  /// shared maintenance path with this much less bandwidth and extra hop
  /// latency (see Fabric::fail_uplink).
  double backup_bw_penalty = 4.0;
  SimDuration backup_extra_latency = 20 * kMicrosecond;
  /// Range of the message-latency histogram (overflow is still counted).
  SimDuration hist_max = 2 * kMillisecond;
  /// Constant-latency mode: when set, every cross-node message arrives
  /// exactly this much later (intra-node instantly), links never saturate,
  /// and overheads are zero — bit-for-bit the pre-fabric network model.
  std::optional<SimDuration> uniform_latency;

  /// The pre-fabric network: one flat switch, fixed one-way latency, no
  /// contention (what a ClusterConfig without a fabric gets, at 10 us).
  static FabricConfig uniform(int nodes, SimDuration remote_latency);

  int blocks() const {
    return (nodes + nodes_per_switch - 1) / nodes_per_switch;
  }
  int block_of(int node) const { return node / nodes_per_switch; }

  /// Lower bound on the delivery delay of any message between nodes under
  /// *different* leaf switches: the pure link latencies of the
  /// NIC-up/uplink/downlink/NIC-down route (serialisation, queueing, and
  /// fault penalties only ever add).  This is the conservative-parallel
  /// lookahead for shard partitions aligned to leaf blocks
  /// (sim::ShardedEngine): no cross-shard interaction can propagate faster.
  /// In uniform_latency mode the constant one-way latency is the bound.
  SimDuration min_cross_block_latency() const;

  /// Lower bound on any cross-node (same- or cross-leaf) delivery delay:
  /// the NIC-up + NIC-down latencies, or the uniform latency.
  SimDuration min_remote_latency() const;
};

enum class LinkKind : std::uint8_t {
  kLocal,     // intra-node shared memory
  kNicUp,     // node -> leaf switch
  kNicDown,   // leaf switch -> node
  kUplink,    // leaf -> spine
  kDownlink,  // spine -> leaf
};

const char* link_kind_name(LinkKind kind);

/// One directed link and its lifetime accounting.  busy_until is the FIFO
/// horizon: a message departing earlier queues until the link frees.
struct Link {
  std::string name;
  LinkKind kind = LinkKind::kLocal;
  int index = 0;  // node id (local/nic) or block id (uplink/downlink)
  LinkParams params;
  SimTime busy_until = 0;
  // Fault state (degradation multiplies ns_per_byte; failed uplinks reroute
  // over the backup path's penalty parameters).
  double degrade_factor = 1.0;
  SimDuration extra_latency = 0;
  bool failed = false;
  // Accounting.
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  SimDuration busy_ns = 0;    // serialisation time the link was occupied
  SimDuration queued_ns = 0;  // time messages waited for the link
};

/// Whole-fabric accounting.
struct FabricStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  SimDuration total_latency = 0;  // sum of per-message delivery times
  SimDuration max_latency = 0;
};

class Fabric {
 public:
  explicit Fabric(FabricConfig config);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const FabricConfig& config() const { return config_; }

  /// Inject a `bytes`-byte message from `src` to `dst` (node ids) at time
  /// `now`; returns the arrival time at `dst`.  Each link on the route
  /// serialises the payload after the link frees (FIFO), so concurrent
  /// messages on a shared link queue behind each other.  `now` must be
  /// monotonically non-decreasing across calls (engine-event time).
  SimTime deliver(int src, int dst, std::uint64_t bytes, SimTime now);

  // --- fault injection -------------------------------------------------------
  /// Degrade both directions of `node`'s NIC: serialisation cost multiplies
  /// by `factor`, every traversal pays `extra` more latency.
  void degrade_nic(int node, double factor, SimDuration extra = 0);
  void restore_nic(int node);
  /// Fail block `block`'s uplink: spine traffic reroutes over the backup
  /// path (config.backup_bw_penalty / backup_extra_latency) until repaired.
  void fail_uplink(int block);
  void repair_uplink(int block);
  bool uplink_failed(int block) const;

  // --- accounting ------------------------------------------------------------
  const FabricStats& stats() const { return stats_; }
  /// Delivery-time distribution (ns), fixed bins over [0, hist_max).
  const util::Histogram& latency_histogram() const { return latency_hist_; }
  std::size_t num_links() const { return links_.size(); }
  const Link& link(std::size_t i) const { return links_.at(i); }
  /// Fraction of [0, now] the link spent serialising (its utilisation).
  double link_utilization(std::size_t i, SimTime now) const;

  std::string describe() const;

 private:
  std::size_t local_ix(int node) const;
  std::size_t nic_up_ix(int node) const;
  std::size_t nic_down_ix(int node) const;
  std::size_t uplink_ix(int block) const;
  std::size_t downlink_ix(int block) const;
  void check_node(int node) const;
  void check_block(int block) const;
  /// Occupy `link` from `depart`; returns the time the tail of the message
  /// clears the far end of the link.
  SimTime traverse(Link& link, std::uint64_t bytes, SimTime depart);

  FabricConfig config_;
  std::vector<Link> links_;
  FabricStats stats_;
  util::Histogram latency_hist_;
};

}  // namespace hpcs::net
