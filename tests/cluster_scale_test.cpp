// Golden serial-vs-sharded equivalence for the cluster-scale scenario, plus
// the shard partitioning underneath it.
//
// The checksums below pin the *entire schedule* (every job's arrival, start,
// finish, shard, and forward count folded through FNV-1a) of two full
// scenarios — one light, one heavily contended with cross-shard forwarding —
// and every sharded thread count must reproduce them bit-for-bit.  If a
// refactor changes a constant deliberately, re-derive it by printing
// result.checksum() from a serial run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "batch/scale.h"
#include "ckpt/pfs.h"
#include "ckpt/young_daly.h"
#include "cluster/partition.h"
#include "fault/campaign.h"
#include "net/fabric.h"
#include "util/time.h"

namespace hpcs {
namespace {

using batch::ScaleConfig;
using batch::ScaleResult;
using cluster::ShardPartition;

// --- partitioning ------------------------------------------------------------

net::FabricConfig leaf16_fabric(int nodes) {
  net::FabricConfig fabric;
  fabric.nodes = nodes;
  fabric.nodes_per_switch = 16;
  return fabric;
}

TEST(ShardPartition, EvenLeafAlignedSplit) {
  const ShardPartition part(leaf16_fabric(256), 4);
  EXPECT_EQ(part.num_shards(), 4);
  EXPECT_EQ(part.num_nodes(), 256);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(part.node_count(s), 64) << s;
    EXPECT_EQ(part.first_node(s), 64 * s) << s;
    EXPECT_EQ(part.first_node(s) % 16, 0) << "leaf-aligned " << s;
  }
  EXPECT_EQ(part.min_shard_nodes(), 64);
  EXPECT_EQ(part.shard_of_node(0), 0);
  EXPECT_EQ(part.shard_of_node(63), 0);
  EXPECT_EQ(part.shard_of_node(64), 1);
  EXPECT_EQ(part.shard_of_node(255), 3);
  EXPECT_THROW(part.shard_of_node(256), std::out_of_range);
  EXPECT_THROW(part.shard_of_node(-1), std::out_of_range);
}

TEST(ShardPartition, UnevenBlockCountsDealExtrasToLowShards) {
  // 10 blocks of 16 over 4 shards: 3,3,2,2 blocks = 48,48,32,32 nodes.
  const ShardPartition part(leaf16_fabric(160), 4);
  EXPECT_EQ(part.node_count(0), 48);
  EXPECT_EQ(part.node_count(1), 48);
  EXPECT_EQ(part.node_count(2), 32);
  EXPECT_EQ(part.node_count(3), 32);
  EXPECT_EQ(part.min_shard_nodes(), 32);
}

TEST(ShardPartition, PartialLastBlockIsClamped) {
  // 100 nodes = 6 full blocks + one 4-node block; the last shard absorbs
  // the partial block.
  const ShardPartition part(leaf16_fabric(100), 7);
  EXPECT_EQ(part.num_nodes(), 100);
  EXPECT_EQ(part.node_count(6), 4);
  EXPECT_EQ(part.shard_of_node(99), 6);
}

TEST(ShardPartition, InvalidShardCountsThrow) {
  EXPECT_THROW(ShardPartition(leaf16_fabric(256), 0), std::invalid_argument);
  // 16 blocks cannot feed 17 shards one block each.
  EXPECT_THROW(ShardPartition(leaf16_fabric(256), 17), std::invalid_argument);
}

TEST(ShardPartition, LookaheadIsFabricCrossLeafLatency) {
  net::FabricConfig fabric = leaf16_fabric(256);
  fabric.nic = {300, 0.5};
  fabric.uplink = {450, 0.25};
  const ShardPartition part(fabric, 4);
  // node -> leaf -> spine -> leaf -> node, latency terms only.
  EXPECT_EQ(part.lookahead(), 300u + 450u + 450u + 300u);
  EXPECT_EQ(part.lookahead(), fabric.min_cross_block_latency());

  // A legacy uniform-latency fabric uses the constant itself.
  net::FabricConfig uniform = net::FabricConfig::uniform(64, 750);
  uniform.nodes_per_switch = 16;
  EXPECT_EQ(ShardPartition(uniform, 2).lookahead(), 750u);

  // Zero-latency fabrics still yield a usable (>= 1ns) lookahead.
  EXPECT_GE(ShardPartition(leaf16_fabric(64), 2).lookahead(), 1u);
}

// --- serial vs sharded golden equivalence ------------------------------------

/// Light load: almost no queueing, no forwarding pressure.
ScaleConfig light_config() {
  ScaleConfig cfg;
  cfg.nodes = 256;
  cfg.shards = 4;
  cfg.fabric.nodes_per_switch = 16;
  cfg.arrivals.jobs = 2000;
  cfg.arrivals.mean_interarrival = 20 * kMillisecond;
  cfg.arrivals.max_nodes = 32;
  cfg.seed = 7;
  return cfg;
}

/// Heavy load: ~88% utilization, long queues, and constant cross-shard
/// forwarding + gossip — the regime where serial/sharded divergence would
/// actually show.
ScaleConfig contended_config() {
  ScaleConfig cfg;
  cfg.nodes = 256;
  cfg.shards = 4;
  cfg.fabric.nodes_per_switch = 16;
  cfg.arrivals.jobs = 1500;
  cfg.arrivals.mean_interarrival = 8 * kMillisecond;
  cfg.arrivals.max_nodes = 48;
  cfg.arrivals.nodes_log_mean = 1.8;
  cfg.arrivals.runtime_typical = 900 * kMillisecond;
  cfg.seed = 11;
  return cfg;
}

constexpr std::uint64_t kLightGolden = 0x16fb6077caa197caULL;
constexpr std::uint64_t kContendedGolden = 0x7fca62f5822bfad7ULL;

void expect_identical(const ScaleResult& a, const ScaleResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival) << "job " << i + 1;
    EXPECT_EQ(a.jobs[i].start, b.jobs[i].start) << "job " << i + 1;
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish) << "job " << i + 1;
    EXPECT_EQ(a.jobs[i].home_shard, b.jobs[i].home_shard) << "job " << i + 1;
    EXPECT_EQ(a.jobs[i].ran_shard, b.jobs[i].ran_shard) << "job " << i + 1;
    EXPECT_EQ(a.jobs[i].forwards, b.jobs[i].forwards) << "job " << i + 1;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.forwards, b.forwards);
  EXPECT_EQ(a.gossip_messages, b.gossip_messages);
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(ClusterScale, LightScenarioGoldenPin) {
  const ScaleResult serial = batch::run_scale_serial(light_config());
  EXPECT_EQ(serial.checksum(), kLightGolden);
  EXPECT_EQ(serial.jobs.size(), 2000u);
  EXPECT_EQ(serial.rounds, 0u);
  // Gossip lands as one event per shard and instant: 8,405 of them, where
  // one event per broadcast and destination took 10,887.
  EXPECT_EQ(serial.events, 16090u);
  EXPECT_EQ(serial.gossip_messages, 8405u);
}

TEST(ClusterScale, LightScenarioShardedMatchesSerial) {
  const ScaleResult serial = batch::run_scale_serial(light_config());
  for (int threads : {1, 2, 4}) {
    const ScaleResult sharded =
        batch::run_scale_sharded(light_config(), threads);
    expect_identical(serial, sharded);
    EXPECT_EQ(sharded.checksum(), kLightGolden) << threads;
    EXPECT_EQ(sharded.events, serial.events) << threads;
    EXPECT_GT(sharded.rounds, 0u) << threads;
  }
}

TEST(ClusterScale, ContendedScenarioGoldenPin) {
  const ScaleResult serial = batch::run_scale_serial(contended_config());
  EXPECT_EQ(serial.checksum(), kContendedGolden);
  // The load-sharing machinery is genuinely exercised here.
  EXPECT_GT(serial.forwards, 1000u);
  EXPECT_EQ(serial.events, 17075u);
  EXPECT_EQ(serial.gossip_messages, 5314u);
  EXPECT_GT(serial.utilization, 0.8);
  EXPECT_GT(serial.mean_wait_s, 1.0);
  EXPECT_GE(serial.mean_slowdown, 1.0);
  EXPECT_EQ(serial.wait_hist.total(), serial.jobs.size());
  EXPECT_EQ(serial.wait_hist.nan_count(), 0u);
}

TEST(ClusterScale, ContendedScenarioShardedMatchesSerial) {
  const ScaleResult serial = batch::run_scale_serial(contended_config());
  for (int threads : {1, 2, 4}) {
    const ScaleResult sharded =
        batch::run_scale_sharded(contended_config(), threads);
    expect_identical(serial, sharded);
    EXPECT_EQ(sharded.checksum(), kContendedGolden) << threads;
    EXPECT_EQ(sharded.events, serial.events) << threads;
  }
}

/// Sixteen shards under load.  The light and contended scenarios above are
/// thin (four shards, every window runs on the barrier's completing
/// thread); here about a quarter of the windows hold enough due events on
/// enough shards to go to the workers, so both execution paths interleave.
ScaleConfig wide_config() {
  ScaleConfig cfg = contended_config();
  cfg.nodes = 4096;
  cfg.shards = 16;
  cfg.arrivals.jobs = 3200;
  cfg.arrivals.mean_interarrival = 1 * kMillisecond;
  return cfg;
}

constexpr std::uint64_t kWideGolden = 0xb09dacca2b829c24ULL;

TEST(ClusterScale, WideScenarioShardedMatchesSerialOnBothPaths) {
  const ScaleResult serial = batch::run_scale_serial(wide_config());
  EXPECT_EQ(serial.checksum(), kWideGolden);
  for (int threads : {1, 2, 4}) {
    const ScaleResult sharded =
        batch::run_scale_sharded(wide_config(), threads);
    expect_identical(serial, sharded);
    EXPECT_EQ(sharded.events, serial.events) << threads;
    // Both paths carry real work: at least a tenth of the windows go to
    // the workers, and some run inline.
    EXPECT_GT(sharded.inline_rounds, 0u) << threads;
    EXPECT_LT(sharded.inline_rounds * 10, sharded.rounds * 9) << threads;
  }
}

/// A 1 us cycle under the fabric's 6 us lookahead: one conservative window
/// spans several pass instants, so a barrier publishes one window's gossip
/// out of landing order, and every inbox must take it in order.
ScaleConfig sub_lookahead_config() {
  ScaleConfig cfg;
  cfg.nodes = 1024;
  cfg.shards = 4;
  cfg.fabric.nodes_per_switch = 16;
  cfg.cycle = 1 * kMicrosecond;
  cfg.arrivals.jobs = 1500;
  cfg.arrivals.mean_interarrival = 1 * kMicrosecond;
  cfg.arrivals.max_nodes = 48;
  cfg.arrivals.nodes_log_mean = 1.8;
  cfg.arrivals.runtime_typical = 100 * kMicrosecond;
  cfg.seed = 11;
  return cfg;
}

constexpr std::uint64_t kSubLookaheadGolden = 0x36f20efade3ce8f9ULL;

TEST(ClusterScale, SubLookaheadCycleShardedMatchesSerial) {
  const ScaleConfig cfg = sub_lookahead_config();
  ASSERT_LT(cfg.cycle, batch::scale_lookahead(cfg));
  const ScaleResult serial = batch::run_scale_serial(cfg);
  EXPECT_EQ(serial.checksum(), kSubLookaheadGolden);
  EXPECT_GT(serial.forwards, 1000u);
  for (int threads : {1, 2, 4}) {
    const ScaleResult sharded = batch::run_scale_sharded(cfg, threads);
    expect_identical(serial, sharded);
    EXPECT_EQ(sharded.checksum(), kSubLookaheadGolden) << threads;
    EXPECT_EQ(sharded.events, serial.events) << threads;
  }
}

TEST(ClusterScale, ForwardedJobsRunAwayFromHome) {
  const ScaleResult result = batch::run_scale_serial(contended_config());
  std::size_t migrated = 0;
  for (const auto& job : result.jobs) {
    if (job.ran_shard != job.home_shard) {
      ++migrated;
      EXPECT_GT(job.forwards, 0) << "migration without a forward hop";
    }
    EXPECT_GE(job.start, job.arrival);
    EXPECT_GT(job.finish, job.start);
  }
  EXPECT_GT(migrated, 0u);
}

TEST(ClusterScale, LookaheadMatchesPartition) {
  const ScaleConfig cfg = contended_config();
  net::FabricConfig fabric = cfg.fabric;
  fabric.nodes = cfg.nodes;
  EXPECT_EQ(batch::scale_lookahead(cfg),
            ShardPartition(fabric, cfg.shards).lookahead());
}

TEST(ClusterScale, ConfigValidation) {
  ScaleConfig cfg = light_config();
  cfg.cycle = 1;
  EXPECT_THROW(batch::run_scale_serial(cfg), std::invalid_argument);
  cfg = light_config();
  cfg.node_noise = -0.5;
  EXPECT_THROW(batch::run_scale_serial(cfg), std::invalid_argument);
  cfg = light_config();
  cfg.shards = 4096;  // more shards than leaf blocks
  EXPECT_THROW(batch::run_scale_serial(cfg), std::invalid_argument);
}

// --- checkpoint/fault campaigns at scale -------------------------------------
// (Named ClusterScaleCkpt* so the CI sanitizer matrix's tsan row picks these
// up alongside the legacy ClusterScale goldens.)

/// 10k nodes, a multi-hour-MTBF fault campaign, and Young/Daly-interval
/// checkpointing to the shared PFS — the PR's flagship robustness scenario.
ScaleConfig ckpt_campaign_config() {
  ScaleConfig cfg;
  cfg.nodes = 10240;
  cfg.shards = 8;
  cfg.fabric.nodes_per_switch = 16;
  cfg.arrivals.jobs = 1500;
  cfg.arrivals.mean_interarrival = 30 * kMillisecond;
  cfg.arrivals.max_nodes = 64;
  cfg.arrivals.nodes_log_mean = 1.8;
  cfg.arrivals.runtime_typical = 20 * kSecond;
  cfg.seed = 17;
  cfg.ckpt.enabled = true;
  cfg.ckpt.bytes_per_node = 128ULL << 20;
  cfg.campaign.node_mtbf = 4 * 3600 * kSecond;  // 4h per node
  cfg.campaign.horizon = 10 * 60 * kSecond;
  return cfg;
}

constexpr std::uint64_t kCkptCampaignGolden = 0x013f5a860451cbb4ULL;

TEST(ClusterScaleCkpt, CampaignScenarioGoldenPin) {
  const ScaleResult serial = batch::run_scale_serial(ckpt_campaign_config());
  EXPECT_EQ(serial.checksum(), kCkptCampaignGolden);
  EXPECT_EQ(serial.jobs.size(), 1500u);
  // The campaign and checkpoint machinery genuinely ran.
  EXPECT_GT(serial.ckpt.checkpoints, 1000u);
  EXPECT_GT(serial.ckpt.failures_hit, 0u);
  EXPECT_GT(serial.ckpt.failures_idle, 0u);
  // One restart per knock-down; a failure landing on an already-down job
  // counts as a hit but folds into the same recovery.
  EXPECT_GT(serial.ckpt.restarts, 0u);
  EXPECT_LE(serial.ckpt.restarts, serial.ckpt.failures_hit);
  EXPECT_GT(serial.ckpt.lost_work_ns, 0);
  EXPECT_GT(serial.ckpt.restart_stall_ns, 0);
  EXPECT_GT(serial.ckpt.mean_interval_s, 0.0);
  EXPECT_GT(serial.ckpt.waste_frac, 0.0);
  EXPECT_LT(serial.ckpt.waste_frac, 0.5);
  EXPECT_EQ(serial.ckpt.pfs.writes, serial.ckpt.checkpoints);  // selfish
}

/// Every checkpoint/fault counter is part of the determinism contract.
void expect_same_ckpt(const ScaleResult& serial, const ScaleResult& sharded) {
  EXPECT_EQ(sharded.ckpt.checkpoints, serial.ckpt.checkpoints);
  EXPECT_EQ(sharded.ckpt.aborted_writes, serial.ckpt.aborted_writes);
  EXPECT_EQ(sharded.ckpt.failures_hit, serial.ckpt.failures_hit);
  EXPECT_EQ(sharded.ckpt.failures_idle, serial.ckpt.failures_idle);
  EXPECT_EQ(sharded.ckpt.restarts, serial.ckpt.restarts);
  EXPECT_EQ(sharded.ckpt.interval_stretches, serial.ckpt.interval_stretches);
  EXPECT_EQ(sharded.ckpt.ckpt_write_ns, serial.ckpt.ckpt_write_ns);
  EXPECT_EQ(sharded.ckpt.ckpt_stall_ns, serial.ckpt.ckpt_stall_ns);
  EXPECT_EQ(sharded.ckpt.lost_work_ns, serial.ckpt.lost_work_ns);
  EXPECT_EQ(sharded.ckpt.restart_stall_ns, serial.ckpt.restart_stall_ns);
  EXPECT_EQ(sharded.ckpt.pfs.writes, serial.ckpt.pfs.writes);
  EXPECT_EQ(sharded.ckpt.pfs.queued_ns, serial.ckpt.pfs.queued_ns);
}

TEST(ClusterScaleCkpt, CampaignShardedMatchesSerialAt124Threads) {
  const ScaleConfig cfg = ckpt_campaign_config();
  const ScaleResult serial = batch::run_scale_serial(cfg);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const ScaleResult sharded = batch::run_scale_sharded(cfg, threads);
    expect_identical(serial, sharded);
    EXPECT_EQ(sharded.checksum(), kCkptCampaignGolden);
    EXPECT_EQ(sharded.events, serial.events);
    expect_same_ckpt(serial, sharded);
  }
}

/// The campaign on sixteen shards with a denser, shorter job stream: the
/// 8-shard campaign above runs every window inline, while here about a
/// tenth of the windows go to the workers.
ScaleConfig wide_ckpt_campaign_config() {
  ScaleConfig cfg = ckpt_campaign_config();
  cfg.shards = 16;
  cfg.arrivals.jobs = 3000;
  cfg.arrivals.mean_interarrival = 1 * kMillisecond;
  cfg.arrivals.runtime_typical = 2 * kSecond;
  return cfg;
}

constexpr std::uint64_t kWideCkptCampaignGolden = 0x7b1bd8820ded4a11ULL;

TEST(ClusterScaleCkpt, WideCampaignShardedMatchesSerialOnBothPaths) {
  const ScaleConfig cfg = wide_ckpt_campaign_config();
  const ScaleResult serial = batch::run_scale_serial(cfg);
  EXPECT_EQ(serial.checksum(), kWideCkptCampaignGolden);
  EXPECT_GT(serial.ckpt.checkpoints, 0u);
  EXPECT_GT(serial.ckpt.failures_hit, 0u);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const ScaleResult sharded = batch::run_scale_sharded(cfg, threads);
    expect_identical(serial, sharded);
    EXPECT_EQ(sharded.checksum(), kWideCkptCampaignGolden);
    EXPECT_EQ(sharded.events, serial.events);
    expect_same_ckpt(serial, sharded);
    // Some of its windows go to the workers, the rest run inline.
    EXPECT_GT(sharded.inline_rounds, 0u);
    EXPECT_LT(sharded.inline_rounds, sharded.rounds);
  }
}

TEST(ClusterScaleCkpt, EveryCampaignFailureIsAccountedExactlyOnce) {
  const ScaleConfig cfg = ckpt_campaign_config();
  fault::CampaignConfig campaign = cfg.campaign;
  campaign.nodes = cfg.nodes;  // the scenario overrides this the same way
  const auto failures = fault::generate_campaign(campaign, cfg.seed);
  const ScaleResult result = batch::run_scale_serial(cfg);
  EXPECT_EQ(result.ckpt.failures_hit + result.ckpt.failures_idle,
            failures.size());
}

/// Saturated PFS: enough concurrent checkpoint traffic that write slots
/// queue for a large fraction of the interval.
ScaleConfig pfs_contended_config(ckpt::CoordPolicy coordinator) {
  ScaleConfig cfg;
  cfg.nodes = 1024;
  cfg.shards = 4;
  cfg.fabric.nodes_per_switch = 16;
  cfg.arrivals.jobs = 400;
  cfg.arrivals.mean_interarrival = 20 * kMillisecond;
  cfg.arrivals.max_nodes = 32;
  cfg.arrivals.nodes_log_mean = 1.8;
  cfg.arrivals.runtime_typical = 60 * kSecond;
  cfg.seed = 23;
  cfg.ckpt.enabled = true;
  cfg.ckpt.coordinator = coordinator;
  cfg.ckpt.bytes_per_node = 1ULL << 30;
  cfg.ckpt.pfs.ns_per_byte = 0.05;  // 20 GB/s aggregate: easily saturated
  cfg.campaign.node_mtbf = 2 * 3600 * kSecond;
  cfg.campaign.horizon = 300 * kSecond;
  return cfg;
}

TEST(ClusterScaleCkpt, CooperativeBeatsSelfishOnAContendedPfs) {
  const ScaleResult selfish = batch::run_scale_serial(
      pfs_contended_config(ckpt::CoordPolicy::kSelfish));
  const ScaleResult coop = batch::run_scale_serial(
      pfs_contended_config(ckpt::CoordPolicy::kCooperative));
  // The PFS really is contended in the selfish baseline...
  EXPECT_GT(selfish.ckpt.pfs.queued_ns, 0);
  EXPECT_GT(selfish.ckpt.ckpt_stall_ns, 0);
  // ...cooperative staggering turns stall time back into compute: less
  // total waste, and strictly less time stalled waiting on the PFS.
  EXPECT_LT(coop.ckpt.waste_frac, selfish.ckpt.waste_frac);
  EXPECT_LT(coop.ckpt.ckpt_stall_ns, selfish.ckpt.ckpt_stall_ns);
  // Graceful degradation engaged: saturated jobs stretched their intervals
  // instead of stalling the schedule.
  EXPECT_GT(coop.ckpt.interval_stretches, 0u);
  EXPECT_GT(coop.ckpt.pfs.reservations, 0u);
  EXPECT_EQ(coop.ckpt.pfs.writes, 0u);  // all cooperative traffic reserves
}

TEST(ClusterScaleCkpt, CampaignWithoutCheckpointsRestartsFromScratch) {
  // The "no checkpointing" ablation: failures throw away the whole run so
  // far (done stays 0 and recovery re-executes from the start).
  ScaleConfig cfg = ckpt_campaign_config();
  cfg.ckpt.enabled = false;
  const ScaleResult result = batch::run_scale_serial(cfg);
  EXPECT_EQ(result.ckpt.checkpoints, 0u);
  EXPECT_EQ(result.ckpt.mean_interval_s, 0.0);
  EXPECT_GT(result.ckpt.failures_hit, 0u);
  EXPECT_GT(result.ckpt.restarts, 0u);
  EXPECT_LE(result.ckpt.restarts, result.ckpt.failures_hit);
  EXPECT_GT(result.ckpt.lost_work_ns, 0);
  EXPECT_EQ(result.ckpt.pfs.writes + result.ckpt.pfs.reads +
                result.ckpt.pfs.reservations,
            0u);
  // Sharded equivalence holds for the campaign-only path too.
  const ScaleResult sharded = batch::run_scale_sharded(cfg, 4);
  expect_identical(result, sharded);
  EXPECT_EQ(sharded.ckpt.lost_work_ns, result.ckpt.lost_work_ns);
}

TEST(ClusterScaleCkpt, ChosenIntervalsMatchTheClosedForms) {
  // Width-1 jobs make the per-job interval a single closed-form value the
  // test can predict exactly.
  ScaleConfig cfg;
  cfg.nodes = 64;
  cfg.shards = 2;
  cfg.fabric.nodes_per_switch = 16;
  cfg.arrivals.jobs = 40;
  cfg.arrivals.max_nodes = 1;
  cfg.seed = 5;
  cfg.ckpt.enabled = true;
  cfg.ckpt.node_mtbf = 3600 * kSecond;  // no campaign: interval choice only
  ckpt::PfsModel pfs(cfg.ckpt.pfs);
  const double write_s = to_seconds(pfs.transfer_time(cfg.ckpt.bytes_per_node));
  const double mtbf_s = to_seconds(cfg.ckpt.node_mtbf);

  cfg.ckpt.interval_policy = ckpt::IntervalPolicy::kDaly;
  ScaleResult result = batch::run_scale_serial(cfg);
  EXPECT_NEAR(result.ckpt.mean_interval_s,
              ckpt::daly_interval_s(write_s, mtbf_s), 1e-6);

  cfg.ckpt.interval_policy = ckpt::IntervalPolicy::kYoung;
  result = batch::run_scale_serial(cfg);
  EXPECT_NEAR(result.ckpt.mean_interval_s,
              ckpt::young_interval_s(write_s, mtbf_s), 1e-6);

  cfg.ckpt.interval_policy = ckpt::IntervalPolicy::kYoung;
  cfg.ckpt.interval_scale = 2.0;
  result = batch::run_scale_serial(cfg);
  EXPECT_NEAR(result.ckpt.mean_interval_s,
              2.0 * ckpt::young_interval_s(write_s, mtbf_s), 1e-6);

  cfg.ckpt.interval_scale = 1.0;
  cfg.ckpt.interval_policy = ckpt::IntervalPolicy::kFixed;
  cfg.ckpt.fixed_interval = 30 * kSecond;
  result = batch::run_scale_serial(cfg);
  EXPECT_NEAR(result.ckpt.mean_interval_s, 30.0, 1e-9);
}

TEST(ClusterScaleCkpt, RejectsSubCycleDowntime) {
  ScaleConfig cfg = ckpt_campaign_config();
  cfg.ckpt.downtime = cfg.cycle - 1;
  EXPECT_THROW(batch::run_scale_serial(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace hpcs
