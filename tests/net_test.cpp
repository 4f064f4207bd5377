// Tests for the interconnect subsystem: collective step schedules, the
// LogGP fabric cost model and its contention/fault behaviour, the legacy
// uniform-latency compatibility path (bit-for-bit golden values), cluster
// jobs running algorithmic collectives, rank restart through the mailbox,
// and the batch/fault/perf integration points.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "batch/allocator.h"
#include "cluster/cluster.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "kernel/kernel.h"
#include "mpi/program.h"
#include "mpi/world.h"
#include "net/collective.h"
#include "net/fabric.h"
#include "perf/netstat.h"
#include "sim/engine.h"

namespace hpcs::net {
namespace {

using kernel::Policy;

// ---------------------------------------------------------------------------
// Collective step schedules
// ---------------------------------------------------------------------------

/// Execute every rank's schedule against FIFO channels without a simulator:
/// sends are eager, a receive blocks until the matching send was posted.
/// Returns false on deadlock (a full pass over all ranks makes no progress).
bool schedules_terminate(const std::vector<std::vector<Step>>& schedules) {
  const int n = static_cast<int>(schedules.size());
  std::vector<std::size_t> pos(schedules.size(), 0);
  std::vector<std::size_t> posted(schedules.size(), 0);
  std::map<std::pair<int, int>, std::uint32_t> sent;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < n; ++r) {
      while (pos[r] < schedules[r].size()) {
        const Step& s = schedules[r][pos[r]];
        if (posted[r] == pos[r]) {
          // First visit: the send goes out whether or not the receive is
          // ready (that is what the mailbox does).
          if (s.send_to >= 0) sent[{r, s.send_to}] += 1;
          posted[r] += 1;
          progress = true;
        }
        if (s.recv_from >= 0 && sent[{s.recv_from, r}] <= s.recv_seq) break;
        pos[r] += 1;
        progress = true;
      }
    }
  }
  for (int r = 0; r < n; ++r) {
    if (pos[r] < schedules[r].size()) return false;
  }
  return true;
}

std::vector<std::vector<Step>> all_schedules(Collective collective,
                                             Algorithm algorithm, int n,
                                             std::uint64_t bytes) {
  std::vector<std::vector<Step>> schedules;
  schedules.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    schedules.push_back(collective_steps(collective, algorithm, r, n, bytes,
                                         0.0005));
  }
  return schedules;
}

TEST(CollectiveTest, SchedulesMatchAndTerminate) {
  for (const Algorithm algorithm :
       {Algorithm::kBinomialTree, Algorithm::kRecursiveDoubling,
        Algorithm::kRing}) {
    for (const Collective collective :
         {Collective::kBarrier, Collective::kAllreduce,
          Collective::kAlltoall}) {
      for (const int n : {2, 3, 4, 6, 8, 12, 16}) {
        const auto schedules = all_schedules(collective, algorithm, n, 4096);
        EXPECT_TRUE(schedules_terminate(schedules))
            << algorithm_name(algorithm) << " n=" << n << " collective "
            << static_cast<int>(collective) << " deadlocks";
        // Conservation: every send is consumed by exactly one receive.
        std::map<std::pair<int, int>, int> sends, recvs;
        for (int r = 0; r < n; ++r) {
          for (const Step& s : schedules[static_cast<std::size_t>(r)]) {
            if (s.send_to >= 0) sends[{r, s.send_to}] += 1;
            if (s.recv_from >= 0) recvs[{s.recv_from, r}] += 1;
          }
        }
        EXPECT_EQ(sends, recvs)
            << algorithm_name(algorithm) << " n=" << n << " orphan messages";
      }
    }
  }
}

TEST(CollectiveTest, FlatAndDegenerateSchedulesAreEmpty) {
  EXPECT_TRUE(collective_steps(Collective::kAllreduce, Algorithm::kFlat, 0, 8,
                               1024, 0.0)
                  .empty());
  EXPECT_TRUE(collective_steps(Collective::kAllreduce, Algorithm::kRing, 0, 1,
                               1024, 0.0)
                  .empty());
  EXPECT_THROW(collective_steps(Collective::kAllreduce, Algorithm::kRing, 9, 8,
                                1024, 0.0),
               std::out_of_range);
}

TEST(CollectiveTest, RingMovesChunksInTwoPhases) {
  // Ring allreduce is n-1 reduce-scatter rounds plus n-1 allgather rounds,
  // each moving a 1/n chunk to the right neighbour.
  const int n = 4;
  const auto steps =
      collective_steps(Collective::kAllreduce, Algorithm::kRing, 1, n, 4000,
                       0.01);
  ASSERT_EQ(steps.size(), static_cast<std::size_t>(2 * (n - 1)));
  for (const Step& s : steps) {
    EXPECT_EQ(s.send_to, 2);
    EXPECT_EQ(s.recv_from, 0);
    EXPECT_EQ(s.send_bytes, 1000u);
  }
  // Reduce-scatter rounds pay combine work; allgather rounds do not.
  EXPECT_GT(steps[0].cpu, 0);
  EXPECT_EQ(steps[2 * (n - 1) - 1].cpu, 0);
}

TEST(CollectiveTest, TreeRootReceivesThenBroadcasts) {
  const auto root =
      collective_steps(Collective::kAllreduce, Algorithm::kBinomialTree, 0, 8,
                       1024, 0.0005);
  // Rank 0 of 8: three receives (reduce), then three sends (bcast).
  ASSERT_EQ(root.size(), 6u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(root[static_cast<std::size_t>(i)].recv_from, 0);
  }
  for (int i = 3; i < 6; ++i) {
    EXPECT_GE(root[static_cast<std::size_t>(i)].send_to, 0);
  }
}

TEST(CollectiveTest, ParseAlgorithmRoundTrips) {
  for (const Algorithm algorithm :
       {Algorithm::kFlat, Algorithm::kBinomialTree,
        Algorithm::kRecursiveDoubling, Algorithm::kRing}) {
    EXPECT_EQ(parse_algorithm(algorithm_name(algorithm)), algorithm);
  }
  EXPECT_THROW(parse_algorithm("bogus"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fabric cost model
// ---------------------------------------------------------------------------

FabricConfig test_fabric_config() {
  FabricConfig config;
  config.nodes = 8;
  config.nodes_per_switch = 4;
  config.local = {200, 0.00005};
  config.nic = {1000, 0.8};
  config.uplink = {2000, 1.6};
  return config;
}

TEST(FabricTest, RouteCostsFollowTopology) {
  Fabric fabric(test_fabric_config());
  // Intra-node: one local link.  1000 B * 0.00005 ns/B rounds to 0.
  EXPECT_EQ(fabric.deliver(0, 0, 1000, 0), 200);
  // Same leaf block: nic-up + nic-down, serialising 800 ns on each.
  Fabric fresh1(test_fabric_config());
  EXPECT_EQ(fresh1.deliver(0, 1, 1000, 0), 2 * (800 + 1000));
  // Cross block: nic-up, uplink, downlink, nic-down.
  Fabric fresh2(test_fabric_config());
  EXPECT_EQ(fresh2.deliver(0, 4, 1000, 0),
            2 * (800 + 1000) + 2 * (1600 + 2000));
}

TEST(FabricTest, SharedLinksQueueFifo) {
  Fabric fabric(test_fabric_config());
  const SimTime first = fabric.deliver(0, 1, 1000, 0);
  // Same instant, same source NIC: the second message queues behind the
  // first on nic-up/0 AND behind it again on nic-down/1.
  const SimTime second = fabric.deliver(0, 1, 1000, 0);
  EXPECT_GT(second, first);
  EXPECT_EQ(second - first, 800);  // drains one serialisation later
  bool queued = false;
  for (std::size_t i = 0; i < fabric.num_links(); ++i) {
    if (fabric.link(i).queued_ns > 0) queued = true;
  }
  EXPECT_TRUE(queued);
  EXPECT_EQ(fabric.stats().messages, 2u);
}

TEST(FabricTest, UniformModeIsConstantLatency) {
  Fabric fabric(FabricConfig::uniform(4, 25 * kMicrosecond));
  EXPECT_EQ(fabric.deliver(0, 0, 1 << 20, 1000), 1000);
  EXPECT_EQ(fabric.deliver(0, 3, 1 << 20, 1000), 1000 + 25 * kMicrosecond);
  // No serialisation, no queueing: repeating the send costs the same.
  EXPECT_EQ(fabric.deliver(0, 3, 1 << 20, 1000), 1000 + 25 * kMicrosecond);
}

TEST(FabricTest, NicDegradeSlowsAndRestoreHeals) {
  Fabric fabric(test_fabric_config());
  const SimTime healthy = fabric.deliver(0, 1, 1000, 0);
  Fabric degraded(test_fabric_config());
  degraded.degrade_nic(0, 4.0, 500);
  const SimTime slow = degraded.deliver(0, 1, 1000, 0);
  EXPECT_GT(slow, healthy);
  degraded.restore_nic(0);
  // After restore a fresh message pays only the queue left behind, not the
  // degraded serialisation cost.
  Fabric healed(test_fabric_config());
  healed.degrade_nic(0, 4.0, 500);
  healed.restore_nic(0);
  EXPECT_EQ(healed.deliver(0, 1, 1000, 0), healthy);
}

TEST(FabricTest, UplinkFailureReroutesUntilRepair) {
  Fabric fabric(test_fabric_config());
  const SimTime healthy = fabric.deliver(0, 4, 1000, 0);
  Fabric broken(test_fabric_config());
  broken.fail_uplink(0);
  EXPECT_TRUE(broken.uplink_failed(0));
  EXPECT_FALSE(broken.uplink_failed(1));
  const SimTime rerouted = broken.deliver(0, 4, 1000, 0);
  // The backup path pays the bandwidth penalty and the extra latency.
  EXPECT_GE(rerouted, healthy + broken.config().backup_extra_latency);
  broken.repair_uplink(0);
  EXPECT_FALSE(broken.uplink_failed(0));
  Fabric repaired(test_fabric_config());
  repaired.fail_uplink(0);
  repaired.repair_uplink(0);
  EXPECT_EQ(repaired.deliver(0, 4, 1000, 0), healthy);
}

TEST(FabricTest, ValidatesIndices) {
  Fabric fabric(test_fabric_config());
  EXPECT_THROW(fabric.deliver(-1, 0, 0, 0), std::out_of_range);
  EXPECT_THROW(fabric.deliver(0, 8, 0, 0), std::out_of_range);
  EXPECT_THROW(fabric.degrade_nic(9, 2.0), std::out_of_range);
  EXPECT_THROW(fabric.fail_uplink(2), std::out_of_range);
  FabricConfig bad;
  bad.nodes = 0;
  EXPECT_THROW(Fabric{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace hpcs::net

namespace hpcs::cluster {
namespace {

using kernel::Policy;

// ---------------------------------------------------------------------------
// Legacy compatibility: golden values captured against the pre-fabric tree
// ---------------------------------------------------------------------------

SimTime run_quiet_legacy(std::optional<net::FabricConfig> fabric) {
  sim::Engine engine;
  ClusterConfig config;
  config.nodes = 4;
  config.spawn_daemons = false;
  config.fabric = fabric;
  Cluster cl(engine, config);
  mpi::Program p;
  p.barrier();
  p.loop(20).compute(500 * kMicrosecond, 0.01).allreduce(4096).end_loop();
  p.barrier();
  mpi::MpiConfig mc;
  mc.nranks = 16;
  mc.seed = 42;
  ClusterJob job(cl, mc, p);
  job.launch(Policy::kNormal);
  engine.run_until(60 * kSecond);
  EXPECT_TRUE(job.finished());
  return job.finish_time();
}

TEST(GoldenTest, QuietClusterBitForBit) {
  // Captured from the pre-fabric implementation (a constant 25 us network
  // latency, flat collectives).  The uniform fabric must reproduce it
  // EXACTLY: any drift means it is not a faithful stand-in.
  EXPECT_EQ(run_quiet_legacy(net::FabricConfig::uniform(4, 25 * kMicrosecond)),
            17794868u);
}

TEST(GoldenTest, UnsetFabricIsUniformTenMicroseconds) {
  EXPECT_EQ(run_quiet_legacy(std::nullopt),
            run_quiet_legacy(net::FabricConfig::uniform(4, 10 * kMicrosecond)));
}

TEST(GoldenTest, NoisyHplClusterBitForBit) {
  // Daemons + HPL + exchange ops: exercises cross-node pair releases and
  // per-node noise streams through the fabric's legacy mode.
  sim::Engine engine;
  ClusterConfig config;
  config.nodes = 2;
  config.seed = 7;
  config.install_hpl = true;
  config.fabric = net::FabricConfig::uniform(2, 10 * kMicrosecond);
  Cluster cl(engine, config);
  mpi::Program p;
  p.barrier();
  p.loop(10)
      .compute(1 * kMillisecond, 0.02)
      .exchange(1, 8192)
      .allreduce(64)
      .end_loop();
  mpi::MpiConfig mc;
  mc.nranks = 8;
  mc.seed = 3;
  ClusterJob job(cl, mc, p);
  job.launch(Policy::kHpc);
  engine.run_until(60 * kSecond);
  ASSERT_TRUE(job.finished());
  EXPECT_EQ(job.finish_time(), 17510392u);
}

// ---------------------------------------------------------------------------
// Algorithmic collectives on a cluster
// ---------------------------------------------------------------------------

ClusterConfig contended_config(int nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.spawn_daemons = false;
  net::FabricConfig fabric;
  fabric.nodes_per_switch = 4;
  config.fabric = fabric;
  return config;
}

SimTime run_algorithm(net::Algorithm algorithm, std::uint64_t seed = 11) {
  sim::Engine engine;
  Cluster cl(engine, contended_config(4));
  mpi::Program p;
  p.barrier();
  p.loop(10).compute(200 * kMicrosecond, 0.01).allreduce(1 << 16).end_loop();
  p.barrier();
  mpi::MpiConfig mc;
  mc.nranks = 8;
  mc.seed = seed;
  mc.collective_algorithm = algorithm;
  ClusterJob job(cl, mc, p);
  job.launch(Policy::kNormal);
  engine.run_until(120 * kSecond);
  EXPECT_TRUE(job.finished());
  EXPECT_FALSE(job.failed());
  EXPECT_EQ(job.open_collectives(), 0u) << "mailbox leaked collective state";
  return job.finish_time();
}

TEST(ClusterCollectivesTest, AlgorithmsRunDeterministicallyAndDiffer) {
  const SimTime flat = run_algorithm(net::Algorithm::kFlat);
  const SimTime tree = run_algorithm(net::Algorithm::kBinomialTree);
  const SimTime rd = run_algorithm(net::Algorithm::kRecursiveDoubling);
  const SimTime ring = run_algorithm(net::Algorithm::kRing);
  // Same seed, same algorithm: bit-identical.
  EXPECT_EQ(tree, run_algorithm(net::Algorithm::kBinomialTree));
  EXPECT_EQ(ring, run_algorithm(net::Algorithm::kRing));
  // Different message schedules cost different amounts of simulated time.
  const std::set<SimTime> distinct{flat, tree, rd, ring};
  EXPECT_EQ(distinct.size(), 4u) << "flat=" << flat << " tree=" << tree
                                 << " rd=" << rd << " ring=" << ring;
}

TEST(ClusterCollectivesTest, AlltoallRunsUnderEveryAlgorithm) {
  for (const net::Algorithm algorithm :
       {net::Algorithm::kBinomialTree, net::Algorithm::kRing}) {
    sim::Engine engine;
    Cluster cl(engine, contended_config(4));
    mpi::Program p;
    p.barrier().alltoall(4096).barrier();
    mpi::MpiConfig mc;
    mc.nranks = 8;
    mc.collective_algorithm = algorithm;
    ClusterJob job(cl, mc, p);
    job.launch(Policy::kNormal);
    engine.run_until(60 * kSecond);
    EXPECT_TRUE(job.finished());
    EXPECT_EQ(job.open_collectives(), 0u);
  }
}

TEST(ClusterCollectivesTest, DeterministicUnderDaemonNoise) {
  auto run = [] {
    sim::Engine engine;
    ClusterConfig config = contended_config(4);
    config.spawn_daemons = true;
    config.seed = 21;
    Cluster cl(engine, config);
    mpi::Program p;
    p.barrier();
    p.loop(8).compute(300 * kMicrosecond, 0.02).allreduce(8192).end_loop();
    mpi::MpiConfig mc;
    mc.nranks = 8;
    mc.seed = 13;
    mc.collective_algorithm = net::Algorithm::kBinomialTree;
    ClusterJob job(cl, mc, p);
    job.launch(Policy::kNormal);
    engine.run_until(120 * kSecond);
    EXPECT_TRUE(job.finished());
    return job.finish_time();
  };
  EXPECT_EQ(run(), run());
}

TEST(ClusterCollectivesTest, ContiguousPlacementBeatsScattered) {
  // A bandwidth-heavy ring allreduce on 4 of 8 nodes: nodes {0,1,2,3} share
  // one leaf switch, nodes {0,2,4,6} drag every ring hop across the
  // oversubscribed spine.
  auto run_on = [](std::vector<int> nodes) {
    sim::Engine engine;
    Cluster cl(engine, contended_config(8));
    mpi::Program p;
    p.barrier();
    p.loop(10).compute(100 * kMicrosecond).allreduce(1 << 20).end_loop();
    mpi::MpiConfig mc;
    mc.nranks = 4;
    mc.seed = 5;
    mc.collective_algorithm = net::Algorithm::kRing;
    ClusterJob job(cl, mc, p, std::move(nodes));
    job.launch(Policy::kNormal);
    engine.run_until(600 * kSecond);
    EXPECT_TRUE(job.finished());
    return job.finish_time() - job.start_time();
  };
  const SimTime contiguous = run_on({0, 1, 2, 3});
  const SimTime scattered = run_on({0, 2, 4, 6});
  EXPECT_LT(contiguous, scattered);
}

// ---------------------------------------------------------------------------
// Rank restart through the fabric
// ---------------------------------------------------------------------------

struct RestartResult {
  SimTime finish = 0;
  bool finished = false;
  bool failed = false;
  int restarts = 0;
  std::size_t open_collectives = 0;
};

RestartResult run_with_rank_failure(net::Algorithm algorithm,
                                    bool restart_failed_ranks) {
  sim::Engine engine;
  Cluster cl(engine, contended_config(2));
  mpi::Program p;
  p.barrier();
  p.loop(12).compute(400 * kMicrosecond, 0.01).allreduce(4096).end_loop();
  p.barrier();
  mpi::MpiConfig mc;
  mc.nranks = 4;
  mc.seed = 17;
  mc.collective_algorithm = algorithm;
  mc.restart_failed_ranks = restart_failed_ranks;
  ClusterJob job(cl, mc, p);
  job.launch(Policy::kNormal);
  // Kill rank 3 (a remote-node rank) mid-run at a pinned engine time.
  engine.schedule_at(2 * kMillisecond, [&job] {
    EXPECT_TRUE(job.inject_rank_failure(3));
  });
  engine.run_until(120 * kSecond);
  RestartResult result;
  result.finish = job.finish_time();
  result.finished = job.finished();
  result.failed = job.failed();
  result.restarts = job.fault_report().restarts;
  result.open_collectives = job.open_collectives();
  return result;
}

TEST(ClusterRestartTest, FlatJobSurvivesRankRestartDeterministically) {
  const RestartResult a =
      run_with_rank_failure(net::Algorithm::kFlat, true);
  EXPECT_TRUE(a.finished);
  EXPECT_FALSE(a.failed);
  EXPECT_EQ(a.restarts, 1);
  const RestartResult b =
      run_with_rank_failure(net::Algorithm::kFlat, true);
  EXPECT_EQ(a.finish, b.finish);  // same seed, same fault: bit-identical
}

TEST(ClusterRestartTest, RingCollectiveSurvivesRankRestart) {
  const RestartResult a =
      run_with_rank_failure(net::Algorithm::kRing, true);
  EXPECT_TRUE(a.finished);
  EXPECT_FALSE(a.failed);
  EXPECT_EQ(a.restarts, 1);
  EXPECT_EQ(a.open_collectives, 0u) << "restart leaked mailbox state";
  const RestartResult b =
      run_with_rank_failure(net::Algorithm::kRing, true);
  EXPECT_EQ(a.finish, b.finish);
}

TEST(ClusterRestartTest, WithoutRestartTheJobAborts) {
  const RestartResult result =
      run_with_rank_failure(net::Algorithm::kRing, false);
  EXPECT_TRUE(result.finished);
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.restarts, 0);
}

TEST(ClusterRestartTest, RestartsAreCheckpointed) {
  // The respawned rank fast-forwards its completed sync points; the fault
  // report records them.
  sim::Engine engine;
  Cluster cl(engine, contended_config(2));
  mpi::Program p;
  p.barrier();
  p.loop(12).compute(400 * kMicrosecond, 0.01).allreduce(4096).end_loop();
  p.barrier();
  mpi::MpiConfig mc;
  mc.nranks = 4;
  mc.seed = 17;
  mc.collective_algorithm = net::Algorithm::kRing;
  mc.restart_failed_ranks = true;
  ClusterJob job(cl, mc, p);
  job.launch(Policy::kNormal);
  engine.schedule_at(4 * kMillisecond,
                     [&job] { job.inject_rank_failure(2); });
  engine.run_until(120 * kSecond);
  ASSERT_TRUE(job.finished());
  EXPECT_GT(job.rank_sync_count(2), 0u);
  EXPECT_EQ(job.fault_report().count(fault::FaultKind::kRankDeathDetected), 1);
  EXPECT_EQ(job.fault_report().count(fault::FaultKind::kRankRestart), 1);
}

// ---------------------------------------------------------------------------
// Fault injector link actions against the cluster fabric
// ---------------------------------------------------------------------------

TEST(LinkFaultTest, InjectorDrivesFabricLinkState) {
  sim::Engine engine;
  Cluster cl(engine, contended_config(8));
  fault::FaultPlan plan;
  plan.degrade_nic_at(1 * kMillisecond, 2, 8.0, 50 * kMicrosecond)
      .restore_nic_at(5 * kMillisecond, 2)
      .fail_uplink_at(2 * kMillisecond, 0)
      .repair_uplink_at(6 * kMillisecond, 0);
  fault::FaultInjector injector(cl.node(0), plan);
  injector.arm(nullptr, &cl.fabric());
  engine.schedule_at(3 * kMillisecond, [&cl] {
    EXPECT_TRUE(cl.fabric().uplink_failed(0));
    EXPECT_GT(cl.fabric().link(cl.config().nodes + 2).degrade_factor, 1.0);
  });
  engine.run_until(10 * kMillisecond);
  EXPECT_FALSE(cl.fabric().uplink_failed(0));
  EXPECT_EQ(injector.report().count(fault::FaultKind::kLinkDegrade), 1);
  EXPECT_EQ(injector.report().count(fault::FaultKind::kLinkRestore), 1);
  EXPECT_EQ(injector.report().count(fault::FaultKind::kUplinkFail), 1);
  EXPECT_EQ(injector.report().count(fault::FaultKind::kUplinkRepair), 1);
}

TEST(LinkFaultTest, LinkActionsWithoutFabricAreSkipped) {
  sim::Engine engine;
  kernel::Kernel kernel(engine, kernel::KernelConfig{});
  kernel.boot();
  fault::FaultPlan plan;
  plan.degrade_nic_at(1 * kMillisecond, 0, 2.0);
  fault::FaultInjector injector(kernel, plan);
  injector.arm();
  engine.run_until(5 * kMillisecond);
  EXPECT_EQ(injector.report().count(fault::FaultKind::kSkipped), 1);
}

TEST(LinkFaultTest, UplinkFailureSlowsARunningJob) {
  auto run = [](bool with_fault) {
    sim::Engine engine;
    Cluster cl(engine, contended_config(8));
    mpi::Program p;
    p.barrier();
    p.loop(10).compute(100 * kMicrosecond).allreduce(1 << 18).end_loop();
    mpi::MpiConfig mc;
    mc.nranks = 8;
    mc.seed = 23;
    mc.collective_algorithm = net::Algorithm::kRing;
    ClusterJob job(cl, mc, p);
    job.launch(Policy::kNormal);
    std::unique_ptr<fault::FaultInjector> injector;
    if (with_fault) {
      fault::FaultPlan plan;
      plan.fail_uplink_at(1 * kMillisecond, 0);
      injector = std::make_unique<fault::FaultInjector>(cl.node(0), plan);
      injector->arm(nullptr, &cl.fabric());
    }
    engine.run_until(600 * kSecond);
    EXPECT_TRUE(job.finished());
    return job.finish_time();
  };
  EXPECT_GT(run(true), run(false));
}

// ---------------------------------------------------------------------------
// Netstat rendering
// ---------------------------------------------------------------------------

TEST(NetstatTest, RendersTrafficAndHistogram) {
  sim::Engine engine;
  Cluster cl(engine, contended_config(4));
  mpi::Program p;
  p.barrier().allreduce(1 << 16).barrier();
  mpi::MpiConfig mc;
  mc.nranks = 8;
  mc.collective_algorithm = net::Algorithm::kRing;
  ClusterJob job(cl, mc, p);
  job.launch(Policy::kNormal);
  engine.run_until(60 * kSecond);
  ASSERT_TRUE(job.finished());
  const auto stats = perf::link_stats(cl.fabric(), engine.now());
  EXPECT_EQ(stats.size(), cl.fabric().num_links());
  std::uint64_t messages = 0;
  for (const auto& s : stats) messages += s.messages;
  EXPECT_GT(messages, 0u);
  const std::string text = perf::render_netstat(cl.fabric(), engine.now());
  EXPECT_NE(text.find("nic-up"), std::string::npos);
  EXPECT_NE(text.find("latency histogram"), std::string::npos);
}

}  // namespace
}  // namespace hpcs::cluster

namespace hpcs::mpi {
namespace {

// ---------------------------------------------------------------------------
// Single-node MpiWorld with an attached fabric
// ---------------------------------------------------------------------------

TEST(MpiWorldFabricTest, StepwiseCollectivesRunOnOneNode) {
  auto run = [](net::Algorithm algorithm) {
    sim::Engine engine;
    kernel::Kernel kernel(engine, kernel::KernelConfig{});
    kernel.boot();
    net::FabricConfig fc;
    fc.nodes = 1;
    net::Fabric fabric(fc);
    Program p;
    p.barrier();
    p.loop(5).compute(100 * kMicrosecond, 0.01).allreduce(8192).end_loop();
    MpiConfig mc;
    mc.nranks = 8;
    mc.collective_algorithm = algorithm;
    MpiWorld world(kernel, mc, p);
    world.attach_fabric(fabric);
    world.launch_mpiexec(kernel::Policy::kNormal, 0, kernel::kInvalidTid);
    engine.run_until(60 * kSecond);
    EXPECT_TRUE(world.finished());
    EXPECT_FALSE(world.failed());
    return world.finish_time();
  };
  const SimTime flat = run(net::Algorithm::kFlat);
  const SimTime tree = run(net::Algorithm::kBinomialTree);
  EXPECT_NE(flat, tree);
  EXPECT_EQ(tree, run(net::Algorithm::kBinomialTree));  // deterministic
}

TEST(MpiWorldFabricTest, WithoutFabricAlgorithmFallsBackToFlat) {
  auto run = [](net::Algorithm algorithm) {
    sim::Engine engine;
    kernel::Kernel kernel(engine, kernel::KernelConfig{});
    kernel.boot();
    Program p;
    p.barrier().allreduce(4096).barrier();
    MpiConfig mc;
    mc.nranks = 4;
    mc.collective_algorithm = algorithm;
    MpiWorld world(kernel, mc, p);  // no attach_fabric
    world.launch_mpiexec(kernel::Policy::kNormal, 0, kernel::kInvalidTid);
    engine.run_until(60 * kSecond);
    EXPECT_TRUE(world.finished());
    return world.finish_time();
  };
  EXPECT_EQ(run(net::Algorithm::kRing), run(net::Algorithm::kFlat));
}

}  // namespace
}  // namespace hpcs::mpi

namespace hpcs::batch {
namespace {

// ---------------------------------------------------------------------------
// Allocator scatter policy
// ---------------------------------------------------------------------------

TEST(AllocPolicyTest, ScatterStripesAcrossBlocks) {
  NodeAllocator scatter(16, 4, AllocPolicy::kScatter);
  const auto nodes = scatter.allocate(4);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(*nodes, (std::vector<int>{0, 4, 8, 12}));
  EXPECT_FALSE(scatter.last_allocation_contiguous());
  scatter.check_conservation();

  NodeAllocator best_fit(16, 4, AllocPolicy::kBestFit);
  const auto contiguous = best_fit.allocate(4);
  ASSERT_TRUE(contiguous.has_value());
  EXPECT_EQ(*contiguous, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(best_fit.last_allocation_contiguous());
}

TEST(AllocPolicyTest, ScatterFillsBlocksAfterStriping) {
  NodeAllocator scatter(8, 4, AllocPolicy::kScatter);
  const auto first = scatter.allocate(2);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, (std::vector<int>{0, 4}));
  const auto second = scatter.allocate(4);
  ASSERT_TRUE(second.has_value());
  // Striping continues over the remaining free nodes of each block.
  EXPECT_EQ(*second, (std::vector<int>{1, 2, 5, 6}));
  scatter.check_conservation();
  EXPECT_EQ(scatter.free_count(), 2);
}

TEST(AllocPolicyTest, PolicyNames) {
  EXPECT_STREQ(alloc_policy_name(AllocPolicy::kBestFit), "best-fit");
  EXPECT_STREQ(alloc_policy_name(AllocPolicy::kScatter), "scatter");
}

}  // namespace
}  // namespace hpcs::batch
