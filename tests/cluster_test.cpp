// Tests for the multi-node cluster substrate: node isolation, cross-node
// rendezvous with network latency, job lifecycle, determinism, HPL per node.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "kernel/behaviors.h"
#include "mpi/program.h"
#include "sim/engine.h"

namespace hpcs::cluster {
namespace {

using kernel::Policy;

ClusterConfig quiet_config(int nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.spawn_daemons = false;  // silent nodes for deterministic unit tests
  return config;
}

TEST(ClusterTest, ConstructsAndBootsNodes) {
  sim::Engine engine;
  Cluster cluster(engine, quiet_config(4));
  EXPECT_EQ(cluster.num_nodes(), 4);
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster.node(n).topology().num_cpus(), 8);
  }
  EXPECT_THROW(Cluster(engine, quiet_config(0)), std::invalid_argument);
}

TEST(ClusterTest, NodesAreIndependentKernels) {
  sim::Engine engine;
  Cluster cluster(engine, quiet_config(2));
  // A task spawned on node 0 does not appear on node 1.
  kernel::SpawnSpec spec;
  spec.name = "only-node0";
  spec.behavior = std::make_unique<kernel::ScriptBehavior>(
      std::vector<kernel::Action>{kernel::Action::compute(milliseconds(1))});
  const kernel::Tid tid = cluster.node(0).spawn(std::move(spec));
  engine.run_until(milliseconds(5));
  EXPECT_NE(cluster.node(0).find_task(tid), nullptr);
  // Node 1's task table only holds its own boot kthreads (tids overlap
  // numerically across kernels, so compare by name).
  const kernel::Task* other = cluster.node(1).find_task(tid);
  if (other != nullptr) {
    EXPECT_NE(other->name, "only-node0");
  }
}

TEST(ClusterTest, JobRunsAcrossNodes) {
  sim::Engine engine;
  Cluster cluster(engine, quiet_config(4));
  mpi::Program p;
  p.barrier().compute(milliseconds(2), 0.01).barrier();
  mpi::MpiConfig mc;
  mc.nranks = 16;  // 4 per node
  ClusterJob job(cluster, mc, p);
  EXPECT_EQ(job.total_ranks(), 16);
  EXPECT_EQ(job.node_of_rank(0), 0);
  EXPECT_EQ(job.node_of_rank(5), 1);
  EXPECT_EQ(job.node_of_rank(15), 3);
  job.launch(Policy::kNormal);
  engine.run_until(seconds(5));
  EXPECT_TRUE(job.finished());
  EXPECT_GT(job.finish_time(), job.start_time());
}

TEST(ClusterTest, RanksMustDivideAcrossNodes) {
  sim::Engine engine;
  Cluster cluster(engine, quiet_config(3));
  mpi::Program p;
  p.barrier();
  mpi::MpiConfig mc;
  mc.nranks = 8;  // not divisible by 3
  EXPECT_THROW(ClusterJob(cluster, mc, p), std::invalid_argument);
}

TEST(ClusterTest, CrossNodeBarrierSynchronises) {
  // One rank per node with strongly jittered compute: the barrier forces
  // all exits within (net latency + epsilon) of each other.
  sim::Engine engine;
  Cluster cluster(engine, quiet_config(4));
  mpi::Program p;
  p.compute(milliseconds(3), 0.5).barrier().compute(microseconds(10));
  mpi::MpiConfig mc;
  mc.nranks = 4;
  mc.run_speed_sigma = 0.0;
  ClusterJob job(cluster, mc, p);
  job.launch(Policy::kNormal);
  engine.run_until(seconds(5));
  ASSERT_TRUE(job.finished());
  // Finish == last exit; with one barrier near the end all ranks finish
  // within a millisecond of each other, so job wall time tracks the max
  // compute plus overheads.
  EXPECT_LT(to_seconds(job.finish_time() - job.start_time()), 0.05);
}

TEST(ClusterTest, NetworkLatencyDelaysRemoteRelease) {
  auto finish_with_latency = [](SimDuration latency) {
    sim::Engine engine;
    ClusterConfig config = quiet_config(2);
    config.fabric = net::FabricConfig::uniform(2, latency);
    Cluster cluster(engine, config);
    mpi::Program p;
    p.loop(50).compute(microseconds(100), 0.0).barrier().end_loop();
    mpi::MpiConfig mc;
    mc.nranks = 2;
    mc.run_speed_sigma = 0.0;
    ClusterJob job(cluster, mc, p);
    job.launch(Policy::kNormal);
    engine.run_until(seconds(10));
    EXPECT_TRUE(job.finished());
    return job.finish_time() - job.start_time();
  };
  const SimDuration fast = finish_with_latency(1 * kMicrosecond);
  const SimDuration slow = finish_with_latency(500 * kMicrosecond);
  // 50 barriers, each paying ~the extra latency at least once.
  EXPECT_GT(slow, fast + 50 * 400 * kMicrosecond / 2);
}

TEST(ClusterTest, HplInstalledOnEveryNode) {
  sim::Engine engine;
  ClusterConfig config = quiet_config(2);
  config.install_hpl = true;
  Cluster cluster(engine, config);
  mpi::Program p;
  p.barrier().compute(milliseconds(1)).barrier();
  mpi::MpiConfig mc;
  mc.nranks = 4;
  ClusterJob job(cluster, mc, p);
  job.launch(Policy::kHpc);  // would throw in class_of without the HPC class
  engine.run_until(seconds(2));
  EXPECT_TRUE(job.finished());
}

TEST(ClusterTest, DeterministicAcrossRuns) {
  auto run = [] {
    sim::Engine engine;
    ClusterConfig config;
    config.nodes = 2;
    config.seed = 9;
    Cluster cluster(engine, config);  // with daemons
    mpi::Program p;
    p.barrier().loop(5).compute(milliseconds(1), 0.05).allreduce(8).end_loop();
    mpi::MpiConfig mc;
    mc.nranks = 16;
    mc.seed = 5;
    ClusterJob job(cluster, mc, p);
    job.launch(Policy::kNormal);
    engine.run_until(seconds(10));
    return job.finish_time();
  };
  EXPECT_EQ(run(), run());
}

TEST(ClusterTest, PerNodeDaemonStreamsDiffer) {
  sim::Engine engine;
  ClusterConfig config;
  config.nodes = 2;
  Cluster cluster(engine, config);
  engine.run_until(seconds(2));
  // Both nodes ran daemons, but with different phases: the context-switch
  // counts diverge.
  const auto a = cluster.node(0).counters().context_switches;
  const auto b = cluster.node(1).counters().context_switches;
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, 0u);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace hpcs::cluster
