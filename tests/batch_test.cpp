// Tests for the batch workload manager: reproducible arrival streams, SWF
// round trips, topology-aware allocation, FCFS/SJF/EASY policies, the EASY
// no-delay guarantee, node conservation under faults, and recovery of jobs
// caught by a node loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "batch/allocator.h"
#include "batch/job.h"
#include "batch/scheduler.h"
#include "batch/workload.h"
#include "cluster/cluster.h"
#include "sim/engine.h"

namespace hpcs::batch {
namespace {

cluster::ClusterConfig quiet_cluster(int nodes) {
  cluster::ClusterConfig config;
  config.nodes = nodes;
  config.spawn_daemons = false;
  return config;
}

/// A small job: `nodes` nodes, ~iterations x grain of work, conservative
/// estimate (2x), deterministic (no jitter, no run-speed variation).
JobSpec small_job(int id, SimTime arrival, int nodes, int iterations = 5,
                  SimDuration grain = 2 * kMillisecond) {
  JobSpec spec;
  spec.id = id;
  spec.arrival = arrival;
  spec.nodes = nodes;
  spec.ranks_per_node = 2;
  spec.iterations = iterations;
  spec.grain = grain;
  spec.estimate = 2 * ideal_runtime(spec);
  return spec;
}

BatchConfig deterministic_config(BatchPolicy policy) {
  BatchConfig config;
  config.policy = policy;
  config.mpi.run_speed_sigma = 0.0;
  config.mpi.compute_jitter = 0.0;
  return config;
}

// --- workload generation -----------------------------------------------------

TEST(BatchWorkloadTest, ArrivalStreamIsBitIdenticalPerSeed) {
  ArrivalConfig config;
  config.jobs = 50;
  const auto a = generate_arrivals(config, 42);
  const auto b = generate_arrivals(config, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].iterations, b[i].iterations);
    EXPECT_EQ(a[i].estimate, b[i].estimate);
  }
  const auto c = generate_arrivals(config, 43);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].arrival != c[i].arrival || a[i].nodes != c[i].nodes ||
                a[i].iterations != c[i].iterations;
  }
  EXPECT_TRUE(any_diff) << "different seeds must give different traces";
}

TEST(BatchWorkloadTest, GeneratorRespectsBounds) {
  ArrivalConfig config;
  config.jobs = 200;
  config.max_nodes = 3;
  const auto jobs = generate_arrivals(config, 7);
  ASSERT_EQ(jobs.size(), 200u);
  SimTime last = 0;
  for (const auto& j : jobs) {
    EXPECT_GE(j.nodes, 1);
    EXPECT_LE(j.nodes, 3);
    EXPECT_GE(j.iterations, 1);
    EXPECT_GE(j.arrival, last) << "arrivals must be non-decreasing";
    EXPECT_GE(j.estimate, ideal_runtime(j)) << "estimates are conservative";
    last = j.arrival;
  }
}

TEST(BatchWorkloadTest, SwfRoundTrip) {
  ArrivalConfig config;
  config.jobs = 12;
  const auto jobs = generate_arrivals(config, 5);
  SwfDefaults defaults;
  defaults.ranks_per_node = config.ranks_per_node;
  defaults.grain = config.grain;
  const auto parsed = parse_swf(format_swf(jobs), defaults);
  ASSERT_EQ(parsed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(parsed[i].id, jobs[i].id);
    EXPECT_EQ(parsed[i].nodes, jobs[i].nodes);
    EXPECT_EQ(parsed[i].iterations, jobs[i].iterations);
    // Times survive to SWF's microsecond precision.
    EXPECT_NEAR(to_seconds(parsed[i].arrival), to_seconds(jobs[i].arrival),
                1e-6);
    EXPECT_NEAR(to_seconds(parsed[i].estimate), to_seconds(jobs[i].estimate),
                1e-6);
  }
  // A second round trip is exact: formatting is idempotent.
  EXPECT_EQ(format_swf(parsed), format_swf(parse_swf(format_swf(parsed))));
}

TEST(BatchWorkloadTest, SwfParsesCommentsAndRejectsGarbage) {
  const auto jobs = parse_swf(
      "; header comment\n"
      "\n"
      "1 0.5 -1 2.0 4 -1 -1 4 3.0 -1 1 ; trailing comment\n"
      "2 1.0 -1 1.0 -1 -1 -1 2 -1\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].nodes, 4);
  EXPECT_EQ(jobs[0].arrival, 500 * kMillisecond);
  EXPECT_EQ(jobs[0].estimate, 3 * kSecond);
  EXPECT_EQ(jobs[1].nodes, 2);
  EXPECT_EQ(jobs[1].estimate, ideal_runtime(jobs[1]));  // falls back to runtime
  EXPECT_THROW(parse_swf("1 2 3\n"), std::invalid_argument);
  EXPECT_THROW(parse_swf("1 0.0 -1 bogus 4\n"), std::invalid_argument);
}

TEST(BatchWorkloadTest, SwfCommentOnlyTraceIsEmpty) {
  SwfParseStats stats;
  const auto jobs =
      parse_swf("; header\n;\n\n   \n; nothing but comments\n", {}, &stats);
  EXPECT_TRUE(jobs.empty());
  EXPECT_EQ(stats.jobs, 0);
  EXPECT_EQ(stats.dropped_lines, 0);
  EXPECT_TRUE(stats.warnings.empty());
}

TEST(BatchWorkloadTest, SwfMissingOptionalColumnsFallBack) {
  // Five columns is a legal line: nodes fall back to allocated processors
  // (column 5), the walltime estimate to the runtime, the user to 0.
  const auto jobs = parse_swf("7 0.5 -1 2.0 3\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 7);
  EXPECT_EQ(jobs[0].nodes, 3);
  EXPECT_EQ(jobs[0].user, 0);
  EXPECT_EQ(jobs[0].estimate, ideal_runtime(jobs[0]));
}

TEST(BatchWorkloadTest, SwfZeroNodeJobsThrowOrDropWithLineNumber) {
  const std::string trace =
      "1 0.0 -1 2.0 4\n"
      "2 1.0 -1 2.0 0 -1 -1 0\n"  // 0 procs in both columns 5 and 8
      "3 2.0 -1 2.0 4\n";
  try {
    parse_swf(trace);
    FAIL() << "strict parse accepted a 0-node job";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  SwfDefaults lenient;
  lenient.lenient = true;
  SwfParseStats stats;
  const auto jobs = parse_swf(trace, lenient, &stats);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 1);
  EXPECT_EQ(jobs[1].id, 3);
  EXPECT_EQ(stats.dropped_lines, 1);
  ASSERT_EQ(stats.warnings.size(), 1u);
  EXPECT_EQ(stats.warnings[0].first, 2);
}

TEST(BatchWorkloadTest, SwfNonMonotonicSubmitThrowsOrClampsCounted) {
  const std::string trace =
      "1 5.0 -1 2.0 2\n"
      "2 3.0 -1 2.0 2\n"  // submit runs backwards
      "3 4.0 -1 2.0 2\n";
  try {
    parse_swf(trace);
    FAIL() << "strict parse accepted a non-monotonic submit";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  SwfDefaults lenient;
  lenient.lenient = true;
  SwfParseStats stats;
  const auto jobs = parse_swf(trace, lenient, &stats);
  ASSERT_EQ(jobs.size(), 3u);
  // Both defective submits clamp to the running maximum, 5.0s.
  EXPECT_EQ(jobs[1].arrival, jobs[0].arrival);
  EXPECT_EQ(jobs[2].arrival, jobs[0].arrival);
  EXPECT_EQ(stats.clamped_submits, 2);
  ASSERT_EQ(stats.warnings.size(), 2u);
  EXPECT_EQ(stats.warnings[0].first, 2);
  EXPECT_EQ(stats.warnings[1].first, 3);
}

TEST(BatchWorkloadTest, SwfNegativeRuntimeDroppedLeniently) {
  SwfDefaults lenient;
  lenient.lenient = true;
  SwfParseStats stats;
  const auto jobs =
      parse_swf("1 0.0 -1 -1 4\n2 1.0 -1 2.0 4\n", lenient, &stats);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 2);
  EXPECT_EQ(stats.dropped_lines, 1);
}

// --- allocator ---------------------------------------------------------------

TEST(NodeAllocatorTest, PrefersContiguousBlockAlignedRuns) {
  NodeAllocator alloc(8, 4);
  const auto a = alloc.allocate(4);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(alloc.last_allocation_contiguous());
  const auto b = alloc.allocate(2);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, (std::vector<int>{4, 5}));
  alloc.release(*a);
  // Best fit: a 2-node request should take the 2-node tail run, not carve
  // the freed 4-node block.
  const auto c = alloc.allocate(2);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, (std::vector<int>{6, 7}));
  EXPECT_TRUE(alloc.last_allocation_contiguous());
}

TEST(NodeAllocatorTest, FallsBackToFragmentsOnlyWhenNeeded) {
  NodeAllocator alloc(8, 4);
  const auto a = alloc.allocate(3);  // 0-2
  const auto b = alloc.allocate(3);  // 3-5 (best-fit contiguous)
  ASSERT_TRUE(a && b);
  alloc.release(*a);  // free: 0-2, 6-7
  const auto c = alloc.allocate(5);  // must span both fragments
  ASSERT_TRUE(c.has_value());
  EXPECT_FALSE(alloc.last_allocation_contiguous());
  EXPECT_EQ(c->size(), 5u);
  EXPECT_EQ(alloc.free_count(), 0);
  EXPECT_EQ(alloc.stats().fragmented, 1u);
  EXPECT_FALSE(alloc.allocate(1).has_value());
}

TEST(NodeAllocatorTest, OfflineNodesLeaveThePool) {
  NodeAllocator alloc(4, 4);
  EXPECT_EQ(alloc.set_offline(0), NodeState::kFree);
  EXPECT_FALSE(alloc.allocate(4).has_value());
  const auto a = alloc.allocate(3);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, (std::vector<int>{1, 2, 3}));
  // Node 2 fails under the job: release frees the survivors only.
  EXPECT_EQ(alloc.set_offline(2), NodeState::kBusy);
  alloc.release(*a);
  EXPECT_EQ(alloc.free_count(), 2);
  EXPECT_EQ(alloc.offline_count(), 2);
  EXPECT_EQ(alloc.busy_count(), 0);
  alloc.check_conservation();
  alloc.set_online(0);
  alloc.set_online(2);
  EXPECT_EQ(alloc.free_count(), 4);
  EXPECT_TRUE(alloc.allocate(4).has_value());
  alloc.check_conservation();
}

TEST(NodeAllocatorTest, SlotApiIsTheNodeApiAtOneSlotPerNode) {
  // At one slot per node free_slots() is free_count(), and both agree with
  // a per-node recount through allocate, release, offline and online.
  NodeAllocator alloc(8, 4);
  const auto agree = [&alloc] {
    int recount = 0;
    for (int n = 0; n < alloc.total(); ++n) {
      if (alloc.state(n) != NodeState::kOffline) {
        recount += 1 - alloc.busy_slots(n);
      }
    }
    EXPECT_EQ(alloc.free_slots(), alloc.free_count());
    EXPECT_EQ(alloc.free_slots(), recount);
  };
  agree();
  const auto a = alloc.allocate_slots(3);
  ASSERT_TRUE(a.has_value());
  agree();
  const auto b = alloc.allocate(2);
  ASSERT_TRUE(b.has_value());
  agree();
  EXPECT_EQ(alloc.set_offline(a->front()), NodeState::kBusy);
  agree();
  EXPECT_EQ(alloc.set_offline(7), NodeState::kFree);
  agree();
  alloc.release_slots(*a);
  agree();
  alloc.set_online(a->front());
  alloc.set_online(7);
  agree();
  alloc.release(*b);
  agree();
  EXPECT_EQ(alloc.free_slots(), 8);
  alloc.check_conservation();
}

TEST(NodeAllocatorTest, ReleasingAFreeNodeThrows) {
  NodeAllocator alloc(2, 2);
  EXPECT_THROW(alloc.release({0}), std::logic_error);
  EXPECT_THROW(alloc.allocate(0), std::invalid_argument);
  EXPECT_THROW(NodeAllocator(0), std::invalid_argument);
}

// --- scheduler: basic lifecycle ---------------------------------------------

TEST(BatchSchedulerTest, FcfsRunsEveryJobInArrivalOrder) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(4));
  BatchScheduler sched(cluster, deterministic_config(BatchPolicy::kFcfs));
  sched.submit(small_job(1, 0, 2));
  sched.submit(small_job(2, 1 * kMillisecond, 2));
  sched.submit(small_job(3, 2 * kMillisecond, 4));
  sched.submit(small_job(4, 3 * kMillisecond, 1));
  engine.run_until(5 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  ASSERT_EQ(records.size(), 4u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.state, JobState::kFinished);
    EXPECT_GT(rec.finish, rec.start);
    EXPECT_GE(rec.start, rec.spec.arrival);
  }
  // 1 and 2 run side by side; 3 needs the whole cluster; 4 arrived last and
  // under FCFS never overtakes 3.
  EXPECT_LT(records[1].start, records[2].start);
  EXPECT_GE(records[3].start, records[2].start);
  EXPECT_EQ(sched.backfills(), 0u);
  EXPECT_EQ(sched.allocator().busy_count(), 0);
  EXPECT_EQ(sched.allocator().free_count(), 4);
  const BatchMetrics m = sched.metrics();
  EXPECT_EQ(m.finished, 4);
  EXPECT_GT(m.makespan_s, 0.0);
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0);
  EXPECT_GE(m.mean_slowdown, 1.0);
  EXPECT_GT(m.jain_fairness, 0.0);
  EXPECT_LE(m.jain_fairness, 1.0 + 1e-12);
  EXPECT_GT(sched.measured_node_utilization(), 0.0);
}

TEST(BatchSchedulerTest, SjfReordersByEstimate) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchScheduler sched(cluster, deterministic_config(BatchPolicy::kSjf));
  // A long job holds the cluster while a long and a short job queue up; SJF
  // runs the short one first.
  sched.submit(small_job(1, 0, 2, 40));
  sched.submit(small_job(2, 1 * kMillisecond, 2, 40));
  sched.submit(small_job(3, 2 * kMillisecond, 2, 5));
  engine.run_until(5 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  EXPECT_LT(records[2].start, records[1].start);
}

TEST(BatchSchedulerTest, RunIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Engine engine;
    cluster::ClusterConfig cc;  // with daemons: full noise stack
    cc.nodes = 2;
    cc.seed = seed;
    cluster::Cluster cluster(engine, cc);
    BatchConfig config;
    config.policy = BatchPolicy::kEasy;
    config.seed = seed;
    BatchScheduler sched(cluster, config);
    ArrivalConfig ac;
    ac.jobs = 8;
    ac.max_nodes = 2;
    ac.ranks_per_node = 4;
    ac.mean_interarrival = 20 * kMillisecond;
    sched.submit_all(generate_arrivals(ac, seed));
    engine.run_until(20 * kSecond);
    EXPECT_TRUE(sched.all_done());
    std::vector<std::pair<SimTime, SimTime>> times;
    for (const auto& rec : sched.records()) {
      times.emplace_back(rec.start, rec.finish);
    }
    return times;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

// --- EASY backfill -----------------------------------------------------------

TEST(BatchSchedulerTest, EasyBackfillsAroundABlockedHead) {
  // J1 takes 3 of 4 nodes for a while; J2 (needs 4) blocks at the head; J3
  // (1 node, short) fits beside/before the reservation and jumps the queue.
  auto run = [](BatchPolicy policy) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, quiet_cluster(4));
    BatchScheduler sched(cluster, deterministic_config(policy));
    sched.submit(small_job(1, 0, 3, 20));
    sched.submit(small_job(2, 1 * kMillisecond, 4, 5));
    sched.submit(small_job(3, 2 * kMillisecond, 1, 2));
    engine.run_until(5 * kSecond);
    EXPECT_TRUE(sched.all_done());
    return std::make_tuple(sched.records()[1].start, sched.records()[2].start,
                           sched.backfills(), sched.reservation_violations(),
                           sched.metrics());
  };
  const auto [fcfs_j2, fcfs_j3, fcfs_bf, fcfs_viol, fcfs_m] =
      run(BatchPolicy::kFcfs);
  const auto [easy_j2, easy_j3, easy_bf, easy_viol, easy_m] =
      run(BatchPolicy::kEasy);
  // FCFS: J3 waits behind the blocked J2.  EASY: J3 overtakes it.
  EXPECT_GE(fcfs_j3, fcfs_j2);
  EXPECT_EQ(fcfs_bf, 0u);
  EXPECT_LT(easy_j3, easy_j2);
  EXPECT_GE(easy_bf, 1u);
  // The no-delay guarantee: backfilling never pushed the head back, and the
  // head starts no later than under FCFS.
  EXPECT_EQ(easy_viol, 0u);
  EXPECT_LE(easy_j2, fcfs_j2);
  // Backfill squeezes more work into the same window.
  EXPECT_GE(easy_m.utilization, fcfs_m.utilization);
  EXPECT_LE(easy_m.makespan_s, fcfs_m.makespan_s + 1e-9);
}

TEST(BatchSchedulerTest, EasyNeverDelaysReservedHeadAcrossATrace) {
  // A whole seeded trace with conservative estimates: every promised
  // reservation is honoured (start <= promise) and no violation is counted.
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(4));
  BatchConfig config = deterministic_config(BatchPolicy::kEasy);
  BatchScheduler sched(cluster, config);
  ArrivalConfig ac;
  ac.jobs = 25;
  ac.max_nodes = 4;
  ac.ranks_per_node = 2;
  ac.mean_interarrival = 10 * kMillisecond;
  ac.runtime_typical = 30 * kMillisecond;
  ac.grain = 2 * kMillisecond;
  ac.estimate_factor = 3.0;  // generous upper bound
  sched.submit_all(generate_arrivals(ac, 3));
  engine.run_until(60 * kSecond);
  ASSERT_TRUE(sched.all_done());
  EXPECT_EQ(sched.reservation_violations(), 0u);
  EXPECT_GE(sched.backfills(), 1u);
  for (const auto& rec : sched.records()) {
    ASSERT_EQ(rec.state, JobState::kFinished);
    if (rec.promised_start != kNoPromise) {
      EXPECT_LE(rec.start, rec.promised_start)
          << "job " << rec.spec.id << " started after its reservation";
    }
  }
}

TEST(BatchSchedulerTest, EasyPromiseFollowsTheHeadUnderQueuesAndFairshare) {
  // Priorities and fairshare reorder the queue, so the head changes hands.
  // Only the head holds a promise: the job it was taken from loses its
  // promise (a displacement), and no job starts after a promise it holds.
  std::uint64_t displacements = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, quiet_cluster(4));
    BatchConfig config = deterministic_config(BatchPolicy::kEasy);
    QueueConfig express;
    express.name = "express";
    express.priority = 10;
    express.max_nodes = 2;
    express.max_walltime = 200 * kMillisecond;
    QueueConfig workq;
    workq.name = "workq";
    config.queues = {express, workq};
    config.fairshare.enabled = true;
    config.fairshare.halflife = 1 * kSecond;
    BatchScheduler sched(cluster, config);
    ArrivalConfig ac;
    ac.jobs = 40;
    ac.max_nodes = 4;
    ac.ranks_per_node = 2;
    ac.mean_interarrival = 10 * kMillisecond;
    ac.runtime_typical = 30 * kMillisecond;
    ac.grain = 2 * kMillisecond;
    ac.estimate_factor = 3.0;
    ac.users = 6;
    ac.user_zipf = 1.2;
    sched.submit_all(generate_arrivals(ac, seed));
    engine.run_until(60 * kSecond);
    ASSERT_TRUE(sched.all_done()) << seed;
    EXPECT_EQ(sched.reservation_violations(), 0u) << seed;
    for (const auto& rec : sched.records()) {
      if (rec.promised_start != kNoPromise) {
        EXPECT_LE(rec.start, rec.promised_start) << seed << " " << rec.spec.id;
      }
    }
    displacements += sched.reservation_displacements();
  }
  EXPECT_GE(displacements, 1u);
}

// --- conservation & faults ---------------------------------------------------

TEST(BatchSchedulerTest, NodeCountsConservedAcrossDispatchCompleteFault) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(4));
  BatchConfig config = deterministic_config(BatchPolicy::kEasy);
  config.node_faults.push_back({40 * kMillisecond, 1, false});
  config.node_faults.push_back({120 * kMillisecond, 1, true});
  config.node_faults.push_back({60 * kMillisecond, 3, false});
  config.node_faults.push_back({200 * kMillisecond, 3, true});
  BatchScheduler sched(cluster, config);
  ArrivalConfig ac;
  ac.jobs = 12;
  ac.max_nodes = 2;  // always fits the shrunken pool
  ac.ranks_per_node = 2;
  ac.mean_interarrival = 15 * kMillisecond;
  ac.runtime_typical = 25 * kMillisecond;
  ac.grain = 2 * kMillisecond;
  sched.submit_all(generate_arrivals(ac, 9));
  for (int step = 0; step < 3000 && !sched.all_done(); ++step) {
    engine.run_until(engine.now() + 10 * kMillisecond);
    // The invariant the issue pins: free + busy + offline == total, the
    // cached counts match a recount, and every busy node belongs to
    // exactly one running job.
    sched.allocator().check_conservation();
    std::vector<int> held;
    for (const auto& rec : sched.records()) {
      if (rec.state != JobState::kRunning) continue;
      held.insert(held.end(), rec.nodes.begin(), rec.nodes.end());
    }
    std::sort(held.begin(), held.end());
    EXPECT_TRUE(std::adjacent_find(held.begin(), held.end()) == held.end())
        << "a node is allocated to two running jobs";
    int busy_by_state = 0;
    for (int n = 0; n < sched.allocator().total(); ++n) {
      busy_by_state +=
          sched.allocator().state(n) == NodeState::kBusy ? 1 : 0;
    }
    // Nodes that failed under a still-draining job are Offline yet still in
    // the job's allocation, so held >= busy_by_state.
    EXPECT_GE(held.size(), static_cast<std::size_t>(busy_by_state));
  }
  ASSERT_TRUE(sched.all_done());
  EXPECT_EQ(sched.allocator().busy_count(), 0);
  EXPECT_EQ(sched.allocator().offline_count(), 0);
  EXPECT_EQ(sched.allocator().free_count(), 4);
  EXPECT_EQ(sched.node_failures(), 2u);
  for (const auto& rec : sched.records()) {
    EXPECT_EQ(rec.state, JobState::kFinished) << "job " << rec.spec.id;
  }
}

TEST(BatchSchedulerTest, JobQueuedDuringNodeOutageEventuallyRuns) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchConfig config = deterministic_config(BatchPolicy::kFcfs);
  // Node 1 dies under the first job and comes back 100ms later.
  config.node_faults.push_back({10 * kMillisecond, 1, false});
  config.node_faults.push_back({110 * kMillisecond, 1, true});
  BatchScheduler sched(cluster, config);
  sched.submit(small_job(1, 0, 2, 20));               // running at the fault
  sched.submit(small_job(2, 5 * kMillisecond, 2, 5));  // queued behind it
  engine.run_until(2 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  // Job 1 was aborted by the node loss, resubmitted, and finished on the
  // repaired cluster; job 2 just waited the outage out.
  EXPECT_EQ(records[0].state, JobState::kFinished);
  EXPECT_EQ(records[0].resubmits, 1);
  EXPECT_EQ(records[1].state, JobState::kFinished);
  EXPECT_GE(records[1].start, 110 * kMillisecond);
  EXPECT_EQ(sched.node_failures(), 1u);
  EXPECT_GT(sched.metrics().finished, 0);
}

TEST(BatchSchedulerTest, FailedJobWithoutResubmitIsRecorded) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchConfig config = deterministic_config(BatchPolicy::kFcfs);
  config.resubmit_failed = false;
  config.node_faults.push_back({10 * kMillisecond, 0, false});
  BatchScheduler sched(cluster, config);
  sched.submit(small_job(1, 0, 2, 50));
  sched.submit(small_job(2, 5 * kMillisecond, 1, 3));
  engine.run_until(2 * kSecond);
  ASSERT_TRUE(sched.all_done());
  EXPECT_EQ(sched.records()[0].state, JobState::kFailed);
  EXPECT_EQ(sched.records()[1].state, JobState::kFinished);
  EXPECT_EQ(sched.metrics().failed, 1);
}

TEST(BatchSchedulerTest, RejectsImpossibleJobs) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchScheduler sched(cluster, deterministic_config(BatchPolicy::kFcfs));
  EXPECT_THROW(sched.submit(small_job(1, 0, 3)), std::invalid_argument);
  JobSpec bad = small_job(2, 0, 1);
  bad.ranks_per_node = 0;
  EXPECT_THROW(sched.submit(bad), std::invalid_argument);
}

// --- multi-queue / fairshare / preemption / reservations ---------------------

TEST(BatchSchedulerTest, MultiQueueRoutesByShapeAndRejectsMisfits) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(4));
  BatchConfig config = deterministic_config(BatchPolicy::kEasy);
  QueueConfig express;
  express.name = "express";
  express.priority = 10;
  express.max_nodes = 1;
  QueueConfig workq;
  workq.name = "workq";
  workq.max_nodes = 2;
  config.queues = {express, workq};
  BatchScheduler sched(cluster, config);
  sched.submit(small_job(1, 0, 1));  // routes to express (first admitting)
  sched.submit(small_job(2, 0, 2));  // too wide for express -> workq
  sched.submit(small_job(3, 0, 4));  // no queue admits 4 nodes
  engine.run_until(2 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  EXPECT_EQ(records[0].queue, 0);
  EXPECT_EQ(records[0].state, JobState::kFinished);
  EXPECT_EQ(records[1].queue, 1);
  EXPECT_EQ(records[1].state, JobState::kFinished);
  EXPECT_EQ(records[2].state, JobState::kRejected);
  const BatchMetrics m = sched.metrics();
  EXPECT_EQ(m.rejected, 1);
  ASSERT_EQ(m.queues.size(), 2u);
  EXPECT_EQ(m.queues[0].name, "express");
  EXPECT_EQ(m.queues[0].finished, 1);
  EXPECT_EQ(m.queues[1].name, "workq");
  EXPECT_EQ(m.queues[1].finished, 1);
}

TEST(BatchSchedulerTest, QueueNodeLimitCapsConcurrencyWithoutBlockingOthers) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(4));
  BatchConfig config = deterministic_config(BatchPolicy::kEasy);
  QueueConfig capped;
  capped.name = "capped";
  capped.node_limit = 1;  // at most one node running at once
  capped.max_nodes = 1;
  QueueConfig open;
  open.name = "open";
  config.queues = {capped, open};
  BatchScheduler sched(cluster, config);
  sched.submit(small_job(1, 0, 1, 20));
  sched.submit(small_job(2, 0, 1, 20));  // capped: must wait for job 1
  JobSpec wide = small_job(3, 0, 2, 5);
  wide.nodes = 2;
  sched.submit(wide);  // open queue: must not wait for the capped backlog
  engine.run_until(2 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  // The capped queue serialised its two jobs...
  EXPECT_GE(records[1].start, records[0].finish);
  // ...while the open queue's job ran immediately beside them.
  EXPECT_LT(records[2].start, records[0].finish);
}

TEST(BatchSchedulerTest, FairshareFavoursTheLightUser) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchConfig config = deterministic_config(BatchPolicy::kEasy);
  config.fairshare.enabled = true;
  config.fairshare.halflife = 60 * kSecond;  // no meaningful decay in-test
  BatchScheduler sched(cluster, config);
  JobSpec blocker = small_job(1, 0, 2, 30);
  blocker.user = 1;
  sched.submit(blocker);  // charges user 1 when it finishes
  JobSpec heavy = small_job(2, 1 * kMillisecond, 2, 5);
  heavy.user = 1;
  sched.submit(heavy);
  JobSpec light = small_job(3, 2 * kMillisecond, 2, 5);
  light.user = 2;
  sched.submit(light);
  engine.run_until(2 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  // Despite arriving later, user 2's job overtakes user 1's second job:
  // user 1 already burned node-seconds on the blocker.
  EXPECT_LT(records[2].start, records[1].start);
  EXPECT_GT(sched.metrics().user_fairness, 0.0);
}

TEST(BatchSchedulerTest, PreemptionSuspendsResumesAndBanksIterations) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchConfig config = deterministic_config(BatchPolicy::kEasy);
  QueueConfig express;
  express.name = "express";
  express.priority = 10;
  express.max_nodes = 2;
  express.max_walltime = 50 * kMillisecond;  // keeps the long victim out
  QueueConfig workq;
  workq.name = "workq";
  workq.priority = 0;
  workq.max_nodes = 2;
  config.queues = {express, workq};
  config.preempt.enabled = true;
  BatchScheduler sched(cluster, config);
  JobSpec victim = small_job(1, 0, 2, 40);  // ~80ms of work
  victim.estimate = 4 * ideal_runtime(victim);
  sched.submit(victim);
  // Routed to express (priority 10) while the victim holds every node.
  JobSpec urgent = small_job(2, 30 * kMillisecond, 2, 5);
  sched.submit(urgent);
  engine.run_until(5 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  EXPECT_EQ(records[0].state, JobState::kFinished);
  EXPECT_EQ(records[0].preempts, 1);
  // The suspension kept the sync points the ranks had all passed...
  EXPECT_GT(records[0].committed_iters, 0);
  EXPECT_LT(records[0].committed_iters, victim.iterations);
  // ...and the express job ran during the victim's suspension.
  EXPECT_EQ(records[1].state, JobState::kFinished);
  EXPECT_LT(records[1].start, records[0].finish);
  EXPECT_EQ(sched.preemptions(), 1u);
  const BatchMetrics m = sched.metrics();
  EXPECT_EQ(m.preemptions, 1);
  EXPECT_GT(m.preempt_lost_s, 0.0);
}

TEST(BatchSchedulerTest, ReservationWindowBlocksOverlappingJobs) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchConfig config = deterministic_config(BatchPolicy::kEasy);
  Reservation maint;
  maint.name = "maint";
  maint.start = 40 * kMillisecond;
  maint.end = 100 * kMillisecond;
  maint.nodes = 2;
  config.reservations = {maint};
  BatchScheduler sched(cluster, config);
  // Fits before the window (estimate 20ms < 40ms) - runs immediately.
  sched.submit(small_job(1, 0, 2, 5));
  // Estimate 80ms would cross into the window - held until it closes.
  sched.submit(small_job(2, 1 * kMillisecond, 2, 20));
  engine.run_until(2 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  EXPECT_LT(records[0].start, 40 * kMillisecond);
  EXPECT_GE(records[1].start, 100 * kMillisecond);
  EXPECT_EQ(sched.reservation_shortfalls(), 0u);
  EXPECT_EQ(sched.allocator().free_count(), 2);  // holds released
}

TEST(BatchSchedulerTest, PolicyStackIsDeterministicUnderFaultCampaign) {
  auto run = [](std::uint64_t seed) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, quiet_cluster(4));
    BatchConfig config = deterministic_config(BatchPolicy::kEasy);
    QueueConfig express;
    express.name = "express";
    express.priority = 5;
    express.max_nodes = 1;
    QueueConfig workq;
    workq.name = "workq";
    config.queues = {express, workq};
    config.fairshare.enabled = true;
    config.preempt.enabled = true;
    config.campaign.nodes = 4;
    config.campaign.node_mtbf = 400 * kMillisecond;
    config.campaign.start = 10 * kMillisecond;
    config.campaign.horizon = 300 * kMillisecond;
    config.campaign_repair = 50 * kMillisecond;
    config.seed = seed;
    BatchScheduler sched(cluster, config);
    ArrivalConfig ac;
    ac.jobs = 16;
    ac.max_nodes = 2;
    ac.ranks_per_node = 2;
    ac.mean_interarrival = 10 * kMillisecond;
    ac.runtime_typical = 30 * kMillisecond;
    ac.grain = 2 * kMillisecond;
    ac.users = 3;
    ac.user_zipf = 1.0;
    sched.submit_all(generate_arrivals(ac, seed));
    engine.run_until(30 * kSecond);
    EXPECT_TRUE(sched.all_done());
    std::vector<std::tuple<SimTime, SimTime, int, int>> fingerprint;
    for (const auto& rec : sched.records()) {
      fingerprint.emplace_back(rec.start, rec.finish, rec.preempts,
                               rec.committed_iters);
    }
    return fingerprint;
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

// --- cluster integration -----------------------------------------------------

TEST(BatchClusterJobTest, SubsetJobRunsOnExactlyItsNodes) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(4));
  mpi::MpiConfig mc;
  mc.nranks = 4;
  mc.run_speed_sigma = 0.0;
  mpi::Program p;
  p.barrier().compute(milliseconds(1)).barrier();
  cluster::ClusterJob job(cluster, mc, p, {1, 3});
  EXPECT_EQ(job.node_of_rank(0), 1);
  EXPECT_EQ(job.node_of_rank(1), 1);
  EXPECT_EQ(job.node_of_rank(2), 3);
  EXPECT_EQ(job.node_of_rank(3), 3);
  // Nodes 0 and 2 never see an orted or a rank: their task tables stay at
  // the boot population.
  const std::size_t idle0 = cluster.node(0).task_count();
  const std::size_t idle2 = cluster.node(2).task_count();
  job.launch(kernel::Policy::kNormal);
  engine.run_until(seconds(1));
  ASSERT_TRUE(job.finished());
  EXPECT_FALSE(job.failed());
  EXPECT_EQ(cluster.node(0).task_count(), idle0);
  EXPECT_EQ(cluster.node(2).task_count(), idle2);
  EXPECT_GT(cluster.node(1).task_count(), cluster.node(0).task_count());
}

TEST(BatchClusterJobTest, DisjointJobsOverlapInTime) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(4));
  mpi::MpiConfig mc;
  mc.nranks = 4;
  mc.run_speed_sigma = 0.0;
  mpi::Program p;
  p.barrier().compute(milliseconds(5)).barrier();
  cluster::ClusterJob a(cluster, mc, p, {0, 1});
  cluster::ClusterJob b(cluster, mc, p, {2, 3});
  a.launch(kernel::Policy::kNormal);
  b.launch(kernel::Policy::kNormal);
  engine.run_until(seconds(1));
  ASSERT_TRUE(a.finished());
  ASSERT_TRUE(b.finished());
  // They ran concurrently, not serialised.
  EXPECT_LT(a.start_time(), b.finish_time());
  EXPECT_LT(b.start_time(), a.finish_time());
}

TEST(BatchClusterJobTest, AbortKillsAllRanksAndFiresFinish) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  mpi::MpiConfig mc;
  mc.nranks = 4;
  mc.run_speed_sigma = 0.0;
  mpi::Program p;
  p.barrier().compute(seconds(10)).barrier();  // would run far too long
  cluster::ClusterJob job(cluster, mc, p, {0, 1});
  bool finish_fired = false;
  job.set_on_finish([&] { finish_fired = true; });
  job.launch(kernel::Policy::kNormal);
  engine.run_until(5 * kMillisecond);
  EXPECT_FALSE(job.finished());
  job.abort();
  engine.run_until(50 * kMillisecond);
  EXPECT_TRUE(job.finished());
  EXPECT_TRUE(job.failed());
  EXPECT_TRUE(finish_fired);
}

TEST(BatchClusterJobTest, AbortDuringLaunchWindowStillFinishes) {
  // Abort before the orteds have forked any rank: the never-born ranks are
  // drained and the job still reaches finished().
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  mpi::MpiConfig mc;
  mc.nranks = 4;
  mc.run_speed_sigma = 0.0;
  mpi::Program p;
  p.barrier().compute(seconds(1)).barrier();
  cluster::ClusterJob job(cluster, mc, p, {0, 1});
  job.launch(kernel::Policy::kNormal);
  job.abort();  // orteds are still in their setup compute
  engine.run_until(seconds(1));
  EXPECT_TRUE(job.finished());
  EXPECT_TRUE(job.failed());
}

TEST(BatchClusterJobTest, RejectsBadNodeSets) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  mpi::MpiConfig mc;
  mc.nranks = 4;
  mpi::Program p;
  p.barrier();
  EXPECT_THROW(cluster::ClusterJob(cluster, mc, p, {}),
               std::invalid_argument);
  EXPECT_THROW(cluster::ClusterJob(cluster, mc, p, {0, 0}),
               std::invalid_argument);
  EXPECT_THROW(cluster::ClusterJob(cluster, mc, p, {0, 2}),
               std::invalid_argument);
  EXPECT_THROW(cluster::ClusterJob(cluster, mc, p, {0, 1, -1}),
               std::invalid_argument);
  mc.nranks = 3;
  EXPECT_THROW(cluster::ClusterJob(cluster, mc, p, {0, 1}),
               std::invalid_argument);
}

// --- the two-level claim -----------------------------------------------------

TEST(BatchTwoLevelTest, HplReducesSlowdownAndMakespanUnderNoise) {
  // The same arrival trace on the same noisy 4-node cluster: the HPC class
  // shortens every job's service time, which compounds through the queue
  // into lower mean bounded slowdown and a shorter makespan.
  auto run = [](bool hpl) {
    sim::Engine engine;
    cluster::ClusterConfig cc;
    cc.nodes = 4;
    cc.install_hpl = hpl;
    cc.noise.intensity = 2.0;
    cc.noise.frequency = 0.2;  // a busy production node
    cc.seed = 21;
    cluster::Cluster cluster(engine, cc);
    BatchConfig config;
    config.policy = BatchPolicy::kEasy;
    config.rank_policy = hpl ? kernel::Policy::kHpc : kernel::Policy::kNormal;
    config.mpi.run_speed_sigma = 0.0;
    config.seed = 21;
    BatchScheduler sched(cluster, config);
    ArrivalConfig ac;
    ac.jobs = 10;
    ac.max_nodes = 4;
    ac.ranks_per_node = 8;  // fully load each node so daemons must intrude
    ac.mean_interarrival = 30 * kMillisecond;
    ac.runtime_typical = 60 * kMillisecond;
    ac.grain = 5 * kMillisecond;
    sched.submit_all(generate_arrivals(ac, 21));
    engine.run_until(120 * kSecond);
    EXPECT_TRUE(sched.all_done());
    return sched.metrics();
  };
  const BatchMetrics cfs = run(false);
  const BatchMetrics hpl = run(true);
  ASSERT_EQ(cfs.finished, 10);
  ASSERT_EQ(hpl.finished, 10);
  EXPECT_LT(hpl.mean_slowdown, cfs.mean_slowdown);
  EXPECT_LT(hpl.makespan_s, cfs.makespan_s);
}

}  // namespace
}  // namespace hpcs::batch
