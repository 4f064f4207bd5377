// Cluster-scale engine comparison: the same 10k-node / 100k-job federated
// scheduling scenario on the serial reference engine and on the sharded
// conservative engine (sim::ShardedEngine), timed head to head.
//
// The bench doubles as a verification gate: the sharded schedule must be
// bit-for-bit identical to the serial one (ScaleResult::checksum()), every
// run, or the binary exits nonzero.  The tracked metrics are the two wall
// times and their ratio; speedup depends on the host's core count, so the
// CI baseline records the single-core container's ~1x and guards against
// the sharded path *regressing* (a sync bug shows up as a collapse here
// long before a multi-core host sees it).
//
//   ./cluster_scale [--nodes N] [--jobs J] [--shards S] [--threads T]
#include <cstdio>
#include <string>

#include "batch/scale.h"
#include "harness.h"
#include "util/time.h"

using namespace hpcs;

namespace {

batch::ScaleConfig make_config(const bench::Harness& h) {
  batch::ScaleConfig cfg;
  cfg.nodes = static_cast<int>(h.get_int("nodes", 10000));
  cfg.shards = static_cast<int>(h.get_int("shards", 16));
  cfg.fabric.nodes_per_switch = 32;
  cfg.arrivals.jobs = static_cast<int>(h.get_int("jobs", 100000));
  cfg.arrivals.mean_interarrival = 1 * kMillisecond;
  cfg.arrivals.max_nodes = 64;
  cfg.arrivals.nodes_log_mean = 1.8;
  cfg.arrivals.runtime_typical = 900 * kMillisecond;
  cfg.seed = h.seed();
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("cluster_scale",
                   "serial vs sharded conservative engine on a 10k-node "
                   "federated scheduling scenario");
  h.with_runs(3, "timed repetitions per engine")
      .with_seed(42)
      .with_threads(4)
      .flag("nodes", "cluster size", "10000")
      .flag("jobs", "arrival trace length", "100000")
      .flag("shards", "conservative shards", "16");
  if (!h.parse(argc, argv)) return 1;

  const batch::ScaleConfig cfg = make_config(h);
  const int threads = h.threads();
  std::printf("cluster_scale: %d nodes, %d jobs, %d shards, %d threads, "
              "lookahead %llu ns\n",
              cfg.nodes, cfg.arrivals.jobs, cfg.shards, threads,
              static_cast<unsigned long long>(batch::scale_lookahead(cfg)));

  batch::ScaleResult serial;
  batch::ScaleResult sharded;
  double serial_s = 0.0;
  double sharded_s = 0.0;
  bool identical = true;
  for (int run = 0; run < h.runs(); ++run) {
    const double ser = bench::Harness::time_seconds(
        [&] { serial = batch::run_scale_serial(cfg); });
    const double shd = bench::Harness::time_seconds(
        [&] { sharded = batch::run_scale_sharded(cfg, threads); });
    h.record("serial_ms", "ms", bench::Direction::kLowerIsBetter, ser * 1e3);
    h.record("sharded_ms", "ms", bench::Direction::kLowerIsBetter, shd * 1e3);
    h.record("speedup", "x", bench::Direction::kHigherIsBetter, ser / shd);
    serial_s += ser;
    sharded_s += shd;
    if (sharded.checksum() != serial.checksum()) {
      identical = false;
      std::fprintf(stderr,
                   "FAIL: sharded checksum %016llx != serial %016llx "
                   "(run %d)\n",
                   static_cast<unsigned long long>(sharded.checksum()),
                   static_cast<unsigned long long>(serial.checksum()), run);
    }
  }

  // Scenario-shape gauges: these move only when the scenario itself moves.
  h.record("events", "count", bench::Direction::kNeutral,
           static_cast<double>(serial.events));
  h.record("rounds", "count", bench::Direction::kNeutral,
           static_cast<double>(sharded.rounds));
  h.record("forwards", "count", bench::Direction::kNeutral,
           static_cast<double>(serial.forwards));
  h.record("gossip", "count", bench::Direction::kNeutral,
           static_cast<double>(serial.gossip_messages));
  h.record("utilization", "frac", bench::Direction::kNeutral,
           serial.utilization);

  const int runs = h.runs();
  std::printf("  serial : %7.1f ms/run  (%llu events)\n",
              serial_s * 1e3 / runs,
              static_cast<unsigned long long>(serial.events));
  std::printf("  sharded: %7.1f ms/run  (%llu/%llu rounds inline, %llu "
              "gossip landings, %d threads)\n",
              sharded_s * 1e3 / runs,
              static_cast<unsigned long long>(sharded.inline_rounds),
              static_cast<unsigned long long>(sharded.rounds),
              static_cast<unsigned long long>(sharded.gossip_messages),
              threads);
  std::printf("  speedup: %.2fx   schedule: %s\n", serial_s / sharded_s,
              identical ? "bit-identical" : "DIVERGED");
  std::printf("  makespan %.1fs, utilization %.3f, %llu forwards, "
              "mean wait %.2fs\n",
              to_seconds(serial.makespan), serial.utilization,
              static_cast<unsigned long long>(serial.forwards),
              serial.mean_wait_s);

  if (!identical) return 1;
  return h.finish();
}
