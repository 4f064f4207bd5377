// The benchmark's workloads.  Each one drives the simulator through its
// public entry points only, makes every input from the seed it is built
// with, and checks the outputs of every pass it runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "batch/job.h"
#include "measure.h"
#include "tracer.h"

namespace perfbench {

/// Per-layer numbers a traced run reports.  `metrics` are the per-layer
/// metrics every workload reports (a layer the workload does not use reads
/// 0); `named` are further per-layer numbers that exist only on this
/// workload, printed in the run's layer report.
struct Layers {
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> named;  // name, value

  void add_named(const std::string& name, double value);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Prepare the inputs through the program's own calls; returns the wall
  /// seconds of one preparation (work too small to time on its own is
  /// repeated and averaged inside one call).
  virtual double setup(Tracer& tracer) = 0;
  /// One pass of the serial path.  Throws on a wrong output.
  virtual void serial_pass(Tracer& tracer) = 0;
  /// One pass of the parallel path at `threads` threads, checked against
  /// the serial pass.  Throws on a wrong output.
  virtual void parallel_pass(Tracer& tracer, int threads) = 0;
  /// Checks made once per run, untimed, beyond those every pass makes
  /// (none by default).  Throws on a wrong output.
  virtual void verify(Tracer&) {}
  /// True when the parallel path is the sharded engine, whose 1-thread
  /// run differs from the serial path and is checked and timed as well.
  virtual bool sharded() const { return false; }
  /// Workload-shape guards: why the workload is not the one it claims to
  /// be (empty when it is).  Read after at least one serial pass.
  virtual std::vector<std::string> shape_problems() const = 0;
  /// Traced-run extras and the per-layer numbers read from the results.
  virtual void layers(Tracer& tracer, Layers& out) = 0;
  /// Digest of the generated inputs (a self-test pins that the seed moves
  /// it).
  virtual std::uint64_t input_digest() = 0;
  /// One line describing the last passes' outputs, checksums included.
  virtual std::string describe() const = 0;
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// The concrete workloads (one per source file).
std::unique_ptr<Workload> make_scale_loaded(std::uint64_t seed);
std::unique_ptr<Workload> make_replay_skewed(std::uint64_t seed);
std::unique_ptr<Workload> make_nas_suite(std::uint64_t seed);
std::unique_ptr<Workload> make_twolevel(std::uint64_t seed);

/// The per-layer metric names every workload reports, with their units.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Rescale a generated job stream to a fixed offered load: arrivals are
/// stretched so the last one lands at `span`, and every job's iteration
/// count (and its estimate with it) is scaled by one factor so the stream's
/// ideal node-time is `node_time`.  The seed still picks every job, its
/// shape and its place in the stream, but no longer how much work the
/// stream holds, so runs with different seeds time comparable work.
void fix_offered_load(std::vector<hpcs::batch::JobSpec>& jobs,
                      hpcs::SimTime span, double node_time);

/// FNV-1a accumulation, for input digests.
inline std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace perfbench
