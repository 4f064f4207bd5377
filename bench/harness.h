// The shared experiment harness every bench binary runs on.
//
// One Harness per binary.  It owns:
//   * CLI parsing — the standard sweep flags (--runs/--seed/--threads, the
//     JSON output controls) plus bench-specific flags, on util::CliParser;
//   * the warmup/repeat policy for timed sections;
//   * metric aggregation (count/mean/stddev/95% CI/min/max per metric);
//   * host metadata (hostname, cpus, compiler, build type, git sha);
//   * structured telemetry: finish() writes BENCH_<name>.json with a stable
//     schema (documented in EXPERIMENTS.md, "Bench telemetry") that
//     tools/bench_compare and the CI perf-regression gate consume.
//
// The narrative stdout output of each bench is unchanged — the harness adds
// the machine-readable channel next to it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.h"
#include "util/json.h"
#include "util/stats.h"

namespace hpcs::bench {

/// Version of the BENCH_*.json schema; bump when the layout changes.
inline constexpr int kBenchSchemaVersion = 1;

/// Which way a metric is allowed to drift before bench_compare complains.
/// Neutral metrics (gauges like heap high-water marks) warn instead of
/// failing when they move.
enum class Direction { kLowerIsBetter, kHigherIsBetter, kNeutral };

const char* direction_name(Direction direction);

class Harness {
 public:
  /// `name` keys the output file (BENCH_<name>.json) and must match the
  /// binary name so baselines are discoverable.
  Harness(std::string name, std::string description);

  // -- flag registration (before parse) -------------------------------------
  /// Bench-specific flag, identical to util::CliParser::flag.
  Harness& flag(const std::string& name, const std::string& help,
                const std::string& default_value = "");
  /// Opt into the standard --runs flag with a bench-specific default.
  Harness& with_runs(int default_runs, const std::string& help =
                                           "repetitions per configuration");
  /// Opt into the standard --seed flag.
  Harness& with_seed(std::uint64_t default_seed = 1);
  /// Opt into the standard --threads flag (sweep parallelism; 0 = auto).
  Harness& with_threads(int default_threads = 1);

  /// Parses argv; returns false (after printing usage) on error or --help.
  /// Always registers --json-out (output directory, default ".") and
  /// --no-json (suppress telemetry).
  bool parse(int argc, const char* const* argv);

  // -- parsed configuration --------------------------------------------------
  int runs() const;
  std::uint64_t seed() const;
  int threads() const;
  /// True when `name` was given on the command line, not just defaulted.
  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  // -- metric recording ------------------------------------------------------
  /// Adds one observation of `metric` (creates it on first use; the unit and
  /// direction of the first call stick).
  void record(const std::string& metric, const std::string& unit,
              Direction direction, double value);
  /// Folds every sample in.
  void record_samples(const std::string& metric, const std::string& unit,
                      Direction direction, const util::Samples& samples);
  void record_stats(const std::string& metric, const std::string& unit,
                    Direction direction, const util::OnlineStats& stats);

  /// Warmup/repeat policy for timed sections: runs `fn` (returning a metric
  /// value) `warmup` times discarded, then `repeats` times recorded.
  template <typename F>
  void repeat(const std::string& metric, const std::string& unit,
              Direction direction, int warmup, int repeats, F&& fn) {
    for (int i = 0; i < warmup; ++i) static_cast<void>(fn());
    for (int i = 0; i < repeats; ++i) record(metric, unit, direction, fn());
  }

  /// Wall seconds of one fn() call on the monotonic clock.
  static double time_seconds(const std::function<void()>& fn);

  /// The full telemetry document (exposed for tests; finish() dumps this).
  util::Json to_json() const;

  /// Writes BENCH_<name>.json under --json-out unless --no-json was given.
  /// Returns the process exit code for main: 0 on success, 1 when the file
  /// cannot be written.
  int finish() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    Direction direction;
    util::OnlineStats stats;
  };

  Metric& metric_slot(const std::string& name, const std::string& unit,
                      Direction direction);

  std::string name_;
  std::string description_;
  util::CliParser cli_;
  std::vector<Metric> metrics_;  // insertion order, for stable dumps
  bool has_runs_ = false;
  bool has_seed_ = false;
  bool has_threads_ = false;
  bool parsed_ = false;
};

}  // namespace hpcs::bench
