#include "harness.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <thread>

#ifndef HPCS_GIT_SHA
#define HPCS_GIT_SHA "unknown"
#endif

namespace hpcs::bench {
namespace {

std::string iso8601_utc_now() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string build_type() {
#if defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

std::string git_sha() {
  // The compile-time sha goes stale between reconfigures; the environment
  // override lets CI stamp the exact checkout it benchmarked.
  if (const char* env = std::getenv("HPCS_GIT_SHA"); env != nullptr && *env) {
    return env;
  }
  return HPCS_GIT_SHA;
}

}  // namespace

const char* direction_name(Direction direction) {
  switch (direction) {
    case Direction::kLowerIsBetter: return "lower";
    case Direction::kHigherIsBetter: return "higher";
    case Direction::kNeutral: return "neutral";
  }
  return "?";
}

Harness::Harness(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description)) {
  cli_.flag("json-out", "directory for the BENCH_<name>.json telemetry", ".")
      .flag("no-json", "suppress telemetry emission");
}

Harness& Harness::flag(const std::string& name, const std::string& help,
                       const std::string& default_value) {
  cli_.flag(name, help, default_value);
  return *this;
}

Harness& Harness::with_runs(int default_runs, const std::string& help) {
  cli_.flag("runs", help, std::to_string(default_runs));
  has_runs_ = true;
  return *this;
}

Harness& Harness::with_seed(std::uint64_t default_seed) {
  cli_.flag("seed", "base seed", std::to_string(default_seed));
  has_seed_ = true;
  return *this;
}

Harness& Harness::with_threads(int default_threads) {
  cli_.flag("threads", "sweep worker threads (0 = hardware concurrency)",
            std::to_string(default_threads));
  has_threads_ = true;
  return *this;
}

bool Harness::parse(int argc, const char* const* argv) {
  parsed_ = cli_.parse(argc, argv);
  return parsed_;
}

int Harness::runs() const { return static_cast<int>(cli_.get_int("runs", 1)); }

std::uint64_t Harness::seed() const {
  return static_cast<std::uint64_t>(cli_.get_int("seed", 1));
}

int Harness::threads() const {
  return static_cast<int>(cli_.get_int("threads", 1));
}

bool Harness::has(const std::string& name) const { return cli_.has(name); }

std::string Harness::get(const std::string& name,
                         const std::string& fallback) const {
  return cli_.get(name, fallback);
}

std::int64_t Harness::get_int(const std::string& name,
                              std::int64_t fallback) const {
  return cli_.get_int(name, fallback);
}

double Harness::get_double(const std::string& name, double fallback) const {
  return cli_.get_double(name, fallback);
}

bool Harness::get_bool(const std::string& name, bool fallback) const {
  return cli_.get_bool(name, fallback);
}

Harness::Metric& Harness::metric_slot(const std::string& name,
                                      const std::string& unit,
                                      Direction direction) {
  for (auto& m : metrics_) {
    if (m.name == name) return m;
  }
  metrics_.push_back(Metric{name, unit, direction, {}});
  return metrics_.back();
}

void Harness::record(const std::string& metric, const std::string& unit,
                     Direction direction, double value) {
  metric_slot(metric, unit, direction).stats.add(value);
}

void Harness::record_samples(const std::string& metric, const std::string& unit,
                             Direction direction,
                             const util::Samples& samples) {
  auto& slot = metric_slot(metric, unit, direction);
  for (const double v : samples.values()) slot.stats.add(v);
}

void Harness::record_stats(const std::string& metric, const std::string& unit,
                           Direction direction,
                           const util::OnlineStats& stats) {
  metric_slot(metric, unit, direction).stats.merge(stats);
}

double Harness::time_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

util::Json Harness::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("schema_version", kBenchSchemaVersion);
  doc.set("bench", name_);
  doc.set("description", description_);
  doc.set("git_sha", git_sha());
  doc.set("timestamp", iso8601_utc_now());

  util::Json host = util::Json::object();
  host.set("hostname", hostname());
  host.set("cpus",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.set("compiler", compiler_id());
  host.set("build_type", build_type());
  doc.set("host", std::move(host));

  util::Json config = util::Json::object();
  for (const auto& [flag_name, value] : cli_.effective_values()) {
    if (flag_name == "json-out" || flag_name == "no-json") continue;
    config.set(flag_name, value);
  }
  doc.set("config", std::move(config));

  util::Json metrics = util::Json::array();
  for (const auto& m : metrics_) {
    util::Json row = util::Json::object();
    row.set("name", m.name);
    row.set("unit", m.unit);
    row.set("direction", direction_name(m.direction));
    row.set("count", m.stats.count());
    row.set("mean", m.stats.mean());
    row.set("stddev", m.stats.stddev());
    row.set("ci95", m.stats.ci95_half_width());
    row.set("min", m.stats.min());
    row.set("max", m.stats.max());
    metrics.push_back(std::move(row));
  }
  doc.set("metrics", std::move(metrics));
  return doc;
}

int Harness::finish() const {
  if (cli_.get_bool("no-json", false)) return 0;
  const std::string path =
      cli_.get("json-out", ".") + "/BENCH_" + name_ + ".json";
  try {
    util::write_file(path, to_json().dump(2));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "telemetry: wrote %s\n", path.c_str());
  return 0;
}

}  // namespace hpcs::bench
