// The benchmark program: runs one workload for a fixed measuring time and
// prints its metrics as the last line of standard output, one JSON object.
//
//   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// A run prepares the workload's inputs from the seed, runs one untimed warm
// pass of each path and the workload's once-per-run checks, then repeats
// set-up samples, a serial pass and a 2-thread pass until the measuring
// time is used, with a sample of the reference computation (see
// reference_seconds) after each set-up sample.  Every pass checks its
// outputs; a pass that fails a check or throws counts as failed and is not
// timed.
// --trace 0 reports the end-to-end metrics: medians over the run's samples,
// at the reference speed (see kReferenceScale).  --trace 1 reports the
// per-layer metrics, records spans around the calls into the simulator,
// writes them as Chrome-trace JSON to --trace-out, and measures the
// tracing overhead by alternating traced and untraced passes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "measure.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Threads of the parallel path: the sharded engine stalls on every round
/// barrier when one of its threads loses its vCPU, and 2 threads on a
/// 4-vCPU host leave room for the rest of the machine.
constexpr int kThreads = 2;
/// Share of the measuring time given to set-up samples.
constexpr double kSetupShare = 0.1;
/// Least wall time of one set-up sample, the mean over as many consecutive
/// set-ups as fill it: about one reference sample's length, so the two
/// share a stretch of the host's speed.
constexpr double kSetupSampleSeconds = 0.1;
constexpr int kMinIterations = 3;
/// Nominal seconds of one reference_seconds() sample.  A pass time a run
/// reports is its median as timed, divided by the run's host factor: the
/// run's median reference sample over this value.  The set-up time is the
/// median over the run's set-up samples of each sample over the reference
/// sample taken right after it, times this value: a set-up sample lasts
/// about as long as the stretches in which a shared host runs the process
/// slowly, and the reference sample next to it shares its stretch.  The
/// figures then read as seconds on a host that runs the reference in
/// 0.1 s, and a host that runs everything slower for a while moves them
/// less than it moves the times themselves (STEADINESS.md has the
/// numbers).
constexpr double kReferenceScale = 0.1;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_uint(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  if (*text == '\0' || *text == '-') return false;
  out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

bool parse_args(int argc, char** argv, Options& opt) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_uint(value, n)) {
      opt.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && parse_uint(value, n) && n > 0) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && parse_uint(value, n) && n <= 1) {
      opt.trace = n == 1;
      have_trace = true;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

double median_of(const std::vector<double>& v) { return summarize(v).median; }

/// One line per quantity: the median, quartiles and range of its samples
/// as timed, then the figure the run reports (at the reference speed, see
/// kReferenceScale).
void print_summary(const char* name, const std::vector<double>& samples,
                   double reported) {
  const Summary s = summarize(samples);
  std::printf("  %-22s n=%-3zu median %.6g  q1 %.6g  q3 %.6g  min %.6g  "
              "max %.6g  reported %.6g\n",
              name, s.count, s.median, s.q1, s.q3, s.min, s.max, reported);
}

/// One checked pass (see run_checked), inside a span named after it.
std::optional<PassTime> pass(Ledger& ledger, Tracer& tracer,
                             const std::string& what,
                             const std::function<void()>& body) {
  return run_checked(ledger, what, [&] {
    const Span span(tracer, "pass." + what, "bench");
    body();
  });
}

void print_result(bool correct, const Ledger& ledger,
                  const std::vector<std::pair<std::string, std::string>>& units,
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", ledger.attempted, ledger.failed);
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto it = values.find(units[i].first);
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", units[i].first.c_str(), value,
                units[i].second.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.seed);
  if (!workload) {
    std::fprintf(stderr, "perfbench_run: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  std::uint64_t run_id = kFnvBasis;
  for (const char c : opt.workload) run_id = fnv1a(run_id, c);
  run_id = fnv1a(run_id, opt.seed);
  Tracer traced(true, run_id);
  Tracer untraced(false, run_id);
  Tracer& tracer = opt.trace ? traced : untraced;
  Ledger ledger;
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);

  // One warm preparation and one untimed, checked pass of each path: the
  // first pass of a fresh process pays page first-touch.  A 1-thread
  // sharded pass checks that the sharded machinery alone reproduces the
  // serial schedule.
  try {
    workload->setup(tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  std::vector<double> first_serial_wall;
  if (const auto p = pass(ledger, tracer, "warm-serial",
                          [&] { workload->serial_pass(tracer); })) {
    first_serial_wall.push_back(p->wall_s);
  }
  if (workload->sharded()) {
    pass(ledger, tracer, "warm-parallel@1",
         [&] { workload->parallel_pass(tracer, 1); });
  }
  pass(ledger, tracer, "warm-parallel@2",
       [&] { workload->parallel_pass(tracer, kThreads); });
  pass(ledger, tracer, "verify", [&] { workload->verify(tracer); });
  // Read here, after one set-up and one pass of each path: later set-up
  // samples interleave with held results in a timing-dependent pattern, and
  // the heap's high-water mark creeps with it.
  const double rss_mb = peak_rss_mb();

  // Timed iterations until the measuring time is used: set-up samples,
  // each followed by a reference sample (kept at a tenth of the time, so
  // they see the same host conditions as the passes), a serial pass and a
  // 2-thread pass.  A traced run alternates untraced and traced iterations
  // so it can report what tracing costs.
  reference_seconds();  // untimed: first touch of the reference's tables
  std::vector<double> reference_s, setup_s, setup_at_reference, serial_wall,
      serial_wall_traced, par_wall, par_cpu, t1_wall;
  const double measure_start = wall_now();
  double setup_spent = 0.0;
  for (int it = 0;
       it < kMinIterations || wall_now() - measure_start < opt.seconds; ++it) {
    const bool traced_iter = opt.trace && it % 2 == 1;
    Tracer& t = traced_iter ? traced : untraced;
    Span span(t, "iteration", "bench");
    try {
      do {
        const double t0 = wall_now();
        double seconds = 0.0;
        int setups = 0;
        do {
          seconds += workload->setup(t);
          ++setups;
        } while (wall_now() - t0 < kSetupSampleSeconds);
        setup_spent += wall_now() - t0;
        setup_s.push_back(seconds / setups);
        reference_s.push_back(reference_seconds());
        setup_at_reference.push_back(setup_s.back() / reference_s.back() *
                                     kReferenceScale);
      } while (setup_spent < kSetupShare * (wall_now() - measure_start));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
      return 1;
    }
    if (const auto p =
            pass(ledger, t, "serial", [&] { workload->serial_pass(t); })) {
      (traced_iter ? serial_wall_traced : serial_wall).push_back(p->wall_s);
    }
    if (const auto p = pass(ledger, t, "parallel@2", [&] {
          workload->parallel_pass(t, kThreads);
        })) {
      par_wall.push_back(p->wall_s);
      par_cpu.push_back(p->cpu_s);
    }
    if (opt.trace && workload->sharded()) {
      if (const auto p = pass(ledger, t, "parallel@1", [&] {
            workload->parallel_pass(t, 1);
          })) {
        t1_wall.push_back(p->wall_s);
      }
    }
  }
  const double host = median_of(reference_s) / kReferenceScale;
  const auto scaled = [host](const std::vector<double>& samples) {
    return median_of(samples) / host;
  };
  const double setup_value = median_of(setup_at_reference);

  const std::vector<std::string> problems =
      ledger.attempted > ledger.failed ? workload->shape_problems()
                                       : std::vector<std::string>{};
  std::printf("outputs: %s\n", workload->describe().c_str());
  print_summary("reference_s", reference_s, kReferenceScale);
  print_summary("setup_s", setup_s, setup_value);
  print_summary("first_serial_wall_s", first_serial_wall,
                scaled(first_serial_wall));
  print_summary("serial_wall_s", serial_wall, scaled(serial_wall));
  print_summary("parallel_cpu_s", par_cpu, scaled(par_cpu));
  print_summary("parallel_wall_s", par_wall, scaled(par_wall));
  for (const std::string& e : ledger.errors) {
    std::printf("FAILED %s\n", e.c_str());
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: workload shape guard failed: %s\n",
                 p.c_str());
    std::printf("SHAPE GUARD FAILED %s\n", p.c_str());
  }
  const bool correct = ledger.failed == 0 && problems.empty();

  if (!opt.trace) {
    const std::map<std::string, double> values = {
        {"serial_wall_s", scaled(serial_wall)},
        {"parallel_cpu_s", scaled(par_cpu)},
        {"setup_s", setup_value},
        {"peak_rss_mb", rss_mb},
    };
    print_result(correct, ledger,
                 {{"serial_wall_s", "s"},
                  {"parallel_cpu_s", "s"},
                  {"setup_s", "s"},
                  {"peak_rss_mb", "MB"}},
                 values);
    return 0;
  }

  Layers layers;
  try {
    workload->layers(traced, layers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: layer extras failed: %s\n", e.what());
    return 1;
  }
  const double serial = scaled(serial_wall);
  const double wall = scaled(par_wall);
  // Off the sharded engine, the parallel path at one thread is the serial
  // path.
  layers.metrics["par.t1_wall_s"] =
      workload->sharded() ? scaled(t1_wall) : serial;
  layers.metrics["par.wall_s"] = wall;
  layers.metrics["par.speedup"] = wall > 0.0 ? serial / wall : 0.0;
  layers.metrics["par.busy_frac"] =
      wall > 0.0 ? scaled(par_cpu) / (kThreads * wall) : 0.0;
  layers.metrics["trace.overhead_frac"] =
      serial > 0.0 ? scaled(serial_wall_traced) / serial - 1.0 : 0.0;
  print_summary("serial_wall_s traced", serial_wall_traced,
                scaled(serial_wall_traced));
  print_summary("parallel@1 wall_s", t1_wall, scaled(t1_wall));

  std::printf("layer report (%s):\n", opt.workload.c_str());
  for (const auto& [name, unit] : layer_metric_units()) {
    std::printf("  %-32s %.9g %s\n", name.c_str(), layers.metrics[name],
                unit.c_str());
  }
  for (const auto& [name, value] : layers.named) {
    std::printf("  %-32s %s\n", name.c_str(), value.c_str());
  }
  std::printf("self time by span (s):\n");
  for (const auto& [name, seconds] : traced.self_seconds()) {
    std::printf("  %-32s %.6f\n", name.c_str(), seconds);
  }
  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    out << traced.to_chrome_json();
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", traced.spans().size(),
                opt.trace_out.c_str());
  }
  print_result(correct, ledger, layer_metric_units(), layers.metrics);
  return 0;
}
