// Measurement primitives of the benchmark program: clocks, checked passes,
// the reference computation, and the sample summaries a run reports.
//
// Every pass is an operation.  A pass that throws, or whose output check
// fails (checks throw CheckFailed), is counted as failed against those
// attempted and contributes no timing sample.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double wall_now();
/// CPU time of the whole process (user + sys, all threads), seconds.
double cpu_now();
/// Peak resident set of the process so far, MB.
double peak_rss_mb();

/// Thrown by an output check.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailed("<what>: ...") unless `ok`.
void check(bool ok, const std::string& what);
/// Throws CheckFailed unless the two schedule checksums agree.
void check_checksum(const std::string& what, std::uint64_t got,
                    std::uint64_t want);

/// Operations attempted and failed, with the first few failure messages.
struct Ledger {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
};

struct PassTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Runs one pass as a counted operation.  Returns its wall and process CPU
/// time when it completed and its checks held, nullopt when it failed.
std::optional<PassTime> run_checked(Ledger& ledger, const std::string& what,
                                    const std::function<void()>& pass);

/// Wall seconds of one run of the reference computation: a fixed event loop
/// (a binary heap of timestamped events over an 8 MB state table) that uses
/// nothing of the simulator, so no change to the simulator moves it.  The
/// benchmark times its passes against it: the ratio of a pass to the
/// reference samples of the same run moves less than the pass's own time
/// when the host runs faster or slower for a while.  Keeps its tables
/// between calls, so calls must not overlap.
double reference_seconds();

/// Median and quartiles of a sample.  The quartiles use the "exclusive"
/// method of Python's statistics.quantiles(values, n=4), so a record built
/// here and one built by the steadiness script agree.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
};
Summary summarize(std::vector<double> values);

}  // namespace perfbench
