// Self-tests of the benchmark program: pass accounting, aggregation, span
// self time, and seed-driven inputs.  Exits nonzero on the first failure.
//
//   perfbench_selftest
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_flipped_checksum_is_a_failed_operation() {
  Ledger ledger;
  const auto good = run_checked(ledger, "same", [] {
    check_checksum("sharded@2", 0x1234, 0x1234);
  });
  const auto flipped = run_checked(ledger, "flipped", [] {
    check_checksum("sharded@2", 0x1234 ^ 1, 0x1234);
  });
  expect(good.has_value(), "a matching checksum is timed");
  expect(!flipped.has_value(), "a flipped checksum is not timed");
  expect(ledger.attempted == 2 && ledger.failed == 1,
         "a flipped checksum counts as one failed operation of two");
  expect(ledger.errors.size() == 1 &&
             ledger.errors[0].find("flipped: sharded@2") == 0,
         "the failure names its pass and check");
}

void test_thrown_pass_is_a_failed_operation() {
  Ledger ledger;
  const auto thrown = run_checked(ledger, "serial", [] {
    throw std::runtime_error("engine exploded");
  });
  expect(!thrown.has_value(), "a thrown pass is not timed");
  expect(ledger.attempted == 1 && ledger.failed == 1,
         "a thrown pass counts as a failed operation");
}

void test_aggregation_matches_python_statistics() {
  // statistics.median / statistics.quantiles(values, n=4) of this sample
  // in Python 3.11: 3.5 and [1.75, 6.25].
  const Summary even = summarize({6.0, 1.0, 3.0, 4.0, 2.0, 7.0});
  expect(even.count == 6 && near(even.median, 3.5) && near(even.q1, 1.75) &&
             near(even.q3, 6.25) && near(even.min, 1.0) && near(even.max, 7.0),
         "median and quartiles of an even sample");
  // Odd count: median 0.93, quartiles [0.915, 1.06].
  const Summary odd = summarize({1.12, 0.93, 0.91, 1.0, 0.92});
  expect(odd.count == 5 && near(odd.median, 0.93) && near(odd.q1, 0.915) &&
             near(odd.q3, 1.06),
         "median and quartiles of an odd sample");
  const Summary one = summarize({2.5});
  expect(one.count == 1 && near(one.median, 2.5),
         "a single sample is its own median");
}

void test_self_time_subtracts_children() {
  std::vector<SpanRecord> spans(4);
  spans[0] = {0, -1, "pass", "bench", 0, 0.0, 10.0, {}};
  spans[1] = {1, 0, "a", "sim", 0, 1.0, 4.0, {}};
  spans[2] = {2, 0, "b", "sim", 1, 3.0, 6.0, {}};  // overlaps a
  spans[3] = {3, 1, "c", "sim", 0, 2.0, 3.0, {}};
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 5.0), "self time removes the union of children");
  expect(near(self[1], 2.0), "a child's own child is subtracted from it");
  expect(near(self[3], 1.0), "a leaf's self time is its duration");
}

void test_seed_changes_inputs() {
  for (const std::string& name : workload_names()) {
    const std::uint64_t a = make_workload(name, 1)->input_digest();
    const std::uint64_t again = make_workload(name, 1)->input_digest();
    const std::uint64_t b = make_workload(name, 2)->input_digest();
    expect(a == again, name + ": the same seed gives the same inputs");
    expect(a != b, name + ": another seed gives other inputs");
  }
}

}  // namespace

int main() {
  test_flipped_checksum_is_a_failed_operation();
  test_thrown_pass_is_a_failed_operation();
  test_aggregation_matches_python_statistics();
  test_self_time_subtracts_children();
  test_seed_changes_inputs();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed",
              g_failures);
  return g_failures ? 1 : 0;
}
