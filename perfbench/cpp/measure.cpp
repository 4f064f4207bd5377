#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <exception>
#include <functional>
#include <sstream>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

void check_checksum(const std::string& what, std::uint64_t got,
                    std::uint64_t want) {
  if (got == want) return;
  std::ostringstream msg;
  msg << what << ": checksum " << std::hex << got << " != serial " << want;
  throw CheckFailed(msg.str());
}

std::optional<PassTime> run_checked(Ledger& ledger, const std::string& what,
                                    const std::function<void()>& pass) {
  ++ledger.attempted;
  const double wall0 = wall_now();
  const double cpu0 = cpu_now();
  try {
    pass();
  } catch (const std::exception& e) {
    ++ledger.failed;
    if (ledger.errors.size() < 8) {
      ledger.errors.push_back(what + ": " + e.what());
    }
    return std::nullopt;
  }
  return PassTime{wall_now() - wall0, cpu_now() - cpu0};
}

namespace {
// Keeps the reference loop's result observable.
volatile std::uint64_t g_reference_sink = 0;
}  // namespace

double reference_seconds() {
  constexpr std::uint64_t kStateWords = 1 << 20;  // 8 MB
  constexpr std::size_t kPending = 1 << 16;
  constexpr int kEvents = 400000;  // about 0.1 s
  struct Event {
    std::uint64_t time;
    std::uint64_t slot;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : slot > o.slot;
    }
  };
  // Allocated once, so a sample does not time first-touch page faults.
  static std::vector<std::uint64_t> state(kStateWords);
  static std::vector<Event> heap;
  const double t0 = wall_now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto mix = [](std::uint64_t z) {  // SplitMix64 finaliser
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (std::uint64_t i = 0; i < kStateWords; ++i) state[i] = i;
  heap.clear();
  for (std::size_t i = 0; i < kPending; ++i) {
    x = mix(x + i);
    heap.push_back({x >> 40, x & (kStateWords - 1)});
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    Event& e = heap.back();
    const std::uint64_t v = mix(state[e.slot] ^ e.time);
    state[e.slot] = v;
    e.time += 1 + (v >> 48);
    e.slot = v & (kStateWords - 1);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double seconds = wall_now() - t0;
  g_reference_sink = heap.front().time ^ state[heap.front().slot];
  return seconds;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.min = values.front();
  s.max = values.back();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"): position i*(n+1)/4, clamped
  // to [1, n-1], interpolated between its neighbours in exact arithmetic.
  auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

}  // namespace perfbench
