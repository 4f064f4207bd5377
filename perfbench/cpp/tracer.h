// Spans recorded by the benchmark around its calls into the simulator.
//
// A span is a named interval on one thread with the span that caused it
// and the counts it produced.  Spans are kept in memory and written at the
// end as Chrome-trace JSON (chrome://tracing / Perfetto), one complete
// ("ph": "X") event per span; every span of a run carries the run's id.
// When the tracer is disabled a Span costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  int id = 0;
  int parent = -1;  // -1 = a root span
  std::string name;
  std::string layer;  // the simulator module the call enters
  int thread = 0;     // small per-run thread index
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<std::pair<std::string, double>> counts;
};

class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t run_id);

  bool enabled() const { return enabled_; }

  /// Finished spans, in order of completion.
  std::vector<SpanRecord> spans() const;

  /// Chrome-trace JSON of every finished span (timestamps in microseconds
  /// from the tracer's creation).
  std::string to_chrome_json() const;

  /// Self time per span name: each span's duration minus the part of it
  /// its child spans cover, summed over spans of that name.
  std::map<std::string, double> self_seconds() const;

 private:
  friend class Span;
  int open(std::string name, std::string layer, int parent);
  void close(int id, std::vector<std::pair<std::string, double>> counts);

  bool enabled_;
  std::uint64_t run_id_;
  double origin_s_;
  mutable std::mutex mu_;  // guards the members below
  std::vector<SpanRecord> open_;
  std::vector<SpanRecord> done_;
  std::map<std::uint64_t, int> thread_index_;  // hashed thread id -> index
  int next_id_ = 0;
};

/// RAII span.  The parent defaults to the innermost open span of the
/// calling thread; work handed to another thread passes its parent
/// explicitly.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string layer);
  Span(Tracer& tracer, std::string name, std::string layer, int parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }
  /// The innermost open span of the calling thread (-1 when none).
  static int current();
  /// Attach a count produced by the traced call.
  void count(const std::string& name, double value);

 private:
  Tracer& tracer_;
  int id_ = -1;
  int saved_current_ = -1;
  std::vector<std::pair<std::string, double>> counts_;
};

/// Self time of each span in `spans` (same order): duration minus the
/// union of its direct children's intervals, clipped to the span.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
