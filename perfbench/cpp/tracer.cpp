#include "tracer.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <thread>

#include "measure.h"

namespace perfbench {

namespace {

thread_local int t_current_span = -1;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), run_id_(run_id), origin_s_(wall_now()) {}

int Tracer::open(std::string name, std::string layer, int parent) {
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const double now = wall_now();
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, added] =
      thread_index_.emplace(tid, static_cast<int>(thread_index_.size()));
  SpanRecord span;
  span.id = next_id_++;
  span.parent = parent;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.thread = it->second;
  span.start_s = now - origin_s_;
  open_.push_back(std::move(span));
  return open_.back().id;
}

void Tracer::close(int id,
                   std::vector<std::pair<std::string, double>> counts) {
  const double now = wall_now();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      std::find_if(open_.begin(), open_.end(),
                   [id](const SpanRecord& s) { return s.id == id; });
  if (it == open_.end()) return;
  SpanRecord span = std::move(*it);
  open_.erase(it);
  span.end_s = now - origin_s_;
  span.counts = std::move(counts);
  done_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

std::string Tracer::to_chrome_json() const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<double> self = self_times(all);
  std::ostringstream out;
  out.precision(12);
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (i > 0) out << ",\n";
    out << R"(  {"name": ")" << json_escape(s.name) << R"(", "cat": ")"
        << json_escape(s.layer) << R"(", "ph": "X", "ts": )"
        << s.start_s * 1e6 << R"(, "dur": )" << (s.end_s - s.start_s) * 1e6
        << R"(, "pid": 0, "tid": )" << s.thread << R"(, "args": {"run": )"
        << run_id_ << R"(, "span": )" << s.id << R"(, "parent": )"
        << s.parent << R"(, "self_us": )" << self[i] * 1e6;
    for (const auto& [name, value] : s.counts) {
      out << R"(, ")" << json_escape(name) << R"(": )" << value;
    }
    out << "}}";
  }
  out << "\n]\n";
  return out.str();
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<double> self = self_times(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) out[all[i].name] += self[i];
  return out;
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::map<int, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto parent = index.find(s.parent);
    if (parent == index.end()) continue;
    const SpanRecord& p = spans[parent->second];
    const double lo = std::max(s.start_s, p.start_s);
    const double hi = std::min(s.end_s, p.end_s);
    if (hi > lo) children[parent->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans[i].start_s;  // end of the union merged so far
    for (const auto& [lo, hi] : kids) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (spans[i].end_s - spans[i].start_s) - covered;
  }
  return self;
}

Span::Span(Tracer& tracer, std::string name, std::string layer)
    : Span(tracer, std::move(name), std::move(layer), t_current_span) {}

Span::Span(Tracer& tracer, std::string name, std::string layer, int parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.open(std::move(name), std::move(layer), parent);
  saved_current_ = t_current_span;
  t_current_span = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  t_current_span = saved_current_;
  tracer_.close(id_, std::move(counts_));
}

int Span::current() { return t_current_span; }

void Span::count(const std::string& name, double value) {
  if (id_ >= 0) counts_.emplace_back(name, value);
}

}  // namespace perfbench
