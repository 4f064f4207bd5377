#include "sim/engine.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/time.h"

namespace hpcs::sim {

bool Engine::entry_less(std::uint32_t a, std::uint32_t b) const {
  const Slot& sa = slots_[a];
  const Slot& sb = slots_[b];
  if (sa.when != sb.when) return sa.when < sb.when;
  return sa.seq < sb.seq;
}

void Engine::heap_swap(std::size_t a, std::size_t b) {
  std::swap(heap_[a], heap_[b]);
  slots_[heap_[a]].heap_pos = static_cast<std::uint32_t>(a);
  slots_[heap_[b]].heap_pos = static_cast<std::uint32_t>(b);
}

void Engine::sift_up(std::size_t pos) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!entry_less(heap_[pos], heap_[parent])) break;
    heap_swap(pos, parent);
    pos = parent;
  }
}

void Engine::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t smallest = pos;
    const std::size_t l = 2 * pos + 1;
    const std::size_t r = 2 * pos + 2;
    if (l < n && entry_less(heap_[l], heap_[smallest])) smallest = l;
    if (r < n && entry_less(heap_[r], heap_[smallest])) smallest = r;
    if (smallest == pos) return;
    heap_swap(pos, smallest);
    pos = smallest;
  }
}

void Engine::heap_remove(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  slots_[heap_[pos]].heap_pos = kNpos;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    heap_.pop_back();
    // The replacement came from the bottom: it can only need to move down,
    // unless the removed entry was below its own parent's subtree minimum.
    sift_down(pos);
    sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

void Engine::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn = nullptr;
  if (++s.gen == 0) s.gen = 1;  // keep ids != kInvalidEventId
  s.next_free = free_head_;
  free_head_ = idx;
}

EventId Engine::schedule_at(SimTime when, Callback fn) {
  if (when < now_) {
    throw std::logic_error("Engine::schedule_at: event in the past");
  }
  std::uint32_t idx;
  if (free_head_ != kNpos) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.when = when;
  s.seq = next_seq_++;
  s.fn = std::move(fn);
  s.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(idx);
  sift_up(s.heap_pos);
  ++stats_.scheduled;
  if (heap_.size() > stats_.heap_high_water) {
    stats_.heap_high_water = heap_.size();
  }
  return make_id(idx, s.gen);
}

std::size_t Engine::count_due(SimTime limit, std::size_t cap) const {
  std::size_t count = 0;
  count_due_from(0, limit, cap, count);
  return count;
}

void Engine::count_due_from(std::size_t pos, SimTime limit, std::size_t cap,
                            std::size_t& count) const {
  // A parent never orders after its children, so the due entries form a
  // subtree at the root: stop at the first entry past `limit` on each path.
  if (count >= cap || pos >= heap_.size() || slots_[heap_[pos]].when > limit) {
    return;
  }
  ++count;
  count_due_from(2 * pos + 1, limit, cap, count);
  count_due_from(2 * pos + 2, limit, cap, count);
}

EventId Engine::schedule_after(SimDuration delay, Callback fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

Engine::Slot* Engine::pending_slot(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (idx >= slots_.size()) return nullptr;
  Slot& s = slots_[idx];
  if (s.gen != gen || s.heap_pos == kNpos) return nullptr;  // fired or stale
  return &s;
}

bool Engine::cancel(EventId id) {
  Slot* s = pending_slot(id);
  if (s == nullptr) return false;
  heap_remove(s->heap_pos);
  release_slot(static_cast<std::uint32_t>(id >> 32));
  ++stats_.cancelled;
  return true;
}

bool Engine::reschedule(EventId id, SimTime when) {
  if (when < now_) {
    throw std::logic_error("Engine::reschedule: event in the past");
  }
  Slot* s = pending_slot(id);
  if (s == nullptr) return false;
  const SimTime old = s->when;
  s->when = when;
  s->seq = next_seq_++;
  // The fresh seq exceeds every queued one, so the key only grows unless
  // the event moved earlier in time.
  if (when < old) {
    sift_up(s->heap_pos);
  } else {
    sift_down(s->heap_pos);
  }
  ++stats_.rescheduled;
  return true;
}

void Engine::advance_clock(SimTime when) {
  if (when == now_) {
    if (++same_instant_ > same_instant_limit_) {
      throw std::logic_error("Engine: event livelock at t=" +
                             std::to_string(now_) + "ns");
    }
  } else {
    same_instant_ = 0;
    now_ = when;
  }
}

void Engine::dispatch_top() {
  const std::uint32_t idx = heap_[0];
  const std::uint32_t gen = slots_[idx].gen;
  const std::uint64_t seq = slots_[idx].seq;
  // Call from a local: a nested schedule_at may grow slots_ and move every
  // record, callback storage included.
  Callback fn = std::move(slots_[idx].fn);
  auto finish = [&] {
    Slot& s = slots_[idx];
    if (s.gen != gen) return;  // cancelled: the slot is no longer ours
    if (s.seq != seq) {        // re-armed: still pending, keep the callback
      s.fn = std::move(fn);
      return;
    }
    heap_remove(s.heap_pos);
    release_slot(idx);
  };
  try {
    fn();
  } catch (...) {
    finish();
    throw;
  }
  finish();
  ++stats_.dispatched;
}

std::uint64_t Engine::run() {
  stopped_ = false;
  // Fresh burst count per driver invocation: the caller regaining control
  // between runs is proof the simulation was not livelocked, and a genuine
  // re-arming cycle still accumulates within this one call.
  same_instant_ = 0;
  std::uint64_t n = 0;
  while (!stopped_ && !heap_.empty()) {
    advance_clock(slots_[heap_[0]].when);
    dispatch_top();
    ++n;
    if (post_dispatch_) post_dispatch_();
  }
  return n;
}

std::uint64_t Engine::run_until(SimTime limit) {
  stopped_ = false;
  // See run(): without this reset, a resumed run whose first event lands
  // exactly on a previous run_until() limit (now_ was caught up to it below)
  // would inherit the previous run's burst count and could spuriously trip
  // the livelock guard — the sharded driver resumes across millions of
  // window limits, so the stale carry-over is not a theoretical problem.
  same_instant_ = 0;
  std::uint64_t n = 0;
  while (!stopped_ && !heap_.empty()) {
    const SimTime when = slots_[heap_[0]].when;
    if (when > limit) break;
    advance_clock(when);
    dispatch_top();
    ++n;
    if (post_dispatch_) post_dispatch_();
  }
  // Catch the clock up to the limit only when the run completed: after a
  // stop() the clock must stay at the stop point so resumed runs replay no
  // simulated time and skip none.  Catching up is a clock advance, so the
  // same-instant burst ends here too.
  if (!stopped_ && now_ < limit) {
    now_ = limit;
    same_instant_ = 0;
  }
  return n;
}

double Engine::dispatch_rate() const {
  if (now_ == 0) return 0.0;
  return static_cast<double>(stats_.dispatched) / to_seconds(now_);
}

}  // namespace hpcs::sim
