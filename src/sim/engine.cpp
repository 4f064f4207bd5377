#include "sim/engine.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/time.h"

namespace hpcs::sim {

void Engine::place(std::size_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Engine::sift_up(std::size_t pos, Entry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(e < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Engine::sift_down(std::size_t pos, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void Engine::heap_remove(std::size_t pos) {
  slots_[heap_[pos].slot].heap_pos = kNpos;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // the removed entry was the last one
  // The bottom entry fills the hole.  It can order before the hole's parent
  // only when it comes from another subtree; then it moves up, else down.
  if (pos > 0 && last < heap_[(pos - 1) / 2]) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
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
  s.fn = std::move(fn);
  const Entry e{when, next_seq_++, idx};
  heap_.push_back(e);  // a hole at the bottom, filled by sift_up
  sift_up(heap_.size() - 1, e);
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
  if (count >= cap || pos >= heap_.size() || heap_[pos].when > limit) {
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
  const Slot* s = pending_slot(id);
  if (s == nullptr) return false;
  const std::size_t pos = s->heap_pos;
  const Entry e{when, next_seq_++, heap_[pos].slot};
  // The fresh seq exceeds every queued one, so the key only grows unless
  // the event moved earlier in time.
  if (when < heap_[pos].when) {
    sift_up(pos, e);
  } else {
    sift_down(pos, e);
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
  const std::uint32_t idx = heap_[0].slot;
  const std::uint64_t seq = heap_[0].seq;
  const std::uint32_t gen = slots_[idx].gen;
  // Call from a local: a nested schedule_at may grow slots_ and move every
  // record, callback storage included.
  Callback fn = std::move(slots_[idx].fn);
  auto finish = [&] {
    Slot& s = slots_[idx];
    if (s.gen != gen) return;  // cancelled: the slot is no longer ours
    if (heap_[s.heap_pos].seq != seq) {  // re-armed: keep the callback
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
    advance_clock(heap_[0].when);
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
    const SimTime when = heap_[0].when;
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
