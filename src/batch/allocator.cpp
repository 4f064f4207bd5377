#include "batch/allocator.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hpcs::batch {

const char* alloc_policy_name(AllocPolicy policy) {
  switch (policy) {
    case AllocPolicy::kBestFit: return "best-fit";
    case AllocPolicy::kScatter: return "scatter";
  }
  return "?";
}

NodeAllocator::NodeAllocator(int nodes, int block, AllocPolicy policy,
                             int slots_per_node)
    : states_(static_cast<std::size_t>(std::max(nodes, 0)), NodeState::kFree),
      slot_busy_(static_cast<std::size_t>(std::max(nodes, 0)), 0),
      block_(std::clamp(block, 1, std::max(nodes, 1))),
      policy_(policy),
      slots_per_node_(slots_per_node),
      free_(nodes) {
  if (nodes <= 0) {
    throw std::invalid_argument("NodeAllocator: nodes must be positive");
  }
  if (slots_per_node <= 0) {
    throw std::invalid_argument(
        "NodeAllocator: slots_per_node must be positive");
  }
}

void NodeAllocator::check_node(int node) const {
  if (node < 0 || node >= total()) {
    throw std::out_of_range("NodeAllocator: node index out of range");
  }
}

std::vector<NodeAllocator::Run> NodeAllocator::free_runs() const {
  std::vector<Run> runs;
  int start = -1;
  for (int i = 0; i <= total(); ++i) {
    const bool is_free =
        i < total() && states_[static_cast<std::size_t>(i)] == NodeState::kFree;
    if (is_free && start < 0) start = i;
    if (!is_free && start >= 0) {
      runs.push_back({start, i - start});
      start = -1;
    }
  }
  return runs;
}

std::vector<int> NodeAllocator::pick_best_fit(int n,
                                              const std::vector<Run>& runs) {
  std::vector<int> picked;
  picked.reserve(static_cast<std::size_t>(n));

  // Best fit: the smallest run that holds the whole request, preferring
  // block-aligned starts among equals (the "chip-aligned" choice).
  const Run* best = nullptr;
  for (const Run& run : runs) {
    if (run.length < n) continue;
    if (best == nullptr || run.length < best->length ||
        (run.length == best->length && run.start % block_ == 0 &&
         best->start % block_ != 0)) {
      best = &run;
    }
  }
  if (best != nullptr) {
    // Inside the chosen run, start at a block boundary when one fits so the
    // tail of the block stays usable for the next aligned request.
    int start = best->start;
    const int aligned =
        (best->start + block_ - 1) / block_ * block_;
    if (aligned > best->start && aligned + n <= best->start + best->length) {
      start = aligned;
    }
    for (int i = 0; i < n; ++i) picked.push_back(start + i);
    last_contiguous_ = true;
    ++stats_.contiguous;
  } else {
    // Gather from the largest runs first (fewest fragments).
    std::vector<Run> by_size = runs;
    std::stable_sort(by_size.begin(), by_size.end(),
                     [](const Run& a, const Run& b) {
                       if (a.length != b.length) return a.length > b.length;
                       return a.start < b.start;
                     });
    int needed = n;
    for (const Run& run : by_size) {
      const int take = std::min(run.length, needed);
      for (int i = 0; i < take; ++i) picked.push_back(run.start + i);
      needed -= take;
      if (needed == 0) break;
    }
    last_contiguous_ = false;
    ++stats_.fragmented;
  }
  return picked;
}

std::vector<int> NodeAllocator::pick_scattered(int n) {
  // Stripe across blocks: take the first free node of each block, then the
  // second, ... so an n-node job lands on min(n, blocks) different leaf
  // switches and its traffic crosses the spine.
  std::vector<int> picked;
  picked.reserve(static_cast<std::size_t>(n));
  for (int offset = 0; offset < block_ && static_cast<int>(picked.size()) < n;
       ++offset) {
    for (int start = 0; start < total() && static_cast<int>(picked.size()) < n;
         start += block_) {
      const int node = start + offset;
      if (node < total() &&
          states_[static_cast<std::size_t>(node)] == NodeState::kFree) {
        picked.push_back(node);
      }
    }
  }
  std::sort(picked.begin(), picked.end());
  const bool contiguous =
      picked.back() - picked.front() == static_cast<int>(picked.size()) - 1;
  last_contiguous_ = contiguous;
  if (contiguous) {
    ++stats_.contiguous;
  } else {
    ++stats_.fragmented;
  }
  return picked;
}

std::optional<std::vector<int>> NodeAllocator::allocate(int n) {
  if (n <= 0) throw std::invalid_argument("NodeAllocator: n must be positive");
  if (n > free_) return std::nullopt;
  std::vector<int> picked = policy_ == AllocPolicy::kScatter
                                ? pick_scattered(n)
                                : pick_best_fit(n, free_runs());

  for (int node : picked) {
    states_[static_cast<std::size_t>(node)] = NodeState::kBusy;
    slot_busy_[static_cast<std::size_t>(node)] = slots_per_node_;
  }
  free_ -= n;
  busy_ += n;
  ++stats_.allocations;
  std::sort(picked.begin(), picked.end());
  return picked;
}

int NodeAllocator::busy_slots(int node) const {
  check_node(node);
  return slot_busy_[static_cast<std::size_t>(node)];
}

int NodeAllocator::free_slots() const {
  if (slots_per_node_ == 1) return free_;
  int slots = 0;
  for (int i = 0; i < total(); ++i) {
    if (states_[static_cast<std::size_t>(i)] == NodeState::kOffline) continue;
    slots += slots_per_node_ - slot_busy_[static_cast<std::size_t>(i)];
  }
  return slots;
}

std::optional<std::vector<int>> NodeAllocator::allocate_slots(int n) {
  if (n <= 0) throw std::invalid_argument("NodeAllocator: n must be positive");
  if (slots_per_node_ == 1) return allocate(n);
  if (n > free_slots()) return std::nullopt;

  std::vector<int> picked;
  picked.reserve(static_cast<std::size_t>(n));
  int needed = n;
  // Pack partially-occupied nodes first (ascending id): co-location is the
  // point of shared mode, and topping up keeps whole nodes free for
  // exclusive allocations.
  for (int i = 0; i < total() && needed > 0; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (states_[ui] != NodeState::kBusy) continue;
    const int take = std::min(slots_per_node_ - slot_busy_[ui], needed);
    if (take <= 0) continue;
    slot_busy_[ui] += take;
    needed -= take;
    picked.insert(picked.end(), static_cast<std::size_t>(take), i);
  }
  if (needed > 0) {
    // Remainder claims whole free nodes through the placement policy.
    const int whole = (needed + slots_per_node_ - 1) / slots_per_node_;
    std::vector<int> nodes = policy_ == AllocPolicy::kScatter
                                 ? pick_scattered(whole)
                                 : pick_best_fit(whole, free_runs());
    for (int node : nodes) {
      const auto unode = static_cast<std::size_t>(node);
      states_[unode] = NodeState::kBusy;
      --free_;
      ++busy_;
      const int take = std::min(slots_per_node_, needed);
      slot_busy_[unode] = take;
      needed -= take;
      picked.insert(picked.end(), static_cast<std::size_t>(take), node);
    }
  } else {
    // Served entirely by packing; contiguity means one node here.
    last_contiguous_ = picked.front() == picked.back();
    if (last_contiguous_) {
      ++stats_.contiguous;
    } else {
      ++stats_.fragmented;
    }
  }
  ++stats_.allocations;
  std::sort(picked.begin(), picked.end());
  return picked;
}

void NodeAllocator::release_slots(const std::vector<int>& slots) {
  if (slots_per_node_ == 1) {
    release(slots);
    return;
  }
  for (int node : slots) {
    check_node(node);
    const auto unode = static_cast<std::size_t>(node);
    switch (states_[unode]) {
      case NodeState::kBusy:
        if (slot_busy_[unode] <= 0) {
          throw std::logic_error(
              "NodeAllocator: releasing more slots than are busy");
        }
        if (--slot_busy_[unode] == 0) {
          states_[unode] = NodeState::kFree;
          --busy_;
          ++free_;
        }
        break;
      case NodeState::kOffline:
        // Failed under the job; drop the occupant record, node stays out.
        if (slot_busy_[unode] > 0) --slot_busy_[unode];
        break;
      case NodeState::kFree:
        throw std::logic_error("NodeAllocator: releasing a free slot");
    }
  }
  ++stats_.releases;
}

void NodeAllocator::release(const std::vector<int>& nodes) {
  for (int node : nodes) {
    check_node(node);
    switch (states_[static_cast<std::size_t>(node)]) {
      case NodeState::kBusy:
        if (slot_busy_[static_cast<std::size_t>(node)] != slots_per_node_) {
          throw std::logic_error(
              "NodeAllocator: whole-node release of a shared node");
        }
        states_[static_cast<std::size_t>(node)] = NodeState::kFree;
        slot_busy_[static_cast<std::size_t>(node)] = 0;
        --busy_;
        ++free_;
        break;
      case NodeState::kOffline:
        break;  // failed under the job; stays out of the pool
      case NodeState::kFree:
        throw std::logic_error("NodeAllocator: releasing a free node");
    }
  }
  ++stats_.releases;
}

NodeState NodeAllocator::set_offline(int node) {
  check_node(node);
  const NodeState prev = states_[static_cast<std::size_t>(node)];
  switch (prev) {
    case NodeState::kFree: --free_; break;
    case NodeState::kBusy: --busy_; break;
    case NodeState::kOffline: return prev;
  }
  states_[static_cast<std::size_t>(node)] = NodeState::kOffline;
  ++offline_;
  return prev;
}

void NodeAllocator::set_online(int node) {
  check_node(node);
  if (states_[static_cast<std::size_t>(node)] != NodeState::kOffline) return;
  states_[static_cast<std::size_t>(node)] = NodeState::kFree;
  // A repaired node comes back empty even if some victims never released
  // their slots (they were aborted; their records died with them).
  slot_busy_[static_cast<std::size_t>(node)] = 0;
  --offline_;
  ++free_;
}

NodeState NodeAllocator::state(int node) const {
  check_node(node);
  return states_[static_cast<std::size_t>(node)];
}

void NodeAllocator::check_conservation() const {
  int free = 0, busy = 0, offline = 0;
  for (int i = 0; i < total(); ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const int occupied = slot_busy_[ui];
    if (occupied < 0 || occupied > slots_per_node_) {
      throw std::logic_error("NodeAllocator: slot occupancy out of range");
    }
    switch (states_[ui]) {
      case NodeState::kFree:
        ++free;
        if (occupied != 0) {
          throw std::logic_error("NodeAllocator: free node holds busy slots");
        }
        break;
      case NodeState::kBusy:
        ++busy;
        if (occupied == 0) {
          throw std::logic_error("NodeAllocator: busy node holds no slots");
        }
        break;
      case NodeState::kOffline:
        // Occupants linger until their (aborted) jobs release — any count
        // in [0, slots_per_node] is legal here.
        ++offline;
        break;
    }
  }
  if (free != free_ || busy != busy_ || offline != offline_ ||
      free + busy + offline != total()) {
    throw std::logic_error("NodeAllocator: node conservation violated");
  }
}

std::string NodeAllocator::describe() const {
  std::ostringstream out;
  out << total() << " nodes: " << free_ << " free, " << busy_ << " busy, "
      << offline_ << " offline [";
  for (int i = 0; i < total(); ++i) {
    switch (states_[static_cast<std::size_t>(i)]) {
      case NodeState::kFree: out << '.'; break;
      case NodeState::kBusy:
        // Shared mode: show the occupancy digit instead of a bare '#'.
        if (slots_per_node_ > 1) {
          out << slot_busy_[static_cast<std::size_t>(i)] % 10;
        } else {
          out << '#';
        }
        break;
      case NodeState::kOffline: out << 'x'; break;
    }
  }
  out << ']';
  return out.str();
}

}  // namespace hpcs::batch
