#include "batch/queue.h"

#include <set>
#include <stdexcept>

namespace hpcs::batch {

std::vector<QueueConfig> default_queues() {
  QueueConfig q;
  q.name = "workq";
  return {q};
}

void validate_queues(const std::vector<QueueConfig>& queues) {
  std::set<std::string> names;
  for (const QueueConfig& q : queues) {
    if (q.name.empty()) {
      throw std::invalid_argument("QueueConfig: queue name must be non-empty");
    }
    if (!names.insert(q.name).second) {
      throw std::invalid_argument("QueueConfig: duplicate queue name " +
                                  q.name);
    }
    if (q.min_nodes < 1 || q.max_nodes < q.min_nodes) {
      throw std::invalid_argument("QueueConfig: bad width window on queue " +
                                  q.name);
    }
    if (q.node_limit < 0) {
      throw std::invalid_argument("QueueConfig: negative limit on queue " +
                                  q.name);
    }
  }
}

int route_queue(const std::vector<QueueConfig>& queues, int nodes,
                SimDuration estimate) {
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const QueueConfig& q = queues[i];
    if (nodes < q.min_nodes || nodes > q.max_nodes) continue;
    if (q.max_walltime > 0 && estimate > q.max_walltime) continue;
    return static_cast<int>(i);
  }
  return -1;
}

}  // namespace hpcs::batch
