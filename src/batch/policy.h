// Scheduling-policy primitives shared by BatchScheduler and the federated
// trace replay (batch/replay.h): the preemption victim choice, and EASY's
// reservation sweep with the backfill test behind it.  Pure functions of
// their arguments, so both schedulers decide alike from the same state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "batch/job.h"
#include "batch/reservation.h"
#include "util/time.h"

namespace hpcs::batch {

/// Suspend/requeue preemption (PBSPro's preempt_order "SR" mode): when the
/// highest-priority waiting job cannot start, running jobs from queues at
/// least `min_priority_gap` priority levels below it are suspended —
/// youngest first — until the candidate fits.  A suspended job keeps the
/// work its ranks committed at sync-point checkpoints (ClusterJob::
/// rank_sync_count) and re-enters the queue at its original arrival time;
/// everything since the last committed sync point is lost and accounted.
struct PreemptConfig {
  bool enabled = false;
  /// Candidate queue priority must exceed the victim's by at least this.
  int min_priority_gap = 1;
  /// Suspensions one job may suffer before it becomes non-preemptable
  /// (the anti-livelock floor).
  int max_preempts = 2;
};

/// A running job, as a possible preemption victim.
struct PreemptCandidate {
  int priority = 0;  // its queue's priority
  int preempts = 0;  // suspensions it already suffered
  SimTime start = 0;
  std::int64_t id = 0;
  int nodes = 0;
  std::size_t ref = 0;  // the caller's handle on the job
};

/// The victims that free `need` nodes for a blocked head of queue priority
/// `head_priority`: of the `running` jobs at least min_priority_gap levels
/// below it and under max_preempts, the shortest prefix in order of lowest
/// priority, then youngest start (least sunk work past its last commit),
/// then id descending.  Empty when even all of them would not do.
inline std::vector<PreemptCandidate> choose_victims(
    std::vector<PreemptCandidate> running, int head_priority, int need,
    const PreemptConfig& config) {
  std::erase_if(running, [&](const PreemptCandidate& c) {
    return c.priority > head_priority - config.min_priority_gap ||
           c.preempts >= config.max_preempts;
  });
  std::sort(running.begin(), running.end(),
            [](const PreemptCandidate& a, const PreemptCandidate& b) {
              if (a.priority != b.priority) return a.priority < b.priority;
              if (a.start != b.start) return a.start > b.start;
              return a.id > b.id;
            });
  int gain = 0;
  std::size_t take = 0;
  for (; take < running.size() && gain < need; ++take) {
    gain += running[take].nodes;
  }
  if (gain < need) return {};
  running.resize(take);
  return running;
}

/// EASY's promise to a blocked head, and the backfill test behind it.
struct EasyReservation {
  SimTime at = kNoPromise;  // the head's reserved start; kNoPromise: none
  int spare = 0;  // nodes expected free at `at` beyond the head's need

  /// Nodes a backfill candidate `nodes` wide, estimated at `estimate`,
  /// takes from `spare` by starting at `now`: 0 when it is (estimated) done
  /// before the reservation, `nodes` when it runs beside it on nodes the
  /// head does not need, -1 when it would delay the head.
  int backfill_cost(SimTime now, int nodes, SimDuration estimate) const {
    if (at == kNoPromise || now + estimate <= at) return 0;
    return nodes <= spare ? nodes : -1;
  }
};

/// The EASY sweep (Lifka): the earliest instant from `now` at which a head
/// `need` nodes wide, estimated at `estimate`, can start — the nodes
/// expected free and the start clear of the advance-reservation `windows`
/// (admits_reservations) — from `free_now` free nodes and the expected
/// (instant, node delta) `changes`: running jobs' estimated ends, windows
/// opening and closing.  Overdue changes count at `now`; all changes at one
/// instant apply together, so jobs ending exactly at the promise still add
/// backfill headroom.
inline EasyReservation easy_reservation(
    SimTime now, int need, SimDuration estimate, int free_now,
    std::vector<std::pair<SimTime, int>> changes,
    const std::vector<Reservation>& windows = {}) {
  const auto admits = [&](SimTime at, int avail) {
    return avail >= need &&
           (windows.empty() ||
            admits_reservations(windows, at, estimate, avail - need));
  };
  int avail = free_now;
  if (admits(now, avail)) return {now, avail - need};
  for (auto& change : changes) change.first = std::max(change.first, now);
  std::sort(changes.begin(), changes.end());
  for (std::size_t i = 0; i < changes.size();) {
    const SimTime t = changes[i].first;
    for (; i < changes.size() && changes[i].first == t; ++i) {
      avail += changes[i].second;
    }
    if (admits(t, avail)) return {t, avail - need};
  }
  return {kNoPromise, -need};
}

}  // namespace hpcs::batch
