// Fleet control shared by both sharded drivers: the batch pipeline
// (sim/simulator.hpp: run_trace_sharded_stream) and the open-loop frontend
// (sim/serve_frontend.hpp). Each driver decides *when* the fleet may
// change — the batch pipeline between drain chunks, the frontend at a
// quiesce barrier with no request in flight — and calls this module for
// *what* changes, so the two cannot drift apart:
//
//   * FleetController — the epoch barrier. It owns the rebalancer window
//     and the exponentially aged cross/intra cost split the planner prices
//     colocation with, and applies each plan in one fixed order:
//     migrations, then replica reconcile, then a split (re-checked against
//     the live map) or a merge. It reports the reshape as a FleetDelta,
//     which the frontend maps onto its worker threads.
//   * RecoveryLog — the scripted fault protocol (sim/fault.hpp). It owns
//     the pending script, the per-shard snapshots taken at resume points,
//     and the recovery itself: replica promotion when the killed shard is
//     replicated, else snapshot restore plus a replay of the shard's share
//     of the tail served since the snapshot, timed into the recovery
//     counters.
//
// Both are single-threaded: the driver calls them with the fleet at rest.
#pragma once

#include <chrono>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "sim/schedule.hpp"
#include "sim/sharded_network.hpp"
#include "sim/simulator.hpp"
#include "workload/rebalance.hpp"

namespace san {

/// Cross/intra split of served requests, feeding the measured migration
/// cost model: what did a cross-shard request cost here, against an
/// intra-shard one?
struct CostSplit {
  Cost cross_cost = 0;  ///< ascent halves + top-level legs
  Cost intra_cost = 0;  ///< everything else
  std::size_t cross_requests = 0;
  std::size_t intra_requests = 0;

  CostSplit& operator+=(const CostSplit& o) {
    cross_cost += o.cross_cost;
    intra_cost += o.intra_cost;
    cross_requests += o.cross_requests;
    intra_requests += o.intra_requests;
    return *this;
  }
  CostSplit operator-(const CostSplit& o) const {
    return {cross_cost - o.cross_cost, intra_cost - o.intra_cost,
            cross_requests - o.cross_requests,
            intra_requests - o.intra_requests};
  }
};

/// One shard's drain totals plus the ascent-op share, which the fleet
/// controller uses to measure what a cross-shard request actually costs.
struct ShardDrain {
  SimResult sim;
  Cost ascent_cost = 0;  ///< routing + rotations of the ascent ops alone
};

/// Serves one shard's op queue in the scheduled order, each op through
/// serve_shard_op — the rule ShardedNetwork::serve and the frontend
/// workers apply too, so the pipeline and per-request paths cannot
/// diverge. `replica` is the shard's lockstep copy, or null. Under FIFO
/// the queue is served untouched; kLocality reorders within windows of
/// this shard's own queue (shards share nothing, so the
/// sequential/concurrent bit-identity is preserved).
ShardDrain drain_shard(KArySplayNet& shard, KArySplayNet* replica,
                       std::vector<ShardOp>& ops, const ScheduleConfig& sched);

/// How one barrier reshaped the fleet.
struct FleetDelta {
  bool changed = false;    ///< the map or the shard set changed
  int spawned_shard = -1;  ///< id of the shard a split created, or -1
  int retired_shard = -1;  ///< shard a merge folded away, or -1; every id
                           ///< above it shifted down by one
};

class FleetController {
 public:
  /// `cfg` may be null. The controller is active when migrations have
  /// somewhere to go (policy enabled, S > 1) or lifecycle planning is on
  /// (it creates and destroys shards, so it runs even at S = 1). An
  /// inactive controller never plans.
  FleetController(const RebalanceConfig* cfg, const ShardedNetwork& net);

  bool active() const { return active_; }
  /// Requests between barriers (meaningful only when active).
  std::size_t epoch_requests() const { return state_.config().epoch_requests; }

  /// Accounts one served request into the planning window.
  void observe(const Request& r, const ShardMap& map) {
    state_.observe(r, map);
  }

  /// The epoch barrier. Ages the measured cost split by `since_last` (what
  /// was served since the previous barrier), plans, and applies the plan
  /// to `net` in order: migrations, replica reconcile, then a split or a
  /// merge. Plan ids refer to the pre-lifecycle map, so replicas are
  /// reconciled before the split/merge renumbers shards. Updates the
  /// rebalance and lifecycle counters of `res`.
  FleetDelta barrier(ShardedNetwork& net, const CostSplit& since_last,
                     SimResult& res);

 private:
  bool active_;
  RebalanceState state_;
  RebalanceCostHints base_hints_;
  double cross_cost_ = 0.0, intra_cost_ = 0.0;
  double cross_requests_ = 0.0, intra_requests_ = 0.0;
};

class RecoveryLog {
 public:
  /// `plan` may be null; a non-null plan is validated and copied.
  explicit RecoveryLog(const FaultPlan* plan);

  bool pending() const { return next_ < events_.size(); }

  /// The next scripted event if it is due once `served` requests have been
  /// served (at_request <= served), else null. A driver asks before each
  /// request and once more at the end, so an event at m fires in an
  /// m-request run and one at m + 1 never does.
  const FaultEvent* next_due(std::size_t served) const {
    return pending() && events_[next_].at_request <= served ? &events_[next_]
                                                            : nullptr;
  }

  /// Consumes the due event, range-checking its shard against the live
  /// fleet of `net` (splits and merges may have changed it).
  FaultEvent take(const ShardedNetwork& net);

  /// A resume point: snapshots every shard while events are pending.
  void snapshot(const ShardedNetwork& net);

  /// Recovers a killed `shard`: promotes its replica, or restores the last
  /// snapshot and replays the shard's share of `tail` (every request
  /// served since that snapshot) under `schedule`. Replay costs and the
  /// wall time land in the recovery counters of `res`, not the serve
  /// counters.
  void recover(ShardedNetwork& net, int shard, std::span<const Request> tail,
               const ScheduleConfig& schedule, SimResult& res);

 private:
  std::vector<FaultEvent> events_;
  std::size_t next_ = 0;
  std::vector<std::string> snaps_;  ///< [shard] tree_io snapshot text
};

/// Adds the wall time since `t0` to the recovery totals of `res`.
void book_recovery_time(SimResult& res,
                        std::chrono::steady_clock::time_point t0);

/// Final-map re-scan for the Trace& adapters: with an unchanged map the
/// dispatch-time intra fraction already is the final one; a run that
/// migrated nodes or split/merged shards (which rewrites shard ids
/// wholesale) re-scans `trace` against the live map.
void rescan_post_intra_fraction(const Trace& trace, const ShardMap& map,
                                SimResult& res);

}  // namespace san
