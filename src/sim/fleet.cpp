#include "sim/fleet.hpp"

#include <algorithm>
#include <utility>

namespace san {

ShardDrain drain_shard(KArySplayNet& shard, KArySplayNet* replica,
                       std::vector<ShardOp>& ops,
                       const ScheduleConfig& sched) {
  ShardDrain res;
  LocalityScheduler scheduler(sched);
  scheduler.run(
      shard.tree(), std::span<ShardOp>(ops),
      [](const ShardOp& op) { return ScheduleEndpoints{op.src, op.dst}; },
      [&](const ShardOp& op) {
        const ServeResult s =
            serve_shard_op(shard, replica, op, res.sim.replica_reads);
        res.sim.charge(s);
        if (op.is_ascent()) res.ascent_cost += s.total_cost();
      });
  res.sim.reordered_requests = scheduler.reordered();
  return res;
}

// ---- FleetController ---------------------------------------------------

namespace {

bool controller_active(const RebalanceConfig* cfg, int shards) {
  return cfg != nullptr &&
         ((cfg->enabled() && shards > 1) || cfg->lifecycle_enabled());
}

}  // namespace

FleetController::FleetController(const RebalanceConfig* cfg,
                                 const ShardedNetwork& net)
    : active_(controller_active(cfg, net.num_shards())),
      state_(active_ ? *cfg : RebalanceConfig{}),
      base_hints_(net.cost_hints()) {}

FleetDelta FleetController::barrier(ShardedNetwork& net,
                                    const CostSplit& since_last,
                                    SimResult& res) {
  // Aged at the same rate as the pair window, so the cost measurement
  // tracks the topology the upcoming plan will actually serve instead of
  // averaging in the long-gone cold-start epochs.
  const double decay = state_.config().window_decay;
  cross_cost_ =
      cross_cost_ * decay + static_cast<double>(since_last.cross_cost);
  intra_cost_ =
      intra_cost_ * decay + static_cast<double>(since_last.intra_cost);
  cross_requests_ = cross_requests_ * decay +
                    static_cast<double>(since_last.cross_requests);
  intra_requests_ = intra_requests_ * decay +
                    static_cast<double>(since_last.intra_requests);

  // Price colocation with the run's own measurements once both sides have
  // been observed: what a cross-shard request has actually cost here,
  // minus what an intra-shard one does. Splaying keeps hot nodes at their
  // shard roots, so the static structural estimate can badly overprice the
  // ascents — a measured penalty of ~0 correctly parks the rebalancer
  // instead of churning nodes for nothing. The inputs are sums of exact
  // integer totals scaled by dyadic decay factors: bit-deterministic
  // across drain modes and thread counts.
  RebalanceCostHints hints = base_hints_;
  if (cross_requests_ > 0.0 && intra_requests_ > 0.0)
    hints.cross_penalty = std::max(0.0, cross_cost_ / cross_requests_ -
                                            intra_cost_ / intra_requests_);

  RebalancePlan plan = state_.epoch(net.map(), hints);
  FleetDelta delta;
  if (plan.triggered) {
    ++res.rebalance_epochs;
    if (!plan.migrations.empty()) {
      const MigrationResult applied =
          net.apply_migrations(std::move(plan.migrations));
      res.migrations += applied.migrated;
      res.migration_cost += applied.total_cost();
      delta.changed = true;
    }
  }
  if (state_.config().replicas > 0) {
    for (int s = 0; s < net.num_shards(); ++s) {
      const bool want = std::binary_search(plan.replicate.begin(),
                                           plan.replicate.end(), s);
      if (want && !net.has_replica(s))
        net.add_replica(s);
      else if (!want && net.has_replica(s))
        net.drop_replica(s);
    }
  }
  // Migrations applied above may have reshaped the very shard the plan
  // targets (watermark migration and split watch the same hot shard), so
  // the split precondition is re-checked against the live map.
  if (plan.split_shard >= 0 && net.map().shard_size(plan.split_shard) >= 2) {
    const LifecycleResult lr = net.split_shard(plan.split_shard);
    ++res.shard_splits;
    res.lifecycle_cost += lr.total_cost();
    delta.spawned_shard = net.num_shards() - 1;  // the new shard's id
    delta.changed = true;
  } else if (plan.merge_from >= 0) {
    const LifecycleResult lr =
        net.merge_shards(plan.merge_into, plan.merge_from);
    ++res.shard_merges;
    res.lifecycle_cost += lr.total_cost();
    delta.retired_shard = plan.merge_from;
    delta.changed = true;
  }
  return delta;
}

// ---- RecoveryLog -------------------------------------------------------

RecoveryLog::RecoveryLog(const FaultPlan* plan) {
  if (plan == nullptr || !plan->enabled()) return;
  plan->validate();
  events_ = plan->kills;
}

FaultEvent RecoveryLog::take(const ShardedNetwork& net) {
  const FaultEvent ev = events_[next_++];
  if (ev.shard >= net.num_shards())
    throw TreeError("FaultPlan: " + std::string(fault_kind_name(ev.kind)) +
                    " shard " + std::to_string(ev.shard) +
                    " out of range (live S=" +
                    std::to_string(net.num_shards()) + ")");
  return ev;
}

void RecoveryLog::snapshot(const ShardedNetwork& net) {
  if (!pending()) return;
  snaps_.resize(static_cast<std::size_t>(net.num_shards()));
  for (int s = 0; s < net.num_shards(); ++s)
    snaps_[static_cast<std::size_t>(s)] = net.snapshot_shard(s);
}

void RecoveryLog::recover(ShardedNetwork& net, int shard,
                          std::span<const Request> tail,
                          const ScheduleConfig& schedule, SimResult& res) {
  const auto t0 = std::chrono::steady_clock::now();
  ++res.faults_injected;
  if (net.has_replica(shard)) {
    // Failover: the lockstep replica holds the exact pre-crash state.
    net.promote_replica(shard);
    ++res.replica_promotions;
  } else {
    net.restore_shard(shard, snaps_[static_cast<std::size_t>(shard)]);
    // Between two resume points the map is constant and the shard's ops
    // form one contiguous queue: replaying it from the snapshot under the
    // same schedule reproduces the state the shard held when it died.
    PartitionedTrace pt = partition_trace(tail, net.map());
    std::vector<ShardOp>& ops = pt.ops[static_cast<std::size_t>(shard)];
    const ShardDrain replay =
        drain_shard(net.shard(shard), nullptr, ops, schedule);
    res.recovery_replayed += static_cast<Cost>(ops.size());
    res.recovery_cost += replay.sim.total_cost();
  }
  book_recovery_time(res, t0);
}

void book_recovery_time(SimResult& res,
                        std::chrono::steady_clock::time_point t0) {
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  res.recovery_total_ms += ms;
  res.recovery_max_ms = std::max(res.recovery_max_ms, ms);
}

void rescan_post_intra_fraction(const Trace& trace, const ShardMap& map,
                                SimResult& res) {
  if (res.migrations != 0 || res.shard_splits != 0 || res.shard_merges != 0)
    res.post_intra_fraction = compute_shard_stats(trace, map).intra_fraction();
}

}  // namespace san
