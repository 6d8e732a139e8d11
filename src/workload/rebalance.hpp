// Online shard-rebalancing policies: decide *which* nodes should move to
// *which* shard as the communication pattern drifts.
//
// A static ShardMap pays the cross-shard penalty forever once the hot pairs
// move — the same self-adjustment-vs-static tension the paper studies at
// the tree level, replayed one level up. This layer closes it: a
// RebalanceState accumulates a sliding-window histogram of communication
// pairs (exponentially aged: counts decay by `window_decay` at each epoch
// boundary, so the window slides without storing the raw tail), and at
// every epoch a pluggable trigger decides whether to plan a migration
// batch under one of two policies:
//   * kHotPair   — greedy hot-pair colocation: walk cross-shard pairs by
//     descending window weight and move the endpoint whose window affinity
//     to the partner's shard exceeds its affinity to its own, whenever the
//     projected per-window saving beats the migration cost estimate.
//   * kWatermark — load-watermark balancing: while the hottest shard's
//     window load exceeds `watermark` x the active-shard mean, move its
//     least-attached nodes to the shard they are most attached to among
//     the under-loaded ones.
// Planning is pure (it never touches the serving engine): it consumes the
// ShardMap plus two cost hints the simulator derives from the engine, and
// returns a batch the engine applies between drains
// (sim/sharded_network.hpp: apply_migrations). Every decision is a
// deterministic function of the observed requests — weights are dyadic
// rationals (integer counts halved), candidate orders are fully tie-broken
// — so sequential and concurrent drains plan identical batches.
//
// Planning reads the window hottest-first, and every weight sum it forms
// (per-shard loads, node loads, affinities) adds in that order. The order
// is part of the result: the sums are not always exact. A pair observed
// in many epochs carries a long binary tail, so on stationary skew some
// sums round, and summing the same weights in another order changes plan
// bits (the Facebook rows of RebalanceGolden.PlanSequenceAtCapacityLocked
// differ when the per-shard loads are summed in hash-map order). So the
// window is not re-sorted per epoch but kept in that order (see
// RebalanceState).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workload/partition.hpp"
#include "workload/request.hpp"

namespace san {

/// Decayed window weights below this floor count as aged out and are
/// pruned at epoch boundaries. The floor — NOT 1.0 — is what gives the
/// window its depth: at the default decay of 0.5 a once-observed pair
/// (weight 1.0) survives ten epochs before crossing 1/1024, instead of
/// being evicted after the first decay the way a cut starting at 1.0 would.
/// Capacity pressure can still raise the cut (rebalance.cpp: decay()).
inline constexpr double kWindowFloorWeight = 1.0 / 1024.0;

/// One planned node move.
struct Migration {
  NodeId node = kNoNode;
  int to_shard = -1;

  friend bool operator==(const Migration&, const Migration&) = default;
};

enum class RebalancePolicy {
  kNone,       ///< never migrate — exactly PR 3's static sharding
  kHotPair,    ///< greedy hot-pair colocation
  kWatermark,  ///< load-watermark draining of overloaded shards
};

enum class RebalanceTrigger {
  kEveryEpoch,  ///< plan at every epoch; empty plans are free
  kDrift,       ///< plan only when the window's hot-pair set moved:
                ///< fraction of the current top-k pairs absent from the
                ///< previous epoch's exceeds trigger_drift. Parks the
                ///< rebalancer on stationary workloads (a static map
                ///< already is the steady-state answer there) while
                ///< reacting within one epoch to phase changes.
};

const char* rebalance_policy_name(RebalancePolicy policy);
const char* rebalance_trigger_name(RebalanceTrigger trigger);

struct RebalanceConfig {
  RebalancePolicy policy = RebalancePolicy::kNone;
  RebalanceTrigger trigger = RebalanceTrigger::kDrift;
  /// Requests between epoch checks; 0 disables rebalancing outright
  /// (epoch = infinity), as does policy == kNone.
  std::size_t epoch_requests = 8192;
  /// Aging factor applied to every window weight at each epoch boundary.
  double window_decay = 0.5;
  /// Hard cap on migrations per epoch (bounds the pause length).
  int max_migrations = 64;
  /// kDrift: rebalance when more than this fraction of the current top
  /// 32 pairs was absent from the previous epoch's top set.
  double trigger_drift = 0.3;
  /// Cost saved per request converted from cross- to intra-shard; 0 means
  /// "derive from the engine" (top-tree route + the second root ascent).
  double cross_penalty = 0.0;
  /// kWatermark: tolerated max-shard-load / mean-shard-load ratio.
  double watermark = 1.3;
  /// Capacity guard for every policy: no shard may grow beyond
  /// capacity_factor * (n / shards) nodes. Without it, greedy colocation
  /// on a stationary skewed workload (independent Zipf endpoints) keeps
  /// pulling the hot nodes into one mega-shard, trading away the
  /// parallelism and the shallow trees sharding exists to provide.
  double capacity_factor = 1.5;
  /// Soft cap on distinct pairs kept in the window (aged-out entries are
  /// pruned at epoch boundaries first, lightest pairs next), so the window
  /// never holds more than window_capacity + epoch_requests pairs.
  std::size_t window_capacity = 1 << 16;

  // ---- tablet-style shard lifecycle (split / merge / replicate) -------
  // Lifecycle planning rides on the same per-shard window loads the
  // watermark migration policy measures, but is evaluated at *every*
  // epoch, independent of `trigger` and `policy` — a load spike needs a
  // systemic answer even when the hot-pair set is stationary. Plans are
  // applied by one FleetController (sim/fleet.hpp), which both drivers
  // call: the batch pipeline at its drain barrier and the open-loop
  // frontend at its quiesce barriers, where splits spawn workers and
  // merges retire them mid-run.

  /// > 0 enables shard splitting: when the hottest shard's window load
  /// exceeds split_watermark x the active-shard mean (and it owns >= 4
  /// nodes, and the fleet is below max_shards), plan a midpoint split.
  double split_watermark = 0.0;
  /// > 0 enables shard merging: when the two coldest shards' combined
  /// window load is below merge_watermark x the active-shard mean (and
  /// the fleet is above min_shards, and the combined shard respects the
  /// capacity guard), plan their merge. A split and a merge never fire in
  /// the same epoch (split wins — relieving the hot shard comes first).
  double merge_watermark = 0.0;
  int max_shards = 256;  ///< split ceiling on the fleet size
  int min_shards = 1;    ///< merge floor on the fleet size
  /// > 0 enables read replicas: the `replicas` shards with the heaviest
  /// *intra*-shard window weight (ties to the smaller id) are kept
  /// replicated; the runner reconciles adds/drops at each barrier.
  int replicas = 0;

  bool enabled() const {
    return policy != RebalancePolicy::kNone && epoch_requests > 0;
  }
  /// Any lifecycle planning configured? (Planning then runs every epoch
  /// even under policy == kNone, which disables only node migrations.)
  bool lifecycle_enabled() const {
    return epoch_requests > 0 &&
           (split_watermark > 0.0 || merge_watermark > 0.0 || replicas > 0);
  }
};

/// Engine-derived cost estimates the planner prices moves with.
struct RebalanceCostHints {
  /// Cost saved per colocated request (overridden by cfg.cross_penalty).
  double cross_penalty = 3.0;
  /// Estimated one-off cost of migrating one node (extraction ascent plus
  /// its share of the relink batch).
  double migration_cost = 8.0;
};

struct RebalancePlan {
  bool triggered = false;
  std::vector<Migration> migrations;
  /// Projected per-window saving of the batch minus its migration cost,
  /// in the same units as SimResult::total_cost.
  double est_gain = 0.0;
  double cross_fraction = 0.0;
  double load_imbalance = 1.0;
  /// Fraction of the current top pairs that are new since last epoch.
  /// 0.0 while the history is empty: the first window only seeds the
  /// detector (an initial partition is configuration, not drift).
  double drift = 0.0;

  // Lifecycle actions (planned whenever cfg.lifecycle_enabled(),
  // independent of `triggered`, which gates only node migrations).
  int split_shard = -1;  ///< shard to split at its rank midpoint, or -1
  int merge_into = -1;   ///< merge target (the smaller id), or -1
  int merge_from = -1;   ///< shard folded into merge_into, or -1
  /// Desired replicated-shard set (sorted ascending; ids refer to the map
  /// the plan was made against, before any split/merge of this barrier).
  std::vector<int> replicate;

  bool has_lifecycle() const {
    return split_shard >= 0 || merge_from >= 0 || !replicate.empty();
  }
};

/// One window pair and its decayed request count, as the planner sees it.
struct WindowPair {
  NodeId u = kNoNode;  ///< u < v (unordered pair)
  NodeId v = kNoNode;
  double weight = 0.0;
};

/// The window is a flat array of WindowPairs with an open-addressing
/// index, so observe() and pair_weight() are one probe each. After each
/// epoch the array is hottest-first — (weight desc, u, v) — and it stays so
/// apart from the pairs observe() touches: decay scales every weight by one
/// factor (rounding can only create ties, which an insertion pass orders),
/// and the capacity cut drops a suffix. epoch() sorts just the touched
/// pairs and merges them back, so planning costs linear passes over the
/// window plus a sort of one epoch's distinct pairs, never a sort of the
/// whole window.
class RebalanceState {
 public:
  explicit RebalanceState(RebalanceConfig cfg);

  const RebalanceConfig& config() const { return cfg_; }

  /// Accounts one served request into the window under the current map.
  void observe(const Request& r, const ShardMap& map);

  /// Epoch boundary: evaluates the trigger against the current window,
  /// plans a batch when it fires, then ages the window. The returned
  /// migrations never drain a shard below one node and never move a node
  /// twice.
  RebalancePlan epoch(const ShardMap& map, const RebalanceCostHints& hints);

  // Window introspection (tests / CLI).
  double window_requests() const { return requests_; }
  double window_cross() const { return cross_; }
  double pair_weight(NodeId u, NodeId v) const;

 private:
  void plan_hot_pairs(const ShardMap& map, const RebalanceCostHints& hints,
                      RebalancePlan& plan) const;
  /// `touches` is the per-shard window load epoch() measured (one endpoint
  /// touch per pair per shard), reused as the evolving load model.
  void plan_watermark(const ShardMap& map, const RebalanceCostHints& hints,
                      const std::vector<double>& touches,
                      RebalancePlan& plan) const;
  /// Split/merge/replicate planning from the same window `touches` load
  /// model; see the lifecycle fields of RebalanceConfig.
  void plan_lifecycle(const ShardMap& map,
                      const std::vector<double>& touches,
                      RebalancePlan& plan) const;
  /// Restores the window's hottest-first order (class comment).
  void order_window();
  void decay();
  /// Index slot holding `key`, or the empty slot where it would go.
  std::size_t find_slot(std::uint64_t key) const;
  void rebuild_index();

  RebalanceConfig cfg_;
  /// Every pair with its exponentially aged request count, in the order
  /// described in the class comment.
  std::vector<WindowPair> window_;
  /// touched_[i] != 0: window_[i] was observed since the last epoch.
  std::vector<std::uint8_t> touched_;
  /// Linear-probing index over window_: a power-of-two number of slots at
  /// load <= 1/2, each holding a window_ position + 1, or 0 when empty.
  std::vector<std::uint32_t> index_;
  /// Previous epoch's top kDriftTopK pair keys, sorted (drift detector).
  std::vector<std::uint64_t> prev_top_;
  double requests_ = 0.0;
  double cross_ = 0.0;
};

}  // namespace san
