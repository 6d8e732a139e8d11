#include "workload/rebalance.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace san {
namespace {

/// Hot pairs compared between epochs by the drift detector.
constexpr std::size_t kDriftTopK = 32;
/// A move must beat the migration cost estimate by this many cost units
/// (projected over one window) to be accepted.
constexpr double kMinGain = 0.0;

std::uint64_t pair_key(NodeId u, NodeId v) { return pack_node_pair(u, v); }

WindowPair unpack_pair(std::uint64_t key, double weight) {
  return {static_cast<NodeId>(key >> 32),
          static_cast<NodeId>(key & 0xffffffffu), weight};
}

/// The planner's visit order: hot pairs first, with a full (u, v)
/// tie-break, so the order — and with it every greedy decision and every
/// weight sum — is independent of how the window stores its pairs.
bool hotter(const WindowPair& a, const WindowPair& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

/// Index slot of a pair key before probing (murmur3's 64-bit finalizer).
std::size_t slot_hash(std::uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdull;
  key ^= key >> 33;
  return static_cast<std::size_t>(key);
}

}  // namespace

const char* rebalance_policy_name(RebalancePolicy policy) {
  switch (policy) {
    case RebalancePolicy::kNone:
      return "none";
    case RebalancePolicy::kHotPair:
      return "hotpair";
    case RebalancePolicy::kWatermark:
      return "watermark";
  }
  return "?";
}

const char* rebalance_trigger_name(RebalanceTrigger trigger) {
  switch (trigger) {
    case RebalanceTrigger::kEveryEpoch:
      return "every-epoch";
    case RebalanceTrigger::kDrift:
      return "drift";
  }
  return "?";
}

RebalanceState::RebalanceState(RebalanceConfig cfg) : cfg_(cfg) {
  if (cfg_.window_decay < 0.0 || cfg_.window_decay >= 1.0)
    throw TreeError("RebalanceState: window_decay must be in [0, 1)");
  if (cfg_.max_migrations < 0)
    throw TreeError("RebalanceState: max_migrations must be >= 0");
  if (cfg_.split_watermark < 0.0 || cfg_.merge_watermark < 0.0)
    throw TreeError("RebalanceState: lifecycle watermarks must be >= 0");
  if (cfg_.replicas < 0)
    throw TreeError("RebalanceState: replicas must be >= 0");
  if (cfg_.max_shards < 1 || cfg_.min_shards < 1)
    throw TreeError("RebalanceState: shard-count bounds must be >= 1");
  rebuild_index();
}

std::size_t RebalanceState::find_slot(std::uint64_t key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = slot_hash(key) & mask;
  while (index_[slot] != 0) {
    const WindowPair& e = window_[index_[slot] - 1];
    if (pair_key(e.u, e.v) == key) break;
    slot = (slot + 1) & mask;
  }
  return slot;
}

void RebalanceState::rebuild_index() {
  std::size_t slots = std::max<std::size_t>(index_.size(), 16);
  while (slots < 2 * window_.size()) slots *= 2;
  index_.assign(slots, 0);
  for (std::size_t i = 0; i < window_.size(); ++i)
    index_[find_slot(pair_key(window_[i].u, window_[i].v))] =
        static_cast<std::uint32_t>(i + 1);
}

void RebalanceState::observe(const Request& r, const ShardMap& map) {
  if (r.src == r.dst) return;
  const std::uint64_t key = pair_key(r.src, r.dst);
  const std::size_t slot = find_slot(key);
  if (index_[slot] == 0) {
    window_.push_back(unpack_pair(key, 1.0));
    touched_.push_back(1);
    index_[slot] = static_cast<std::uint32_t>(window_.size());
    if (2 * window_.size() > index_.size()) rebuild_index();
  } else {
    window_[index_[slot] - 1].weight += 1.0;
    touched_[index_[slot] - 1] = 1;
  }
  requests_ += 1.0;
  if (map.shard_of(r.src) != map.shard_of(r.dst)) cross_ += 1.0;
}

double RebalanceState::pair_weight(NodeId u, NodeId v) const {
  const std::uint32_t at = index_[find_slot(pair_key(u, v))];
  return at == 0 ? 0.0 : window_[at - 1].weight;
}

void RebalanceState::order_window() {
  // The untouched pairs are still hottest-first (decay() left the whole
  // window so, and observe() only raised the touched ones or appended new
  // ones): sort the touched pairs alone and merge the two runs.
  std::vector<WindowPair> raised;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    if (touched_[i] != 0)
      raised.push_back(window_[i]);
    else
      window_[kept++] = window_[i];
  }
  std::sort(raised.begin(), raised.end(), hotter);
  window_.resize(kept);
  window_.insert(window_.end(), raised.begin(), raised.end());
  std::inplace_merge(window_.begin(),
                     window_.begin() + static_cast<std::ptrdiff_t>(kept),
                     window_.end(), hotter);
  std::fill(touched_.begin(), touched_.end(), 0);
}

void RebalanceState::decay() {
  requests_ *= cfg_.window_decay;
  cross_ *= cfg_.window_decay;
  for (WindowPair& e : window_) e.weight *= cfg_.window_decay;
  // Scaling is monotone, so it keeps the hottest-first order except where
  // rounding makes two weights equal (never at a power-of-two decay); one
  // insertion pass restores the (u, v) tie-break there.
  for (std::size_t i = 1; i < window_.size(); ++i)
    for (std::size_t j = i; j > 0 && hotter(window_[j], window_[j - 1]); --j)
      std::swap(window_[j], window_[j - 1]);
  // Prune aged-out pairs: only weights that have decayed to noise
  // (kWindowFloorWeight) are dropped unconditionally. The cut must NOT
  // start at 1.0 — that would evict every pair not re-observed in the
  // current epoch after a single decay, collapsing the "exponentially aged
  // sliding window" to depth 1 for cold pairs even with the table nearly
  // empty. Only when the table exceeds its capacity does the cut rise,
  // doubling from the floor until the table fits: it stops at the first
  // power of two (the floor is one) above the heaviest pair that does not
  // fit, evicting lightest-first. Either way the kept pairs are a prefix.
  double cut = kWindowFloorWeight;
  if (window_.size() > cfg_.window_capacity &&
      window_[cfg_.window_capacity].weight >= cut)
    cut = std::ldexp(1.0, std::ilogb(window_[cfg_.window_capacity].weight) + 1);
  window_.erase(std::partition_point(
                    window_.begin(), window_.end(),
                    [cut](const WindowPair& e) { return e.weight >= cut; }),
                window_.end());
  touched_.resize(window_.size());
  rebuild_index();
}

RebalancePlan RebalanceState::epoch(const ShardMap& map,
                                    const RebalanceCostHints& hints) {
  RebalancePlan plan;
  plan.cross_fraction =
      requests_ == 0.0 ? 0.0 : cross_ / requests_;

  order_window();

  // Window load per shard (each endpoint touch counts its weight), shared
  // by the plan's load_imbalance report and the watermark policy.
  std::vector<double> touches(static_cast<std::size_t>(map.shards()), 0.0);
  for (const WindowPair& e : window_) {
    touches[static_cast<std::size_t>(map.shard_of(e.u))] += e.weight;
    const int sv = map.shard_of(e.v);
    if (sv != map.shard_of(e.u))
      touches[static_cast<std::size_t>(sv)] += e.weight;
  }
  {
    double max = 0.0, sum = 0.0;
    int active = 0;
    for (int s = 0; s < map.shards(); ++s) {
      if (map.shard_size(s) == 0) continue;
      ++active;
      max = std::max(max, touches[static_cast<std::size_t>(s)]);
      sum += touches[static_cast<std::size_t>(s)];
    }
    plan.load_imbalance =
        (active == 0 || sum == 0.0) ? 1.0 : max / (sum / active);
  }

  // Drift score: how much of the current hot-pair set is new. Computed
  // every epoch (not only under kDrift) so the plan always reports it and
  // the history stays warm across trigger changes.
  {
    std::vector<std::uint64_t> top;
    const std::size_t k = std::min(kDriftTopK, window_.size());
    top.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
      top.push_back(pair_key(window_[i].u, window_[i].v));
    std::sort(top.begin(), top.end());
    if (prev_top_.empty() || top.empty()) {
      // An empty history is not drift: the first window only seeds the
      // detector. The initial partition is configuration — rebalancing
      // exists to chase *change*, and a workload that never changes should
      // serve exactly like PR 3's static engine.
      plan.drift = 0.0;
    } else {
      std::size_t fresh = 0;
      for (std::uint64_t key : top)
        if (!std::binary_search(prev_top_.begin(), prev_top_.end(), key))
          ++fresh;
      plan.drift = static_cast<double>(fresh) / static_cast<double>(top.size());
    }
    if (!top.empty()) prev_top_ = std::move(top);
  }

  switch (cfg_.trigger) {
    case RebalanceTrigger::kEveryEpoch:
      plan.triggered = true;
      break;
    case RebalanceTrigger::kDrift:
      plan.triggered = plan.drift > cfg_.trigger_drift;
      break;
  }

  if (plan.triggered && map.shards() > 1) {
    RebalanceCostHints resolved = hints;
    if (cfg_.cross_penalty > 0.0) resolved.cross_penalty = cfg_.cross_penalty;
    if (cfg_.policy == RebalancePolicy::kHotPair)
      plan_hot_pairs(map, resolved, plan);
    else if (cfg_.policy == RebalancePolicy::kWatermark)
      plan_watermark(map, resolved, touches, plan);
  }

  // Lifecycle decisions fire on every epoch regardless of the migration
  // trigger: a fleet-shape change answers sustained load skew, which the
  // drift detector deliberately ignores.
  if (cfg_.lifecycle_enabled()) plan_lifecycle(map, touches, plan);

  decay();
  return plan;
}

void RebalanceState::plan_lifecycle(const ShardMap& map,
                                    const std::vector<double>& touches,
                                    RebalancePlan& plan) const {
  // Per-shard window load over node-owning shards, plus the two coldest
  // and the hottest — all tie-broken toward the smaller id so the plan is
  // a pure function of the window.
  double max = 0.0, sum = 0.0;
  int active = 0, hottest = -1;
  int cold1 = -1, cold2 = -1;  // coldest and second-coldest
  for (int s = 0; s < map.shards(); ++s) {
    if (map.shard_size(s) == 0) continue;
    ++active;
    const double w = touches[static_cast<std::size_t>(s)];
    sum += w;
    if (hottest < 0 || w > max) {
      max = w;
      hottest = s;
    }
    if (cold1 < 0 || w < touches[static_cast<std::size_t>(cold1)]) {
      cold2 = cold1;
      cold1 = s;
    } else if (cold2 < 0 || w < touches[static_cast<std::size_t>(cold2)]) {
      cold2 = s;
    }
  }
  if (active < 1 || sum == 0.0) return;  // empty window: nothing to react to
  const double mean = sum / active;

  // Replica set: the cfg_.replicas shards with the heaviest *intra*-shard
  // window weight (both endpoints inside), weight > 0, ties to the
  // smaller id. Ids refer to the pre-lifecycle map; the runner reconciles
  // replicas before applying any split/merge of the same barrier.
  if (cfg_.replicas > 0) {
    std::vector<double> intra_w(static_cast<std::size_t>(map.shards()), 0.0);
    for (const WindowPair& e : window_) {
      const int su = map.shard_of(e.u);
      if (su == map.shard_of(e.v)) intra_w[static_cast<std::size_t>(su)] += e.weight;
    }
    std::vector<int> order;
    for (int s = 0; s < map.shards(); ++s)
      if (intra_w[static_cast<std::size_t>(s)] > 0.0) order.push_back(s);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double wa = intra_w[static_cast<std::size_t>(a)];
      const double wb = intra_w[static_cast<std::size_t>(b)];
      if (wa != wb) return wa > wb;
      return a < b;
    });
    order.resize(std::min(order.size(),
                          static_cast<std::size_t>(cfg_.replicas)));
    std::sort(order.begin(), order.end());
    plan.replicate = std::move(order);
  }

  // Split the hottest shard when it carries more than split_watermark x
  // the mean load. >= 4 nodes so both halves can later merge or shed
  // nodes without tripping the never-drain guards.
  if (cfg_.split_watermark > 0.0 && map.shards() < cfg_.max_shards &&
      hottest >= 0 && max > cfg_.split_watermark * mean &&
      map.shard_size(hottest) >= 4) {
    plan.split_shard = hottest;
    return;  // never split and merge at the same barrier
  }

  // Merge the two coldest shards when their combined load is below
  // merge_watermark x the mean and the combined shard fits the capacity
  // guard of the shrunken fleet.
  if (cfg_.merge_watermark > 0.0 && active > 1 &&
      map.shards() > std::max(cfg_.min_shards, 1) && cold1 >= 0 &&
      cold2 >= 0) {
    const double combined = touches[static_cast<std::size_t>(cold1)] +
                            touches[static_cast<std::size_t>(cold2)];
    const int merged_nodes = map.shard_size(cold1) + map.shard_size(cold2);
    const double post_even = static_cast<double>(map.n()) /
                             static_cast<double>(map.shards() - 1);
    if (combined < cfg_.merge_watermark * mean &&
        static_cast<double>(merged_nodes) <=
            cfg_.capacity_factor * post_even) {
      plan.merge_into = std::min(cold1, cold2);
      plan.merge_from = std::max(cold1, cold2);
    }
  }
}

namespace {

/// Per-node window adjacency in compressed rows, built once per planning
/// pass: node x's partners are partners[start[x], start[x + 1]), in entry
/// order, so every affinity sum adds in the hottest-first order.
struct Adjacency {
  std::vector<std::uint32_t> start;
  std::vector<std::pair<NodeId, double>> partners;

  Adjacency(const std::vector<WindowPair>& entries, int n)
      : start(static_cast<std::size_t>(n) + 2, 0),
        partners(2 * entries.size()) {
    for (const WindowPair& e : entries) {
      ++start[static_cast<std::size_t>(e.u) + 1];
      ++start[static_cast<std::size_t>(e.v) + 1];
    }
    for (std::size_t x = 1; x < start.size(); ++x) start[x] += start[x - 1];
    std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
    for (const WindowPair& e : entries) {
      partners[next[static_cast<std::size_t>(e.u)]++] = {e.v, e.weight};
      partners[next[static_cast<std::size_t>(e.v)]++] = {e.u, e.weight};
    }
  }
};

/// Window weight node `x` sends to shard `t` under assignment `shard_of`.
double affinity(const Adjacency& adj, const std::vector<int>& shard_of,
                NodeId x, int t) {
  double sum = 0.0;
  for (std::uint32_t i = adj.start[static_cast<std::size_t>(x)];
       i < adj.start[static_cast<std::size_t>(x) + 1]; ++i) {
    const auto& [partner, w] = adj.partners[i];
    if (shard_of[static_cast<std::size_t>(partner)] == t) sum += w;
  }
  return sum;
}

/// Working copies a greedy planning pass mutates as it accepts moves, so
/// later decisions price earlier ones in. Shared by both policies.
struct PlanScratch {
  std::vector<int> shard_of;
  std::vector<int> owned;
  std::vector<bool> moved;

  explicit PlanScratch(const ShardMap& map)
      : shard_of(static_cast<std::size_t>(map.n()) + 1),
        owned(static_cast<std::size_t>(map.shards())),
        moved(static_cast<std::size_t>(map.n()) + 1, false) {
    for (NodeId id = 1; id <= map.n(); ++id)
      shard_of[static_cast<std::size_t>(id)] = map.shard_of(id);
    for (int s = 0; s < map.shards(); ++s)
      owned[static_cast<std::size_t>(s)] = map.shard_size(s);
  }
};

}  // namespace

namespace {

/// Largest node count the capacity guard lets one shard reach.
int shard_capacity(const ShardMap& map, double factor) {
  const double even =
      static_cast<double>(map.n()) / static_cast<double>(map.shards());
  const int cap = static_cast<int>(factor * even);
  return std::max(cap, 2);
}

}  // namespace

void RebalanceState::plan_hot_pairs(const ShardMap& map,
                                    const RebalanceCostHints& hints,
                                    RebalancePlan& plan) const {
  const Adjacency adj(window_, map.n());
  const int capacity = shard_capacity(map, cfg_.capacity_factor);

  PlanScratch sc(map);
  std::vector<int>& shard_of = sc.shard_of;
  std::vector<int>& owned = sc.owned;
  std::vector<bool>& moved = sc.moved;

  for (const WindowPair& e : window_) {
    if (static_cast<int>(plan.migrations.size()) >= cfg_.max_migrations) break;
    const int su = shard_of[static_cast<std::size_t>(e.u)];
    const int sv = shard_of[static_cast<std::size_t>(e.v)];
    if (su == sv) continue;

    // Candidate moves: u joins v's shard or v joins u's. Score each by the
    // projected per-window saving (affinity gained minus affinity lost,
    // priced at the cross penalty) net of the migration cost estimate.
    double best_gain = kMinGain;
    NodeId best_node = kNoNode;
    int best_target = -1;
    for (const auto& [node, target] : {std::pair{e.u, sv}, std::pair{e.v, su}}) {
      const int cur = shard_of[static_cast<std::size_t>(node)];
      if (moved[static_cast<std::size_t>(node)]) continue;
      if (owned[static_cast<std::size_t>(cur)] <= 1) continue;  // never drain
      if (owned[static_cast<std::size_t>(target)] >= capacity) continue;
      const double delta = affinity(adj, shard_of, node, target) -
                           affinity(adj, shard_of, node, cur);
      const double gain = delta * hints.cross_penalty - hints.migration_cost;
      if (gain > best_gain) {
        best_gain = gain;
        best_node = node;
        best_target = target;
      }
    }
    if (best_node == kNoNode) continue;

    plan.migrations.push_back({best_node, best_target});
    plan.est_gain += best_gain;
    moved[static_cast<std::size_t>(best_node)] = true;
    --owned[static_cast<std::size_t>(shard_of[static_cast<std::size_t>(best_node)])];
    ++owned[static_cast<std::size_t>(best_target)];
    shard_of[static_cast<std::size_t>(best_node)] = best_target;
  }
}

void RebalanceState::plan_watermark(const ShardMap& map,
                                    const RebalanceCostHints& hints,
                                    const std::vector<double>& touches,
                                    RebalancePlan& plan) const {
  const Adjacency adj(window_, map.n());
  // The greedy loop evolves the same per-shard load epoch() already
  // measured (one endpoint touch per pair per shard).
  std::vector<double> load = touches;

  PlanScratch sc(map);
  std::vector<int>& shard_of = sc.shard_of;
  std::vector<int>& owned = sc.owned;
  std::vector<bool>& moved = sc.moved;

  // Per-node window weight (the sum over its pairs; its *shed-able* load
  // is smaller — pairs with a partner in the same shard keep touching the
  // shard through the partner after the node leaves).
  std::vector<double> node_load(static_cast<std::size_t>(map.n()) + 1, 0.0);
  for (const WindowPair& e : window_) {
    node_load[static_cast<std::size_t>(e.u)] += e.weight;
    node_load[static_cast<std::size_t>(e.v)] += e.weight;
  }

  while (static_cast<int>(plan.migrations.size()) < cfg_.max_migrations) {
    double max = 0.0, sum = 0.0;
    int active = 0, hottest = -1;
    for (int s = 0; s < map.shards(); ++s) {
      if (owned[static_cast<std::size_t>(s)] == 0) continue;
      ++active;
      sum += load[static_cast<std::size_t>(s)];
      if (hottest < 0 || load[static_cast<std::size_t>(s)] > max) {
        max = load[static_cast<std::size_t>(s)];
        hottest = s;
      }
    }
    if (active <= 1 || sum == 0.0) break;
    const double mean = sum / active;
    if (max <= cfg_.watermark * mean) break;
    if (owned[static_cast<std::size_t>(hottest)] <= 1) break;

    // Evict the node of the hottest shard least attached to it: smallest
    // (internal - external) window affinity; ties break toward the node
    // with less load, then the smaller id.
    NodeId evict = kNoNode;
    double evict_score = 0.0;
    double evict_load = 0.0;
    for (NodeId local = 1; local <= map.shard_size(hottest); ++local) {
      const NodeId node = map.global_of(hottest, local);
      if (moved[static_cast<std::size_t>(node)]) continue;
      if (shard_of[static_cast<std::size_t>(node)] != hottest) continue;
      const double w = node_load[static_cast<std::size_t>(node)];
      if (w == 0.0) continue;  // moving silent nodes cannot shed load
      const double score =
          2.0 * affinity(adj, shard_of, node, hottest) - w;  // internal - external
      if (evict == kNoNode || score < evict_score ||
          (score == evict_score && w < evict_load)) {
        evict = node;
        evict_score = score;
        evict_load = w;
      }
    }
    if (evict == kNoNode) break;

    // Send it where it is most attached among the under-loaded shards;
    // with no attachment anywhere, fall back to the least-loaded one.
    int target = -1;
    double target_aff = 0.0;  // strictly positive affinity required
    int coldest = -1;
    const int capacity = shard_capacity(map, cfg_.capacity_factor);
    for (int s = 0; s < map.shards(); ++s) {
      if (s == hottest || owned[static_cast<std::size_t>(s)] == 0) continue;
      if (owned[static_cast<std::size_t>(s)] >= capacity) continue;
      if (load[static_cast<std::size_t>(s)] >= mean) continue;
      if (coldest < 0 ||
          load[static_cast<std::size_t>(s)] < load[static_cast<std::size_t>(coldest)])
        coldest = s;
      const double aff = affinity(adj, shard_of, evict, s);
      if (aff > target_aff) {
        target_aff = aff;
        target = s;
      }
    }
    if (target < 0) {
      target = coldest;
      if (target < 0) break;
      target_aff = affinity(adj, shard_of, evict, target);
    }

    plan.migrations.push_back({evict, target});
    plan.est_gain += target_aff * hints.cross_penalty - hints.migration_cost;
    moved[static_cast<std::size_t>(evict)] = true;
    // A touch leaves the hot shard only for pairs whose partner is not
    // also there (intra pairs keep anchoring it through the partner), and
    // the target gains one touch for every pair not already ending there.
    const double w = node_load[static_cast<std::size_t>(evict)];
    load[static_cast<std::size_t>(hottest)] -=
        w - affinity(adj, shard_of, evict, hottest);
    load[static_cast<std::size_t>(target)] += w - target_aff;
    --owned[static_cast<std::size_t>(hottest)];
    ++owned[static_cast<std::size_t>(target)];
    shard_of[static_cast<std::size_t>(evict)] = target;
  }
}

}  // namespace san
