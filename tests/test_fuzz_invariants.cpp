// Property fuzz: randomized serve/access/rotation sequences interleaved
// with full audits. Seeded and deterministic (tier1). Invariants beyond
// validate()'s structural/search-property checks:
//   * path queries: path_info / lca / distance / is_ancestor / route_into,
//     all O(distance) range climbs, agree with an
//     independent depth-equalising parent-chase oracle on saturated and
//     unsaturated (keyless-node) trees, for every endpoint relation;
//   * lo/hi ranges: recomputed top-down from the keys alone, they must
//     partition each node's range exactly as the cached lo/hi claim;
//   * adjustment accounting: each rotation's edge_changes/parent_changes
//     must match an independently diffed before/after parent snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "core/splaynet.hpp"
#include "tree_builders.hpp"

namespace san {
namespace {

// Independent depth recompute: pure parent chasing, no cache involvement.
int chase_depth(const KAryTree& t, NodeId id) {
  int d = 0;
  for (NodeId cur = id; t.parent(cur) != kNoNode; cur = t.parent(cur)) ++d;
  return d;
}

void expect_depth_matches_chase(const KAryTree& t) {
  for (NodeId id = 1; id <= t.size(); ++id)
    ASSERT_EQ(t.depth(id), chase_depth(t, id)) << "node " << id;
  const auto err = t.validate();
  ASSERT_FALSE(err.has_value()) << *err;
}

// Independent LCA: equalise depths by parent chasing, then climb in
// lockstep. Uses no ranges, so it cannot share a range-walk bug.
PathInfo oracle_path(const KAryTree& t, NodeId u, NodeId v) {
  int du = chase_depth(t, u);
  int dv = chase_depth(t, v);
  PathInfo p{kNoNode, du + dv};
  for (; du > dv; --du) u = t.parent(u);
  for (; dv > du; --dv) v = t.parent(v);
  while (u != v) {
    u = t.parent(u);
    v = t.parent(v);
    --du;
  }
  p.lca = u;
  p.distance -= 2 * du;
  return p;
}

// Recompute every node's [lo, hi) from the root down using only the keys,
// and check the cached ranges and the child-interval partition.
void expect_ranges_partition(const KAryTree& t) {
  struct Frame {
    NodeId id;
    RoutingKey lo, hi;
  };
  std::vector<Frame> stack = {{t.root(), kKeyMin, kKeyMax}};
  int visited = 0;
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    ++visited;
    ASSERT_EQ(t.lo(f.id), f.lo) << "node " << f.id;
    ASSERT_EQ(t.hi(f.id), f.hi) << "node " << f.id;
    const TreeNode nd = t.node(f.id);
    // The child intervals (lo, k1), (k1, k2), ..., (km, hi) partition the
    // node's open range: consecutive, non-empty, strictly increasing.
    RoutingKey prev = f.lo;
    for (const RoutingKey rk : nd.keys) {
      ASSERT_GT(rk, prev) << "node " << f.id;
      prev = rk;
    }
    ASSERT_LT(prev, f.hi) << "node " << f.id;
    for (size_t s = 0; s < nd.children.size(); ++s) {
      const NodeId c = nd.children[s];
      if (c == kNoNode) continue;
      const RoutingKey clo = (s == 0) ? f.lo : nd.keys[s - 1];
      const RoutingKey chi = (s == nd.keys.size()) ? f.hi : nd.keys[s];
      // The child's own id must fall strictly inside its interval.
      ASSERT_GT(id_key(c), clo);
      ASSERT_LT(id_key(c), chi);
      stack.push_back({c, clo, chi});
    }
  }
  ASSERT_EQ(visited, t.size());
}

std::vector<NodeId> snapshot_parents(const KAryTree& t) {
  std::vector<NodeId> parents(static_cast<size_t>(t.size()) + 1, kNoNode);
  for (NodeId id = 1; id <= t.size(); ++id) parents[id] = t.parent(id);
  return parents;
}

RotationResult diff_parents(const KAryTree& t,
                            const std::vector<NodeId>& before) {
  RotationResult res;
  for (NodeId id = 1; id <= t.size(); ++id) {
    const NodeId now = t.parent(id);
    if (now == before[static_cast<size_t>(id)]) continue;
    ++res.parent_changes;
    if (before[static_cast<size_t>(id)] != kNoNode) ++res.edge_changes;
    if (now != kNoNode) ++res.edge_changes;
  }
  return res;
}

TEST(FuzzInvariants, ServeAccessMixWithFullAudits) {
  for (const auto& [k, n, seed] : {std::tuple{2, 48, 101u},
                                   std::tuple{3, 80, 202u},
                                   std::tuple{5, 120, 303u},
                                   std::tuple{8, 64, 404u}}) {
    std::mt19937_64 rng(seed);
    KArySplayNet net(build_from_shape(k, make_random_shape(n, k, rng)));
    std::uniform_int_distribution<NodeId> pick(1, n);
    std::uniform_int_distribution<int> op(0, 9);
    for (int i = 0; i < 1200; ++i) {
      const NodeId u = pick(rng);
      NodeId v = pick(rng);
      while (v == u) v = pick(rng);
      if (op(rng) == 0)
        net.access(u);
      else
        net.serve(u, v);
      if (i % 100 == 99) {
        expect_depth_matches_chase(net.tree());
        expect_ranges_partition(net.tree());
      }
    }
  }
}

TEST(FuzzInvariants, RotationAccountingMatchesIndependentEdgeDiff) {
  // Every policy knob the engine branches on: block sizing, placement, and
  // the case-1/case-2 preference with its hard-avoid window.
  const std::pair<RotationPolicy, const char*> policies[] = {
      {{}, "default"},
      {{.sizing = BlockSizing::kGreedyMax}, "greedy"},
      {{.placement = BlockPlacement::kLeftmost}, "leftmost"},
      {{.placement = BlockPlacement::kRightmost}, "rightmost"},
      {{.case_preference = false}, "no-case-preference"},
  };
  for (const auto& [k, n, seed] : {std::tuple{2, 40, 1u}, std::tuple{3, 60, 2u},
                                   std::tuple{6, 90, 3u},
                                   std::tuple{10, 150, 4u}}) {
    for (const auto& [policy, name] : policies) {
      std::mt19937_64 rng(seed);
      KAryTree t = build_from_shape(k, make_random_shape(n, k, rng));
      std::uniform_int_distribution<NodeId> pick(1, n);
      int splays = 0, semis = 0;
      for (int i = 0; i < 1500; ++i) {
        const NodeId x = pick(rng);
        const NodeId p = t.parent(x);
        if (p == kNoNode) continue;  // root: no rotation defined
        const std::vector<NodeId> before = snapshot_parents(t);
        RotationResult reported;
        if (t.parent(p) != kNoNode && (rng() & 1)) {
          reported = k_splay(t, x, policy);
          ++splays;
        } else {
          reported = k_semi_splay(t, x, policy);
          ++semis;
        }
        const RotationResult independent = diff_parents(t, before);
        ASSERT_EQ(reported.parent_changes, independent.parent_changes)
            << "k=" << k << " " << name << " rotation " << i << " of node "
            << x;
        ASSERT_EQ(reported.edge_changes, independent.edge_changes)
            << "k=" << k << " " << name << " rotation " << i << " of node "
            << x;
        if (i % 150 == 0) {
          const auto err = t.validate();
          ASSERT_FALSE(err.has_value()) << *err;
        }
      }
      // The mix must actually exercise both rotation kinds.
      EXPECT_GT(splays, 100) << "k=" << k << " " << name;
      EXPECT_GT(semis, 100) << "k=" << k << " " << name;
    }
  }
}

// Checks every path query on (u, v) against the oracle.
void expect_path_queries_match(const KAryTree& t, NodeId u, NodeId v,
                               std::vector<NodeId>& route) {
  const PathInfo want = oracle_path(t, u, v);
  const PathInfo got = t.path_info(u, v);
  ASSERT_EQ(got.lca, want.lca) << u << "->" << v;
  ASSERT_EQ(got.distance, want.distance) << u << "->" << v;
  ASSERT_EQ(t.lca(u, v), want.lca) << u << "->" << v;
  ASSERT_EQ(t.distance(u, v), want.distance) << u << "->" << v;
  ASSERT_EQ(t.is_ancestor(u, v), want.lca == u) << u << "->" << v;
  ASSERT_EQ(t.is_ancestor(v, u), want.lca == v) << u << "->" << v;
  ASSERT_EQ(t.route_into(u, v, route), want.distance) << u << "->" << v;
  ASSERT_EQ(route.size(), static_cast<size_t>(want.distance) + 1);
  ASSERT_EQ(route.front(), u);
  ASSERT_EQ(route.back(), v);
  for (size_t i = 0; i + 1 < route.size(); ++i)
    ASSERT_TRUE(t.parent(route[i]) == route[i + 1] ||
                t.parent(route[i + 1]) == route[i])
        << u << "->" << v << " hop " << i;
}

TEST(FuzzInvariants, PathQueriesMatchDepthOracle) {
  // Saturated random shapes and unsaturated sparse trees (keyless leaves
  // and inner nodes whose ranges tie with their only child's), rotated
  // between queries. Every pair kind is drawn on purpose: u == v, u a
  // proper ancestor of v, v a proper ancestor of u, and a random pair.
  std::mt19937_64 rng(555);
  for (const int k : {2, 3, 5, 9}) {
    for (const bool sparse : {false, true}) {
      const int n = 40 + static_cast<int>(rng() % 80);
      KAryTree t = sparse
                       ? build_sparse(k, make_random_shape(
                                             n, std::max(2, k - 1), rng))
                       : build_from_shape(k, make_random_shape(n, k, rng));
      std::uniform_int_distribution<NodeId> pick(1, n);
      std::vector<NodeId> route;
      int kinds[4] = {0, 0, 0, 0};  // u == v, u above v, v above u, apart
      for (int i = 0; i < 2000; ++i) {
        const NodeId x = pick(rng);
        if (rng() % 3 == 0) {
          if (t.parent(x) == kNoNode) continue;
          if (t.parent(t.parent(x)) != kNoNode && (rng() & 1))
            k_splay(t, x);
          else
            k_semi_splay(t, x);
          continue;
        }
        // An ancestor of x, `up` levels above (clamped at the root).
        NodeId anc = x;
        for (int up = 1 + static_cast<int>(rng() % 6);
             up > 0 && t.parent(anc) != kNoNode; --up)
          anc = t.parent(anc);
        const int draw = static_cast<int>(rng() % 4);
        NodeId u = x, v = x;
        if (draw == 1) u = anc;
        if (draw == 2) v = anc;
        if (draw == 3) v = pick(rng);
        ASSERT_NO_FATAL_FAILURE(expect_path_queries_match(t, u, v, route))
            << "k=" << k << " sparse=" << sparse << " op " << i;
        // Count the relation the pair really has.
        const NodeId lca = oracle_path(t, u, v).lca;
        ++kinds[u == v ? 0 : lca == u ? 1 : lca == v ? 2 : 3];
      }
      for (const int c : kinds)
        EXPECT_GT(c, 50) << "k=" << k << " sparse=" << sparse;
      ASSERT_NO_FATAL_FAILURE(expect_depth_matches_chase(t));
    }
  }
}

TEST(FuzzInvariants, PathQueriesRejectForests) {
  // Two components: 2 (root, full range) over 1, and 4 over 3 with 4
  // never linked. Every path query across them must throw.
  KAryTree t(2, 4);
  t.install(2, {id_key(2)}, {1, kNoNode}, kKeyMin, kKeyMax);
  t.install(1, {id_key(1)}, {kNoNode, kNoNode}, kKeyMin, id_key(2));
  t.install(4, {id_key(4)}, {3, kNoNode}, kKeyMin, kKeyMax);
  t.install(3, {id_key(3)}, {kNoNode, kNoNode}, kKeyMin, id_key(4));
  t.set_root(2);
  std::vector<NodeId> route;
  for (const auto& [u, v] : {std::pair{1, 3}, std::pair{3, 1},
                             std::pair{2, 4}, std::pair{1, 4}}) {
    EXPECT_THROW(t.path_info(u, v), TreeError) << u << "->" << v;
    EXPECT_THROW(t.lca(u, v), TreeError) << u << "->" << v;
    EXPECT_THROW(t.distance(u, v), TreeError) << u << "->" << v;
    EXPECT_THROW(t.is_ancestor(u, v), TreeError) << u << "->" << v;
    EXPECT_THROW(t.route_into(u, v, route), TreeError) << u << "->" << v;
  }
  // Within a component the queries still answer.
  EXPECT_EQ(t.path_info(1, 2).lca, 2);
  EXPECT_EQ(t.distance(3, 4), 1);

  // Roots whose ranges exclude the other side: both climbs step past their
  // roots to kNoNode, which must not pass for a common ancestor.
  KAryTree f(2, 4);
  f.install(2, {id_key(2)}, {1, kNoNode}, kKeyMin, id_key(3));
  f.install(1, {id_key(1)}, {kNoNode, kNoNode}, kKeyMin, id_key(2));
  f.install(4, {id_key(4)}, {3, kNoNode}, id_key(2), kKeyMax);
  f.install(3, {id_key(3)}, {kNoNode, kNoNode}, id_key(2), id_key(4));
  EXPECT_THROW(f.path_info(1, 3), TreeError);
  EXPECT_THROW(f.path_info(4, 2), TreeError);
}

}  // namespace
}  // namespace san
