// Property tests for the k-semi-splay / k-splay rotation engine: the search
// property, the permanence of node identifiers, and subtree node sets must
// survive arbitrary rotation storms for every arity and policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <random>
#include <set>
#include <string>

#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "core/splaynet.hpp"
#include "tree_builders.hpp"

namespace san {
namespace {

std::set<NodeId> subtree_ids(const KAryTree& t, NodeId root) {
  std::set<NodeId> ids;
  std::vector<NodeId> stack = {root};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    ids.insert(cur);
    for (NodeId c : t.node(cur).children)
      if (c != kNoNode) stack.push_back(c);
  }
  return ids;
}

struct PolicyCase {
  RotationPolicy policy;
  const char* name;
};

const PolicyCase kPolicies[] = {
    {{BlockSizing::kBalanced, BlockPlacement::kCentered}, "balanced-centered"},
    {{BlockSizing::kGreedyMax, BlockPlacement::kCentered}, "greedy-centered"},
    {{BlockSizing::kBalanced, BlockPlacement::kLeftmost}, "balanced-left"},
    {{BlockSizing::kBalanced, BlockPlacement::kRightmost}, "balanced-right"},
    {{BlockSizing::kGreedyMax, BlockPlacement::kLeftmost}, "greedy-left"},
};

class RotationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RotationPropertyTest, SemiSplayPreservesEverything) {
  const auto [k, seed] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 7919 + k);
  for (const PolicyCase& pc : kPolicies) {
    const int n = 20 + static_cast<int>(rng() % 60);
    Shape s = make_random_shape(n, k, rng);
    s.recompute_sizes();
    KAryTree t = build_from_shape(k, s);
    for (int step = 0; step < 200; ++step) {
      NodeId x = 1 + static_cast<NodeId>(rng() % n);
      if (t.node(x).parent == kNoNode) continue;
      const NodeId p = t.node(x).parent;
      const auto before = subtree_ids(t, p);
      k_semi_splay(t, x, pc.policy);
      auto err = t.validate();
      ASSERT_FALSE(err.has_value())
          << pc.name << " k=" << k << " step=" << step << ": " << *err;
      // x took p's place: same node set below.
      EXPECT_EQ(subtree_ids(t, x), before) << pc.name;
      // x is now p's ancestor.
      EXPECT_TRUE(t.is_ancestor(x, p)) << pc.name;
    }
  }
}

TEST_P(RotationPropertyTest, KSplayPreservesEverything) {
  const auto [k, seed] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 104729 + k);
  for (const PolicyCase& pc : kPolicies) {
    const int n = 20 + static_cast<int>(rng() % 60);
    Shape s = make_random_shape(n, k, rng);
    s.recompute_sizes();
    KAryTree t = build_from_shape(k, s);
    for (int step = 0; step < 200; ++step) {
      NodeId x = 1 + static_cast<NodeId>(rng() % n);
      const NodeId p = t.node(x).parent;
      if (p == kNoNode || t.node(p).parent == kNoNode) continue;
      const NodeId g = t.node(p).parent;
      const int depth_before = t.depth(x);
      const auto before = subtree_ids(t, g);
      k_splay(t, x, pc.policy);
      auto err = t.validate();
      ASSERT_FALSE(err.has_value())
          << pc.name << " k=" << k << " step=" << step << ": " << *err;
      EXPECT_EQ(subtree_ids(t, x), before) << pc.name;
      EXPECT_EQ(t.depth(x), depth_before - 2) << pc.name;
      EXPECT_TRUE(t.is_ancestor(x, p)) << pc.name;
      EXPECT_TRUE(t.is_ancestor(x, g)) << pc.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, RotationPropertyTest,
                         ::testing::Combine(::testing::Range(2, 11),
                                            ::testing::Values(1, 2, 3)),
                         [](const auto& info) {
                           return "k" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_seed" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(Rotation, SemiSplayOnRootThrows) {
  KAryTree t = build_from_shape(3, make_complete_shape(10, 3));
  EXPECT_THROW(k_semi_splay(t, t.root()), TreeError);
}

TEST(Rotation, KSplayNeedsGrandparent) {
  KAryTree t = build_from_shape(3, make_complete_shape(10, 3));
  EXPECT_THROW(k_splay(t, t.root()), TreeError);
  for (NodeId c : t.node(t.root()).children)
    if (c != kNoNode) {
      EXPECT_THROW(k_splay(t, c), TreeError);
    }
}

TEST(Rotation, ReportsEdgeChanges) {
  KAryTree t = build_from_shape(2, make_path_shape(8));
  // Deepest node of the path; splaying it up must rewire something.
  NodeId deepest = 1;
  for (NodeId id = 2; id <= 8; ++id)
    if (t.depth(id) > t.depth(deepest)) deepest = id;
  RotationResult r = k_splay(t, deepest);
  EXPECT_GT(r.parent_changes, 0);
  EXPECT_GE(r.edge_changes, r.parent_changes);
  ASSERT_TRUE(t.valid());
}

TEST(Rotation, BinaryCaseActsLikeBstRotation) {
  // k = 2, complete tree of 3: semi-splay of a child is exactly one BST
  // rotation; the former root ends with the rotated node as parent.
  KAryTree t = build_from_shape(2, make_complete_shape(3, 2));
  NodeId root = t.root();
  NodeId child = kNoNode;
  for (NodeId c : t.node(root).children)
    if (c != kNoNode) child = c;
  ASSERT_NE(child, kNoNode);
  k_semi_splay(t, child);
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.root(), child);
  EXPECT_EQ(t.node(root).parent, child);
}

// --- tree-bits golden ------------------------------------------------------
//
// GoldenCosts locks cost totals only; this locks the trees themselves. Each
// run applies a seeded mix of k_splay / k_semi_splay to a random saturated
// tree and to a sparse (keyless-node) tree, then replays a request sequence
// through KArySplayNet::serve. After every phase it folds an FNV-1a digest
// of every node's keys, children, parent, slot and [lo, hi), plus every
// reported count, into one value per (k, policy, mode). Regenerate (after an
// intentional semantic change only!) with
//   SAN_PRINT_GOLDENS=1 ./build/test_rotation

bool print_mode() {
  const char* env = std::getenv("SAN_PRINT_GOLDENS");
  return env != nullptr && env[0] == '1';
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t x) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (x >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t tree_digest(std::uint64_t h, const KAryTree& t) {
  h = fnv_mix(h, static_cast<std::uint64_t>(t.root()));
  for (NodeId id = 1; id <= t.size(); ++id) {
    const TreeNode nd = t.node(id);
    h = fnv_mix(h, nd.keys.size());
    for (RoutingKey key : nd.keys)
      h = fnv_mix(h, static_cast<std::uint64_t>(key));
    for (NodeId c : nd.children) h = fnv_mix(h, static_cast<std::uint64_t>(c));
    h = fnv_mix(h, static_cast<std::uint64_t>(nd.parent));
    h = fnv_mix(h, static_cast<std::uint64_t>(nd.slot_in_parent));
    h = fnv_mix(h, static_cast<std::uint64_t>(nd.lo));
    h = fnv_mix(h, static_cast<std::uint64_t>(nd.hi));
  }
  return h;
}

// Seeded k_splay / k_semi_splay mix; digests the tree every 50 rotations.
std::uint64_t rotation_storm(std::uint64_t h, KAryTree t,
                             const RotationPolicy& policy,
                             std::mt19937_64& rng) {
  const int n = t.size();
  for (int step = 0; step < 400; ++step) {
    const NodeId x = 1 + static_cast<NodeId>(rng() % static_cast<unsigned>(n));
    const NodeId p = t.parent(x);
    if (p == kNoNode) continue;
    const bool splay = t.parent(p) != kNoNode && (rng() & 1);
    const RotationResult r =
        splay ? k_splay(t, x, policy) : k_semi_splay(t, x, policy);
    h = fnv_mix(h, static_cast<std::uint64_t>(r.parent_changes));
    h = fnv_mix(h, static_cast<std::uint64_t>(r.edge_changes));
    if (step % 50 == 49) h = tree_digest(h, t);
  }
  return tree_digest(h, t);
}

std::uint64_t rotation_golden_run(int k, const RotationPolicy& policy,
                                  SplayMode mode) {
  std::mt19937_64 rng(0x5A17u + static_cast<std::uint64_t>(k));
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = rotation_storm(h, build_from_shape(k, make_random_shape(90, k, rng)),
                     policy, rng);
  h = rotation_storm(
      h, build_sparse(k, make_random_shape(90, std::max(2, k - 1), rng)),
      policy, rng);

  // serve() replay with temporal locality: most requests repeat or reuse a
  // recent endpoint, the rest are uniform.
  const int n = 200;
  KArySplayNet net(build_from_shape(k, make_random_shape(n, k, rng)), policy,
                   mode);
  NodeId recent[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 3000; ++i) {
    const auto draw = [&] {
      return rng() % 4 == 0
                 ? recent[rng() % 8]
                 : 1 + static_cast<NodeId>(rng() % static_cast<unsigned>(n));
    };
    const NodeId u = draw();
    NodeId v = draw();
    if (v == u) v = u % n + 1;
    recent[i % 8] = v;
    const ServeResult r = net.serve(u, v);
    h = fnv_mix(h, static_cast<std::uint64_t>(r.routing_cost));
    h = fnv_mix(h, static_cast<std::uint64_t>(r.rotations));
    h = fnv_mix(h, static_cast<std::uint64_t>(r.parent_changes));
    h = fnv_mix(h, static_cast<std::uint64_t>(r.edge_changes));
    if (i % 500 == 499) h = tree_digest(h, net.tree());
  }
  return tree_digest(h, net.tree());
}

struct GoldenPolicy {
  RotationPolicy policy;
  const char* name;
};

const GoldenPolicy kGoldenPolicies[] = {
    {{}, "default"},
    {{.sizing = BlockSizing::kGreedyMax}, "greedy"},
    {{.placement = BlockPlacement::kLeftmost}, "leftmost"},
    {{.placement = BlockPlacement::kRightmost}, "rightmost"},
    {{.case_preference = false}, "no-case-preference"},
};

constexpr int kGoldenArities[] = {2, 3, 5, 10};

// One digest per (k, policy, mode), in kGoldenArities x kGoldenPolicies x
// {kFullSplay, kSemiSplayOnly} order.
const std::uint64_t kTreeDigests[] = {
    0xdad24714ca0f662dull,  // k=2 default full
    0x143a505c08a9b690ull,  // k=2 default semi-only
    0xdad24714ca0f662dull,  // k=2 greedy full
    0x143a505c08a9b690ull,  // k=2 greedy semi-only
    0x23adda051d89a5e6ull,  // k=2 leftmost full
    0xdf01643175157ac9ull,  // k=2 leftmost semi-only
    0xdad24714ca0f662dull,  // k=2 rightmost full
    0x143a505c08a9b690ull,  // k=2 rightmost semi-only
    0x5539a5398e981feeull,  // k=2 no-case-preference full
    0xfcd1ee4627326b91ull,  // k=2 no-case-preference semi-only
    0x6951afe195814466ull,  // k=3 default full
    0xa4bc59a7d8f7f232ull,  // k=3 default semi-only
    0xbc8c2d4ceadf4d16ull,  // k=3 greedy full
    0x93c75a6d76851704ull,  // k=3 greedy semi-only
    0xe59c75fb2115632dull,  // k=3 leftmost full
    0x90f63ba261a55ddeull,  // k=3 leftmost semi-only
    0xdf4a2d2940e89b5dull,  // k=3 rightmost full
    0x342cb23ab2ec1f6aull,  // k=3 rightmost semi-only
    0x7f85b3b98d768937ull,  // k=3 no-case-preference full
    0x1f4e974e500cc466ull,  // k=3 no-case-preference semi-only
    0x2ef01c5cd89f587dull,  // k=5 default full
    0xbde6de97ad5ebf87ull,  // k=5 default semi-only
    0x7ab1e4543a533394ull,  // k=5 greedy full
    0xe5f61c5804754e03ull,  // k=5 greedy semi-only
    0x5f01ca1e59b00994ull,  // k=5 leftmost full
    0xa7a1f60961ac82f6ull,  // k=5 leftmost semi-only
    0xa815baab10fd6cc9ull,  // k=5 rightmost full
    0xb34ad425674e2fb9ull,  // k=5 rightmost semi-only
    0xbbb48f546a575f57ull,  // k=5 no-case-preference full
    0x290895cafb95bcc0ull,  // k=5 no-case-preference semi-only
    0xfef25629fab1e77full,  // k=10 default full
    0xac1a18a932723d21ull,  // k=10 default semi-only
    0xb96e1e457e820097ull,  // k=10 greedy full
    0xdac0246542ada5c8ull,  // k=10 greedy semi-only
    0x2a8094b4e3649a88ull,  // k=10 leftmost full
    0x81be12f504176680ull,  // k=10 leftmost semi-only
    0x97501cdd9e08c542ull,  // k=10 rightmost full
    0x25d7438a44172158ull,  // k=10 rightmost semi-only
    0xe1862758f11e2d6dull,  // k=10 no-case-preference full
    0xe3bd670b13a3998bull,  // k=10 no-case-preference semi-only
};

TEST(RotationGolden, TreeDigestLocked) {
  size_t row = 0;
  for (const int k : kGoldenArities) {
    for (const GoldenPolicy& gp : kGoldenPolicies) {
      for (const SplayMode mode :
           {SplayMode::kFullSplay, SplayMode::kSemiSplayOnly}) {
        const std::string what =
            "k=" + std::to_string(k) + " " + gp.name + " " +
            (mode == SplayMode::kFullSplay ? "full" : "semi-only");
        const std::uint64_t digest = rotation_golden_run(k, gp.policy, mode);
        if (print_mode()) {
          std::printf("    0x%016llxull,  // %s\n",
                      static_cast<unsigned long long>(digest), what.c_str());
        } else {
          ASSERT_LT(row, std::size(kTreeDigests)) << what;
          EXPECT_EQ(digest, kTreeDigests[row]) << what;
        }
        ++row;
      }
    }
  }
  if (print_mode()) GTEST_SKIP() << "printed tree digests";
  EXPECT_EQ(row, std::size(kTreeDigests));
}

}  // namespace
}  // namespace san
