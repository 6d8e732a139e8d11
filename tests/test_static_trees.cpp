// Static constructions: full k-ary tree, centroid tree (Theorems 6/8,
// Remark 10), uniform-workload DP (Theorem 4) against exhaustive search,
// and the general routing-based DP (Theorem 2) against achievability and
// dominance properties.
#include <gtest/gtest.h>

#include <random>

#include "core/shape.hpp"
#include "static_trees/centroid_tree.hpp"
#include "static_trees/full_tree.hpp"
#include "static_trees/optimal_dp.hpp"
#include "static_trees/uniform_dp.hpp"
#include "workload/demand_matrix.hpp"

namespace san {
namespace {

// Exhaustive minimum of sum over edges s*(n-s) over all rooted shapes with
// at most k children per node. Used as ground truth for n <= 11.
Cost brute_uniform(int k, int n, int total_n, std::vector<Cost>& memo_single,
                   std::vector<std::vector<Cost>>& memo_parts);

Cost brute_parts(int k, int m, int parts, int max_first, int total_n,
                 std::vector<Cost>& memo_single,
                 std::vector<std::vector<Cost>>& memo_parts) {
  // min cost of `parts` subtrees totalling m nodes, first part <= max_first
  // (sizes non-increasing to kill permutations; costs are symmetric).
  if (parts == 0) return m == 0 ? 0 : kInfiniteCost;
  if (m < parts) return kInfiniteCost;
  Cost best = kInfiniteCost;
  for (int a = std::min(m - parts + 1, max_first); a >= 1; --a) {
    const Cost head =
        brute_uniform(k, a, total_n, memo_single, memo_parts) +
        static_cast<Cost>(a) * (total_n - a);
    const Cost tail = brute_parts(k, m - a, parts - 1, a, total_n,
                                  memo_single, memo_parts);
    if (tail >= kInfiniteCost) continue;
    best = std::min(best, head + tail);
  }
  return best;
}

Cost brute_uniform(int k, int n, int total_n, std::vector<Cost>& memo_single,
                   std::vector<std::vector<Cost>>& memo_parts) {
  if (n <= 1) return 0;
  if (memo_single[static_cast<size_t>(n)] >= 0)
    return memo_single[static_cast<size_t>(n)];
  Cost best = kInfiniteCost;
  for (int parts = 1; parts <= std::min(k, n - 1); ++parts)
    best = std::min(best, brute_parts(k, n - 1, parts, n - 1, total_n,
                                      memo_single, memo_parts));
  memo_single[static_cast<size_t>(n)] = best;
  return best;
}

TEST(FullTree, IsValidAndCompleteAcrossSizes) {
  for (int k = 2; k <= 8; ++k)
    for (int n : {1, 2, 10, 64, 333}) {
      KAryTree t = full_kary_tree(k, n);
      ASSERT_TRUE(t.valid()) << "k=" << k << " n=" << n;
      // Depth bound of a complete tree.
      int cap = 1, levels = 0;
      long long total = 1;
      while (total < n) {
        cap *= k;
        total += cap;
        ++levels;
      }
      for (NodeId id = 1; id <= n; ++id)
        EXPECT_LE(t.depth(id), levels);
    }
}

TEST(CentroidTree, SubtreeSizesSumAndBalance) {
  for (int k = 2; k <= 10; ++k)
    for (int n : {1, 2, 5, 23, 100, 999}) {
      auto sizes = centroid_subtree_sizes(k, n);
      ASSERT_EQ(sizes.size(), static_cast<size_t>(k + 1));
      long long sum = 0;
      int prev = INT32_MAX;
      for (int s : sizes) {
        sum += s;
        EXPECT_LE(s, prev) << "left-first fill";
        prev = s;
      }
      EXPECT_EQ(sum, n - 1);
    }
}

TEST(CentroidTree, ValidSearchTreeForAllSizes) {
  for (int k = 2; k <= 8; ++k)
    for (int n : {1, 2, 3, 8, 50, 341}) {
      KAryTree t = centroid_kary_tree(k, n);
      auto err = t.validate();
      ASSERT_FALSE(err.has_value()) << "k=" << k << " n=" << n << ": " << *err;
    }
}

TEST(CentroidTree, MatchesUniformOptimum_Remark10) {
  // Remark 10/37: the centroid tree is exactly optimal for the uniform
  // workload for n < 10^3, k <= 10 (spot-checked here; the full sweep is
  // bench/remark10_centroid_optimality).
  for (int k = 2; k <= 10; ++k)
    for (int n : {4, 9, 31, 77, 200}) {
      const Cost opt = optimal_uniform_cost(k, n);
      const Cost cen = centroid_kary_tree(k, n).uniform_total_distance();
      EXPECT_EQ(cen, opt) << "k=" << k << " n=" << n;
    }
}

TEST(CentroidTree, BeatsOrTiesFullTreeOnUniform_Lemma9) {
  // Lemma 9: both are n^2 log_k n + O(n^2); the centroid split makes the
  // centroid tree at least as good.
  for (int k = 2; k <= 6; ++k)
    for (int n : {50, 200, 500}) {
      const Cost cen = centroid_kary_tree(k, n).uniform_total_distance();
      const Cost ful = full_kary_tree(k, n).uniform_total_distance();
      EXPECT_LE(cen, ful) << "k=" << k << " n=" << n;
      // Within O(n^2) of each other (constant 2 is generous).
      EXPECT_LE(ful - cen, 2LL * n * n) << "k=" << k << " n=" << n;
    }
}

TEST(UniformDp, MatchesExhaustiveSearch) {
  for (int k = 2; k <= 4; ++k)
    for (int n = 1; n <= 11; ++n) {
      std::vector<Cost> memo_single(static_cast<size_t>(n) + 1, -1);
      std::vector<std::vector<Cost>> memo_parts;
      const Cost brute =
          brute_uniform(k, n, n, memo_single, memo_parts);
      const Cost dp = optimal_uniform_cost(k, n);
      EXPECT_EQ(dp, brute) << "k=" << k << " n=" << n;
    }
}

TEST(UniformDp, ReconstructionAchievesClaimedCost) {
  for (int k = 2; k <= 9; ++k)
    for (int n : {1, 7, 30, 120, 500}) {
      UniformTreeResult r = optimal_uniform_tree(k, n);
      ASSERT_TRUE(r.tree.valid()) << "k=" << k << " n=" << n;
      EXPECT_EQ(r.tree.uniform_total_distance(), r.total_distance)
          << "k=" << k << " n=" << n;
    }
}

TEST(UniformDp, CostDecreasesWithArity) {
  for (int n : {40, 200}) {
    Cost prev = kInfiniteCost;
    for (int k = 2; k <= 10; ++k) {
      const Cost c = optimal_uniform_cost(k, n);
      EXPECT_LE(c, prev) << "k=" << k << " n=" << n;
      prev = c;
    }
  }
}

TEST(OptimalDp, ReconstructionAchievesClaimedCost) {
  std::mt19937_64 rng(55);
  for (int k : {2, 3, 4, 7}) {
    for (int n : {1, 2, 6, 15, 40}) {
      DemandMatrix d(n);
      for (int t = 0; t < 3 * n; ++t) {
        NodeId u = 1 + static_cast<NodeId>(rng() % n);
        NodeId v = 1 + static_cast<NodeId>(rng() % n);
        if (u != v) d.add(u, v, 1 + static_cast<Cost>(rng() % 9));
      }
      OptimalTreeResult r = optimal_routing_based_tree(k, d, 2);
      ASSERT_TRUE(r.tree.valid()) << "k=" << k << " n=" << n;
      EXPECT_EQ(d.total_distance(r.tree), r.total_distance)
          << "k=" << k << " n=" << n;
    }
  }
}

TEST(OptimalDp, DominatesRandomTrees) {
  std::mt19937_64 rng(56);
  for (int k : {2, 3, 5}) {
    const int n = 18;
    DemandMatrix d(n);
    for (int t = 0; t < 60; ++t) {
      NodeId u = 1 + static_cast<NodeId>(rng() % n);
      NodeId v = 1 + static_cast<NodeId>(rng() % n);
      if (u != v) d.add(u, v, 1 + static_cast<Cost>(rng() % 5));
    }
    OptimalTreeResult r = optimal_routing_based_tree(k, d, 1);
    for (int trial = 0; trial < 300; ++trial) {
      Shape s = make_random_shape(n, k, rng);
      s.recompute_sizes();
      KAryTree rt = build_from_shape(k, s);
      EXPECT_GE(d.total_distance(rt), r.total_distance)
          << "k=" << k << " trial " << trial;
    }
  }
}

TEST(OptimalDp, CostMonotoneInArity) {
  std::mt19937_64 rng(57);
  const int n = 25;
  DemandMatrix d(n);
  for (int t = 0; t < 120; ++t) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u != v) d.add(u, v);
  }
  Cost prev = kInfiniteCost;
  for (int k = 2; k <= 8; ++k) {
    const Cost c = optimal_routing_based_tree(k, d, 2).total_distance;
    EXPECT_LE(c, prev) << "k=" << k;
    prev = c;
  }
}

TEST(OptimalDp, ThreadedAndSerialAgree) {
  // forward() runs a diagonal on one thread while its work
  // (n - len + 1)(len + k) * 2k is below 8192. At k = 3 no diagonal clears
  // that gate below n = 70; at n = 80 lengths 20..58 do (len 40:
  // 41 * 43 * 6 = 10,578), so those diagonals really run on 4 threads.
  std::mt19937_64 rng(58);
  const int n = 80;
  DemandMatrix d(n);
  for (int t = 0; t < 800; ++t) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u != v) d.add(u, v, 1 + static_cast<Cost>(rng() % 4));
  }
  const Cost serial = optimal_routing_based_tree(3, d, 1).total_distance;
  const Cost threaded = optimal_routing_based_tree(3, d, 4).total_distance;
  EXPECT_EQ(serial, threaded);
}

TEST(OptimalDp, CostOnlyEntryMatchesTreeEntry) {
  // optimal_routing_based_cost shares the forward tables with the tree
  // entry point and must return exactly the reconstructed tree's value.
  std::mt19937_64 rng(59);
  for (int k : {2, 4, 8}) {
    for (int n : {1, 3, 21, 44}) {
      DemandMatrix d(n);
      for (int t = 0; t < 3 * n; ++t) {
        NodeId u = 1 + static_cast<NodeId>(rng() % n);
        NodeId v = 1 + static_cast<NodeId>(rng() % n);
        if (u != v) d.add(u, v, 1 + static_cast<Cost>(rng() % 6));
      }
      const OptimalTreeResult r = optimal_routing_based_tree(k, d, 1);
      EXPECT_EQ(optimal_routing_based_cost(k, d, 1), r.total_distance)
          << "k=" << k << " n=" << n;
      EXPECT_EQ(optimal_routing_based_cost(k, d, 2), r.total_distance)
          << "k=" << k << " n=" << n << " (threaded)";
    }
  }
}

TEST(OptimalDp, ConcentratedDemandYieldsAdjacency) {
  // All demand on one pair: the optimal tree must place them at distance 1.
  DemandMatrix d(10);
  d.add(3, 8, 1000);
  OptimalTreeResult r = optimal_routing_based_tree(2, d, 1);
  EXPECT_EQ(r.total_distance, 1000);
  EXPECT_EQ(r.tree.distance(3, 8), 1);
}

TEST(OptimalDp, UniformDemandNotWorseThanShapeDp) {
  // The routing-based space is a sub-family; on the uniform workload its
  // optimum can't beat the shape DP, and for these sizes they coincide.
  for (int k : {2, 3}) {
    for (int n : {8, 14}) {
      const Cost shape_opt = optimal_uniform_cost(k, n);
      const Cost rb =
          optimal_routing_based_tree(k, DemandMatrix::uniform(n), 1)
              .total_distance;
      EXPECT_GE(rb, shape_opt);
      EXPECT_EQ(rb, shape_opt) << "k=" << k << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace san
