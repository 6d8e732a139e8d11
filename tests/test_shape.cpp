// Tests for shapes and the shape -> search tree builder.
#include <gtest/gtest.h>

#include <random>

#include "core/shape.hpp"
#include "core/splaynet.hpp"
#include "sim/sharded_network.hpp"
#include "static_trees/full_tree.hpp"

namespace san {
namespace {

int shape_max_kids(const Shape& s) {
  int m = static_cast<int>(s.kids.size());
  for (const Shape& kid : s.kids) m = std::max(m, shape_max_kids(kid));
  return m;
}

int shape_height(const Shape& s) {
  int h = 0;
  for (const Shape& kid : s.kids) h = std::max(h, 1 + shape_height(kid));
  return h;
}

bool shape_last_level_leftmost(const Shape& s) {
  // In a complete tree, child heights are non-increasing left to right and
  // differ by at most one.
  int prev = INT32_MAX;
  for (const Shape& kid : s.kids) {
    int h = shape_height(kid);
    if (h > prev) return false;
    prev = h;
    if (!shape_last_level_leftmost(kid)) return false;
  }
  return true;
}

TEST(Shape, CompleteShapeSizes) {
  for (int k = 2; k <= 6; ++k) {
    for (int n : {1, 2, 3, 5, 7, 15, 16, 31, 100, 365}) {
      Shape s = make_complete_shape(n, k);
      s.recompute_sizes();
      EXPECT_EQ(s.size, n) << "k=" << k << " n=" << n;
      EXPECT_LE(shape_max_kids(s), k);
    }
  }
}

TEST(Shape, CompleteShapeHeightIsLogarithmic) {
  for (int k = 2; k <= 8; ++k) {
    for (int n : {10, 100, 1000}) {
      Shape s = make_complete_shape(n, k);
      const int h = shape_height(s);
      // height of a complete k-ary tree: ceil(log_k(n(k-1)+1)) - 1-ish.
      int cap = 1, levels = 0;
      long long total = 1;
      while (total < n) {
        cap *= k;
        total += cap;
        ++levels;
      }
      EXPECT_EQ(h, levels) << "k=" << k << " n=" << n;
    }
  }
}

TEST(Shape, CompleteShapeFillsLeft) {
  for (int k = 2; k <= 5; ++k)
    for (int n : {4, 9, 23, 77})
      EXPECT_TRUE(shape_last_level_leftmost(make_complete_shape(n, k)))
          << "k=" << k << " n=" << n;
}

TEST(Shape, BuilderProducesValidTreesFromCompleteShapes) {
  for (int k = 2; k <= 7; ++k)
    for (int n : {1, 2, 5, 17, 64, 200}) {
      KAryTree t = build_from_shape(k, make_complete_shape(n, k));
      auto err = t.validate();
      EXPECT_FALSE(err.has_value())
          << "k=" << k << " n=" << n << ": " << *err;
    }
}

TEST(Shape, BuilderProducesValidTreesFromRandomShapes) {
  std::mt19937_64 rng(42);
  for (int k = 2; k <= 10; ++k) {
    for (int trial = 0; trial < 20; ++trial) {
      const int n = 1 + static_cast<int>(rng() % 80);
      Shape s = make_random_shape(n, k, rng);
      s.recompute_sizes();
      KAryTree t = build_from_shape(k, s);
      auto err = t.validate();
      ASSERT_FALSE(err.has_value())
          << "k=" << k << " n=" << n << ": " << *err;
      // Every id must be reachable by pure search.
      for (NodeId id = 1; id <= n; ++id)
        EXPECT_EQ(t.search_from_root(id).back(), id);
    }
  }
}

TEST(Shape, PathShapeIsAPath) {
  KAryTree t = build_from_shape(2, make_path_shape(10));
  ASSERT_TRUE(t.valid());
  int leaves = 0;
  for (NodeId id = 1; id <= 10; ++id) {
    int kids = 0;
    for (NodeId c : t.node(id).children)
      if (c != kNoNode) ++kids;
    EXPECT_LE(kids, 1);
    if (kids == 0) ++leaves;
  }
  EXPECT_EQ(leaves, 1);
}

TEST(Shape, BuilderRejectsOverWideShape) {
  Shape s;
  for (int i = 0; i < 4; ++i) s.kids.push_back(Shape{});
  s.self_pos = 2;
  s.recompute_sizes();
  EXPECT_THROW(build_from_shape(3, s), TreeError);
  EXPECT_NO_THROW(build_from_shape(4, s));
}

TEST(Shape, BuilderRejectsEdgeIdWithFullFanOut) {
  // With k children, the id key must double as a boundary between two of
  // them; an edge position would need k keys and is rejected.
  for (int pos : {0, 3}) {
    Shape s;
    for (int i = 0; i < 3; ++i) s.kids.push_back(Shape{});
    s.self_pos = pos;
    s.recompute_sizes();
    EXPECT_THROW(build_from_shape(3, s), TreeError) << pos;
    EXPECT_NO_THROW(build_from_shape(4, s));
  }
}

// Arity below 2 is rejected before the complete-shape height search,
// which never terminates for k = 0, so every balanced builder throws.
TEST(Shape, BuildersRejectArityBelowTwo) {
  for (int k : {-1, 0, 1}) {
    EXPECT_THROW(make_complete_shape(32, k), TreeError) << k;
    EXPECT_THROW(KArySplayNet::balanced(k, 32), TreeError) << k;
    EXPECT_THROW(full_kary_tree(k, 32), TreeError) << k;
    EXPECT_THROW(ShardedNetwork::balanced(k, 32, 2), TreeError) << k;
  }
}

}  // namespace
}  // namespace san
