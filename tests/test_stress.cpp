// Stress and failure-injection suite: long mixed operation sequences over
// every network type with periodic audits, and rotations on *unsaturated*
// adopted topologies (nodes below k-1 routing keys), which exercise the
// block-size clamping paths the saturated fast path never hits.
#include <gtest/gtest.h>

#include <random>

#include "core/binary_splaynet.hpp"
#include "core/local_router.hpp"
#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "core/splaynet.hpp"
#include "tree_builders.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

TEST(Stress, RotationsOnUnsaturatedTreesStayValid) {
  std::mt19937_64 rng(2024);
  for (int k : {2, 3, 5, 9}) {
    for (int trial = 0; trial < 8; ++trial) {
      const int n = 20 + static_cast<int>(rng() % 60);
      // Sparse trees cannot place the id between children (no id key), so
      // keep fan-out below k where needed by generating shapes for k-1...
      Shape s = make_random_shape(n, std::max(2, k - 1), rng);
      KAryTree t = build_sparse(k, std::move(s));
      ASSERT_TRUE(t.valid());
      for (int step = 0; step < 300; ++step) {
        NodeId x = 1 + static_cast<NodeId>(rng() % n);
        const NodeId p = t.node(x).parent;
        if (p == kNoNode) continue;
        if (t.node(p).parent != kNoNode && (rng() & 1))
          k_splay(t, x);
        else
          k_semi_splay(t, x);
        if (step % 60 == 0) {
          auto err = t.validate();
          ASSERT_FALSE(err.has_value())
              << "k=" << k << " trial=" << trial << ": " << *err;
        }
      }
      ASSERT_TRUE(t.valid());
    }
  }
}

TEST(Stress, SplayNetAdoptsSparseTopology) {
  std::mt19937_64 rng(7);
  Shape s = make_random_shape(100, 3, rng);
  KArySplayNet net(build_sparse(4, std::move(s)));
  for (int step = 0; step < 2000; ++step) {
    NodeId u = 1 + static_cast<NodeId>(rng() % 100);
    NodeId v = 1 + static_cast<NodeId>(rng() % 100);
    if (u != v) net.serve(u, v);
  }
  EXPECT_TRUE(net.tree().valid());
}

TEST(Stress, MixedOperationsLongRun) {
  const int n = 300;
  std::mt19937_64 rng(1);
  KArySplayNet kary = KArySplayNet::balanced(5, n);
  CentroidSplayNet cent(5, n);
  BinarySplayNet bin(n);
  for (int step = 0; step < 20000; ++step) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u == v) continue;
    switch (rng() % 4) {
      case 0:
        kary.access(u);
        break;
      case 1:
        kary.serve(u, v);
        break;
      case 2:
        cent.serve(u, v);
        break;
      default:
        bin.serve(u, v);
        break;
    }
    if (step % 2500 == 0) {
      ASSERT_TRUE(kary.tree().valid()) << step;
      ASSERT_TRUE(cent.tree().valid()) << step;
      ASSERT_TRUE(bin.valid()) << step;
    }
  }
  ASSERT_TRUE(kary.tree().valid());
  ASSERT_TRUE(cent.tree().valid());
  ASSERT_TRUE(bin.valid());
}

TEST(Stress, LocalRoutingSurvivesAdversarialChurn) {
  // Route packets while the topology is reconfigured between every hop
  // measurement; forwarding must always deliver.
  const int n = 80;
  KArySplayNet net = KArySplayNet::balanced(3, n);
  std::mt19937_64 rng(5);
  for (int round = 0; round < 200; ++round) {
    NodeId a = 1 + static_cast<NodeId>(rng() % n);
    NodeId b = 1 + static_cast<NodeId>(rng() % n);
    if (a != b) net.serve(a, b);
    NodeId src = 1 + static_cast<NodeId>(rng() % n);
    NodeId dst = 1 + static_cast<NodeId>(rng() % n);
    auto hops = local_route(net.tree(), src, dst);
    ASSERT_EQ(hops.back().at, dst);
  }
}

TEST(Stress, RepeatedEndToEndPairsSaturateToUnitCost) {
  // Degenerate demand: one pair served 10^4 times must cost amortized ~1.
  KArySplayNet net = KArySplayNet::balanced(6, 400);
  Cost total = 0;
  const int reps = 10000;
  for (int i = 0; i < reps; ++i) total += net.serve(17, 377).routing_cost;
  EXPECT_LT(static_cast<double>(total) / reps, 1.01);
}

TEST(Stress, AllPairsSweepKeepsTreeHealthy) {
  const int n = 64;
  KArySplayNet net = KArySplayNet::balanced(4, n);
  for (NodeId u = 1; u <= n; ++u)
    for (NodeId v = 1; v <= n; ++v)
      if (u != v) net.serve(u, v);
  auto err = net.tree().validate();
  ASSERT_FALSE(err.has_value()) << *err;
  // The ordered all-pairs sweep is a sequential-access adversary for splay
  // structures; the tree may grow loose but must not approach a chain
  // (average depth ~ n/2).
  double depth = 0;
  for (NodeId id = 1; id <= n; ++id) depth += net.tree().depth(id);
  EXPECT_LT(depth / n, n / 2.0 - 4.0);
}

}  // namespace
}  // namespace san
