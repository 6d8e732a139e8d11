// Fleet control shared by the batch pipeline and the open-loop frontend
// (sim/fleet.hpp): both drivers must plan the same fleet from the same
// observed requests, and fire a scripted fault under the same rule.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/serve_frontend.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

std::vector<std::uint64_t> saturation(std::size_t m) {
  return gen_arrival_times(ArrivalKind::kSaturation, 0.0, m, 0);
}

// The frontend's tree states are not reproducible at S > 1 (real-time
// handover interleaving), but its plans are: planning reads only the
// window of dispatched requests, the map, and — with cross_penalty pinned
// in the config — no measured cost. So under the lossless kBlock policy
// both drivers must take the same barrier decisions and end on the same
// node -> shard map.
TEST(FleetDifferential, FrontendAndBatchPlanTheSameFleet) {
  const int n = 256, S = 4, k = 3;
  const std::size_t m = 20'000;
  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kHotPair;
  cfg.epoch_requests = 1000;
  cfg.cross_penalty = 3.0;
  cfg.split_watermark = 1.5;
  cfg.merge_watermark = 0.5;
  cfg.max_shards = 8;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Trace trace = gen_workload(WorkloadKind::kRotatingHot, n, m, seed);
    ShardedNetwork batch_net =
        ShardedNetwork::balanced(k, n, S, ShardPartition::kHash);
    const SimResult batch =
        run_trace_sharded(batch_net, trace, {.rebalance = &cfg});
    ShardedNetwork live_net =
        ShardedNetwork::balanced(k, n, S, ShardPartition::kHash);
    ServeFrontend fe(live_net, {.rebalance = &cfg});
    const SimResult live = fe.run(trace, saturation(m)).sim;

    const std::string what = "seed=" + std::to_string(seed);
    EXPECT_GT(batch.shard_splits, 0) << what;
    EXPECT_GT(batch.shard_merges, 0) << what;
    EXPECT_EQ(live.rebalance_epochs, batch.rebalance_epochs) << what;
    EXPECT_EQ(live.migrations, batch.migrations) << what;
    EXPECT_EQ(live.shard_splits, batch.shard_splits) << what;
    EXPECT_EQ(live.shard_merges, batch.shard_merges) << what;
    EXPECT_EQ(live.final_shards, batch.final_shards) << what;
    ASSERT_EQ(live_net.num_shards(), batch_net.num_shards()) << what;
    for (NodeId v = 1; v <= n; ++v)
      ASSERT_EQ(live_net.map().shard_of(v), batch_net.map().shard_of(v))
          << what << " node " << v;
  }
}

// One firing rule for both drivers: an event fires once at_request
// requests have been served, so a kill at m fires at the end of an
// m-request run and one at m + 1 never does.
TEST(FleetRecovery, KillFiresOnceItsRequestsAreServed) {
  const int n = 64, S = 4, k = 3;
  const std::size_t m = 3000;
  const Trace trace = gen_workload(WorkloadKind::kFacebook, n, m, 5);
  for (const std::size_t at : {m - 1, m, m + 1}) {
    FaultPlan plan;
    plan.kills = {{at, 1}};
    const Cost want = at <= m ? 1 : 0;
    const std::string what = "at=" + std::to_string(at);

    ShardedNetwork batch_net = ShardedNetwork::balanced(k, n, S);
    const SimResult batch =
        run_trace_sharded(batch_net, trace, {.faults = &plan});
    EXPECT_EQ(batch.faults_injected, want) << "batch " << what;

    ShardedNetwork live_net = ShardedNetwork::balanced(k, n, S);
    ServeFrontend fe(live_net, {.faults = &plan});
    const FrontendResult live = fe.run(trace, saturation(m));
    EXPECT_EQ(live.sim.faults_injected, want) << "frontend " << what;
    EXPECT_EQ(live.sim.requests, m) << "frontend " << what;
  }
}

// The same rule at m = 0: a kill at 0 fires on an empty run in both
// drivers, and recovery restores the run-start resume point unchanged.
TEST(FleetRecovery, KillAtZeroFiresOnAnEmptyRun) {
  const int n = 64, S = 4, k = 3;
  const Trace empty{.n = n, .requests = {}};
  FaultPlan plan;
  plan.kills = {{0, 0}};

  ShardedNetwork batch_net = ShardedNetwork::balanced(k, n, S);
  const std::string before = batch_net.snapshot_shard(0);
  const SimResult batch =
      run_trace_sharded(batch_net, empty, {.faults = &plan});
  EXPECT_EQ(batch.faults_injected, 1);
  EXPECT_EQ(batch.requests, 0u);
  EXPECT_EQ(batch.recovery_replayed, 0);
  EXPECT_EQ(batch_net.snapshot_shard(0), before);

  ShardedNetwork live_net = ShardedNetwork::balanced(k, n, S);
  ServeFrontend fe(live_net, {.faults = &plan});
  const FrontendResult live = fe.run(empty, {});
  EXPECT_EQ(live.sim.faults_injected, 1);
  EXPECT_EQ(live.sim.requests, 0u);
  EXPECT_EQ(live.sim.recovery_replayed, 0);
  EXPECT_EQ(live_net.snapshot_shard(0), before);
}

}  // namespace
}  // namespace san
