// Tablet-style shard lifecycle test wall: split/merge round-trips to
// identity, crash recovery rebuilds bit-identical state (snapshot + tail
// replay, and replica promotion), sequential == concurrent with lifecycle
// events active, replica reads never change golden costs, watermark
// triggers fire on the loads they watch, and shard stats stay keyed to the
// live fleet after mid-run reshapes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "io/trace_v2.hpp"
#include "sim/serve_frontend.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"
#include "workload/generators.hpp"
#include "workload/rebalance.hpp"

namespace san {
namespace {

void expect_same_costs(const SimResult& a, const SimResult& b,
                       const std::string& what) {
  EXPECT_EQ(a.routing_cost, b.routing_cost) << what;
  EXPECT_EQ(a.rotation_count, b.rotation_count) << what;
  EXPECT_EQ(a.edge_changes, b.edge_changes) << what;
  EXPECT_EQ(a.cross_shard, b.cross_shard) << what;
  EXPECT_EQ(a.requests, b.requests) << what;
}

void expect_trees_equal(const ShardedNetwork& a, const ShardedNetwork& b,
                        const std::string& what) {
  ASSERT_EQ(a.num_shards(), b.num_shards()) << what;
  for (int s = 0; s < a.num_shards(); ++s) {
    const KAryTree& ta = a.shard(s).tree();
    const KAryTree& tb = b.shard(s).tree();
    ASSERT_EQ(ta.size(), tb.size()) << what << " shard " << s;
    ASSERT_EQ(ta.root(), tb.root()) << what << " shard " << s;
    for (NodeId id = 1; id <= ta.size(); ++id) {
      ASSERT_EQ(ta.parent(id), tb.parent(id))
          << what << " shard " << s << " local " << id;
      ASSERT_EQ(ta.slot_in_parent(id), tb.slot_in_parent(id))
          << what << " shard " << s << " local " << id;
    }
  }
}

// ---- split / merge ----------------------------------------------------

TEST(Lifecycle, MapSplitMergeRoundTripIsIdentity) {
  for (const auto& [n, S] : {std::pair{30, 3}, {128, 4}, {257, 8}}) {
    for (ShardPartition policy :
         {ShardPartition::kContiguous, ShardPartition::kHash}) {
      const ShardMap original(n, S, policy);
      for (int s = 0; s < S; ++s) {
        if (original.shard_size(s) < 2) continue;
        ShardMap map = original;
        const int fresh = map.split(s);
        EXPECT_EQ(fresh, S);
        EXPECT_EQ(map.shards(), S + 1);
        // Balanced halves: sizes differ by at most one, ranks preserved.
        EXPECT_LE(std::abs(map.shard_size(s) - map.shard_size(fresh)), 1);
        EXPECT_EQ(map.shard_size(s) + map.shard_size(fresh),
                  original.shard_size(s));
        const int back = map.merge(s, fresh);
        EXPECT_EQ(back, s);
        ASSERT_EQ(map.shards(), S);
        for (NodeId id = 1; id <= n; ++id) {
          ASSERT_EQ(map.shard_of(id), original.shard_of(id))
              << "n=" << n << " split shard " << s << " node " << id;
          ASSERT_EQ(map.local_of(id), original.local_of(id))
              << "n=" << n << " split shard " << s << " node " << id;
        }
      }
    }
  }
}

TEST(Lifecycle, EngineSplitMergeRoundTripIsIdentity) {
  // A fresh engine's shards are balanced; split rebuilds both halves
  // balanced and merge rebuilds the reunion balanced, so split followed by
  // merge must reproduce the engine exactly — map, trees, and the costs of
  // any trace replayed afterwards.
  const int n = 96, S = 4, k = 3;
  ShardedNetwork net = ShardedNetwork::balanced(k, n, S);
  const ShardedNetwork reference = ShardedNetwork::balanced(k, n, S);

  const LifecycleResult split = net.split_shard(1);
  EXPECT_EQ(split.shard, S);
  EXPECT_EQ(net.num_shards(), S + 1);
  EXPECT_GT(split.top_edges, 0);
  const LifecycleResult merged = net.merge_shards(1, split.shard);
  EXPECT_EQ(merged.shard, 1);
  ASSERT_EQ(net.num_shards(), S);

  expect_trees_equal(net, reference, "split-merge round trip");
  const Trace probe = gen_workload(WorkloadKind::kTemporal05, n, 2000, 77);
  ShardedNetwork fresh = ShardedNetwork::balanced(k, n, S);
  const SimResult a = run_trace_sharded(net, probe);
  const SimResult b = run_trace_sharded(fresh, probe);
  expect_same_costs(a, b, "replay after round trip");
}

TEST(Lifecycle, SplitAndMergeRejectInvalidOperands) {
  ShardMap map(10, 5);  // 2 nodes per shard
  EXPECT_THROW(map.merge(1, 1), TreeError);
  EXPECT_THROW(map.split(5), TreeError);   // out of range
  EXPECT_THROW(map.merge(0, 9), TreeError);
  ShardMap tiny(4, 4);  // 1 node per shard: nothing to split
  EXPECT_THROW(tiny.split(0), TreeError);

  ShardedNetwork net = ShardedNetwork::balanced(2, 8, 4);
  EXPECT_THROW(net.split_shard(-1), TreeError);
  EXPECT_THROW(net.merge_shards(2, 2), TreeError);
  EXPECT_THROW(net.merge_shards(0, 7), TreeError);
}

// ---- crash recovery ----------------------------------------------------

// Headline differential: a run with scripted kills must end in exactly the
// state of the uncrashed run — snapshot + trace-tail replay rebuilds the
// lost shard node for node, and under FIFO the serve counters bit-match
// because recovery costs are booked separately.
TEST(Lifecycle, RecoveryRebuildsBitIdenticalState) {
  const int n = 128, k = 3;
  for (std::uint64_t seed : {3u, 58u, 901u}) {
    for (int S : {2, 4, 8}) {
      const Trace trace =
          gen_workload(WorkloadKind::kTemporal05, n, 6000, seed);
      FaultPlan plan;
      plan.kills = {{1500, 0}, {1500, S - 1}, {4000, S / 2}};

      for (bool sequential : {true, false}) {
        ShardedNetwork clean = ShardedNetwork::balanced(k, n, S);
        ShardedNetwork faulted = ShardedNetwork::balanced(k, n, S);
        ShardedRunOptions opt;
        opt.sequential = sequential;
        const SimResult want = run_trace_sharded(clean, trace, opt);
        opt.faults = &plan;
        const SimResult got = run_trace_sharded(faulted, trace, opt);

        const std::string what = "seed=" + std::to_string(seed) +
                                 " S=" + std::to_string(S) +
                                 (sequential ? " seq" : " conc");
        expect_same_costs(got, want, what);
        expect_trees_equal(faulted, clean, what);
        EXPECT_EQ(got.faults_injected, 3) << what;
        EXPECT_EQ(got.replica_promotions, 0) << what;
        EXPECT_GT(got.recovery_replayed, 0) << what;
        EXPECT_GT(got.recovery_cost, 0) << what;
        EXPECT_GE(got.recovery_total_ms, got.recovery_max_ms) << what;
        // Recovery work is bookkept outside the serve counters but inside
        // the grand total.
        EXPECT_EQ(got.grand_total_cost() - got.recovery_cost,
                  want.grand_total_cost())
            << what;
      }
    }
  }
}

TEST(Lifecycle, ReplicaPromotionRecoversWithoutReplay) {
  const int n = 64, S = 4, k = 2;
  const Trace trace = gen_workload(WorkloadKind::kFacebook, n, 5000, 11);
  FaultPlan plan;
  plan.kills = {{2000, 2}};

  ShardedNetwork clean = ShardedNetwork::balanced(k, n, S);
  ShardedNetwork faulted = ShardedNetwork::balanced(k, n, S);
  faulted.add_replica(2);
  ShardedRunOptions opt;
  opt.faults = &plan;
  const SimResult want = run_trace_sharded(clean, trace);
  const SimResult got = run_trace_sharded(faulted, trace, opt);

  expect_same_costs(got, want, "promotion recovery");
  expect_trees_equal(faulted, clean, "promotion recovery");
  EXPECT_EQ(got.faults_injected, 1);
  EXPECT_EQ(got.replica_promotions, 1);
  // Promotion is instant state adoption: nothing replayed, nothing spent.
  EXPECT_EQ(got.recovery_replayed, 0);
  EXPECT_EQ(got.recovery_cost, 0);
  EXPECT_GT(got.replica_reads, 0);
}

TEST(Lifecycle, StreamedRecoveryMatchesMaterializedRun) {
  // The crash path composes with the v2 streaming reader: a faulted
  // streamed replay from disk must land in the same state and costs as
  // the unfaulted materialized run.
  const int n = 80, S = 4, k = 3;
  const Trace trace = gen_workload(WorkloadKind::kTemporal075, n, 9000, 5);
  const std::string path = ::testing::TempDir() + "/lifecycle_tail.sv2";
  write_trace_v2_file(path, trace);

  FaultPlan plan;
  plan.kills = {{100, 1}, {8192 + 17, 3}};  // second kill crosses a chunk
  ShardedNetwork clean = ShardedNetwork::balanced(k, n, S);
  ShardedNetwork faulted = ShardedNetwork::balanced(k, n, S);
  const SimResult want = run_trace_sharded(clean, trace);

  TraceV2Reader stream(path, TraceV2Reader::Backend::kMmap);
  ShardedRunOptions opt;
  opt.faults = &plan;
  const SimResult got = run_trace_sharded_stream(faulted, stream, opt);

  expect_same_costs(got, want, "streamed recovery");
  expect_trees_equal(faulted, clean, "streamed recovery");
  EXPECT_EQ(got.faults_injected, 2);
}

TEST(Lifecycle, FaultPlanParsesAndValidates) {
  const FaultPlan plan = parse_fault_plan("100@2,500@0");
  ASSERT_EQ(plan.kills.size(), 2u);
  EXPECT_EQ(plan.kills[0].at_request, 100u);
  EXPECT_EQ(plan.kills[0].shard, 2);
  EXPECT_EQ(plan.kills[1].at_request, 500u);
  EXPECT_EQ(plan.kills[1].shard, 0);
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(FaultPlan{}.enabled());

  EXPECT_THROW(parse_fault_plan(""), TreeError);
  EXPECT_THROW(parse_fault_plan("100"), TreeError);
  EXPECT_THROW(parse_fault_plan("100@"), TreeError);
  EXPECT_THROW(parse_fault_plan("@2"), TreeError);
  EXPECT_THROW(parse_fault_plan("100@-3"), TreeError);
  EXPECT_THROW(parse_fault_plan("junk@2"), TreeError);
  // Each index and shard id is decimal digits filling its whole field: no
  // sign (stoull would wrap "-5" to 2^64 - 5, an event that never fires),
  // no blanks, no trailing junk, no overflow.
  EXPECT_THROW(parse_fault_plan("-5@0"), TreeError);
  EXPECT_THROW(parse_fault_plan("12abc@1junk"), TreeError);
  EXPECT_THROW(parse_fault_plan("12@1junk"), TreeError);
  EXPECT_THROW(parse_fault_plan(" 7@ 2"), TreeError);
  EXPECT_THROW(parse_fault_plan("+3@+1"), TreeError);
  EXPECT_THROW(parse_fault_plan("7@99999999999"), TreeError);
  EXPECT_THROW(parse_fault_plan("99999999999999999999@0"), TreeError);

  FaultPlan unsorted;
  unsorted.kills = {{500, 0}, {100, 1}};
  EXPECT_THROW(unsorted.validate(), TreeError);

  // A kill aimed at a shard the fleet does not have fails at fire time.
  const Trace trace = gen_workload(WorkloadKind::kUniform, 32, 200, 1);
  ShardedNetwork net = ShardedNetwork::balanced(2, 32, 2);
  FaultPlan bad;
  bad.kills = {{50, 9}};
  ShardedRunOptions opt;
  opt.faults = &bad;
  EXPECT_THROW(run_trace_sharded(net, trace, opt), TreeError);
}

// ---- replicas ----------------------------------------------------------

TEST(Lifecycle, ReplicaReadsNeverChangeGoldenCosts) {
  // Replicas are lockstep copies: serving intra-shard requests from them
  // must be invisible in every cost counter, on both the per-request path
  // and the batched pipeline, while the reads actually route to them.
  const int n = 64, S = 4, k = 3;
  for (WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kTemporal05,
                            WorkloadKind::kFacebook}) {
    const Trace trace = gen_workload(kind, n, 3000, 0xBEEF);

    ShardedNetwork plain = ShardedNetwork::balanced(k, n, S);
    ShardedNetwork replicated = ShardedNetwork::balanced(k, n, S);
    for (int s = 0; s < S; ++s) replicated.add_replica(s);
    EXPECT_EQ(replicated.num_replicas(), S);

    const SimResult want = run_trace_sharded(plain, trace);
    const SimResult got = run_trace_sharded(replicated, trace);
    expect_same_costs(got, want, std::string(workload_name(kind)));
    EXPECT_GT(got.replica_reads, 0);
    EXPECT_EQ(want.replica_reads, 0);
    expect_trees_equal(replicated, plain, workload_name(kind));
    // The replicas themselves track their primaries in lockstep.
    for (int s = 0; s < S; ++s) {
      ASSERT_TRUE(replicated.has_replica(s));
      const KAryTree& pri = replicated.shard(s).tree();
      const KAryTree& rep = replicated.replica(s).tree();
      for (NodeId id = 1; id <= pri.size(); ++id)
        ASSERT_EQ(pri.parent(id), rep.parent(id)) << "shard " << s;
    }

    // Per-request serve() path: bit-identical ServeResults too.
    ShardedNetwork a = ShardedNetwork::balanced(k, n, S);
    ShardedNetwork b = ShardedNetwork::balanced(k, n, S);
    for (int s = 0; s < S; ++s) b.add_replica(s);
    for (const Request& r : trace.requests) {
      const ServeResult ra = a.serve(r.src, r.dst);
      const ServeResult rb = b.serve(r.src, r.dst);
      ASSERT_EQ(ra, rb) << workload_name(kind);
    }
    EXPECT_GT(b.replica_reads_served(), 0);
    // run_trace over that path reports the pipeline's costs and reads.
    ShardedNetwork c = ShardedNetwork::balanced(k, n, S);
    for (int s = 0; s < S; ++s) c.add_replica(s);
    const SimResult per_request = run_trace(c, trace);
    expect_same_costs(per_request, got, workload_name(kind));
    EXPECT_EQ(per_request.replica_reads, got.replica_reads)
        << workload_name(kind);
  }
}

// ---- lifecycle planning (split / merge watermarks) ---------------------

TEST(Lifecycle, SplitTriggersOnHotShardAndGrowsFleet) {
  // All traffic hammers shard 0's id range (contiguous partition), so the
  // hot-shard watermark must fire and split it — repeatedly, as the hot
  // half stays hot — while cold shards are left alone.
  const int n = 128, S = 4, k = 3;
  Trace trace;
  trace.n = n;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 6000; ++i) {
    const NodeId u = static_cast<NodeId>(1 + rng() % 32);  // shard 0 owns 1..32
    NodeId v = static_cast<NodeId>(1 + rng() % 32);
    while (v == u) v = static_cast<NodeId>(1 + rng() % 32);
    trace.requests.push_back({u, v});
  }

  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kNone;  // lifecycle plans independently
  cfg.epoch_requests = 1000;
  cfg.split_watermark = 1.5;
  ASSERT_TRUE(cfg.lifecycle_enabled());
  ShardedNetwork net = ShardedNetwork::balanced(k, n, S);
  ShardedRunOptions opt;
  opt.rebalance = &cfg;
  const SimResult res = run_trace_sharded(net, trace, opt);

  EXPECT_GT(res.shard_splits, 0);
  EXPECT_EQ(res.shard_merges, 0);
  EXPECT_GT(res.lifecycle_cost, 0);
  EXPECT_EQ(res.final_shards, S + static_cast<int>(res.shard_splits));
  EXPECT_EQ(net.num_shards(), res.final_shards);
  for (int s = 0; s < net.num_shards(); ++s) {
    const auto err = net.shard(s).tree().validate();
    ASSERT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
  }
}

TEST(Lifecycle, MergeFoldsColdShardsAndRespectsFloor) {
  // Near-uniform traffic with a generous merge watermark: the two coldest
  // shards recombine, but never below min_shards.
  const int n = 120, S = 6, k = 2;
  const Trace trace = gen_workload(WorkloadKind::kUniform, n, 8000, 7);
  RebalanceConfig cfg;
  cfg.epoch_requests = 1000;
  cfg.merge_watermark = 3.0;  // combined-below-3x-mean: always true here
  cfg.capacity_factor = 4.0;  // don't let the guard park the merges
  cfg.min_shards = 3;
  ShardedNetwork net = ShardedNetwork::balanced(k, n, S);
  ShardedRunOptions opt;
  opt.rebalance = &cfg;
  const SimResult res = run_trace_sharded(net, trace, opt);

  EXPECT_GT(res.shard_merges, 0);
  EXPECT_EQ(res.shard_splits, 0);
  EXPECT_GE(res.final_shards, cfg.min_shards);
  EXPECT_EQ(res.final_shards, S - static_cast<int>(res.shard_merges));
  EXPECT_EQ(net.num_shards(), res.final_shards);
  int owned = 0;
  for (int s = 0; s < net.num_shards(); ++s) owned += net.map().shard_size(s);
  EXPECT_EQ(owned, n);
}

TEST(Lifecycle, SeqEqualsConcWithLifecycleAndFaultsActive) {
  // The full stack at once — splits, merges, planned replicas, scripted
  // kills — must keep the concurrent drain bit-identical to the
  // sequential reference: 3 seeds x S in {2, 4, 8}.
  const int n = 128, k = 3;
  for (std::uint64_t seed : {13u, 201u, 7777u}) {
    for (int S : {2, 4, 8}) {
      const Trace trace =
          gen_workload(WorkloadKind::kPhaseElephants, n, 8000, seed);
      RebalanceConfig cfg;
      cfg.policy = RebalancePolicy::kWatermark;
      cfg.trigger = RebalanceTrigger::kEveryEpoch;
      cfg.epoch_requests = 1000;
      cfg.split_watermark = 1.4;
      cfg.merge_watermark = 0.4;
      cfg.replicas = 1;
      FaultPlan plan;
      plan.kills = {{500, S - 1}, {3500, 0}};

      SimResult results[2];
      ShardedNetwork nets[2] = {ShardedNetwork::balanced(k, n, S),
                                ShardedNetwork::balanced(k, n, S)};
      for (int mode = 0; mode < 2; ++mode) {
        ShardedRunOptions opt;
        opt.sequential = mode == 0;
        opt.rebalance = &cfg;
        opt.faults = &plan;
        results[mode] = run_trace_sharded(nets[mode], trace, opt);
      }
      const std::string what =
          "seed=" + std::to_string(seed) + " S=" + std::to_string(S);
      expect_same_costs(results[0], results[1], what);
      EXPECT_EQ(results[0].shard_splits, results[1].shard_splits) << what;
      EXPECT_EQ(results[0].shard_merges, results[1].shard_merges) << what;
      EXPECT_EQ(results[0].lifecycle_cost, results[1].lifecycle_cost) << what;
      EXPECT_EQ(results[0].migrations, results[1].migrations) << what;
      EXPECT_EQ(results[0].replica_reads, results[1].replica_reads) << what;
      EXPECT_EQ(results[0].recovery_replayed, results[1].recovery_replayed)
          << what;
      EXPECT_EQ(results[0].recovery_cost, results[1].recovery_cost) << what;
      EXPECT_EQ(results[0].final_shards, results[1].final_shards) << what;
      EXPECT_EQ(results[0].faults_injected, 2) << what;
      expect_trees_equal(nets[0], nets[1], what);
      for (int s = 0; s < nets[0].num_shards(); ++s) {
        const auto err = nets[0].shard(s).tree().validate();
        ASSERT_FALSE(err.has_value()) << what << " shard " << s << ": "
                                      << *err;
      }
    }
  }
}

// Satellite regression: per-shard stats must key off the live shard count,
// not the construction-time S, once splits/merges reshaped the fleet — and
// the runner's final-map re-scan must kick in for lifecycle events exactly
// as it does for migrations.
TEST(Lifecycle, ShardStatsStayLiveAfterSplitMerge) {
  const int n = 128, S = 4, k = 3;
  Trace trace;
  trace.n = n;
  std::mt19937_64 rng(9);
  for (int i = 0; i < 5000; ++i) {
    const NodeId u = static_cast<NodeId>(1 + rng() % 32);
    NodeId v = static_cast<NodeId>(1 + rng() % 32);
    while (v == u) v = static_cast<NodeId>(1 + rng() % 32);
    trace.requests.push_back({u, v});
  }
  RebalanceConfig cfg;
  cfg.epoch_requests = 1000;
  cfg.split_watermark = 1.5;
  ShardedNetwork net = ShardedNetwork::balanced(k, n, S);
  ShardedRunOptions opt;
  opt.rebalance = &cfg;
  const SimResult res = run_trace_sharded(net, trace, opt);
  ASSERT_GT(res.shard_splits, 0);
  ASSERT_GT(net.num_shards(), S);

  const ShardLocalityStats stats = compute_shard_stats(trace, net.map());
  EXPECT_EQ(stats.shards, net.num_shards());
  EXPECT_EQ(stats.intra.size(), static_cast<std::size_t>(net.num_shards()));
  EXPECT_EQ(stats.touches.size(), static_cast<std::size_t>(net.num_shards()));
  EXPECT_EQ(stats.owned.size(), static_cast<std::size_t>(net.num_shards()));
  int owned = 0;
  for (int v : stats.owned) owned += v;
  EXPECT_EQ(owned, n);
  // No migrations happened, only splits — the re-scan condition must still
  // have upgraded post_intra_fraction to the final-map value.
  EXPECT_EQ(res.migrations, 0);
  EXPECT_DOUBLE_EQ(res.post_intra_fraction, stats.intra_fraction());
}

// ---- frontend ----------------------------------------------------------

TEST(Lifecycle, FrontendSplitsShardsUnderLiveTraffic) {
  // The dynamic worker fleet: a watermark split fires at an epoch barrier
  // while open-loop traffic is in flight, a fresh worker is spawned for
  // the new shard, and nothing is lost — every request is served exactly
  // once under the lossless default policy.
  const int n = 64, S = 2, k = 2;
  Trace trace;
  trace.n = n;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 6000; ++i) {  // hammer shard 0's node range
    const NodeId u = static_cast<NodeId>(1 + rng() % 24);
    NodeId v = static_cast<NodeId>(1 + rng() % 24);
    while (v == u) v = static_cast<NodeId>(1 + rng() % 24);
    trace.requests.push_back({u, v});
  }
  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kNone;  // lifecycle plans independently
  cfg.epoch_requests = 1000;
  cfg.split_watermark = 1.5;
  ShardedNetwork net = ShardedNetwork::balanced(k, n, S);
  FrontendOptions opt;
  opt.rebalance = &cfg;
  ServeFrontend frontend(net, opt);
  const auto arrivals =
      gen_arrival_times(ArrivalKind::kSaturation, 0.0, trace.size(), 1);
  const FrontendResult res = frontend.run(trace, arrivals);

  EXPECT_GT(res.sim.shard_splits, 0);
  EXPECT_EQ(net.num_shards(), S + static_cast<int>(res.sim.shard_splits));
  EXPECT_GT(res.route_epochs, 0u);
  EXPECT_EQ(res.sojourn.count(), trace.size());
  EXPECT_EQ(res.sim.shed_requests, 0);
  for (int s = 0; s < net.num_shards(); ++s) {
    const auto err = net.shard(s).tree().validate();
    ASSERT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
  }
  // Node conservation + the final-map intra-fraction re-scan.
  int owned = 0;
  for (int s = 0; s < net.num_shards(); ++s) owned += net.map().shard_size(s);
  EXPECT_EQ(owned, n);
  EXPECT_DOUBLE_EQ(
      res.sim.post_intra_fraction,
      compute_shard_stats(trace, net.map()).intra_fraction());
}

TEST(Lifecycle, FrontendMergesShardsUnderLiveTraffic) {
  // The other direction: cold shards recombine mid-run, the vacated
  // worker retires, and queued traffic for renumbered shards is still
  // served exactly once.
  const int n = 120, S = 6, k = 2;
  const Trace trace = gen_workload(WorkloadKind::kUniform, n, 8000, 7);
  RebalanceConfig cfg;
  cfg.epoch_requests = 1000;
  cfg.merge_watermark = 3.0;  // combined-below-3x-mean: always true here
  cfg.capacity_factor = 4.0;  // don't let the guard park the merges
  cfg.min_shards = 3;
  ShardedNetwork net = ShardedNetwork::balanced(k, n, S);
  FrontendOptions opt;
  opt.rebalance = &cfg;
  ServeFrontend frontend(net, opt);
  const auto arrivals =
      gen_arrival_times(ArrivalKind::kSaturation, 0.0, trace.size(), 1);
  const FrontendResult res = frontend.run(trace, arrivals);

  EXPECT_GT(res.sim.shard_merges, 0);
  EXPECT_GE(res.sim.final_shards, cfg.min_shards);
  EXPECT_EQ(net.num_shards(), S - static_cast<int>(res.sim.shard_merges));
  EXPECT_EQ(res.sojourn.count(), trace.size());
  EXPECT_EQ(res.sim.shed_requests, 0);
  int owned = 0;
  for (int s = 0; s < net.num_shards(); ++s) owned += net.map().shard_size(s);
  EXPECT_EQ(owned, n);
  for (int s = 0; s < net.num_shards(); ++s) {
    const auto err = net.shard(s).tree().validate();
    ASSERT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
  }
}

TEST(Lifecycle, FrontendLifecycleAndFaultsMidFlight) {
  // Everything at once under live traffic: watermark lifecycle, planned
  // replicas, a shard kill, a worker kill and a queue-pressure window.
  // Under the lossless default policy nothing may be shed, every tree
  // must stay valid, and every node must still be owned exactly once.
  const int n = 128, S = 4, k = 3;
  const Trace trace = gen_workload(WorkloadKind::kPhaseElephants, n, 9000, 13);
  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kWatermark;
  cfg.trigger = RebalanceTrigger::kEveryEpoch;
  cfg.epoch_requests = 1500;
  cfg.split_watermark = 1.4;
  cfg.merge_watermark = 0.4;
  cfg.min_shards = 3;  // keep the scripted shard ids in range
  cfg.replicas = 1;
  FaultPlan plan;
  plan.kills = {{800, 1, FaultKind::kQueuePressure},
                {2200, 0, FaultKind::kShardKill},
                {5200, 2, FaultKind::kWorkerKill}};
  ShardedNetwork net = ShardedNetwork::balanced(k, n, S);
  FrontendOptions opt;
  opt.rebalance = &cfg;
  opt.faults = &plan;
  ServeFrontend frontend(net, opt);
  const auto arrivals =
      gen_arrival_times(ArrivalKind::kSaturation, 0.0, trace.size(), 1);
  const FrontendResult res = frontend.run(trace, arrivals);

  EXPECT_EQ(res.sim.faults_injected, 1);  // the shard kill
  EXPECT_EQ(res.sim.worker_kills, 1);
  EXPECT_EQ(res.sim.queue_pressure_events, 1);
  EXPECT_EQ(res.sojourn.count(), trace.size());
  EXPECT_EQ(res.sim.shed_requests, 0);
  EXPECT_EQ(res.sim.requests, trace.size());
  int owned = 0;
  for (int s = 0; s < net.num_shards(); ++s) owned += net.map().shard_size(s);
  EXPECT_EQ(owned, n);
  for (int s = 0; s < net.num_shards(); ++s) {
    const auto err = net.shard(s).tree().validate();
    ASSERT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
  }
}

TEST(Lifecycle, FrontendSingleShardRecoveryBitMatchesBatchReplay) {
  // S = 1, FIFO, saturation arrivals: the frontend preserves trace order,
  // so a snapshot + tail-replay recovery must leave costs bit-identical to
  // the unfaulted closed-loop batch replay.
  const int n = 48, k = 3;
  const Trace trace = gen_workload(WorkloadKind::kTemporal05, n, 3000, 21);
  const auto arrivals =
      gen_arrival_times(ArrivalKind::kSaturation, 0.0, trace.size(), 1);

  ShardedNetwork batch_net = ShardedNetwork::balanced(k, n, 1);
  const SimResult want = run_trace_sharded(batch_net, trace);

  FaultPlan plan;
  plan.kills = {{1000, 0}};
  ShardedNetwork net = ShardedNetwork::balanced(k, n, 1);
  FrontendOptions opt;
  opt.faults = &plan;
  ServeFrontend frontend(net, opt);
  const FrontendResult got = frontend.run(trace, arrivals);

  EXPECT_EQ(got.sim.requests, trace.size());
  EXPECT_EQ(got.sim.routing_cost, want.routing_cost);
  EXPECT_EQ(got.sim.rotation_count, want.rotation_count);
  EXPECT_EQ(got.sim.edge_changes, want.edge_changes);
  EXPECT_EQ(got.sim.faults_injected, 1);
  EXPECT_GT(got.sim.recovery_replayed, 0);
  expect_trees_equal(net, batch_net, "frontend S=1 recovery");
}

TEST(Lifecycle, FrontendMultiShardSurvivesKillsAndPromotions) {
  // S > 1 is not bit-reproducible; the contract is completion — every
  // request served, recovery counters set, shards valid at the end.
  const int n = 64, S = 4, k = 2;
  const Trace trace = gen_workload(WorkloadKind::kFacebook, n, 4000, 33);
  const auto arrivals =
      gen_arrival_times(ArrivalKind::kSaturation, 0.0, trace.size(), 1);

  FaultPlan plan;
  plan.kills = {{800, 1}, {2500, 2}};
  ShardedNetwork net = ShardedNetwork::balanced(k, n, S);
  net.add_replica(2);  // second kill fails over by promotion
  FrontendOptions opt;
  opt.faults = &plan;
  ServeFrontend frontend(net, opt);
  const FrontendResult got = frontend.run(trace, arrivals);

  EXPECT_EQ(got.sim.requests, trace.size());
  EXPECT_EQ(got.sim.faults_injected, 2);
  EXPECT_EQ(got.sim.replica_promotions, 1);
  EXPECT_GT(got.sim.replica_reads, 0);
  EXPECT_GE(got.sim.recovery_max_ms, 0.0);
  for (int s = 0; s < S; ++s) {
    const auto err = net.shard(s).tree().validate();
    ASSERT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
  }
}

// ---- snapshot hardening ------------------------------------------------

TEST(Lifecycle, RestoreShardValidatesSnapshots) {
  ShardedNetwork net = ShardedNetwork::balanced(3, 48, 4);
  const std::string good = net.snapshot_shard(1);
  EXPECT_NO_THROW(net.restore_shard(1, good));
  // Wrong shard: node counts differ (48 over 4 shards = 12 each, so use a
  // snapshot from a differently-sized fleet).
  ShardedNetwork other = ShardedNetwork::balanced(3, 48, 3);
  EXPECT_THROW(net.restore_shard(1, other.snapshot_shard(0)), TreeError);
  // Wrong arity.
  ShardedNetwork binary = ShardedNetwork::balanced(2, 48, 4);
  EXPECT_THROW(net.restore_shard(1, binary.snapshot_shard(1)), TreeError);
  // Hostile bytes.
  EXPECT_THROW(net.restore_shard(1, "san-tree v1 3 999999999 1\n"),
               TreeError);
  EXPECT_THROW(net.restore_shard(1, "garbage"), TreeError);
  EXPECT_THROW(net.restore_shard(1, good.substr(0, good.size() / 2)),
               TreeError);
}

}  // namespace
}  // namespace san
