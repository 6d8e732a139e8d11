// Open-loop serving frontend: the S=1 saturation golden lock against
// batch replay, arrival-process independence of S=1 costs, multi-shard
// conservation (every request served exactly once, handovers = cross
// count), latency plumbing, and online rebalancing under drift.
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

// Acceptance: open-loop at saturation reproduces batch-replay total cost
// on a stationary workload with S = 1 and FIFO admission — bit-identical,
// for every workload family tried, with and without a replica answering
// the reads. The single inbox preserves trace order, so the serve
// sequence is the same.
TEST(Frontend, SingleShardSaturationMatchesBatchReplay) {
  const int n = 64;
  const std::size_t m = 3000;
  for (WorkloadKind kind : {WorkloadKind::kTemporal05, WorkloadKind::kHpc,
                            WorkloadKind::kProjector}) {
    const Trace trace = gen_workload(kind, n, m, 0xBEEF);
    for (bool replicated : {false, true}) {
      ShardedNetwork batch_net = ShardedNetwork::balanced(3, n, 1);
      if (replicated) batch_net.add_replica(0);
      const SimResult batch =
          run_trace_sharded(batch_net, trace, {.sequential = true});
      EXPECT_EQ(batch.replica_reads, replicated ? static_cast<Cost>(m) : 0);
      ShardedNetwork live_net = ShardedNetwork::balanced(3, n, 1);
      if (replicated) live_net.add_replica(0);
      ServeFrontend fe(live_net);
      const FrontendResult live = fe.run(trace, saturation(m));
      const std::string what = std::string(workload_name(kind)) +
                               (replicated ? " replicated" : "");
      EXPECT_EQ(live.sim.routing_cost, batch.routing_cost) << what;
      EXPECT_EQ(live.sim.rotation_count, batch.rotation_count) << what;
      EXPECT_EQ(live.sim.edge_changes, batch.edge_changes) << what;
      EXPECT_EQ(live.sim.total_cost(), batch.total_cost()) << what;
      EXPECT_EQ(live.sim.replica_reads, batch.replica_reads) << what;
      EXPECT_EQ(live.sim.requests, m) << what;
      EXPECT_EQ(live.sim.cross_shard, 0) << what;
      EXPECT_EQ(live.handovers, 0u) << what;
    }
  }
}

// At S = 1 the arrival process changes *when* requests are served, never
// in *what order* — total cost is invariant across saturation, Poisson,
// and bursty schedules.
TEST(Frontend, SingleShardCostIndependentOfArrivalProcess) {
  const int n = 48;
  const std::size_t m = 2000;
  const Trace trace = gen_workload(WorkloadKind::kFacebook, n, m, 99);
  Cost reference = -1;
  for (ArrivalKind kind : {ArrivalKind::kSaturation, ArrivalKind::kPoisson,
                           ArrivalKind::kBursty}) {
    const auto arrivals =
        kind == ArrivalKind::kSaturation
            ? saturation(m)
            : gen_arrival_times(kind, 2e6, m, 17);  // ~1 ms of schedule
    ShardedNetwork net = ShardedNetwork::balanced(2, n, 1);
    ServeFrontend fe(net);
    const FrontendResult r = fe.run(trace, arrivals);
    if (reference < 0) reference = r.sim.total_cost();
    EXPECT_EQ(r.sim.total_cost(), reference) << arrival_kind_name(kind);
    EXPECT_EQ(r.sojourn.count(), m) << arrival_kind_name(kind);
  }
}

// Multi-shard conservation on a static map: every request completes
// exactly once, every cross-shard request performs exactly one handover,
// and the dispatched cross count equals the trace's locality stats.
TEST(Frontend, MultiShardServesEverythingOnce) {
  const int n = 96;
  const std::size_t m = 5000;
  const Trace trace = gen_workload(WorkloadKind::kTemporal05, n, m, 7);
  for (int S : {2, 4}) {
    ShardedNetwork net = ShardedNetwork::balanced(3, n, S);
    const ShardLocalityStats stats = compute_shard_stats(trace, net.map());
    ServeFrontend fe(net, {.queue_capacity = 256});
    const FrontendResult r = fe.run(trace, saturation(m));
    EXPECT_EQ(r.sojourn.count(), m) << "S=" << S;
    EXPECT_EQ(r.queue_wait.count(), m) << "S=" << S;
    EXPECT_EQ(r.sim.cross_shard, static_cast<Cost>(stats.cross_requests))
        << "S=" << S;
    EXPECT_EQ(r.handovers, stats.cross_requests) << "S=" << S;
    EXPECT_EQ(r.forwards, 0u) << "S=" << S;  // static map: no races to lose
    EXPECT_GT(r.sim.total_cost(), 0);
    EXPECT_GT(r.achieved_rate, 0.0);
    EXPECT_DOUBLE_EQ(r.sim.post_intra_fraction, stats.intra_fraction())
        << "S=" << S;
  }
}

// A paced Poisson run completes with sane latency plumbing: measured
// sojourn quantiles are monotone, the mean lies inside [min, max], and
// offered rate is reported.
TEST(Frontend, PoissonOpenLoopReportsLatencies) {
  const int n = 64;
  const std::size_t m = 20000;
  const Trace trace = gen_workload(WorkloadKind::kTemporal075, n, m, 5);
  const auto arrivals = gen_arrival_times(ArrivalKind::kPoisson, 1e6, m, 5);
  ShardedNetwork net = ShardedNetwork::balanced(3, n, 2);
  ServeFrontend fe(net);
  const FrontendResult r = fe.run(trace, arrivals);
  ASSERT_EQ(r.sojourn.count(), m);
  EXPECT_LE(r.sojourn.min(), r.sojourn.p50());
  EXPECT_LE(r.sojourn.p50(), r.sojourn.p99());
  EXPECT_LE(r.sojourn.p99(), r.sojourn.p999());
  EXPECT_LE(r.sojourn.p999(), r.sojourn.max());
  EXPECT_GE(r.sojourn.mean(), static_cast<double>(r.sojourn.min()));
  EXPECT_LE(r.sojourn.mean(), static_cast<double>(r.sojourn.max()));
  EXPECT_GT(r.offered_rate, 0.0);
  EXPECT_GT(r.achieved_rate, 0.0);
  // Queue wait is a component of sojourn, never more than all of it.
  EXPECT_LE(r.queue_wait.p50(), r.sojourn.p50());
}

// Online rebalancing through the quiesce barrier: a drifting workload
// must fire epochs and migrate nodes mid-run, with every request still
// served exactly once (forwards may be nonzero, lost requests may not).
TEST(Frontend, RebalancesOnlineUnderDrift) {
  const int n = 96;
  const std::size_t m = 24000;
  const Trace trace = gen_phase_elephants(n, m, 4, 21);
  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kHotPair;
  cfg.trigger = RebalanceTrigger::kEveryEpoch;
  cfg.epoch_requests = 2000;
  cfg.max_migrations = 32;
  ShardedNetwork net = ShardedNetwork::balanced(3, n, 4);
  ServeFrontend fe(net, {.rebalance = &cfg});
  const FrontendResult r = fe.run(trace, saturation(m));
  EXPECT_EQ(r.sojourn.count(), m);
  EXPECT_GT(r.sim.rebalance_epochs, 0);
  EXPECT_GT(r.sim.migrations, 0);
  EXPECT_GT(r.sim.migration_cost, 0);
  // post_intra_fraction was recomputed under the final (migrated) map.
  EXPECT_GT(r.sim.post_intra_fraction, 0.0);
  EXPECT_LE(r.sim.post_intra_fraction, 1.0);

  // The same trace through the static frontend completes too, for a
  // like-for-like conservation check (costs differ; conservation holds).
  ShardedNetwork static_net = ShardedNetwork::balanced(3, n, 4);
  ServeFrontend static_fe(static_net);
  const FrontendResult rs = static_fe.run(trace, saturation(m));
  EXPECT_EQ(rs.sojourn.count(), m);
  EXPECT_EQ(rs.forwards, 0u);
}

TEST(Frontend, RejectsBadArguments) {
  ShardedNetwork net = ShardedNetwork::balanced(2, 16, 2);
  EXPECT_THROW(ServeFrontend(net, {.queue_capacity = 0}), TreeError);
  ServeFrontend fe(net);
  const Trace trace = gen_uniform(16, 100, 1);
  const auto wrong = saturation(50);
  EXPECT_THROW(fe.run(trace, wrong), TreeError);
}

}  // namespace
}  // namespace san
