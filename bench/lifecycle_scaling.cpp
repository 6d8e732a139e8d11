// Shard lifecycle at scale: what do splits, merges, replicas, and crash
// recovery cost as the fleet grows?
//
// Part 1 — lifecycle sweep: a drifting elephant workload runs once with a
// static fleet and once with the full lifecycle stack (watermark splits +
// merges + one read replica) for each starting fleet size. Reported: how
// many splits/merges fired, their relink cost, where the fleet size
// landed, and the grand-cost ratio against the static run.
//
// Part 2 — recovery sweep: three scripted kills per run (early, middle,
// late; different shards) against a 250 ms per-recovery SLO. The
// snapshot-restore rows rebuild the dead shard from its last barrier
// snapshot plus a trace-tail replay; the promotion rows keep every shard
// replicated so failover is a pointer swap plus top-tree rewire. Reported:
// replayed ops, recovery wall-clock (total and worst single), and the SLO
// verdict the CLI would print.
//
// The checked-in BENCH_lifecycle_scaling.json records this machine's
// numbers at n = 10^5 (the ISSUE 9 acceptance scale), S up to 16.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "workload/rebalance.hpp"

namespace {

using namespace san;

constexpr double kRecoverySloMs = 250.0;

struct LifecycleRow {
  int shards0 = 0;
  double seconds = 0;
  Cost grand_static = 0;     // same trace, no lifecycle
  Cost grand_lifecycle = 0;  // serve + migration + lifecycle
  double cost_ratio = 1.0;
  Cost splits = 0;
  Cost merges = 0;
  Cost lifecycle_cost = 0;
  Cost replica_reads = 0;
  int final_shards = 0;
};

struct RecoveryRow {
  std::string mode;  // "restore" or "promote"
  int shards = 0;
  double seconds = 0;
  Cost faults = 0;
  Cost promotions = 0;
  Cost replayed = 0;
  Cost recovery_cost = 0;
  double recovery_total_ms = 0;
  double recovery_max_ms = 0;
  bool slo_met = true;
};

LifecycleRow run_lifecycle_row(const Trace& trace, int k, int S,
                               std::size_t epoch) {
  LifecycleRow row;
  row.shards0 = S;
  {
    ShardedNetwork net =
        ShardedNetwork::balanced(k, trace.n, S, ShardPartition::kHash);
    ShardedRunOptions opt;
    opt.threads = bench::bench_threads();
    row.grand_static = run_trace_sharded(net, trace, opt).grand_total_cost();
  }
  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kNone;  // isolate lifecycle from migrations
  cfg.epoch_requests = epoch;
  cfg.split_watermark = 1.5;
  cfg.merge_watermark = 0.5;
  cfg.max_shards = 32;
  cfg.min_shards = 2;
  cfg.replicas = 1;
  ShardedNetwork net =
      ShardedNetwork::balanced(k, trace.n, S, ShardPartition::kHash);
  ShardedRunOptions opt;
  opt.threads = bench::bench_threads();
  opt.rebalance = &cfg;
  const auto t0 = std::chrono::steady_clock::now();
  const SimResult res = run_trace_sharded(net, trace, opt);
  row.seconds = bench::seconds_since(t0);
  row.grand_lifecycle = res.grand_total_cost();
  row.cost_ratio = static_cast<double>(row.grand_lifecycle) /
                   static_cast<double>(row.grand_static);
  row.splits = res.shard_splits;
  row.merges = res.shard_merges;
  row.lifecycle_cost = res.lifecycle_cost;
  row.replica_reads = res.replica_reads;
  row.final_shards = res.final_shards;
  return row;
}

RecoveryRow run_recovery_row(const Trace& trace, int k, int S,
                             std::size_t epoch, bool promote) {
  FaultPlan plan;
  const std::size_t m = trace.size();
  plan.kills = {{m / 4, 0}, {m / 2, S / 2}, {3 * m / 4, S - 1}};
  plan.recovery_slo_ms = kRecoverySloMs;

  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kNone;
  cfg.epoch_requests = epoch;
  // Promotion rows keep every shard replicated so each kill fails over;
  // restore rows have no replicas, forcing snapshot + tail replay.
  cfg.replicas = promote ? S : 0;

  ShardedNetwork net =
      ShardedNetwork::balanced(k, trace.n, S, ShardPartition::kHash);
  ShardedRunOptions opt;
  opt.threads = bench::bench_threads();
  if (promote) opt.rebalance = &cfg;
  opt.faults = &plan;
  RecoveryRow row;
  row.mode = promote ? "promote" : "restore";
  row.shards = S;
  const auto t0 = std::chrono::steady_clock::now();
  const SimResult res = run_trace_sharded(net, trace, opt);
  row.seconds = bench::seconds_since(t0);
  row.faults = res.faults_injected;
  row.promotions = res.replica_promotions;
  row.replayed = res.recovery_replayed;
  row.recovery_cost = res.recovery_cost;
  row.recovery_total_ms = res.recovery_total_ms;
  row.recovery_max_ms = res.recovery_max_ms;
  row.slo_met = res.recovery_max_ms <= kRecoverySloMs;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);
  std::cout << "== lifecycle scaling: split/merge/replicate/recover ==\n";
  std::cout << "threads: " << bench::bench_threads_resolved() << " of "
            << resolve_threads(0) << " hardware\n\n";

  const int k = 3;
  const int n = bench::scaled(256, 100000, 100000);
  const std::size_t m = bench::trace_length();
  const std::uint64_t seed = bench::bench_seed();
  const std::size_t epoch = std::max<std::size_t>(500, m / 40);

  const Trace drift = gen_phase_elephants(n, m, 8, seed);
  const Trace uniform = gen_workload(WorkloadKind::kUniform, n, m, seed + 1);

  std::vector<LifecycleRow> life;
  for (int S : {2, 4, 8, 16})
    life.push_back(run_lifecycle_row(drift, k, S, epoch));

  std::cout << "-- lifecycle (elephants-p8, n=" << n << ", m=" << m
            << ", epoch=" << epoch << ") --\n";
  Table lt({"S0", "final S", "splits", "merges", "lifecycle cost",
            "replica reads", "cost ratio", "seconds"});
  for (const LifecycleRow& r : life)
    lt.add_row({std::to_string(r.shards0), std::to_string(r.final_shards),
                std::to_string(r.splits), std::to_string(r.merges),
                std::to_string(r.lifecycle_cost),
                std::to_string(r.replica_reads), fixed_cell(r.cost_ratio),
                fixed_cell(r.seconds, 3)});
  lt.print();
  std::cout << "\n";

  std::vector<RecoveryRow> rec;
  for (int S : {2, 4, 8, 16}) {
    rec.push_back(run_recovery_row(uniform, k, S, epoch, /*promote=*/false));
    rec.push_back(run_recovery_row(uniform, k, S, epoch, /*promote=*/true));
  }

  std::cout << "-- recovery (uniform, 3 kills, SLO " << kRecoverySloMs
            << " ms) --\n";
  Table rt({"mode", "S", "faults", "promotions", "replayed", "recovery cost",
            "total ms", "max ms", "SLO"});
  for (const RecoveryRow& r : rec)
    rt.add_row({r.mode, std::to_string(r.shards), std::to_string(r.faults),
                std::to_string(r.promotions), std::to_string(r.replayed),
                std::to_string(r.recovery_cost),
                fixed_cell(r.recovery_total_ms, 3),
                fixed_cell(r.recovery_max_ms, 3),
                r.slo_met ? "met" : "MISSED"});
  rt.print();
  std::cout << "\n";

  std::ostringstream js;
  js << "{\n  \"bench\": \"lifecycle_scaling\",\n  \"threads\": "
     << bench::bench_threads_resolved() << ",\n  \"k\": " << k
     << ",\n  \"n\": " << n << ",\n  \"requests\": " << m
     << ",\n  \"epoch_requests\": " << epoch
     << ",\n  \"recovery_slo_ms\": " << fixed_cell(kRecoverySloMs, 1)
     << ",\n  \"lifecycle\": [\n";
  for (std::size_t i = 0; i < life.size(); ++i) {
    const LifecycleRow& r = life[i];
    js << "    {\"shards0\": " << r.shards0 << ", \"final_shards\": "
       << r.final_shards << ", \"splits\": " << r.splits << ", \"merges\": "
       << r.merges << ", \"lifecycle_cost\": " << r.lifecycle_cost
       << ", \"replica_reads\": " << r.replica_reads << ", \"grand_static\": "
       << r.grand_static << ", \"grand_lifecycle\": " << r.grand_lifecycle
       << ", \"cost_ratio\": " << fixed_cell(r.cost_ratio)
       << ", \"seconds\": " << fixed_cell(r.seconds, 4) << "}"
       << (i + 1 < life.size() ? ",\n" : "\n");
  }
  js << "  ],\n  \"recovery\": [\n";
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const RecoveryRow& r = rec[i];
    js << "    {\"mode\": \"" << r.mode << "\", \"shards\": " << r.shards
       << ", \"faults\": " << r.faults << ", \"promotions\": " << r.promotions
       << ", \"replayed\": " << r.replayed << ", \"recovery_cost\": "
       << r.recovery_cost << ", \"recovery_total_ms\": "
       << fixed_cell(r.recovery_total_ms, 3) << ", \"recovery_max_ms\": "
       << fixed_cell(r.recovery_max_ms, 3) << ", \"slo_met\": "
       << (r.slo_met ? "true" : "false") << "}"
       << (i + 1 < rec.size() ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  bench::write_json_result(js.str());
  return 0;
}
