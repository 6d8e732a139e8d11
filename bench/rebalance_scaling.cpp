// Static vs adaptive sharding across drift rates: does online shard
// rebalancing pay for itself?
//
// Workloads:
//   * elephants-p4 / p8 / p32 — phase-change elephant pairs with 4 / 8 /
//     32 phases over the trace: the slower the drift, the longer each
//     migration batch keeps earning. This is the regime the rebalancer
//     targets: a sparse hot pair set that *moves*.
//   * rotating-hot — the hot node set resamples every m/16 requests, the
//     same order as the epoch cadence, so plans tend to be stale on
//     arrival: the documented losing regime.
//   * zipf — stationary Facebook-like skew: the drift trigger must park
//     the rebalancer (first window only seeds the detector) and tie the
//     static engine to within noise.
// For each workload: a static row (PR 3 pipeline) and one row per
// rebalance policy (hotpair, watermark; drift trigger, measured migration
// cost model). Costs include the migration bill (grand total =
// serve + extraction splays + rebuild relinks); wall time includes the
// epoch barriers, planning, and migration application. The checked-in
// BENCH_rebalance_scaling.json records this machine's numbers.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "workload/rebalance.hpp"

namespace {

using namespace san;

struct Row {
  std::string config;
  double seconds = 0;
  double req_per_sec = 0;
  double speedup = 1.0;     // vs the static row of the workload
  Cost serve_cost = 0;      // routing + rotations
  Cost grand_cost = 0;      // + migration cost
  double cost_ratio = 1.0;  // grand vs the static row
  Cost migrations = 0;
  Cost epochs = 0;
  double intra_fraction = 0;
};

struct WorkloadReport {
  std::string workload;
  int n = 0;
  std::size_t requests = 0;
  std::vector<Row> rows;  // rows[0] is the static pipeline
};

Row run_row(const std::string& label, const Trace& trace, int k, int S,
            const RebalanceConfig* cfg) {
  ShardedNetwork net =
      ShardedNetwork::balanced(k, trace.n, S, ShardPartition::kHash);
  ShardedRunOptions opt;
  opt.threads = bench::bench_threads();
  opt.rebalance = cfg;
  const auto t0 = std::chrono::steady_clock::now();
  const SimResult res = run_trace_sharded(net, trace, opt);
  Row row;
  row.config = label;
  row.seconds = bench::seconds_since(t0);
  row.req_per_sec = static_cast<double>(trace.size()) / row.seconds;
  row.serve_cost = res.total_cost();
  row.grand_cost = res.grand_total_cost();
  row.migrations = res.migrations;
  row.epochs = res.rebalance_epochs;
  row.intra_fraction = res.post_intra_fraction;
  return row;
}

WorkloadReport run_one(const std::string& label, const Trace& trace, int k,
                       int S, const RebalanceConfig& base) {
  WorkloadReport rep;
  rep.workload = label;
  rep.n = trace.n;
  rep.requests = trace.size();

  rep.rows.push_back(run_row("static", trace, k, S, nullptr));
  const Row st = rep.rows.front();
  for (RebalancePolicy policy :
       {RebalancePolicy::kHotPair, RebalancePolicy::kWatermark}) {
    RebalanceConfig cfg = base;
    cfg.policy = policy;
    Row row = run_row(rebalance_policy_name(policy), trace, k, S, &cfg);
    row.speedup = st.seconds / row.seconds;
    row.cost_ratio = static_cast<double>(row.grand_cost) /
                     static_cast<double>(st.grand_cost);
    rep.rows.push_back(row);
  }
  return rep;
}

void print_report(const WorkloadReport& rep) {
  std::cout << "-- " << rep.workload << " (n=" << rep.n
            << ", requests=" << rep.requests << ") --\n";
  Table out({"config", "seconds", "req/s", "speedup", "serve cost",
             "grand cost", "cost ratio", "migrations", "epochs", "intra"});
  for (const Row& r : rep.rows)
    out.add_row({r.config, fixed_cell(r.seconds, 3),
                 std::to_string(static_cast<long long>(r.req_per_sec)),
                 fixed_cell(r.speedup), std::to_string(r.serve_cost),
                 std::to_string(r.grand_cost), fixed_cell(r.cost_ratio),
                 std::to_string(r.migrations), std::to_string(r.epochs),
                 fixed_cell(r.intra_fraction)});
  out.print();
  std::cout << "\n";
}

void append_json(std::ostringstream& js, const WorkloadReport& rep,
                 bool last) {
  js << "    {\n      \"workload\": \"" << rep.workload
     << "\",\n      \"n\": " << rep.n
     << ",\n      \"requests\": " << rep.requests << ",\n      \"rows\": [\n";
  for (std::size_t i = 0; i < rep.rows.size(); ++i) {
    const Row& r = rep.rows[i];
    js << "        {\"config\": \"" << r.config << "\", \"seconds\": "
       << fixed_cell(r.seconds, 4) << ", \"req_per_sec\": "
       << static_cast<long long>(r.req_per_sec) << ", \"speedup\": "
       << fixed_cell(r.speedup) << ", \"serve_cost\": " << r.serve_cost
       << ", \"grand_cost\": " << r.grand_cost << ", \"cost_ratio\": "
       << fixed_cell(r.cost_ratio) << ", \"migrations\": " << r.migrations
       << ", \"epochs\": " << r.epochs << ", \"intra_fraction\": "
       << fixed_cell(r.intra_fraction) << "}"
       << (i + 1 < rep.rows.size() ? ",\n" : "\n");
  }
  js << "      ]\n    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);
  std::cout << "== rebalance scaling: static vs adaptive sharding ==\n";
  std::cout << "threads: " << bench::bench_threads_resolved() << " of "
            << resolve_threads(0) << " hardware\n\n";

  const int k = 3, S = 8;
  const int n = bench::scaled(64, 2000, 10000);
  const std::size_t m = bench::trace_length();
  const std::uint64_t seed = bench::bench_seed();

  RebalanceConfig base;
  base.epoch_requests = std::max<std::size_t>(500, m / 40);
  base.max_migrations = 64;

  std::vector<WorkloadReport> reports;
  for (int phases : {4, 8, 32})
    reports.push_back(run_one("elephants-p" + std::to_string(phases),
                              gen_phase_elephants(n, m, phases, seed), k, S,
                              base));
  reports.push_back(
      run_one("rotating-hot",
              gen_rotating_hotset(n, m, std::max(2, n / 16),
                                  std::max<std::size_t>(1, m / 16), seed),
              k, S, base));
  reports.push_back(
      run_one("zipf", gen_facebook(n, m, seed), k, S, base));
  for (const WorkloadReport& rep : reports) print_report(rep);

  std::ostringstream js;
  js << "{\n  \"bench\": \"rebalance_scaling\",\n  \"threads\": "
     << bench::bench_threads_resolved() << ",\n  \"shards\": " << S
     << ",\n  \"k\": " << k << ",\n  \"epoch_requests\": "
     << base.epoch_requests << ",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i)
    append_json(js, reports[i], i + 1 == reports.size());
  js << "  ]\n}\n";
  bench::write_json_result(js.str());
  return 0;
}
