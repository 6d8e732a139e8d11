// paper_temporal: the paper's Table 5 instance (temporal locality p = 0.75,
// n = 1023, k = 10, 10^6 requests).
//   (a) online: KArySplayNet::balanced replays the trace, 1 thread;
//   (b) offline: demand matrix + optimal DP (1 thread) build the optimal
//       static network, then run_trace_static replays the trace on it.
//
// The DP runs on one thread: threaded, it meets at a barrier after every
// diagonal (about a thousand per build), and on a shared host one stalled
// thread holds up the others, which spread its build time across runs by
// up to a quarter at 2 threads.
#include "online.hpp"
#include "sim/simulator.hpp"
#include "static_trees/optimal_dp.hpp"
#include "workload/demand_matrix.hpp"

namespace perfbench {
namespace {

constexpr int kNodes = 1023;
constexpr int kArity = 10;
constexpr std::size_t kRequests = 1'000'000;
constexpr int kDpThreads = 1;

}  // namespace

void run_paper_temporal(const Args& args, Report& report) {
  OnlineSeries online;
  std::vector<double> setup_s, build_s, demand_s, dp_s, static_s, gen_s;
  san::Cost static_cost = -1;
  bool static_matches_dp = true, static_repeats = true, valid = true;
  std::size_t attempted = 0;

  const int samples = run_samples(args, 3, [&](bool measured, bool traced) {
    const double t0 = cpu_seconds();
    double gen = 0.0;
    san::StreamingWorkload stream(san::WorkloadKind::kTemporal075, kNodes,
                                  kRequests, args.seed);
    const san::Trace trace = materialize_timed(stream, &gen);
    san::KArySplayNet net = san::KArySplayNet::balanced(kArity, kNodes);
    const double t1 = cpu_seconds();

    const OnlineSample s =
        traced ? replay_traced(net, trace) : replay_untraced(net, trace);

    const double t2 = cpu_seconds();
    const san::DemandMatrix demand = san::DemandMatrix::from_trace(trace);
    const double t3 = cpu_seconds();
    const san::OptimalTreeResult opt =
        san::optimal_routing_based_tree(kArity, demand, kDpThreads);
    const double t4 = cpu_seconds();
    const san::SimResult replay = san::run_trace_static(opt.tree, trace);
    const double t5 = cpu_seconds();

    valid = valid && net.tree().valid() && opt.tree.valid();
    static_matches_dp =
        static_matches_dp && replay.routing_cost == opt.total_distance;
    if (static_cost < 0) static_cost = replay.routing_cost;
    static_repeats = static_repeats && replay.routing_cost == static_cost;
    if (!measured) return;
    attempted += trace.size();
    online.add(s, traced, trace.size());
    setup_s.push_back(t1 - t0);
    build_s.push_back(t4 - t2);
    demand_s.push_back(t3 - t2);
    dp_s.push_back(t4 - t3);
    static_s.push_back(t5 - t4);
    gen_s.push_back(gen / static_cast<double>(trace.size()));
  });

  report.attempted = attempted;
  report.check("trees_validate", valid,
               "online and optimal static trees pass validate() after use");
  report.check("static_replay_equals_dp", static_matches_dp,
               "run_trace_static routing cost == DP total_distance");
  report.check("static_replay_repeats", static_repeats,
               "static routing cost identical in every sample");
  online.report_checks(report);

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("build_s", median(build_s), "s");
    report.info("raw_build_s", json_array(build_s));
    online.report_end_to_end(report);
  } else {
    online.report_layers(report);
    report.metric("core.static_replay_req_per_s",
                  static_cast<double>(kRequests) / median(static_s), "1/s");
    report.metric("static_trees.dp_s", median(dp_s), "s");
    report.metric("workload.demand_build_s", median(demand_s), "s");
    report.metric("workload.gen_ns_per_req", median(gen_s) * 1e9, "ns");
  }
  report.info("static_cost_per_req",
              json_number(static_cast<double>(static_cost) /
                          static_cast<double>(kRequests)));
  report.info("threads",
              "{\"online\": 1, \"dp\": " + std::to_string(kDpThreads) +
                  ", \"static_replay\": 1}");
  report.info("samples", std::to_string(samples));
  report.info("params", "{\"n\": 1023, \"k\": 10, \"m\": 1000000, \"p\": 0.75}");
}

}  // namespace perfbench
