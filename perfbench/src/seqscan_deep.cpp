// seqscan_deep: the sequential scan (u, u+1), (u+1, u+2), ... over
// n = 10^5 nodes, k = 2, replayed closed-loop on one KArySplayNet. The
// splayed scan turns the tree into a chain, so the walk that computes the
// pre-adjustment distance dominates. The generator is deterministic; the
// seed only rotates its starting position.
#include "online.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

constexpr int kNodes = 100'000;
constexpr int kArity = 2;
constexpr std::size_t kRequests = 100'000;
constexpr int kSetupsPerSample = 5;

san::Trace generate(std::uint64_t seed, double& gen_s) {
  san::StreamingWorkload stream(san::WorkloadKind::kSequentialScan, kNodes,
                                kRequests, seed);
  return materialize_timed(stream, &gen_s);
}

/// One sample's inputs and network.
struct Setup {
  explicit Setup(std::uint64_t seed)
      : trace(generate(seed, gen_s)),
        build_start(cpu_seconds()),
        net(san::KArySplayNet::balanced(kArity, kNodes)),
        build_s(cpu_seconds() - build_start) {}

  double gen_s = 0.0;
  san::Trace trace;
  double build_start;
  san::KArySplayNet net;
  double build_s;
};

}  // namespace

void run_seqscan_deep(const Args& args, Report& report) {
  OnlineSeries online;
  std::vector<double> setup_s, build_s, static_s, gen_s;
  bool valid = true;
  std::size_t attempted = 0;

  const int samples = run_samples(args, 3, [&](bool measured, bool traced) {
    std::vector<double> setups, builds;
    const std::unique_ptr<Setup> su =
        set_up<Setup>(kSetupsPerSample, setups, builds, args.seed);
    const san::Trace& trace = su->trace;

    const OnlineSample s = traced ? replay_traced(su->net, trace)
                                  : replay_untraced(su->net, trace);
    valid = valid && su->net.tree().valid();
    if (traced) {
      // The walk on a tree that never rotates: the same trace replayed on
      // a fresh balanced tree.
      const san::KArySplayNet fresh =
          san::KArySplayNet::balanced(kArity, kNodes);
      const double t3 = cpu_seconds();
      san::run_trace_static(fresh.tree(), trace);
      static_s.push_back(cpu_seconds() - t3);
    }
    if (!measured) return;
    attempted += trace.size();
    online.add(s, traced, trace.size());
    setup_s.insert(setup_s.end(), setups.begin(), setups.end());
    build_s.insert(build_s.end(), builds.begin(), builds.end());
    gen_s.push_back(su->gen_s / static_cast<double>(trace.size()));
  });

  report.attempted = attempted;
  report.check("trees_validate", valid,
               "every replayed tree passes validate() after its run");
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
    report.metric("workload.gen_ns_per_req", median(gen_s) * 1e9, "ns");
  }
  report.info("threads", "{\"online\": 1}");
  report.info("samples", std::to_string(samples));
  report.info("params", "{\"n\": 100000, \"k\": 2, \"m\": 100000}");
}

}  // namespace perfbench
