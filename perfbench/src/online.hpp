// Closed-loop replay of one trace over a KArySplayNet, untraced or traced.
//
// The untraced replay calls serve() per request and reads the clock once
// per request, so the gap between two reads is one request's service time;
// its throughput is taken over the loop's CPU time (see cpu_seconds()).
// The traced replay drives serve()'s documented algorithm through the
// public calls — path_info(u, v), then splay_until_parent(u, parent(lca))
// and splay_until_parent(v, u) — and times the walk and the two splays.
// Both fold every request's ServeResult into an order-sensitive digest, so
// the traced results can be checked against serve()'s.
#pragma once

#include "common.hpp"

namespace perfbench {

struct OnlineSample {
  double seconds = 0.0;      ///< wall time of the replay loop
  double cpu_seconds = 0.0;  ///< CPU time of the replay loop
  san::Cost routing = 0;
  san::Cost rotations = 0;
  std::uint64_t digest = 0;
  // Untraced replay only: per-request service time percentiles, ns.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  // Traced replay only.
  double walk_s = 0.0;    ///< self time of path_info
  double rotate_s = 0.0;  ///< self time of the two splay_until_parent calls
};

OnlineSample replay_untraced(san::KArySplayNet& net, const san::Trace& trace);
OnlineSample replay_traced(san::KArySplayNet& net, const san::Trace& trace);

/// Collects the online phase of every measured sample and reports the
/// closed-loop metrics shared by the single-network workloads.
class OnlineSeries {
 public:
  /// Records one sample; checks its results against the first sample's
  /// (same seed, fresh network: the results must repeat exactly).
  void add(const OnlineSample& s, bool traced, std::size_t requests);

  /// req_per_s, cost_per_req, p50_us, p99_us.
  void report_end_to_end(Report& report) const;
  /// core.* metrics and trace.overhead_frac.
  void report_layers(Report& report) const;
  void report_checks(Report& report) const;

 private:
  std::size_t requests_ = 0;
  std::vector<double> plain_s_, plain_cpu_s_, p50_ns_, p99_ns_, traced_s_,
      walk_s_, rotate_s_;
  san::Cost routing_ = 0, rotations_ = 0;
  std::uint64_t digest_ = 0;
  bool have_first_ = false;
  int mismatches_ = 0;
  int samples_ = 0;
};

}  // namespace perfbench
