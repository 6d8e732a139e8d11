#include "online.hpp"

#include <string>

namespace perfbench {

OnlineSample replay_untraced(san::KArySplayNet& net, const san::Trace& trace) {
  OnlineSample s;
  san::LatencyHistogram latency;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  auto prev = start;
  for (const san::Request& r : trace.requests) {
    const san::ServeResult res = net.serve(r.src, r.dst);
    const auto now = Clock::now();
    latency.record(ns_between(prev, now));
    prev = now;
    s.routing += res.routing_cost;
    s.rotations += res.rotations;
    mix_result(s.digest, res);
  }
  s.seconds = seconds_between(start, Clock::now());
  s.cpu_seconds = cpu_seconds() - cpu_start;
  s.p50_ns = interpolated_quantile(latency, 0.50);
  s.p99_ns = interpolated_quantile(latency, 0.99);
  return s;
}

OnlineSample replay_traced(san::KArySplayNet& net, const san::Trace& trace) {
  OnlineSample s;
  const san::KAryTree& tree = net.tree();
  std::uint64_t walk_ns = 0, rotate_ns = 0;
  const auto start = Clock::now();
  for (const san::Request& r : trace.requests) {
    san::ServeResult res;
    if (r.src != r.dst) {
      const auto t0 = Clock::now();
      const san::PathInfo path = tree.path_info(r.src, r.dst);
      const auto t1 = Clock::now();
      const san::ServeResult up =
          net.splay_until_parent(r.src, tree.parent(path.lca));
      const san::ServeResult down = net.splay_until_parent(r.dst, r.src);
      const auto t2 = Clock::now();
      walk_ns += ns_between(t0, t1);
      rotate_ns += ns_between(t1, t2);
      res.routing_cost = path.distance;
      res.rotations = up.rotations + down.rotations;
      res.parent_changes = up.parent_changes + down.parent_changes;
      res.edge_changes = up.edge_changes + down.edge_changes;
    }
    s.routing += res.routing_cost;
    s.rotations += res.rotations;
    mix_result(s.digest, res);
  }
  s.seconds = seconds_between(start, Clock::now());
  s.walk_s = static_cast<double>(walk_ns) * 1e-9;
  s.rotate_s = static_cast<double>(rotate_ns) * 1e-9;
  return s;
}

void OnlineSeries::add(const OnlineSample& s, bool traced,
                       std::size_t requests) {
  requests_ = requests;
  ++samples_;
  if (!have_first_) {
    routing_ = s.routing;
    rotations_ = s.rotations;
    digest_ = s.digest;
    have_first_ = true;
  } else if (s.routing != routing_ || s.rotations != rotations_ ||
             s.digest != digest_) {
    ++mismatches_;
  }
  if (traced) {
    traced_s_.push_back(s.seconds);
    walk_s_.push_back(s.walk_s);
    rotate_s_.push_back(s.rotate_s);
  } else {
    plain_s_.push_back(s.seconds);
    plain_cpu_s_.push_back(s.cpu_seconds);
    p50_ns_.push_back(s.p50_ns);
    p99_ns_.push_back(s.p99_ns);
  }
}

void OnlineSeries::report_end_to_end(Report& report) const {
  const double m = static_cast<double>(requests_);
  report.metric("req_per_s", m / median(plain_cpu_s_), "1/s");
  report.metric("cost_per_req", static_cast<double>(routing_ + rotations_) / m,
                "cost/req");
  report.metric("p50_us", median(p50_ns_) / 1e3, "us");
  report.metric("p99_us", median(p99_ns_) / 1e3, "us");
  report.info("raw_online_cpu_s", json_array(plain_cpu_s_));
  report.info("raw_online_wall_s", json_array(plain_s_));
  report.info("raw_p99_ns", json_array(p99_ns_));
}

void OnlineSeries::report_layers(Report& report) const {
  const double m = static_cast<double>(requests_);
  const double walk = median(walk_s_), rotate = median(rotate_s_);
  const double traced = median(traced_s_), plain = median(plain_s_);
  report.metric("core.walk_ns_per_req", walk * 1e9 / m, "ns");
  report.metric("core.walk_ns_per_hop",
                walk * 1e9 / static_cast<double>(routing_), "ns");
  report.metric("core.walk_share", walk / traced, "fraction");
  report.metric("core.rotate_ns_per_rotation",
                rotate * 1e9 / static_cast<double>(rotations_), "ns");
  report.metric("core.rotate_share", rotate / traced, "fraction");
  report.metric("core.rotations_per_req",
                static_cast<double>(rotations_) / m, "count");
  report.metric("core.ns_per_cost_unit",
                plain * 1e9 / static_cast<double>(routing_ + rotations_),
                "ns");
  report.metric("trace.overhead_frac", traced / plain - 1.0, "fraction");
}

void OnlineSeries::report_checks(Report& report) const {
  report.check("online_results_repeat", mismatches_ == 0,
               std::to_string(samples_) + " samples, " +
                   std::to_string(mismatches_) +
                   " differ from the first (traced samples included: the "
                   "decomposed serve must equal serve())");
}

}  // namespace perfbench
