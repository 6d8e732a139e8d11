// frontend_hotpair: the live open-loop server, traced as a layer in the
// traced run of sharded_drift (its sojourn percentiles follow the load
// other tenants put on a shared host too closely to gate).
// ServeFrontend::run_stream
// serves a Facebook-like stream (n = 10^4, k = 3) over S = 2 hash shards
// (dispatcher plus two workers), with hot-pair rebalancing at quiesce
// barriers and no lifecycle watermarks, under the lossless kBlock queue
// policy and Poisson arrivals at a fixed 40k requests/s. Latency is the
// sojourn from each request's intended arrival time.
//
// The rate leaves the two workers enough headroom that the tail follows
// the barrier pauses and not the backlog they leave behind. On a shared
// 4-core host whose speed varies about twofold over time, 150k requests/s
// gave per-run p99s from 6 to 56 ms, and even 75k let backlogs build in
// the slow periods (p99 spread over a third of the median across runs).
//
// The traced sample wraps the arrival schedule and the request stream: the
// time of every ArrivalSchedule::next() call shows how late the dispatcher
// ran and how long it paused at each epoch barrier.
#include <algorithm>
#include <string>

#include "common.hpp"
#include "sim/serve_frontend.hpp"

namespace perfbench {
namespace {

constexpr int kNodes = 10'000;
constexpr int kArity = 3;
constexpr int kShards = 2;
constexpr double kRate = 40'000.0;
constexpr std::size_t kRequests = 100'000;  ///< 2.5 s per sample
/// A run whose last request completes this long after it was due fell
/// behind the offered rate and is invalid.
constexpr double kMaxBacklogSeconds = 0.5;

/// Records when the dispatcher asks for each arrival time, and how much of
/// the gap since the previous call went into pulling requests.
class TracedSchedule final : public san::ArrivalSchedule {
 public:
  TracedSchedule(san::ArrivalSchedule& inner, TimedStream& stream,
                 std::size_t expected)
      : inner_(inner), stream_(stream) {
    calls_.reserve(expected);
    due_.reserve(expected);
    fill_ns_.reserve(expected);
  }

  std::uint64_t next() override {
    calls_.push_back(Clock::now());
    fill_ns_.push_back(
        static_cast<std::uint32_t>(stream_.take_gen_seconds() * 1e9));
    const std::uint64_t due = inner_.next();
    due_.push_back(due);
    return due;
  }

  std::vector<Clock::time_point> calls_;
  std::vector<std::uint64_t> due_;
  std::vector<std::uint32_t> fill_ns_;

 private:
  san::ArrivalSchedule& inner_;
  TimedStream& stream_;
};

/// One sample's inputs, network and frontend.
struct Setup {
  Setup(std::uint64_t seed, bool traced)
      : workload(san::WorkloadKind::kFacebook, kNodes, kRequests, seed),
        stream(workload),
        arrivals(san::ArrivalKind::kPoisson, kRate, seed),
        schedule(arrivals, stream, traced ? kRequests : 0),
        rebalance(hot_pair()),
        net(san::ShardedNetwork::balanced(kArity, kNodes, kShards,
                                          san::ShardPartition::kHash)),
        frontend(net, options(&rebalance)) {}

  static san::RebalanceConfig hot_pair() {
    san::RebalanceConfig cfg;
    cfg.policy = san::RebalancePolicy::kHotPair;
    return cfg;
  }
  static san::FrontendOptions options(const san::RebalanceConfig* cfg) {
    san::FrontendOptions opt;
    opt.rebalance = cfg;
    return opt;
  }

  san::StreamingWorkload workload;
  TimedStream stream;
  san::StreamingArrivalSchedule arrivals;
  TracedSchedule schedule;
  san::RebalanceConfig rebalance;
  san::ShardedNetwork net;
  san::ServeFrontend frontend;
};

struct Sample {
  san::FrontendResult result;
  bool valid = true;
  // Traced only.
  std::vector<double> pauses_ms;
  san::LatencyHistogram late;
};

Sample run_once(std::uint64_t seed, bool traced) {
  Sample s;
  const auto su = std::make_unique<Setup>(seed, traced);
  TimedStream& stream = su->stream;
  TracedSchedule& schedule = su->schedule;
  s.result = traced ? su->frontend.run_stream(stream, schedule)
                    : su->frontend.run_stream(stream, su->arrivals);
  for (int sh = 0; sh < su->net.num_shards(); ++sh)
    s.valid = s.valid && su->net.shard(sh).tree().valid();
  if (!traced) return s;

  // Lateness of request i: when the dispatcher came back for request i+1,
  // measured against request i's intended arrival. The run's clock starts
  // just before the first pull of requests.
  const auto origin = stream.fill_starts().front();
  const auto& calls = schedule.calls_;
  const auto& due = schedule.due_;
  for (std::size_t i = 0; i + 1 < calls.size(); ++i) {
    const double at = static_cast<double>(ns_between(origin, calls[i + 1]));
    s.late.record(static_cast<std::uint64_t>(
        std::max(0.0, at - static_cast<double>(due[i]))));
  }
  // The pause at each epoch boundary: from when the boundary's request
  // was due (or dispatched, if late) to the next arrival pull, less the
  // time spent pulling requests in between.
  const std::size_t epoch = su->rebalance.epoch_requests;
  for (std::size_t c = epoch; c < calls.size(); c += epoch) {
    const double prev_due_ns = static_cast<double>(due[c - 1]);
    const double prev_call_ns =
        static_cast<double>(ns_between(origin, calls[c - 1]));
    const double now_ns = static_cast<double>(ns_between(origin, calls[c]));
    const double pause_ns = now_ns - std::max(prev_due_ns, prev_call_ns) -
                            static_cast<double>(schedule.fill_ns_[c]);
    s.pauses_ms.push_back(std::max(0.0, pause_ns) / 1e6);
  }
  return s;
}

}  // namespace

void run_frontend_hotpair(const Args& args, Report& report) {
  // Every latency figure is a median over samples of each sample's own
  // percentile, so one sample hit by a host stall cannot move it.
  std::vector<double> cost, handover, forwards, blocks, route_epochs,
      migrations, p50_us, p99_us, p999_us, wait50_us, wait99_us,
      traced_p50_us, late99_us, pause_total_ms, pause_max_ms, barriers;
  std::size_t offered = 0, shed = 0, latency_samples = 0;
  bool valid = true, conserved = true, kept_pace = true;
  std::string pace_detail = "every run finished within " +
                            json_number(kMaxBacklogSeconds) +
                            " s of its last arrival";
  const auto us = [](const san::LatencyHistogram& h, double q) {
    return interpolated_quantile(h, q) / 1e3;
  };

  const int samples = run_samples(args, 2, [&](bool measured, bool traced) {
    const Sample s = run_once(args.seed, traced);
    const san::FrontendResult& r = s.result;
    const std::size_t served = r.sojourn.count();
    valid = valid && s.valid;
    conserved = conserved && r.sim.requests == kRequests &&
                served + static_cast<std::size_t>(r.sim.shed_requests) ==
                    r.sim.requests;
    const double last_due_s =
        static_cast<double>(r.sim.requests) / r.offered_rate;
    if (r.elapsed_seconds - last_due_s > kMaxBacklogSeconds) {
      kept_pace = false;
      pace_detail = "fell behind: last completion " +
                    json_number(r.elapsed_seconds - last_due_s) +
                    " s after the last arrival";
    }
    if (!measured) return;
    offered += r.sim.requests;
    shed += static_cast<std::size_t>(r.sim.shed_requests);
    if (traced) {
      traced_p50_us.push_back(us(r.sojourn, 0.50));
      late99_us.push_back(us(s.late, 0.99));
      double total = 0.0, worst = 0.0;
      for (double p : s.pauses_ms) {
        total += p;
        worst = std::max(worst, p);
      }
      pause_total_ms.push_back(total);
      pause_max_ms.push_back(worst);
      barriers.push_back(static_cast<double>(s.pauses_ms.size()));
      return;
    }
    latency_samples += served;
    p50_us.push_back(us(r.sojourn, 0.50));
    p99_us.push_back(us(r.sojourn, 0.99));
    p999_us.push_back(us(r.sojourn, 0.999));
    wait50_us.push_back(us(r.queue_wait, 0.50));
    wait99_us.push_back(us(r.queue_wait, 0.99));
    cost.push_back(static_cast<double>(r.sim.total_cost()) /
                   static_cast<double>(served));
    handover.push_back(static_cast<double>(r.handovers) /
                       static_cast<double>(served));
    forwards.push_back(static_cast<double>(r.forwards));
    blocks.push_back(static_cast<double>(r.sim.queue_full_blocks));
    route_epochs.push_back(static_cast<double>(r.route_epochs));
    migrations.push_back(static_cast<double>(r.sim.migrations));
  });

  report.attempted = offered;
  report.failed = shed;
  report.check("trees_validate", valid,
               "every shard tree passes validate() after its run");
  report.check("served_plus_shed_equals_offered", conserved,
               "sojourn count + shed == offered == " +
                   std::to_string(kRequests) + " in every run");
  report.check("dispatcher_kept_pace", kept_pace, pace_detail);

  report.metric("frontend.sojourn_p50_us", median(p50_us), "us");
  report.metric("frontend.sojourn_p99_us", median(p99_us), "us");
  report.metric("frontend.sojourn_p999_us", median(p999_us), "us");
  report.metric("frontend.cost_per_req", median(cost), "cost/req");
  report.metric("frontend.queue_wait_p50_us", median(wait50_us), "us");
  report.metric("frontend.queue_wait_p99_us", median(wait99_us), "us");
  report.metric("frontend.barrier_pause_ms_total", median(pause_total_ms),
                "ms");
  report.metric("frontend.barrier_pause_ms_max", median(pause_max_ms), "ms");
  report.metric("frontend.barriers", median(barriers), "count");
  report.metric("frontend.dispatch_late_p99_us", median(late99_us), "us");
  report.metric("frontend.handover_fraction", median(handover), "fraction");
  report.metric("frontend.forwards", median(forwards), "count");
  report.metric("frontend.queue_full_blocks", median(blocks), "count");
  report.metric("frontend.route_epochs", median(route_epochs), "count");
  report.metric("frontend.migrations", median(migrations), "count");
  report.metric("frontend.trace_overhead_frac",
                median(traced_p50_us) / median(p50_us) - 1.0, "fraction");
  report.info("latency_samples", std::to_string(latency_samples));
  report.info("threads", "{\"dispatcher\": 1, \"workers\": " +
                             std::to_string(kShards) + "}");
  report.info("samples", std::to_string(samples));
  report.info("params", "{\"n\": 10000, \"k\": 3, \"m\": " +
                            std::to_string(kRequests) +
                            ", \"shards\": 2, \"rate\": " +
                            json_number(kRate) + "}");
}

}  // namespace perfbench
