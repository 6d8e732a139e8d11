// sharded_drift: the batch pipeline's fleet layer. A streamed rotating hot
// set (n = 10^4, k = 3) is served by run_trace_sharded_stream over S = 4
// hash shards, with hot-pair rebalancing, split/merge watermarks 1.5 / 0.5
// (at most 8 shards) and one scripted shard kill halfway through, recovered
// by snapshot restore plus tail replay.
//
// The end-to-end run times the engine's sequential drain, in CPU time. The
// concurrent drain at Executor width 4 runs in the traced run, where its
// counters are checked and its wall time gives sim.parallel_efficiency: on
// a shared 4-vCPU host every drain chunk waits for its slowest worker, so a
// worker descheduled by another tenant stalls the whole epoch: throughput
// and epoch-cycle times spread by 0.24-0.45 of their median between runs
// of the same code at width 4, and by 0.10-0.17 at width 2.
//
// The untraced sample is one opaque call; its input stream is wrapped to
// time the generator and the interval between fill() calls (one epoch
// cycle: drain plus barrier). The traced sample re-drives the same run
// sequentially through the public calls the engine is built from —
// partition_trace, the shards' path_info / splay_until_parent / access,
// RebalanceState, apply_migrations, split_shard / merge_shards,
// snapshot_shard / restore_shard — times each, and must reproduce the
// untraced run's counters exactly (the engine's costs are independent of
// the drain mode and thread count).
#include <algorithm>
#include <string>

#include "common.hpp"
#include "sim/sharded_network.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

constexpr int kNodes = 10'000;
constexpr int kArity = 3;
constexpr int kShards = 4;
constexpr int kThreads = 4;
constexpr std::size_t kRequests = 500'000;

san::RebalanceConfig rebalance_config() {
  san::RebalanceConfig cfg;
  cfg.policy = san::RebalancePolicy::kHotPair;
  cfg.split_watermark = 1.5;
  cfg.merge_watermark = 0.5;
  cfg.max_shards = 8;
  return cfg;
}

san::FaultPlan fault_plan() {
  san::FaultPlan plan;
  plan.kills.push_back(
      san::FaultEvent{kRequests / 2 + 1000, 1, san::FaultKind::kShardKill});
  return plan;
}

san::ShardedNetwork fresh_network() {
  return san::ShardedNetwork::balanced(kArity, kNodes, kShards,
                                       san::ShardPartition::kHash);
}

constexpr int kSetupsPerSample = 5;

/// One sample's inputs and network.
struct Setup {
  explicit Setup(std::uint64_t seed)
      : workload(san::WorkloadKind::kRotatingHot, kNodes, kRequests, seed),
        stream(workload),
        build_start(cpu_seconds()),
        net(fresh_network()),
        build_s(cpu_seconds() - build_start) {}

  san::StreamingWorkload workload;
  TimedStream stream;
  double build_start;
  san::ShardedNetwork net;
  double build_s;
};

bool fleet_valid(const san::ShardedNetwork& net) {
  for (int s = 0; s < net.num_shards(); ++s)
    if (!net.shard(s).tree().valid()) return false;
  return true;
}

/// The counters the re-drive must reproduce.
std::vector<std::pair<std::string, san::Cost>> counters(
    const san::SimResult& r) {
  return {{"requests", static_cast<san::Cost>(r.requests)},
          {"routing_cost", r.routing_cost},
          {"rotation_count", r.rotation_count},
          {"edge_changes", r.edge_changes},
          {"cross_shard", r.cross_shard},
          {"rebalance_epochs", r.rebalance_epochs},
          {"migrations", r.migrations},
          {"migration_cost", r.migration_cost},
          {"shard_splits", r.shard_splits},
          {"shard_merges", r.shard_merges},
          {"lifecycle_cost", r.lifecycle_cost},
          {"faults_injected", r.faults_injected},
          {"recovery_replayed", r.recovery_replayed},
          {"recovery_cost", r.recovery_cost},
          {"final_shards", r.final_shards}};
}

std::size_t fill_exact(san::RequestStream& stream,
                       std::span<san::Request> out) {
  std::size_t have = 0;
  while (have < out.size()) {
    const std::size_t got = stream.fill(out.subspan(have));
    if (got == 0) break;
    have += got;
  }
  return have;
}

/// Self times of one traced re-drive, seconds.
struct Layers {
  double wall = 0, gen = 0, partition = 0, serve = 0, walk = 0, rotate = 0,
         plan = 0, migrate = 0, lifecycle = 0, recovery = 0, snapshot = 0;
  san::Cost hops = 0;  ///< path_info distances of intra-shard ops
  san::Cost core_cost = 0;  ///< hops + ascent levels + rotations
  std::size_t barriers = 0;
};

/// Cross/intra cost split of one drained slice (the engine prices
/// colocation with it).
struct Split {
  san::Cost cross_cost = 0, intra_cost = 0;
  std::size_t cross = 0, intra = 0;
  void add(const Split& o) {
    cross_cost += o.cross_cost;
    intra_cost += o.intra_cost;
    cross += o.cross;
    intra += o.intra;
  }
};

class Redrive {
 public:
  Redrive(std::uint64_t seed, const san::RebalanceConfig& cfg,
          const san::FaultPlan& faults)
      : net_(fresh_network()),
        workload_(san::WorkloadKind::kRotatingHot, kNodes, kRequests, seed),
        stream_(workload_),
        cfg_(cfg),
        kills_(faults.kills) {}

  san::SimResult run(Layers& t);
  const san::ShardedNetwork& net() const { return net_; }

 private:
  void serve_op(san::KArySplayNet& shard, const san::ShardOp& op,
                san::Cost& ascent_cost, Layers& t);
  Split drain(std::span<const san::Request> part, Layers& t);
  void snapshot_all(Layers& t);
  void recover(int shard, std::span<const san::Request> tail, Layers& t);

  san::ShardedNetwork net_;
  san::StreamingWorkload workload_;
  TimedStream stream_;
  san::RebalanceConfig cfg_;
  std::vector<san::FaultEvent> kills_;
  std::size_t next_kill_ = 0;
  std::vector<std::string> snaps_;
  san::SimResult res_;
};

void Redrive::serve_op(san::KArySplayNet& shard, const san::ShardOp& op,
                       san::Cost& ascent_cost, Layers& t) {
  san::ServeResult r;
  if (op.is_ascent()) {
    const auto t0 = Clock::now();
    r = shard.access(op.src);
    t.rotate += seconds_between(t0, Clock::now());
    ascent_cost += r.routing_cost + r.rotations;
  } else if (op.src != op.dst) {
    const san::KAryTree& tree = shard.tree();
    const auto t0 = Clock::now();
    const san::PathInfo path = tree.path_info(op.src, op.dst);
    const auto t1 = Clock::now();
    const san::ServeResult up =
        shard.splay_until_parent(op.src, tree.parent(path.lca));
    const san::ServeResult down = shard.splay_until_parent(op.dst, op.src);
    const auto t2 = Clock::now();
    t.walk += seconds_between(t0, t1);
    t.rotate += seconds_between(t1, t2);
    t.hops += path.distance;
    r.routing_cost = path.distance;
    r.rotations = up.rotations + down.rotations;
    r.edge_changes = up.edge_changes + down.edge_changes;
  }
  res_.routing_cost += r.routing_cost;
  res_.rotation_count += r.rotations;
  res_.edge_changes += r.edge_changes;
  t.core_cost += r.routing_cost + r.rotations;
}

Split Redrive::drain(std::span<const san::Request> part, Layers& t) {
  const auto t0 = Clock::now();
  const san::PartitionedTrace pt = san::partition_trace(part, net_.map());
  const auto t1 = Clock::now();
  t.partition += seconds_between(t0, t1);
  const int S = net_.num_shards();
  san::Cost total = 0, ascents = 0;
  for (int s = 0; s < S; ++s) {
    const san::Cost before = res_.routing_cost + res_.rotation_count;
    for (const san::ShardOp& op : pt.ops[static_cast<std::size_t>(s)])
      serve_op(net_.shard(s), op, ascents, t);
    total += res_.routing_cost + res_.rotation_count - before;
  }
  t.serve += seconds_between(t1, Clock::now());
  Split split;
  split.cross_cost = ascents;
  for (int a = 0; a < S; ++a)
    for (int b = 0; b < S; ++b) {
      const std::size_t pairs =
          pt.cross_pairs[static_cast<std::size_t>(a * S + b)];
      const san::Cost legs =
          static_cast<san::Cost>(pairs) * net_.top_distance(a, b);
      res_.routing_cost += legs;
      split.cross_cost += legs;
    }
  split.intra_cost = total - ascents;
  split.cross = pt.cross_requests;
  split.intra = pt.total_requests - pt.cross_requests;
  res_.cross_shard += static_cast<san::Cost>(pt.cross_requests);
  return split;
}

void Redrive::snapshot_all(Layers& t) {
  if (next_kill_ >= kills_.size()) return;
  const auto t0 = Clock::now();
  snaps_.resize(static_cast<std::size_t>(net_.num_shards()));
  for (int s = 0; s < net_.num_shards(); ++s)
    snaps_[static_cast<std::size_t>(s)] = net_.snapshot_shard(s);
  t.snapshot += seconds_between(t0, Clock::now());
}

void Redrive::recover(int shard, std::span<const san::Request> tail,
                      Layers& t) {
  const auto t0 = Clock::now();
  ++res_.faults_injected;
  net_.restore_shard(shard, snaps_[static_cast<std::size_t>(shard)]);
  const san::PartitionedTrace pt = san::partition_trace(tail, net_.map());
  san::KArySplayNet& tree = net_.shard(shard);
  for (const san::ShardOp& op : pt.ops[static_cast<std::size_t>(shard)]) {
    const san::ServeResult r =
        op.is_ascent() ? tree.access(op.src) : tree.serve(op.src, op.dst);
    res_.recovery_cost += r.routing_cost + r.rotations;
    ++res_.recovery_replayed;
  }
  t.recovery += seconds_between(t0, Clock::now());
}

san::SimResult Redrive::run(Layers& t) {
  const auto start = Clock::now();
  san::RebalanceState state(cfg_);
  const san::RebalanceCostHints base_hints = net_.cost_hints();
  const double decay = cfg_.window_decay;
  double cross_cost = 0, intra_cost = 0, cross_reqs = 0, intra_reqs = 0;
  std::vector<san::Request> buf(cfg_.epoch_requests);
  while (true) {
    const std::size_t got = fill_exact(stream_, buf);
    if (got == 0) break;
    const std::span<const san::Request> chunk(buf.data(), got);
    snapshot_all(t);
    // Split the chunk at scripted kills, exactly where the engine does.
    Split split;
    std::size_t done = 0;
    while (next_kill_ < kills_.size()) {
      const san::FaultEvent& kill = kills_[next_kill_];
      if (kill.at_request > res_.requests + got) break;
      const std::size_t rel = kill.at_request - res_.requests;
      const auto tail = chunk.subspan(done, rel - done);
      if (!tail.empty()) split.add(drain(tail, t));
      recover(kill.shard, tail, t);
      ++next_kill_;
      snapshot_all(t);
      done = rel;
    }
    if (done < got) split.add(drain(chunk.subspan(done), t));
    res_.requests += got;
    if (res_.requests >= kRequests || got < cfg_.epoch_requests) break;

    // Epoch barrier: observe, plan, migrate, then split or merge.
    ++t.barriers;
    const auto b0 = Clock::now();
    cross_cost = cross_cost * decay + static_cast<double>(split.cross_cost);
    intra_cost = intra_cost * decay + static_cast<double>(split.intra_cost);
    cross_reqs = cross_reqs * decay + static_cast<double>(split.cross);
    intra_reqs = intra_reqs * decay + static_cast<double>(split.intra);
    for (const san::Request& r : chunk) state.observe(r, net_.map());
    san::RebalanceCostHints hints = base_hints;
    if (cross_reqs > 0.0 && intra_reqs > 0.0)
      hints.cross_penalty =
          std::max(0.0, cross_cost / cross_reqs - intra_cost / intra_reqs);
    san::RebalancePlan plan = state.epoch(net_.map(), hints);
    const auto b1 = Clock::now();
    t.plan += seconds_between(b0, b1);
    if (plan.triggered) {
      ++res_.rebalance_epochs;
      if (!plan.migrations.empty()) {
        const san::MigrationResult applied =
            net_.apply_migrations(std::move(plan.migrations));
        res_.migrations += applied.migrated;
        res_.migration_cost += applied.total_cost();
      }
    }
    const auto b2 = Clock::now();
    t.migrate += seconds_between(b1, b2);
    if (plan.split_shard >= 0 && net_.map().shard_size(plan.split_shard) >= 2) {
      res_.lifecycle_cost += net_.split_shard(plan.split_shard).total_cost();
      ++res_.shard_splits;
    } else if (plan.merge_from >= 0) {
      res_.lifecycle_cost +=
          net_.merge_shards(plan.merge_into, plan.merge_from).total_cost();
      ++res_.shard_merges;
    }
    t.lifecycle += seconds_between(b2, Clock::now());
  }
  res_.final_shards = net_.num_shards();
  t.gen = stream_.gen_seconds();
  t.wall = seconds_between(start, Clock::now());
  return res_;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= sorted.size()) return sorted.back();
  return sorted[i] + (pos - static_cast<double>(i)) * (sorted[i + 1] - sorted[i]);
}

/// Every sample replays the same epochs (same seed, fresh network), so
/// cycle i of one sample does the same work as cycle i of another. The
/// profile takes each cycle's median over the samples, which drops a cycle
/// that a host stall hit in one sample, and returns the profile sorted.
/// Samples whose cycle counts differ are pooled instead.
std::vector<double> cycle_profile(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  const std::size_t len = samples.empty() ? 0 : samples.front().size();
  const bool aligned = std::all_of(
      samples.begin(), samples.end(),
      [&](const std::vector<double>& c) { return c.size() == len; });
  if (aligned) {
    for (std::size_t i = 0; i < len; ++i) {
      std::vector<double> at;
      for (const auto& c : samples) at.push_back(c[i]);
      out.push_back(median(at));
    }
  } else {
    for (const auto& c : samples) out.insert(out.end(), c.begin(), c.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void run_sharded_drift(const Args& args, Report& report) {
  const san::RebalanceConfig cfg = rebalance_config();
  const san::FaultPlan faults = fault_plan();
  san::ShardedRunOptions opt;
  opt.threads = kThreads;
  opt.rebalance = &cfg;
  opt.faults = &faults;
  opt.sequential = !args.trace;

  // Epoch-cycle times of every measured sample, ms: CPU time in the
  // end-to-end run, wall time of the concurrent drain in the traced run.
  std::vector<std::vector<double>> cycles_ms;
  std::vector<double> setup_s, build_s, run_s, sequential_s, cycle_max_ms;
  std::vector<Layers> layers;
  san::SimResult reference;
  bool have_reference = false, valid = true;
  int repeat_mismatches = 0, redrive_mismatches = 0;
  std::string mismatch_detail;
  std::size_t attempted = 0;

  const auto compare = [&](const san::SimResult& r, int& mismatches) {
    if (!have_reference) {
      reference = r;
      have_reference = true;
      return;
    }
    const auto a = counters(reference), b = counters(r);
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i].second != b[i].second) {
        ++mismatches;
        mismatch_detail = a[i].first + ": " + std::to_string(a[i].second) +
                          " vs " + std::to_string(b[i].second);
        return;
      }
  };

  const int samples = run_samples(args, 2, [&](bool measured, bool traced) {
    if (traced) {
      Layers t;
      Redrive redrive(args.seed, cfg, faults);
      const san::SimResult r = redrive.run(t);
      valid = valid && fleet_valid(redrive.net());
      compare(r, redrive_mismatches);
      layers.push_back(t);
      attempted += r.requests;
      return;
    }
    std::vector<double> setups, builds;
    const std::unique_ptr<Setup> s =
        set_up<Setup>(kSetupsPerSample, setups, builds, args.seed);
    const double c2 = cpu_seconds();
    const auto t2 = Clock::now();
    const san::SimResult r =
        san::run_trace_sharded_stream(s->net, s->stream, opt);
    const auto t3 = Clock::now();
    const double c3 = cpu_seconds();
    valid = valid && fleet_valid(s->net);
    compare(r, repeat_mismatches);
    if (!measured) return;
    attempted += r.requests;
    setup_s.insert(setup_s.end(), setups.begin(), setups.end());
    build_s.insert(build_s.end(), builds.begin(), builds.end());
    // Cycle i runs from the start of fill() call i to the next one (the
    // last to the end of the run).
    std::vector<double> at;
    if (args.trace) {
      run_s.push_back(seconds_between(t2, t3));
      for (const auto& start : s->stream.fill_starts())
        at.push_back(seconds_between(t2, start));
      at.push_back(seconds_between(t2, t3));
    } else {
      run_s.push_back(c3 - c2);
      for (double start : s->stream.fill_cpu_starts()) at.push_back(start);
      at.push_back(c3);
    }
    std::vector<double> cycles;
    for (std::size_t i = 0; i + 1 < at.size(); ++i)
      cycles.push_back(1e3 * (at[i + 1] - at[i]));
    cycle_max_ms.push_back(*std::max_element(cycles.begin(), cycles.end()));
    cycles_ms.push_back(std::move(cycles));
    if (args.trace) {
      // The engine's own sequential drain: the untraced baseline the
      // sequential re-drive is compared with.
      san::StreamingWorkload again(san::WorkloadKind::kRotatingHot, kNodes,
                                   kRequests, args.seed);
      san::ShardedNetwork seq_net = fresh_network();
      san::ShardedRunOptions seq = opt;
      seq.sequential = true;
      const auto t4 = Clock::now();
      compare(san::run_trace_sharded_stream(seq_net, again, seq),
              repeat_mismatches);
      sequential_s.push_back(seconds_between(t4, Clock::now()));
      valid = valid && fleet_valid(seq_net);
    }
  });

  report.attempted = attempted;
  report.check("trees_validate", valid,
               "every shard tree passes validate() after its run");
  report.check("counters_repeat", repeat_mismatches == 0,
               repeat_mismatches == 0
                   ? "every untraced sample identical, sequential drains too"
                                      : mismatch_detail);
  report.check("redrive_matches_engine", redrive_mismatches == 0,
               redrive_mismatches == 0
                   ? "traced re-drive counters == run_trace_sharded_stream's"
                   : mismatch_detail);
  report.check("fault_fired", reference.faults_injected == 1,
               "the scripted shard kill fired once");

  const double m = static_cast<double>(kRequests);
  const std::vector<double> profile = cycle_profile(cycles_ms);
  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("build_s", median(build_s), "s");
    report.metric("req_per_s", m / median(run_s), "1/s");
    report.info("raw_run_cpu_s", json_array(run_s));
    report.metric("cost_per_req",
                  static_cast<double>(reference.grand_total_cost()) / m,
                  "cost/req");
    report.metric("p50_us", quantile_sorted(profile, 0.50) * 1e3, "us");
    report.metric("p99_us", quantile_sorted(profile, 0.99) * 1e3, "us");
    report.info("raw_cycle_profile_ms", json_array(profile));
  } else {
    const auto med = [&](double Layers::*field) {
      std::vector<double> v;
      for (const Layers& l : layers) v.push_back(l.*field);
      return median(v);
    };
    const Layers& l0 = layers.front();
    const double wall = med(&Layers::wall);
    const double attributed =
        med(&Layers::gen) + med(&Layers::partition) + med(&Layers::serve) +
        med(&Layers::plan) + med(&Layers::migrate) + med(&Layers::lifecycle) +
        med(&Layers::recovery) + med(&Layers::snapshot);
    // Caller-side work runs serially in both drain modes; what remains of
    // the untraced wall is the concurrent drain.
    const double caller = attributed - med(&Layers::serve);
    const double drain = median(run_s) - caller;
    report.metric("core.walk_ns_per_req", med(&Layers::walk) * 1e9 / m, "ns");
    report.metric("core.walk_ns_per_hop",
                  med(&Layers::walk) * 1e9 / static_cast<double>(l0.hops),
                  "ns");
    report.metric("core.walk_share", med(&Layers::walk) / wall, "fraction");
    report.metric("core.rotate_ns_per_rotation",
                  med(&Layers::rotate) * 1e9 /
                      static_cast<double>(reference.rotation_count),
                  "ns");
    report.metric("core.rotate_share", med(&Layers::rotate) / wall,
                  "fraction");
    report.metric("core.rotations_per_req",
                  static_cast<double>(reference.rotation_count) / m, "count");
    report.metric("core.ns_per_cost_unit",
                  (med(&Layers::walk) + med(&Layers::rotate)) * 1e9 /
                      static_cast<double>(l0.core_cost),
                  "ns");
    report.metric("workload.gen_ns_per_req", med(&Layers::gen) * 1e9 / m,
                  "ns");
    report.metric("workload.partition_ns_per_req",
                  med(&Layers::partition) * 1e9 / m, "ns");
    report.metric("workload.plan_ms_per_epoch",
                  med(&Layers::plan) * 1e3 / static_cast<double>(l0.barriers),
                  "ms");
    report.metric("sim.epoch_cycle_ms_p50", quantile_sorted(profile, 0.50),
                  "ms");
    report.metric("sim.epoch_cycle_ms_max", median(cycle_max_ms), "ms");
    report.metric("sim.serve_ns_per_req", med(&Layers::serve) * 1e9 / m, "ns");
    report.metric("sim.migrate_ms_total", med(&Layers::migrate) * 1e3, "ms");
    report.metric("sim.migrations",
                  static_cast<double>(reference.migrations), "count");
    report.metric("sim.migration_cost",
                  static_cast<double>(reference.migration_cost), "cost");
    report.metric("sim.lifecycle_ms_total", med(&Layers::lifecycle) * 1e3,
                  "ms");
    report.metric("sim.splits", static_cast<double>(reference.shard_splits),
                  "count");
    report.metric("sim.merges", static_cast<double>(reference.shard_merges),
                  "count");
    report.metric("sim.final_shards",
                  static_cast<double>(reference.final_shards), "count");
    report.metric("sim.recovery_ms", med(&Layers::recovery) * 1e3, "ms");
    report.metric("sim.snapshot_ms_total", med(&Layers::snapshot) * 1e3,
                  "ms");
    report.metric("sim.recovery_replayed",
                  static_cast<double>(reference.recovery_replayed), "count");
    report.metric("sim.cross_fraction",
                  static_cast<double>(reference.cross_shard) / m, "fraction");
    report.metric("sim.parallel_efficiency",
                  med(&Layers::serve) / (kThreads * drain), "fraction");
    report.metric("sim.unattributed_frac", (wall - attributed) / wall,
                  "fraction");
    report.metric("trace.overhead_frac", wall / median(sequential_s) - 1.0,
                  "fraction");
  }
  report.info("threads", "{\"drain\": " +
                             std::to_string(args.trace ? kThreads : 1) +
                             ", \"barrier\": 1, \"traced_redrive\": 1}");
  report.info("samples", std::to_string(samples));
  report.info("params",
              "{\"n\": 10000, \"k\": 3, \"m\": " + std::to_string(kRequests) +
                  ", \"shards\": 4, \"max_shards\": 8, \"epoch\": " +
                  std::to_string(cfg.epoch_requests) + "}");
}

}  // namespace perfbench
