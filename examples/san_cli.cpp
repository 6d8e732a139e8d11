// san_cli: run any workload x topology combination from the command line.
//
//   san_cli --workload hpc --topology ksplay --k 4 --n 500 --requests 100000
//   san_cli --trace mytrace.txt --topology centroid --k 2
//   san_cli --workload temporal075 --topology optimal --k 3 --dump-tree t.dot
//   san_cli --workload facebook --topology ksplay --shards 8 --partition hash
//   san_cli --workload elephants --shards 8 --rebalance hotpair --epoch 5000
//
// Workloads: uniform temporal025 temporal05 temporal075 temporal09 hpc
//            projector facebook elephants rotating seqscan bitrev, or
//            --trace FILE (san-trace v1) / --trace-v2 FILE (binary v2).
// Topologies: ksplay (k-ary SplayNet), semisplay (k-semi-splay only),
//             centroid ((k+1)-SplayNet), binary (classic SplayNet),
//             full (static complete k-ary), optimal (static demand-aware
//             DP over the whole trace — hindsight reference).
//
// One pipeline: one request source, two drivers, one report.
// - Source. The trace is materialized unless --stream is given; then a
//   generated workload is pulled on demand, or a --trace-v2 file is
//   mmapped and read in chunks, so memory stays O(chunk) at any m.
// - Sharded driver. --open-loop, --rebalance, the lifecycle flags
//   (--split-watermark/--merge-watermark/--replicas), --fault/--chaos-seed
//   and --stream serve on one ShardedNetwork of --shards S ksplay/semisplay
//   shards (S = 1 included), pulling from a RequestStream: the batched
//   pipeline (run_trace_sharded_stream), or under --open-loop the live
//   frontend (sim/serve_frontend.hpp) at a timed arrival schedule
//   (--arrival poisson|bursty|saturation, --rate R requests/s, --duration
//   T seconds sizes the run as R*T requests, overriding --requests).
// - Plain driver. Everything else replays request by request on any
//   topology (--shards S > 1 under a static top-level tree included) and
//   adds per-request cost percentiles; --schedule locality serves through
//   the batch engines instead, which report totals only.
// - Report. One metric/value table (--csv for CSV). Every SimResult
//   counter prints under its field name in one fixed order for every
//   mode, so any two modes' reports diff row by row; open-loop runs
//   append rates and sojourn/queue-wait percentiles in microseconds.
//   Rows that need the materialized trace print "-" under --stream, and
//   post_intra_fraction there counts dispatch-time intra-shard requests
//   instead of re-scanning the trace under the final shard map.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "io/trace_io.hpp"
#include "io/trace_v2.hpp"
#include "io/tree_io.hpp"
#include "sim/any_network.hpp"
#include "sim/fleet.hpp"
#include "sim/serve_frontend.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "static_trees/optimal_dp.hpp"
#include "stats/series.hpp"
#include "stats/table.hpp"
#include "workload/arrival.hpp"
#include "workload/demand_matrix.hpp"
#include "workload/generators.hpp"
#include "workload/partition.hpp"
#include "workload/streaming.hpp"
#include "workload/trace_stats.hpp"

namespace {

using namespace san;

struct Options {
  std::string workload = "temporal05";
  std::string trace_path;
  std::string trace_v2_path;
  bool stream = false;
  std::string topology = "ksplay";
  int k = 3;
  int n = 0;  // 0 = workload default
  int shards = 1;
  std::string partition = "contiguous";
  std::string rebalance = "none";
  std::size_t epoch = 5000;
  double split_watermark = 0.0;  // > 0 enables watermark-triggered splits
  double merge_watermark = 0.0;  // > 0 enables cold-shard merges
  int replicas = 0;              // planned read replicas
  std::string fault;         // fault script "[KIND:]IDX@SHARD[,...]"
  bool chaos = false;        // --chaos-seed given: generate the script
  std::uint64_t chaos_seed = 0;
  double recovery_slo = 0.0;     // ms; > 0 prints an SLO verdict
  std::string queue_policy = "block";  // frontend full-queue policy
  double deadline_ms = 0.0;            // per-request budget (deadline policy)
  double admit_rate = 0.0;             // token-bucket admission throttle
  std::string schedule = "fifo";
  int sched_window = 1024;
  std::size_t requests = 100000;
  std::uint64_t seed = 1;
  bool open_loop = false;
  std::string arrival = "poisson";
  double rate = 1e6;      // requests per second of the arrival schedule
  double duration = 0.0;  // seconds; > 0 sizes the trace as rate * duration
  std::string dump_tree;      // dot output path
  std::string dump_trace;     // san-trace v1 (text) output path
  std::string dump_trace_v2;  // san-trace v2 (binary) output path
  bool csv = false;
  bool optimal_gap = false;
};

// Hindsight optimality gap: cost of the Theorem 2 optimal static tree for
// the trace's own demand matrix, via the cost-only DP entry (no tree is
// materialized). Feasible well past the old n = 256 ceiling since the
// flat engine rewrite, but the DP's table footprint is O(n^2 k) — cap it
// so an interactive run cannot silently allocate gigabytes (k = 2 at
// n = 4096 is ~390 MB total and ~8 s; k = 10 at the same n would be
// ~1.7 GB of tables alone and is rejected).
constexpr int kMaxOptimalGapNodes = 4096;
constexpr std::size_t kMaxOptimalGapTableBytes = 1'200'000'000;

Cost optimal_cost_for(const Trace& trace, int k) {
  if (trace.n > kMaxOptimalGapNodes)
    throw TreeError("--optimal-gap supports n <= " +
                    std::to_string(kMaxOptimalGapNodes) + " (got n = " +
                    std::to_string(trace.n) + ")");
  const std::size_t tables = static_cast<std::size_t>(std::max(2, 3 * k - 5));
  const std::size_t cells =
      static_cast<std::size_t>(trace.n) * (trace.n + 1) / 2;
  if (tables * cells * sizeof(Cost) > kMaxOptimalGapTableBytes)
    throw TreeError(
        "--optimal-gap: DP tables for n = " + std::to_string(trace.n) +
        ", k = " + std::to_string(k) + " would exceed " +
        std::to_string(kMaxOptimalGapTableBytes / 1'000'000) +
        " MB; lower n or k");
  DemandMatrix d = DemandMatrix::from_trace(trace);
  return optimal_routing_based_cost(k, d, 0);
}

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--workload NAME | --trace FILE | --trace-v2 FILE] [--stream]\n"
         "          [--topology NAME] [--k K]\n"
         "          [--n N] [--requests M] [--seed S] [--csv]\n"
         "          [--shards S] [--partition contiguous|hash]\n"
         "          [--rebalance none|hotpair|watermark] [--epoch N]\n"
         "          [--split-watermark X] [--merge-watermark X]\n"
         "          [--replicas R] [--fault [KIND:]IDX@SHARD[,...]]\n"
         "          [--chaos-seed SEED] [--recovery-slo MS]\n"
         "          [--schedule fifo|locality] [--sched-window W]\n"
         "          [--open-loop] [--arrival poisson|bursty|saturation]\n"
         "          [--rate R] [--duration T]\n"
         "          [--queue-policy block|shed|deadline] [--deadline-ms D]\n"
         "          [--admit-rate R]\n"
         "          [--optimal-gap]\n"
         "          [--dump-tree FILE.dot] [--dump-trace FILE]\n"
         "          [--dump-trace-v2 FILE]\n"
         "workloads: uniform temporal025 temporal05 temporal075 temporal09\n"
         "           hpc projector facebook elephants rotating seqscan\n"
         "           bitrev\n"
         "topologies: ksplay semisplay centroid binary full optimal\n"
         "--shards > 1 runs ksplay/semisplay shards under a static top tree\n"
         "--rebalance adds adaptive migration epochs (needs --shards > 1)\n"
         "--split-watermark/--merge-watermark add tablet-style shard\n"
         "  lifecycle epochs (split the hot shard / merge the two coldest);\n"
         "  --replicas R keeps the R hottest shards read-replicated. Works\n"
         "  in the batch pipeline and under --open-loop, where splits spawn\n"
         "  workers and merges retire them mid-run\n"
         "--fault fires KIND (k = shard kill, the default; w = worker kill;\n"
         "  q = queue pressure) at shard SHARD when the request counter\n"
         "  reaches IDX; shard kills crash-recover (replica promotion, else\n"
         "  snapshot + replay). --chaos-seed generates a valid random script\n"
         "  instead (deterministic per seed);\n"
         "  --recovery-slo MS prints a pass/fail verdict on recovery time\n"
         "--queue-policy picks what a full frontend queue does (block is\n"
         "  lossless backpressure; shed drops; deadline sheds requests older\n"
         "  than --deadline-ms at admission and dequeue); --admit-rate R\n"
         "  arms a token-bucket admission throttle (open-loop only)\n"
         "--schedule locality reorders requests within --sched-window slots\n"
         "  by LCA cluster (per shard / admission batch);\n"
         "  costs are the honest costs of the permuted order — totals only,\n"
         "  no per-request percentiles. fifo (default) is bit-identical to\n"
         "  previous releases\n"
         "--open-loop serves through the live frontend at --rate req/s for\n"
         "  --duration seconds (ksplay/semisplay; composes with --shards\n"
         "  and --rebalance; reports sojourn p50/p99/p999 in us)\n"
         "--optimal-gap adds optimal-static-cost and grand-total / optimal\n"
         "  rows (exact Theorem 2 DP on the trace's demand matrix; n <= 4096)\n"
         "--trace-v2 reads the binary san-trace v2 format (io/trace_v2.hpp);\n"
         "  --dump-trace-v2 writes it\n"
         "--stream replays without materializing the trace: a generated\n"
         "  workload is pulled on demand, a --trace-v2 file is mmapped and\n"
         "  read in chunks, so memory stays O(chunk) at any request count\n"
         "  (ksplay/semisplay; composes with --shards, --rebalance, and\n"
         "  --open-loop; per-request percentiles and dumps unavailable)\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Counts parse signed and must fit their field: stoull would silently
    // wrap "-1" to 2^64 - 1, and a negative --n would mean "default".
    auto count = [&](auto& field) {
      using T = std::remove_reference_t<decltype(field)>;
      const long long v = std::stoll(next());
      if (v < 0 || !std::in_range<T>(v)) usage(argv[0]);
      field = static_cast<T>(v);
    };
    if (arg == "--workload") o.workload = next();
    else if (arg == "--trace") o.trace_path = next();
    else if (arg == "--trace-v2") o.trace_v2_path = next();
    else if (arg == "--stream") o.stream = true;
    else if (arg == "--topology") o.topology = next();
    else if (arg == "--k") o.k = std::stoi(next());
    else if (arg == "--n") count(o.n);
    else if (arg == "--shards") o.shards = std::stoi(next());
    else if (arg == "--partition") o.partition = next();
    else if (arg == "--rebalance") o.rebalance = next();
    else if (arg == "--epoch") count(o.epoch);
    else if (arg == "--split-watermark") o.split_watermark = std::stod(next());
    else if (arg == "--merge-watermark") o.merge_watermark = std::stod(next());
    else if (arg == "--replicas") count(o.replicas);
    else if (arg == "--fault") o.fault = next();
    else if (arg == "--chaos-seed") {
      o.chaos = true;
      o.chaos_seed = std::stoull(next());
    }
    else if (arg == "--recovery-slo") o.recovery_slo = std::stod(next());
    else if (arg == "--queue-policy") o.queue_policy = next();
    else if (arg == "--deadline-ms") o.deadline_ms = std::stod(next());
    else if (arg == "--admit-rate") o.admit_rate = std::stod(next());
    else if (arg == "--schedule") o.schedule = next();
    else if (arg == "--sched-window") o.sched_window = std::stoi(next());
    else if (arg == "--requests") count(o.requests);
    else if (arg == "--seed") o.seed = std::stoull(next());
    else if (arg == "--open-loop") o.open_loop = true;
    else if (arg == "--arrival") o.arrival = next();
    else if (arg == "--rate") o.rate = std::stod(next());
    else if (arg == "--duration") o.duration = std::stod(next());
    else if (arg == "--dump-tree") o.dump_tree = next();
    else if (arg == "--dump-trace") o.dump_trace = next();
    else if (arg == "--dump-trace-v2") o.dump_trace_v2 = next();
    else if (arg == "--csv") o.csv = true;
    else if (arg == "--optimal-gap") o.optimal_gap = true;
    else usage(argv[0]);
  }
  return o;
}

WorkloadKind parse_workload(const std::string& name) {
  static const std::map<std::string, WorkloadKind> kinds = {
      {"uniform", WorkloadKind::kUniform},
      {"temporal025", WorkloadKind::kTemporal025},
      {"temporal05", WorkloadKind::kTemporal05},
      {"temporal075", WorkloadKind::kTemporal075},
      {"temporal09", WorkloadKind::kTemporal09},
      {"hpc", WorkloadKind::kHpc},
      {"projector", WorkloadKind::kProjector},
      {"facebook", WorkloadKind::kFacebook},
      {"elephants", WorkloadKind::kPhaseElephants},
      {"rotating", WorkloadKind::kRotatingHot},
      {"seqscan", WorkloadKind::kSequentialScan},
      {"bitrev", WorkloadKind::kBitReversal},
  };
  auto it = kinds.find(name);
  if (it == kinds.end()) throw TreeError("unknown workload: " + name);
  return it->second;
}

// Rejects unknown policy names and a non-positive window at argument level
// so a typo fails fast instead of surfacing mid-run.
ScheduleConfig parse_schedule(const Options& o) {
  ScheduleConfig s;
  if (o.schedule == "fifo")
    s.policy = SchedulePolicy::kFifo;
  else if (o.schedule == "locality")
    s.policy = SchedulePolicy::kLocality;
  else
    throw TreeError("unknown schedule policy: " + o.schedule +
                    " (expected fifo|locality)");
  s.window = o.sched_window;
  s.validate();
  return s;
}

ShardPartition parse_partition(const std::string& name) {
  if (name == "contiguous") return ShardPartition::kContiguous;
  if (name == "hash") return ShardPartition::kHash;
  throw TreeError("unknown partition policy: " + name);
}

ArrivalKind parse_arrival(const std::string& name) {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "bursty") return ArrivalKind::kBursty;
  if (name == "saturation") return ArrivalKind::kSaturation;
  throw TreeError("unknown arrival process: " + name);
}

RebalancePolicy parse_rebalance(const std::string& name) {
  if (name == "none") return RebalancePolicy::kNone;
  if (name == "hotpair") return RebalancePolicy::kHotPair;
  if (name == "watermark") return RebalancePolicy::kWatermark;
  throw TreeError("unknown rebalance policy: " + name);
}

QueuePolicy parse_queue_policy(const std::string& name) {
  if (name == "block") return QueuePolicy::kBlock;
  if (name == "shed") return QueuePolicy::kShed;
  if (name == "deadline") return QueuePolicy::kDeadline;
  throw TreeError("unknown queue policy: " + name +
                  " (expected block|shed|deadline)");
}

// The flags parsed and cross-checked once, for every mode, before any
// request is generated or served.
struct Setup {
  ArrivalKind arrival{};
  ScheduleConfig sched;
  ShardPartition partition{};
  QueuePolicy queue_policy{};
  RebalanceConfig fleet;  // rebalance + lifecycle epochs
  bool epochs = false;    // fleet is active
  bool sharded = false;   // the sharded driver serves this run
};

Setup validate(Options& o) {
  Setup s;
  s.arrival = parse_arrival(o.arrival);
  s.sched = parse_schedule(o);
  s.partition = parse_partition(o.partition);
  s.queue_policy = parse_queue_policy(o.queue_policy);
  s.fleet.policy = parse_rebalance(o.rebalance);
  s.fleet.epoch_requests = o.epoch;
  s.fleet.split_watermark = o.split_watermark;
  s.fleet.merge_watermark = o.merge_watermark;
  s.fleet.replicas = o.replicas;
  s.epochs = s.fleet.policy != RebalancePolicy::kNone ||
             o.split_watermark > 0.0 || o.merge_watermark > 0.0 ||
             o.replicas > 0;
  s.sharded = o.open_loop || o.stream || s.epochs || !o.fault.empty() ||
              o.chaos;

  static const std::string kTopologies[] = {"ksplay", "semisplay", "centroid",
                                            "binary", "full",      "optimal"};
  if (std::ranges::find(kTopologies, o.topology) == std::end(kTopologies))
    throw TreeError("unknown topology: " + o.topology);
  if (o.shards < 1) throw TreeError("--shards needs S >= 1");
  if ((s.sharded || o.shards > 1) && o.topology != "ksplay" &&
      o.topology != "semisplay")
    throw TreeError(
        "--shards, --open-loop, --stream, --rebalance, the lifecycle flags "
        "and --fault need a ksplay or semisplay topology");
  if (s.fleet.policy != RebalancePolicy::kNone && o.shards <= 1)
    throw TreeError("--rebalance needs --shards > 1");
  if (s.epochs && o.epoch == 0)
    throw TreeError("--rebalance and the lifecycle flags need --epoch > 0");
  if (o.chaos && !o.fault.empty())
    throw TreeError("--fault and --chaos-seed are mutually exclusive");
  if (!o.trace_path.empty() && !o.trace_v2_path.empty())
    throw TreeError("--trace and --trace-v2 are mutually exclusive");
  if (!o.open_loop &&
      (o.queue_policy != "block" || o.deadline_ms > 0.0 || o.admit_rate > 0.0))
    throw TreeError(
        "--queue-policy/--deadline-ms/--admit-rate need --open-loop");
  if (o.open_loop && o.duration > 0.0) {
    if (s.arrival == ArrivalKind::kSaturation)
      throw TreeError("--duration needs --arrival poisson|bursty");
    if (o.rate <= 0.0) throw TreeError("--open-loop needs --rate > 0");
    const double m = o.rate * o.duration;
    if (!(m >= 1.0)) throw TreeError("--rate * --duration rounds to 0");
    if (m >= static_cast<double>(std::numeric_limits<std::size_t>::max()))
      throw TreeError("--rate * --duration is too large");
    o.requests = static_cast<std::size_t>(m);
  }
  if (o.stream) {
    if (!o.trace_path.empty())
      throw TreeError("--stream needs a generated workload or --trace-v2");
    if (!o.dump_tree.empty() || !o.dump_trace.empty() ||
        !o.dump_trace_v2.empty() || o.optimal_gap)
      throw TreeError(
          "--stream does not compose with dumps or --optimal-gap (they "
          "need the materialized trace)");
  }
  // binary SplayNet has its own representation; sharded runs have S trees.
  if (!o.dump_tree.empty() &&
      (s.sharded || o.shards > 1 || o.topology == "binary"))
    throw TreeError("--dump-tree is not supported for this topology");
  return s;
}

SplayMode splay_mode(const Options& o) {
  return o.topology == "semisplay" ? SplayMode::kSemiSplayOnly
                                   : SplayMode::kFullSplay;
}

// `opt_cost` receives the DP value when this factory already computed it
// (the "optimal" topology), so --optimal-gap does not re-run the O(n^3 k)
// forward pass a second time just to print the ratio 1.000.
AnyNetwork make_network(const Options& o, ShardPartition partition,
                        const Trace& trace, std::optional<Cost>& opt_cost) {
  const int n = trace.n;
  if (o.shards > 1)
    return ShardedNetwork::balanced(o.k, n, o.shards, partition,
                                    RotationPolicy{}, splay_mode(o));
  if (o.topology == "ksplay" || o.topology == "semisplay")
    return KArySplayNetwork(
        KArySplayNet::balanced(o.k, n, RotationPolicy{}, splay_mode(o)));
  if (o.topology == "centroid")
    return CentroidSplayNetwork(CentroidSplayNet(o.k, n));
  if (o.topology == "binary") return BinarySplayNetwork(n);
  if (o.topology == "full")
    return StaticTreeNetwork(full_kary_tree(o.k, n), "full tree");
  // "optimal": validate() admits no other topology name.
  DemandMatrix d = DemandMatrix::from_trace(trace);
  OptimalTreeResult r = optimal_routing_based_tree(o.k, d, 0);
  opt_cost = r.total_distance;
  return StaticTreeNetwork(std::move(r.tree), "optimal static tree");
}

// The final topology --dump-tree writes; validate() admits only the
// single-tree topologies here.
const KAryTree& tree_of(AnyNetwork& net) {
  if (auto* s = net.get_if<KArySplayNetwork>()) return s->net().tree();
  if (auto* c = net.get_if<CentroidSplayNetwork>()) return c->net().tree();
  return net.get_if<StaticTreeNetwork>()->tree();
}

// Every SimResult counter under its field name, in declaration order, then
// the derived totals: the one report every mode prints.
void add_counter_rows(Table& out, const SimResult& r) {
  const auto row = [&out](const char* name, auto value) {
    if constexpr (std::is_floating_point_v<decltype(value)>)
      out.add_row({name, fixed_cell(value)});
    else
      out.add_row({name, std::to_string(value)});
  };
  row("routing_cost", r.routing_cost);
  row("rotation_count", r.rotation_count);
  row("edge_changes", r.edge_changes);
  row("cross_shard", r.cross_shard);
  row("requests", r.requests);
  row("rebalance_epochs", r.rebalance_epochs);
  row("migrations", r.migrations);
  row("migration_cost", r.migration_cost);
  row("post_intra_fraction", r.post_intra_fraction);
  row("shard_splits", r.shard_splits);
  row("shard_merges", r.shard_merges);
  row("lifecycle_cost", r.lifecycle_cost);
  row("replica_reads", r.replica_reads);
  row("final_shards", r.final_shards);
  row("faults_injected", r.faults_injected);
  row("replica_promotions", r.replica_promotions);
  row("recovery_replayed", r.recovery_replayed);
  row("recovery_cost", r.recovery_cost);
  row("recovery_total_ms", r.recovery_total_ms);
  row("recovery_max_ms", r.recovery_max_ms);
  row("worker_kills", r.worker_kills);
  row("queue_pressure_events", r.queue_pressure_events);
  row("shed_requests", r.shed_requests);
  row("shed_queue_full", r.shed_queue_full);
  row("shed_throttled", r.shed_throttled);
  row("deadline_expired", r.deadline_expired);
  row("cross_shed", r.cross_shed);
  row("queue_full_blocks", r.queue_full_blocks);
  row("breaker_trips", r.breaker_trips);
  out.add_row({"schedule", schedule_policy_name(r.schedule)});
  row("reordered_requests", r.reordered_requests);
  row("total_cost", r.total_cost());
  row("grand_total_cost", r.grand_total_cost());
  row("avg_request_cost", r.avg_request_cost());
}

// What the open-loop frontend measures beyond SimResult; latencies in us.
void add_frontend_rows(Table& out, const FrontendResult& r) {
  const auto us = [](std::uint64_t ns) {
    return fixed_cell(static_cast<double>(ns) / 1e3);
  };
  out.add_row({"offered_rate", fixed_cell(r.offered_rate)});
  out.add_row({"achieved_rate", fixed_cell(r.achieved_rate)});
  out.add_row({"elapsed_seconds", fixed_cell(r.elapsed_seconds)});
  out.add_row({"sojourn_p50_us", us(r.sojourn.p50())});
  out.add_row({"sojourn_p99_us", us(r.sojourn.p99())});
  out.add_row({"sojourn_p999_us", us(r.sojourn.p999())});
  out.add_row({"sojourn_max_us", us(r.sojourn.max())});
  out.add_row({"queue_wait_p99_us", us(r.queue_wait.p99())});
  out.add_row({"handovers", std::to_string(r.handovers)});
  out.add_row({"forwards", std::to_string(r.forwards)});
  out.add_row({"route_epochs", std::to_string(r.route_epochs)});
  out.add_row({"shed_p99_us", us(r.shed.p99())});
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options o = parse(argc, argv);
    const Setup s = validate(o);

    // ---- source: a materialized trace unless --stream; the sharded
    // driver always pulls from a stream.
    std::optional<Trace> trace;
    std::unique_ptr<RequestStream> stream;
    if (!o.stream) {
      if (!o.trace_v2_path.empty())
        trace = read_trace_v2_file(o.trace_v2_path);
      else if (!o.trace_path.empty())
        trace = read_trace_file(o.trace_path);
      else
        trace = gen_workload(parse_workload(o.workload), o.n, o.requests,
                             o.seed);
      if (!o.dump_trace.empty()) write_trace_file(o.dump_trace, *trace);
      if (!o.dump_trace_v2.empty())
        write_trace_v2_file(o.dump_trace_v2, *trace);
      if (s.sharded) stream = std::make_unique<TraceStream>(*trace);
    } else if (!o.trace_v2_path.empty()) {
      stream = std::make_unique<TraceV2Reader>(o.trace_v2_path,
                                               TraceV2Reader::Backend::kMmap);
    } else {
      stream = std::make_unique<StreamingWorkload>(
          parse_workload(o.workload), o.n, o.requests, o.seed);
    }
    const int n = trace ? trace->n : stream->n();
    const bool sharded_net = s.sharded || o.shards > 1;
    FaultPlan faults;
    if (o.chaos)
      faults = gen_chaos_plan(o.chaos_seed, o.shards,
                              trace ? trace->size() : stream->size());
    else if (!o.fault.empty())
      faults = parse_fault_plan(o.fault);
    faults.recovery_slo_ms = o.recovery_slo;

    // ---- drivers: each leaves the network's name, its SimResult and, on a
    // sharded network with a materialized trace, the final load imbalance.
    std::string network;
    SimResult res;
    std::optional<FrontendResult> live;
    std::optional<double> imbalance;
    CostSeries series;  // per-request costs (plain FIFO replay only)
    std::optional<Cost> opt_cost;
    if (s.sharded) {
      ShardedNetwork net =
          ShardedNetwork::balanced(o.k, n, o.shards, s.partition,
                                   RotationPolicy{}, splay_mode(o));
      network = net.name();
      if (o.stream || o.open_loop)
        network += o.stream && o.open_loop ? " (streaming, open-loop)"
                   : o.stream              ? " (streaming)"
                                           : " (open-loop)";
      const RebalanceConfig* fleet = s.epochs ? &s.fleet : nullptr;
      const FaultPlan* fault_plan = faults.enabled() ? &faults : nullptr;
      if (o.open_loop) {
        FrontendOptions fopt;
        fopt.rebalance = fleet;
        fopt.faults = fault_plan;
        fopt.schedule = s.sched;
        fopt.queue_policy = s.queue_policy;
        fopt.deadline_ms = o.deadline_ms;
        fopt.admit_rate = o.admit_rate;
        StreamingArrivalSchedule arrivals(s.arrival, o.rate, o.seed);
        live = ServeFrontend(net, fopt).run_stream(*stream, arrivals);
        res = live->sim;
      } else {
        res = run_trace_sharded_stream(
            net, *stream,
            {.rebalance = fleet, .schedule = s.sched, .faults = fault_plan});
      }
      if (trace) {
        // Exactly what the Trace& adapters do after their stream engine.
        rescan_post_intra_fraction(*trace, net.map(), res);
        imbalance = compute_shard_stats(*trace, net.map()).load_imbalance();
      }
    } else {
      AnyNetwork net = make_network(o, s.partition, *trace, opt_cost);
      network = net.name();
      ShardedNetwork* sharded = net.get_if<ShardedNetwork>();
      if (s.sched.reorders()) {
        // The batch engines report totals: per-request percentiles are not
        // meaningful once the serve order is permuted.
        res = sharded ? run_trace_sharded(*sharded, *trace,
                                          {.schedule = s.sched})
                      : run_trace(net, *trace, s.sched);
      } else {
        // One visit hoists the variant dispatch out of the replay loop.
        net.visit([&](auto& nw) {
          for (const Request& r : trace->requests) {
            const ServeResult sr = nw.serve(r.src, r.dst);
            series.add(sr.total_cost());
            res.charge(sr);
          }
        });
        res.requests = trace->size();
      }
      if (sharded) {
        const ShardLocalityStats ss =
            compute_shard_stats(*trace, sharded->map());
        imbalance = ss.load_imbalance();
        if (!s.sched.reorders()) {  // the replay loop counts serves only
          res.cross_shard = sharded->cross_shard_served();
          res.post_intra_fraction = ss.intra_fraction();
          res.final_shards = sharded->num_shards();
        }
      }
      if (!o.dump_tree.empty())
        std::ofstream(o.dump_tree) << to_dot(tree_of(net));
    }

    // ---- report
    Table out({"metric", "value"});
    out.add_row({"network", network});
    out.add_row({"nodes", std::to_string(n)});
    if (sharded_net)
      out.add_row(
          {"shards", std::to_string(o.shards) + " (" + o.partition + ")"});
    if (s.sharded) {
      out.add_row({"rebalance", o.rebalance});
      out.add_row({"epoch", std::to_string(o.epoch)});
    }
    if (o.open_loop) {
      out.add_row({"arrival", arrival_kind_name(s.arrival)});
      out.add_row({"queue_policy", queue_policy_name(s.queue_policy)});
    }
    out.add_row({"trace_repeat_fraction",
                 trace ? fixed_cell(compute_stats(*trace).repeat_fraction)
                       : "-"});
    add_counter_rows(out, res);
    if (live) add_frontend_rows(out, *live);
    if (sharded_net)
      out.add_row({"shard_load_imbalance",
                   imbalance ? fixed_cell(*imbalance) : "-"});
    if (series.count() > 0) {
      out.add_row({"p50_cost", std::to_string(series.percentile(0.50))});
      out.add_row({"p99_cost", std::to_string(series.percentile(0.99))});
      out.add_row({"max_cost", std::to_string(series.max())});
    }
    if (o.optimal_gap) {
      // Everything the run spent — serving (routing + rotations, the
      // paper's cost convention) plus migration, lifecycle and recovery —
      // against the hindsight-optimal static k-ary tree for this exact
      // trace. The "optimal" topology serves at gap 1.000 by construction.
      const int gap_k = o.topology == "binary" ? 2 : o.k;
      const Cost opt =
          opt_cost ? *opt_cost : optimal_cost_for(*trace, gap_k);
      out.add_row({"optimal_static_cost", std::to_string(opt)});
      out.add_row({"optimality_gap",
                   opt > 0 ? fixed_cell(static_cast<double>(
                                            res.grand_total_cost()) /
                                        static_cast<double>(opt))
                           : std::string("-")});
    }
    if (faults.recovery_slo_ms > 0.0)
      out.add_row({"recovery_slo",
                   res.recovery_max_ms <= faults.recovery_slo_ms ? "met"
                                                                 : "MISSED"});
    std::cout << (o.csv ? out.to_csv() : out.to_markdown());
    if (!o.dump_tree.empty())
      std::cout << "final topology written to " << o.dump_tree << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
