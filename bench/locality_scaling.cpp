// Locality-aware batch scheduling vs FIFO on the unsharded k-ary SplayNet:
// serve throughput and total cost across tree sizes, with the adversarial
// cells reported as honestly as the wins.
//
// Grid: n in {10^4, 10^5, 10^6} x workload x {fifo, locality}. Workloads:
//   * skewed (ProjecToR-like sparse elephant pairs) — hot pairs cluster
//     under few LCAs, the case the reorder targets;
//   * zipf (Facebook-like independent Zipf endpoints) — wide-support skew,
//     large working set: at n >= 10^5 the tree no longer fits in cache;
//   * seqscan (cyclic neighbour walk) — the ADVERSARIAL cell: FIFO order
//     is exactly the splay-friendly sequential pattern (amortized O(1)
//     per request) and any locality reorder scrambles the chain the tree
//     is exploiting, so locality is expected to LOSE here;
//   * bitrev (bit-reversal pairs) — anti-locality arrivals, the mirror
//     case: arrival order maximizes jumps, so clustering has headroom.
//
// Each cell is one run_trace over a fresh balanced k=2 net (the locality
// runs use the default window=1024 config that san_cli --schedule
// locality picks). Ratios are per-(workload, n) against the
// FIFO cell. The checked-in BENCH_locality_scaling.json records this
// machine's numbers, losses included.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"

namespace {

using namespace san;

struct Row {
  std::string schedule;
  double seconds = 0;
  double req_per_sec = 0;
  double throughput_ratio = 1.0;  // vs the FIFO row of the same cell pair
  Cost total_cost = 0;
  double cost_ratio = 1.0;        // vs the FIFO row of the same cell pair
  double reordered_fraction = 0;
};

struct Cell {
  std::string workload;
  int n = 0;
  std::size_t requests = 0;
  std::vector<Row> rows;  // rows[0] = fifo, rows[1] = locality
};

Row run_row(const Trace& trace, int n, const ScheduleConfig& sched) {
  KArySplayNetwork net(KArySplayNet::balanced(2, n));
  const auto t0 = std::chrono::steady_clock::now();
  const SimResult res = run_trace(net, trace, sched);
  Row row;
  row.schedule = schedule_policy_name(sched.policy);
  row.seconds = bench::seconds_since(t0);
  row.req_per_sec = static_cast<double>(res.requests) / row.seconds;
  row.total_cost = res.total_cost();
  row.reordered_fraction =
      res.requests == 0 ? 0.0
                        : static_cast<double>(res.reordered_requests) /
                              static_cast<double>(res.requests);
  return row;
}

Cell run_cell(const char* label, WorkloadKind kind, int n) {
  const std::size_t m = bench::trace_length();
  Cell cell;
  cell.workload = label;
  cell.n = n;
  cell.requests = m;
  const Trace trace = gen_workload(kind, n, m, bench::bench_seed());

  cell.rows.push_back(run_row(trace, n, ScheduleConfig{}));
  ScheduleConfig locality;
  locality.policy = SchedulePolicy::kLocality;
  cell.rows.push_back(run_row(trace, n, locality));

  Row& fifo = cell.rows[0];
  Row& loc = cell.rows[1];
  loc.throughput_ratio = loc.req_per_sec / fifo.req_per_sec;
  loc.cost_ratio = static_cast<double>(loc.total_cost) /
                   static_cast<double>(fifo.total_cost);
  return cell;
}

void print_cell(const Cell& cell) {
  std::cout << "-- " << cell.workload << " (n=" << cell.n
            << ", requests=" << cell.requests << ", k=2) --\n";
  Table out({"schedule", "seconds", "req/s", "thpt ratio", "total cost",
             "cost ratio", "reordered"});
  for (const Row& r : cell.rows)
    out.add_row({r.schedule, fixed_cell(r.seconds, 3),
                 std::to_string(static_cast<long long>(r.req_per_sec)),
                 fixed_cell(r.throughput_ratio), std::to_string(r.total_cost),
                 fixed_cell(r.cost_ratio), fixed_cell(r.reordered_fraction)});
  out.print();
  std::cout << "\n";
}

void append_json(std::ostringstream& js, const Cell& cell, bool last) {
  js << "    {\n      \"workload\": \"" << cell.workload
     << "\",\n      \"n\": " << cell.n
     << ",\n      \"requests\": " << cell.requests << ",\n      \"rows\": [\n";
  for (std::size_t i = 0; i < cell.rows.size(); ++i) {
    const Row& r = cell.rows[i];
    js << "        {\"schedule\": \"" << r.schedule
       << "\", \"seconds\": " << fixed_cell(r.seconds, 4)
       << ", \"req_per_sec\": " << static_cast<long long>(r.req_per_sec)
       << ", \"throughput_ratio\": " << fixed_cell(r.throughput_ratio)
       << ", \"total_cost\": " << r.total_cost
       << ", \"cost_ratio\": " << fixed_cell(r.cost_ratio)
       << ", \"reordered_fraction\": " << fixed_cell(r.reordered_fraction)
       << "}" << (i + 1 < cell.rows.size() ? ",\n" : "\n");
  }
  js << "      ]\n    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);
  std::cout << "== locality scheduling: windowed LCA reorder vs FIFO ==\n";
  std::cout << "window=1024 (the san_cli --schedule locality default)\n\n";

  const std::vector<int> sizes =
      bench::bench_cli().smoke ? std::vector<int>{1000}
                               : std::vector<int>{10000, 100000, 1000000};
  struct WorkloadSpec {
    const char* label;
    WorkloadKind kind;
  };
  const WorkloadSpec kWorkloads[] = {
      {"skewed", WorkloadKind::kProjector},
      {"zipf", WorkloadKind::kFacebook},
      {"seqscan", WorkloadKind::kSequentialScan},
      {"bitrev", WorkloadKind::kBitReversal},
  };

  std::vector<Cell> cells;
  for (int n : sizes)
    for (const WorkloadSpec& w : kWorkloads)
      cells.push_back(run_cell(w.label, w.kind, n));
  for (const Cell& cell : cells) print_cell(cell);

  // Honest-loss summary: name every cell where the reorder hurt.
  std::cout << "locality losses (ratio vs fifo):\n";
  bool any_loss = false;
  for (const Cell& cell : cells) {
    const Row& loc = cell.rows[1];
    if (loc.throughput_ratio < 1.0 || loc.cost_ratio > 1.0) {
      any_loss = true;
      std::cout << "  " << cell.workload << " n=" << cell.n
                << ": throughput " << fixed_cell(loc.throughput_ratio)
                << "x, cost " << fixed_cell(loc.cost_ratio) << "x\n";
    }
  }
  if (!any_loss) std::cout << "  (none on this run)\n";
  std::cout << "\n";

  std::ostringstream js;
  js << "{\n  \"bench\": \"locality_scaling\",\n  \"k\": 2,\n"
     << "  \"window\": 1024,\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i)
    append_json(js, cells[i], i + 1 == cells.size());
  js << "  ]\n}\n";
  bench::write_json_result(js.str());
  return 0;
}
