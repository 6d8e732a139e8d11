#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/executor.hpp"
#include "core/splaynet.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "static_trees/optimal_dp.hpp"
#include "stats/table.hpp"
#include "workload/demand_matrix.hpp"
#include "workload/trace_stats.hpp"

namespace san::bench {
namespace {

std::string abs_cell(Cost v) { return std::to_string(v); }

}  // namespace

BenchCli& bench_cli() {
  static BenchCli cli;
  return cli;
}

void init_bench_cli(int argc, char** argv) {
  BenchCli& cli = bench_cli();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cli.smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      cli.json_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 0 || v > 4096) {
        std::cerr << "--threads must be an integer in [0, 4096] "
                     "(0 = all hardware threads)\n";
        std::exit(2);
      }
      cli.threads = static_cast<int>(v);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--json <path>] [--threads <N>]\n";
      std::exit(2);
    }
  }
}

int bench_threads() { return bench_cli().threads; }

int bench_threads_resolved() { return resolve_threads(bench_cli().threads); }

void write_json_result(const std::string& body) {
  const std::string& path = bench_cli().json_path;
  if (path.empty()) return;
  std::ofstream js(path);
  js << body;
  js.flush();  // surface write errors before the stream check, not in ~ofstream
  if (!js) {
    std::cerr << "failed to write " << path << "\n";
    std::exit(1);
  }
}

void run_kary_table(WorkloadKind kind, const PaperKaryTable& paper,
                    bool optimal_feasible) {
  const int n = node_count(kind);
  const std::size_t m = trace_length();
  std::cout << "== " << paper.workload << " workload: k-ary SplayNet vs "
            << "static full / optimal k-ary trees ==\n";
  std::cout << "n=" << n << " (paper: " << paper_node_count(kind)
            << "), requests=" << m << " (paper: 1000000)"
            << (full_scale() ? " [FULL SCALE]" : "") << "\n";

  const auto t0 = std::chrono::steady_clock::now();
  Trace trace = gen_workload(kind, n, m, bench_seed());
  const TraceStats st = compute_stats(trace);
  std::cout << "trace: repeat=" << fixed_cell(st.repeat_fraction) << ", "
            << "src entropy=" << fixed_cell(st.src_entropy, 2) << " bits, "
            << "distinct pairs=" << st.distinct_pairs << "\n\n";

  // Cost convention (paper Section 5): every routed hop and every rotation
  // costs one; static trees only pay routing.
  std::vector<Cost> splay_total(11, 0), full_total(11, 0), opt_total(11, 0);
  std::optional<DemandMatrix> demand;
  if (optimal_feasible) demand.emplace(DemandMatrix::from_trace(trace));

  for (int k = 2; k <= 10; ++k) {
    KArySplayNet net = KArySplayNet::balanced(k, n);
    SimResult online;
    for (const Request& r : trace.requests) {
      online.charge(net.serve(r.src, r.dst));
      ++online.requests;
    }
    splay_total[static_cast<size_t>(k)] = online.total_cost();
    full_total[static_cast<size_t>(k)] =
        run_trace_static(full_kary_tree(k, n), trace).routing_cost;
    if (optimal_feasible) {
      OptimalTreeResult opt =
          optimal_routing_based_tree(k, *demand, bench_threads());
      opt_total[static_cast<size_t>(k)] =
          run_trace_static(opt.tree, trace).routing_cost;
    }
  }

  std::vector<std::string> header = {"row"};
  for (int k = 2; k <= 10; ++k) header.push_back(std::to_string(k));
  Table out(header);

  auto paper_cells = [&](const char* label, const std::string& first,
                         const std::vector<const char*>& vals,
                         size_t offset) {
    std::vector<std::string> row = {std::string(label) + " (paper)"};
    row.push_back(first);
    for (size_t i = offset; i < vals.size(); ++i)
      row.push_back(vals[i] == nullptr || *vals[i] == '\0' ? "-" : vals[i]);
    return row;
  };

  {
    std::vector<std::string> row = {"SplayNet"};
    row.push_back(abs_cell(splay_total[2]));
    for (int k = 3; k <= 10; ++k)
      row.push_back(ratio_cell(static_cast<double>(splay_total[k]),
                               static_cast<double>(splay_total[2])));
    out.add_row(row);
    out.add_row(paper_cells("SplayNet",
                            std::to_string(paper.splaynet_k2_total),
                            paper.splay_ratio, 0));
  }
  {
    std::vector<std::string> row = {"Full Tree"};
    for (int k = 2; k <= 10; ++k)
      row.push_back(ratio_cell(static_cast<double>(splay_total[k]),
                               static_cast<double>(full_total[k])));
    out.add_row(row);
    std::vector<std::string> prow = {"Full Tree (paper)"};
    for (const char* c : paper.full_ratio)
      prow.push_back(c == nullptr || *c == '\0' ? "-" : c);
    out.add_row(prow);
  }
  {
    std::vector<std::string> row = {"Optimal Tree"};
    for (int k = 2; k <= 10; ++k)
      row.push_back(optimal_feasible
                        ? ratio_cell(static_cast<double>(splay_total[k]),
                                     static_cast<double>(opt_total[k]))
                        : "-");
    out.add_row(row);
    std::vector<std::string> prow = {"Optimal Tree (paper)"};
    for (const char* c : paper.optimal_ratio)
      prow.push_back(c == nullptr || *c == '\0' ? "-" : c);
    out.add_row(prow);
  }
  out.print();
  const double dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  std::cout << "(" << fixed_cell(dt, 1) << "s)\n\n";
}

}  // namespace san::bench
